import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frame_lab import (
    ContractError,
    DomainError,
    InfeasibleParameters,
    cis,
    filter_bank_from_A,
    g_map,
    hadamard_rho,
    little_m,
    rho_bank,
    solve_alpha,
    verify_nogo_mu3,
)
from frame_lab.filters import a_to_h, matrix_from_json, matrix_to_json
from oracles import little_m_reduced

S2 = 2**-0.5

unit_st = st.floats(0, 1, exclude_max=True).map(lambda x: cmath.exp(2j * cmath.pi * x))


def test_hadamard_rho_rows():
    A = hadamard_rho(1.0)
    assert np.allclose(A[1], [0.5, 0.5, 0.5, 0.5])
    A = hadamard_rho(-1.0)
    assert np.allclose(A[3], [0.5, 0.5, 0.5, 0.5])
    A = hadamard_rho(1j)
    assert np.allclose(A[1], [0.5, 0.5, 0.5j, 0.5j])


def test_hadamard_rho_rejects_non_unit():
    with pytest.raises(DomainError):
        hadamard_rho(0.5)


@given(unit_st)
@settings(max_examples=80)
def test_rho_family_admissible(rho):
    bank = rho_bank(rho)
    assert bank.admissible
    assert bank.checks["unitarity_max_dev"] <= 1e-12


def test_first_row_violation_reported_not_raised():
    A = hadamard_rho(1.0).copy()
    A[0] = [1, 0, 0, 0]
    bank = filter_bank_from_A(A)
    assert not bank.admissible
    assert not bank.checks["first_row_ok"]


def test_sign_pattern_positions():
    A = np.arange(16, dtype=complex).reshape(4, 4) + 1
    H = a_to_h(A)
    flipped = {(j, k) for j in range(4) for k in range(4) if H[j, k] != A[j, k]}
    assert flipped == {(1, 1), (1, 3), (3, 1), (3, 3)}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_sign_round_trip(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(a_to_h(a_to_h(A)), A)


def test_solve_alpha_degenerate_concrete():
    bank = solve_alpha(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert bank.admissible
    assert bank.checks["degenerate"]
    assert bank.checks["lambda_coupling"] is None


def test_solve_alpha_example_bank():
    bank = solve_alpha(S2, S2, S2, 0.0, 0.0, 1.0)
    assert bank.admissible
    lam = bank.checks["lambda_coupling"]
    assert abs(lam - (-1.0)) < 1e-12
    # oracle: the full unitarity product
    H = bank.H
    assert np.max(np.abs(H.conj().T @ H - np.eye(4))) < 1e-12


def test_solve_alpha_duality_violation():
    with pytest.raises(InfeasibleParameters) as err:
        solve_alpha(0.5, 0.5, 0.5, 0.0, 0.0, 1.0)
    assert err.value.constraint == "duality"


def test_solve_alpha_row_norm_violation():
    with pytest.raises(InfeasibleParameters) as err:
        solve_alpha(S2, S2, 1.0, 0.0, 0.0, 1.0)
    assert err.value.constraint == "row1_norm"


def test_solve_alpha_orthogonality_violation():
    with pytest.raises(InfeasibleParameters) as err:
        solve_alpha(S2, S2, S2, 0.0, 1.0, 0.0)
    assert err.value.constraint == "row12_orthogonality"


def _random_feasible_alpha(rng):
    r = math.sqrt(rng.uniform())
    a10 = r * cmath.exp(2j * math.pi * rng.uniform())
    a30 = math.sqrt(1.0 - r * r) * cmath.exp(2j * math.pi * rng.uniform())
    fill = math.sqrt(max(1.0 - r * r, 0.0))
    w = cmath.exp(2j * math.pi * rng.uniform())
    a11, a12 = fill * w * S2, fill * w * S2 * 1j
    if fill > 1e-12:
        phase = cmath.exp(2j * math.pi * rng.uniform())
        scale = math.hypot(abs(a11), abs(a12))
        a21 = -phase * a12.conjugate() / scale
        a22 = phase * a11.conjugate() / scale
    else:
        a21, a22 = 1.0, 0.0
    return a10, a30, a11, a12, a21, a22


def test_solve_alpha_randomized_feasible_parameters():
    rng = np.random.default_rng(20250810)
    for _ in range(100):
        bank = solve_alpha(*_random_feasible_alpha(rng), tol=1e-9)
        assert bank.admissible
        assert bank.checks["unitarity_max_dev"] <= 1e-12


def test_little_m_basics(bank_one, bank_i):
    assert abs(little_m(bank_one, 0, 0) - 1.0) < 1e-15
    assert abs(little_m(bank_one, 1, 0)) < 1e-15
    assert abs(little_m(bank_i, 2, 0)) < 1e-15


def test_little_m_forms_agree(bank_i, bank_pq):
    for bank in (bank_i, bank_pq):
        for t in np.linspace(-3, 3, 61):
            for j in range(4):
                assert abs(little_m(bank, j, float(t)) - little_m_reduced(bank, j, float(t))) < 1e-12


def test_little_m_partition_of_unity(bank_one, bank_i, bank_minus_one, bank_pq):
    for bank in (bank_one, bank_i, bank_minus_one, bank_pq):
        for t in np.linspace(-2, 2, 41):
            total = sum(abs(little_m(bank, j, float(t))) ** 2 for j in range(4))
            assert abs(total - 1.0) < 1e-12


def test_little_m_requires_admissible():
    A = hadamard_rho(1.0).copy()
    A[0] = [1, 0, 0, 0]
    bank = filter_bank_from_A(A)
    with pytest.raises(ContractError):
        little_m(bank, 0, 0.0)


def test_g_map_values():
    assert g_map(0, 0) == 0
    assert g_map(3, 3) == 0
    assert g_map(1, 0) == -0.25


def test_verify_nogo_mu3():
    check = verify_nogo_mu3()
    m = check.metrics
    assert m["output_vector"] == [1, 0, 0, 0]
    assert abs(m["input_norm"] - math.sqrt(2.0)) < 1e-15
    assert abs(m["output_norm"] - 1.0) < 1e-15
    assert m["norm_gap"] > 0.41
    assert check.passed
    # the row phase factors 1 + e^{4 pi i j/3}: the third is exactly 2, none is small
    factors = [1.0 + complex(cis(2 * j % 3 / 3)) for j in (1, 2, 3)]
    assert factors[2] == 2.0
    assert all(abs(f) > 0.9 for f in factors)
    assert m["min_phase_factor_abs"] == min(abs(f) for f in factors) > 0.9


def test_matrix_json_round_trip(bank_i):
    text = matrix_to_json(bank_i.A)
    back = matrix_from_json(text)
    assert np.array_equal(back, bank_i.A)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(DomainError):
        matrix_from_json('{"rows": [[{"re": 1, "im": 0}]]}')
