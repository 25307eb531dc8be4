import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frame_lab import filters
from frame_lab.cuntz import verify_cuntz, verify_gram
from frame_lab.errors import DomainError
from frame_lab.filters import (
    _SWEEP_PASS,
    DEFAULT_UNITARITY_TOL,
    U1,
    U2,
    U3,
    FilterBank,
    a_to_h,
    deviations,
    g_map,
    hadamard_rho,
    little_m,
    matrix_from_json,
    matrix_to_json,
    pq_bank,
    rho_bank,
    solve_alpha,
    verify_nogo_mu3,
    verify_unitarity,
)
from frame_lab.frames import (
    parseval_trace,
    verify_incomplete,
    verify_parseval,
    verify_projection,
    verify_ruelle,
)
from frame_lab.transform import cis, mu4_hat_array
from oracles import little_m_reduced, matmul_deviations

S2 = 2**-0.5


def _unitarity_dev(bank):
    """The oracle: the full unitarity product of the bank's H."""
    return matmul_deviations(bank.A)["unitarity"]


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
    assert _unitarity_dev(rho_bank(rho)) <= 1e-12


def _inadmissible(condition):
    """hadamard_rho(1) with one admissibility condition broken, and none of
    those the constructor checks before it; and that condition's deviation."""
    A = hadamard_rho(1.0).copy()
    if condition == "first_row":
        A[0] = [1, 0, 0, 0]
        return A, 0.5
    if condition == "kernel":
        A[1, 0] = 3.0
        return A, 2.5
    A[1] *= 1.001  # row 1 is off unit norm; its kernel sums stay equal
    return A, (1.001**2 - 1) / 4


@pytest.mark.parametrize("condition", ["first_row", "kernel", "unitarity"])
def test_inadmissible_matrix_is_refused_but_measured(condition):
    # no bank can be built from it, so no operator ever sees it; the
    # unitarity check still measures it and fails
    A, dev = _inadmissible(condition)
    pattern = rf"^infeasible parameters: {condition} violated \(off by "
    with pytest.raises(DomainError, match=pattern) as err:
        FilterBank(A)
    assert len(str(err.value).splitlines()) == 1
    check = verify_unitarity(16, 1e-12, A)
    assert not check.passed
    metric = {"first_row": "first_row_max_dev", "kernel": "kernel_max_dev"}.get(
        condition, "max_dev"
    )
    assert check.metrics[metric] == pytest.approx(dev)


def test_first_row_violation_reported_not_raised():
    # no bank can be built from this matrix, but the unitarity check
    # measures it and reports the broken first row as a failed Check
    A = hadamard_rho(1.0).copy()
    A[0] = [1, 0, 0, 0]
    check = verify_unitarity(16, 1e-12, A)
    assert not check.passed
    assert check.metrics["first_row_max_dev"] == 0.5


def _test_matrices(count: int, seed: int = 0) -> np.ndarray:
    """Banks of the rho family, solver banks, and matrices with entries of
    modulus below 1/2, admissible or not."""
    rng = np.random.default_rng(seed)
    rho = np.exp(2j * np.pi * rng.random(count))
    a10 = np.exp(2j * np.pi * rng.random(count)) * rng.random(count)
    a30 = np.sqrt(1 - np.abs(a10) ** 2)
    solver = [
        solve_alpha(p, q, math.sqrt(1 - abs(p) ** 2), 0.0, 0.0, 1.0).A for p, q in zip(a10, a30)
    ]
    re, im = rng.random((2, count, 4, 4)) - 0.5
    return np.concatenate([hadamard_rho(rho), solver, (re + 1j * im) / math.sqrt(2)])


def test_deviations_match_the_matmul_oracle():
    # H*H summed over the rows in order against the matrix product, within
    # four rounding units; first_row and kernel are the same formula
    for A in _test_matrices(300):
        got, expected = deviations(A), matmul_deviations(A)
        assert got.keys() == expected.keys()
        assert abs(got["unitarity"] - expected["unitarity"]) <= 4 * 2**-52
        assert got["first_row"] == expected["first_row"]
        assert got["kernel"] == expected["kernel"]


def test_deviations_of_a_stack_give_each_matrix_its_own_bits():
    stack = _test_matrices(300, seed=1)
    got = deviations(stack)
    for k, A in enumerate(stack):
        for name, dev in deviations(A).items():
            assert got[name][k] == dev


@pytest.mark.parametrize("samples", [1, 16, _SWEEP_PASS + 1])
def test_batched_unitarity_sweep_matches_the_per_bank_loop(samples):
    rhos = [complex(np.exp(2j * np.pi * m / samples)) for m in range(samples)]
    stack = hadamard_rho(rhos)
    assert all(np.array_equal(stack[m], hadamard_rho(rho)) for m, rho in enumerate(rhos))
    loop = max(float(deviations(hadamard_rho(rho))["unitarity"]) for rho in rhos)
    assert verify_unitarity(samples, 1e-12).metrics["max_dev"] == loop


# Every library call that takes a tolerance, on small valid inputs otherwise.
_TOL_CALLS = {
    "unitarity": lambda tol: verify_unitarity(16, tol),
    "unitarity_matrix": lambda tol: verify_unitarity(1, tol, A=hadamard_rho(1.0)),
    "gram": lambda tol: verify_gram(rho_bank(1j), 1, tol),
    "cuntz": lambda tol: verify_cuntz(rho_bank(1j), 1, 2, 0, tol),
    "projection": lambda tol: verify_projection(rho_bank(1j), 1, tol),
    "parseval": lambda tol: verify_parseval(parseval_trace([(3, 1.0)], rho_bank(1j), 16), tol),
    "ruelle": lambda tol: verify_ruelle(rho_bank(1j), [-0.5], 1, tol),
    "incomplete": lambda tol: verify_incomplete(rho_bank(-1.0), [1], 16, tol),
    "transform": lambda tol: mu4_hat_array([0.5, 2.0], tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", _TOL_CALLS)
def test_every_check_refuses_a_tolerance_that_is_not_positive_and_finite(call, tol):
    # no result meets a bound <= 0, and every result meets a nan or infinite
    # one: a check would pass vacuously
    with pytest.raises(DomainError, match=f"^tolerance must be positive and finite, got {tol!r}$"):
        _TOL_CALLS[call](tol)


def test_unitarity_sweeps_every_pass(monkeypatch):
    # the bank at m = 2053 of 4096, in the second pass of the sweep, scaled
    # by 1.001: its H*H is 1.002001 I, and the check fails on it alone
    original = filters.hadamard_rho
    defective = np.exp(1j * (2 * np.pi * 2053 / 4096))

    def hadamard_rho(rho):
        A = original(rho)
        A[np.asarray(rho) == defective] *= 1.001
        return A

    monkeypatch.setattr(filters, "hadamard_rho", hadamard_rho)
    check = verify_unitarity(4096, 1e-12)
    assert not check.passed
    assert check.metrics["max_dev"] == pytest.approx(1.001**2 - 1.0, rel=1e-9)


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
    # |a10| = 1: row 3 of H is -conj(a22) U2 + conj(a21) U3
    a21, a22 = 1.0, 0.0
    bank = solve_alpha(1.0, 0.0, 0.0, 0.0, a21, a22)
    want = -np.conj(a22) * U2 + np.conj(a21) * U3
    assert np.max(np.abs(a_to_h(bank.A)[3] - want)) < 1e-15
    assert _unitarity_dev(bank) < 1e-12
    gram = verify_gram(pq_bank(1.0, 0.0), 3, 1e-8)  # the same branch from the (p, q) family
    assert gram.passed and gram.metrics["max_offdiag"] == 0.0


def test_solve_alpha_example_bank():
    # row 3 of H is a30 U1 + lambda a11 U2 (a12 = 0) with lambda = -1
    a30, a11, lam = S2, S2, -1.0
    bank = solve_alpha(S2, a30, a11, 0.0, 0.0, 1.0)
    assert np.max(np.abs(a_to_h(bank.A)[3] - (a30 * U1 + lam * a11 * U2))) < 1e-12
    assert _unitarity_dev(bank) < 1e-12


@pytest.mark.parametrize(
    "alpha, constraint, message",
    [
        ((0.5, 0.5, 0.5, 0.0, 0.0, 1.0), "duality", "|a10|^2 + |a30|^2 = 1 off by 0.5"),
        ((S2, S2, 1.0, 0.0, 0.0, 1.0), "row1_norm", "|a10|^2+|a11|^2+|a12|^2 = 1 off by 0.5"),
        ((S2, S2, S2, 0.0, 0.5, 0.5), "row2_norm", "|a21|^2+|a22|^2 = 1 off by 0.5"),
        ((S2, S2, S2, 0.0, 1.0, 0.0), "row12_orthogonality",
         "a11*conj(a21)+a12*conj(a22) = 0 off by 0.707"),
        # abs of the orthogonality sum overflows here: the norm guard refuses first
        ((1.0, 0.0, 1.7e308, 0.0, 1 + 1j, 0.0), "row1_norm",
         "|a10|^2+|a11|^2+|a12|^2 = 1 off by inf"),
    ],
    ids=["duality", "row1_norm", "row2_norm", "row12_orthogonality", "row1_norm_before_overflow"],
)
def test_solve_alpha_guards(alpha, constraint, message):
    # the guards run in order, each names its constraint and the identity it measures
    with pytest.raises(DomainError) as err:
        solve_alpha(*alpha)
    assert str(err.value) == f"infeasible parameters: {constraint} violated ({message})"


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
        bank = solve_alpha(*_random_feasible_alpha(rng))
        assert _unitarity_dev(bank) <= 1e-12


# Parts of a parameter: the extremes (non-finite, a modulus that overflows,
# a square that underflows or only just fits) and the parts of known banks.
_PART = st.sampled_from(
    [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 5e-324, 1e154, 0.0, 1.0, -1.0, 0.5, S2, 0.6, 0.8]
)
_Z = st.builds(complex, _PART, _PART)


@st.composite
def _bank_call(draw):
    """A builder and its arguments: rho_bank and pq_bank on drawn values,
    solve_alpha and FilterBank on a known bank with some values replaced."""
    kind = draw(st.sampled_from(["rho", "pq", "alpha", "matrix"]))
    if kind == "rho":
        return rho_bank, (draw(_Z),)
    if kind == "pq":
        return pq_bank, (draw(_Z), draw(_Z))
    if kind == "alpha":
        alpha = [S2, S2, S2, 0.0, 0.0, 1.0]
        for i in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)):
            alpha[i] = draw(_Z)
        return solve_alpha, tuple(alpha)
    A = hadamard_rho(draw(st.sampled_from([1.0, 1j, -1.0])))
    for j, k in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3)):
        A[j, k] = draw(_Z)
    return FilterBank, (A,)


@given(call=_bank_call())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_bank_builder_refuses_or_returns_an_admissible_bank(call):
    # on extreme values a builder raises DomainError, which the CLI maps to
    # exit 2, or returns a bank that passes the unitarity check on its
    # matrix; no other exception (a CapacityError included), and no
    # warning, escapes it
    build, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            bank = build(*args)
        except DomainError:
            return
    assert verify_unitarity(1, DEFAULT_UNITARITY_TOL, A=bank.A).passed


def test_little_m_basics(bank_one, bank_i):
    assert abs(little_m(bank_one, 0, 0) - 1.0) < 1e-15
    assert abs(little_m(bank_one, 1, 0)) < 1e-15
    assert abs(little_m(bank_i, 2, 0)) < 1e-15


def test_little_m_broadcasts_filter_indices_against_t(bank_i, bank_pq):
    # an array of filter indices gives each index's scalar value bit for bit
    t = np.random.default_rng(7).uniform(-9, 9, 50)
    for bank in (bank_i, bank_pq):
        got = little_m(bank, np.arange(4), t[:, None])
        want = np.stack([little_m(bank, j, t) for j in range(4)], axis=1)
        assert got.shape == (50, 4)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for j in (4, -1, 1.0, True, [0, 4]):
        with pytest.raises(DomainError):
            little_m(bank_i, j, 0.0)


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


def test_little_m_requires_admissible(bank_one):
    # little_m has no guard of its own: an inadmissible matrix never becomes
    # a bank, and a bank's matrix cannot be broken after it is built
    A = hadamard_rho(1.0).copy()
    A[0] = [1, 0, 0, 0]
    with pytest.raises(DomainError, match="^infeasible parameters: first_row violated "):
        FilterBank(A)
    with pytest.raises(ValueError):
        bank_one.A[0] = [1, 0, 0, 0]
    with pytest.raises(AttributeError):
        bank_one.A = A
    with pytest.raises(AttributeError):
        del bank_one.A
    assert little_m(bank_one, 0, 0.0) == 1


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
    # the scale-4 control: factors 0, 2, 0 force d_2 = 0 alone, and the
    # rho = 1 bank keeps (1, 1, 0, 0) with its norm
    assert m["control_min_phase_factor_abs"] == 0.0
    assert m["control_output_vector"] == [1, 1, 0, 0]
    assert m["control_output_norm"] == m["input_norm"]
    assert m["control_norm_gap"] == 0.0


def test_verify_nogo_mu3_fails_when_every_row_is_forced(monkeypatch):
    # a threshold below every phase factor forces rows 1 to 3 at scale 4 as
    # well, so the control reads an obstruction too
    monkeypatch.setattr(filters, "NOGO_MIN_PHASE_FACTOR", -1.0)
    check = verify_nogo_mu3()
    assert check.metrics["control_output_vector"] == [1, 0, 0, 0]
    assert not check.passed


def test_matrix_json_round_trip(bank_i):
    text = matrix_to_json(bank_i.A)
    back = matrix_from_json(text)
    assert np.array_equal(back, bank_i.A)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(DomainError):
        matrix_from_json('{"rows": [[{"re": 1, "im": 0}]]}')
