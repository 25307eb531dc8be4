import cmath
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frame_lab import frames
from frame_lab.atoms import concat, renumber
from frame_lab.cli import main
from frame_lab.cuntz import generated_family, verify_cuntz, verify_gram
from frame_lab.errors import CapacityError, DomainError
from frame_lab.filters import FilterBank, pq_bank, rho_bank
from frame_lab.frames import (
    _CSV_BLOCK,
    MAX_ENUM_LEN,
    SPECIALIZATION_TOL,
    PartialSumTrace,
    _digit_counts,
    h_partial,
    parseval_trace,
    verify_incomplete,
    verify_parseval,
    verify_projection,
    verify_ruelle,
    weight_table,
    write_trace_csv,
    write_weight_table,
)
from frame_lab.report import Check
from frame_lab.transform import cis
from oracles import (
    H4_AT_MINUS_HALF_RHO_M1,
    ONE,
    PQ_E2_CHECKPOINTS,
    RHO_M1_E1_AT_256,
    S_E1_RHO_M1_AT_4POW8,
    Word4,
    apply_word,
    build_sum,
    c_of_word,
    dense_parseval_trace,
    dense_write_weight_table,
    digit_counts,
    enumerate_X4,
    frame_weight,
    mu4_hat,
    oracle_h_partial,
    oracle_h_partial_dense,
    oracle_project_V,
    oracle_trace_checkpoints,
    oracle_write_trace_csv,
    oracle_write_weight_table,
    projection_weight,
    s_word_one,
    word_of_index,
)

S2 = 2**-0.5

# the five banks of the certification menu, each with its parseval gamma
MENU = {
    "rho_one": (rho_bank(1.0), 0),
    "rho_i": (rho_bank(1j), 0),
    "rho_minus_one": (rho_bank(-1.0), 1),
    "pq_balanced": (pq_bank(S2, S2), 0),
    "pq_lopsided": (pq_bank(0.6, 0.8), 0),
}

GAMMA4_UP_TO_21 = [0, 1, 4, 5, 16, 17, 20, 21]
GAMMA3_UP_TO_15 = [0, 3, 12, 15]


def test_family_banks_refuse_infeasible_parameters():
    with pytest.raises(DomainError):
        rho_bank(0.5)
    with pytest.raises(DomainError, match="^infeasible parameters: duality violated "):
        pq_bank(1.0, 1.0)


@pytest.mark.parametrize(
    "p,q", [(S2, S2), (0.6, 0.8), (-0.6, 0.8), (0.6j, 0.8), (1.0, 0.0), (0.0, 1.0)]
)
def test_pq_bank_digit_weights_are_the_family(p, q):
    # assembling A rounds: d_1 is 0.7071067811865475 for p = S2 and
    # 0.5999999999999999 for p = 0.6
    got = pq_bank(p, q).digit_weights
    assert max(abs(g - w) for g, w in zip(got, (1.0, p, 0.0, q))) <= 2.3e-16


def test_frame_weight_at_zero():
    for p, q in (((1 + 1j) / 2, (1 - 1j) / 2), (0.6, 0.8)):
        assert frame_weight(p, q, 0) == 1


def test_frame_weight_rho_one_is_digit01_indicator():
    support = [n for n in range(22) if abs(frame_weight(1.0, 0.0, n)) > 0]
    assert support == GAMMA4_UP_TO_21
    assert all(frame_weight(1.0, 0.0, n) == 1 for n in support)


def test_frame_weight_rho_minus_one_is_digit03_indicator():
    support = [n for n in range(16) if abs(frame_weight(0.0, 1.0, n)) > 0]
    assert support == GAMMA3_UP_TO_15
    assert all(frame_weight(0.0, 1.0, n) == 1 for n in support)


def test_frame_weight_pq_value():
    assert abs(frame_weight(S2, S2, 5) - 0.5) < 1e-15


def test_frame_weight_rejects_negative():
    with pytest.raises(DomainError):
        frame_weight(1.0, 0.0, -1)


@given(st.floats(0, 1, exclude_max=True), st.integers(0, 4**6))
@settings(max_examples=200)
def test_rho_bank_weights_are_the_rho_family(angle, n):
    # the rho bank's digit weights give p = (1 + rho)/2, q = (1 - rho)/2
    rho = cmath.exp(2j * cmath.pi * angle)
    _, p, _, q = rho_bank(rho).digit_weights
    assert abs(frame_weight(p, q, n) - frame_weight((1 + rho) / 2, (1 - rho) / 2, n)) < 1e-12


@given(st.floats(0, 1, exclude_max=True), st.integers(0, 4**6))
@settings(max_examples=200)
def test_weight_modulus_bounded(angle, n):
    rho = cmath.exp(2j * cmath.pi * angle)
    assert abs(frame_weight((1 + rho) / 2, (1 - rho) / 2, n)) <= 1 + 1e-12


def _unchecked(A):
    """A bank holding A, set after construction, so the admissibility check
    does not see it: a stand-in for an operator defect."""
    bank = object.__new__(FilterBank)
    object.__setattr__(bank, "A", A)
    return bank


def _scaled(bank, j: int, k: int, factor: float):
    """The bank with a_jk times factor, unchecked."""
    A = bank.A.copy()
    A[j, k] *= factor
    return _unchecked(A)


def test_project_constant():
    assert oracle_project_V(ONE) == {0: {(0.0, ()): 1}}


def test_projection_formula_word_vectors(bank_i):
    # every one of the 2^K x cylinders totals d_omega at c(omega), and no
    # other frequency appears
    for w in enumerate_X4(3):
        totals = oracle_project_V(s_word_one(bank_i, w))[0]
        assert {freq for freq, _ in totals} == {c_of_word(w)}
        assert len(totals) == 2 ** len(w)
        d = projection_weight(bank_i, w)
        assert max(abs(total - d) for total in totals.values()) < 1e-12


def test_project_batch_of_mixed_levels(bank_i):
    # words of lengths 0..3 in one batch: every vector is refined to level 3,
    # so each has 2^3 x cylinders
    words = [Word4(()), Word4((2,)), Word4((1, 3)), Word4((3, 0, 1))]
    batch = concat(*(renumber(apply_word(bank_i, w, ONE), 1, v) for v, w in enumerate(words)))
    totals = oracle_project_V(batch)
    assert sorted(totals) == [0, 1, 2, 3]
    for v, w in enumerate(words):
        assert {freq for freq, _ in totals[v]} == {c_of_word(w)}
        assert len(totals[v]) == 8
        d = projection_weight(bank_i, w)
        assert max(abs(total - d) for total in totals[v].values()) < 1e-12


def test_projection_weight_vanishes_on_digit_two(bank_i):
    totals = oracle_project_V(s_word_one(bank_i, Word4((2,))))[0]
    assert totals == {(2.0, (0,)): 0, (2.0, (2,)): 0}
    assert abs(bank_i.digit_weights[2]) == 0


def _oracle_residual(n: int, row: np.ndarray, weights: np.ndarray) -> float:
    """verify_projection's residual on one word's coefficient row, from the
    x-cylinder totals of oracle_project_V: a cylinder without a total reads 0."""
    K = (len(row).bit_length() - 1) // 2
    F = build_sum([(row[u], n, u, K) for u in np.flatnonzero(row).tolist()])
    totals = oracle_project_V(F).get(0, {})
    return max(abs(totals.get((n, x), 0j) - weights[n]) for x in product((0, 2), repeat=K))


@pytest.mark.parametrize("level", range(4))
def test_project_V_matches_the_per_vector_oracle(monkeypatch, bank_pq, level):
    # verify_projection's y sums against the oracle's per-atom totals, one
    # word at a time, on random rows of length-K words (K = level + 1) with
    # half their entries zero, so that some x cylinders hold nothing, and on
    # every row of generated_family up to length K
    K = level + 1
    support, d = weight_table(bank_pq.digit_weights, 4**K - 1)
    weights = np.zeros(4**K, dtype=complex)
    weights[support] = d
    rng = np.random.default_rng(level)
    lo = 4**level if level else 0
    n = np.arange(lo, min(lo + 8, 4**K))
    coeff = rng.standard_normal((len(n), 4**K)) + 1j * rng.standard_normal((len(n), 4**K))
    coeff[rng.random(coeff.shape) < 0.5] = 0
    batches = [(n, coeff), *generated_family(bank_pq, K)]
    for n, coeff in batches:
        for i in range(len(n)):
            word = (n[i : i + 1], coeff[i : i + 1])
            monkeypatch.setattr(frames, "generated_family", lambda bank, max_len: iter([word]))
            got = verify_projection(bank_pq, K, 1.0).metrics["max_weight_dev"]
            assert got == _oracle_residual(int(n[i]), coeff[i], weights)


@pytest.mark.parametrize(
    "pairs", [(0, 2), (1, 3)], ids=["one_of_two_x_cylinders", "the_other_x_cylinder"]
)
def test_projection_residual_reads_a_wrong_shape_or_frequency(monkeypatch, bank_i, pairs):
    """Word 0 with one of its two x cylinders emptied (its pairs k, of x
    digit 2 (k & 1), set to 0) totals 0 there: a residual of |d_0| = 1 of
    the check, not an error. A wrong frequency cannot be fed: a row of a
    batch is at its word's frequency n by construction, and every atom of
    the operator recursion sits at n (test_generated_family_matches_apply_word)."""
    n, coeff = next(generated_family(bank_i, 1))
    coeff[0, list(pairs)] = 0
    monkeypatch.setattr(frames, "generated_family", lambda bank, max_len: iter([(n, coeff)]))
    check = verify_projection(bank_i, 1, 1e-10)
    assert not check.passed
    assert check.metrics["max_weight_dev"] == 1.0


# each check at a size that reads every entry of the bank
_DEFECT_CHECKS = {
    "projection": lambda bank, tol: verify_projection(bank, 4, tol),
    "cuntz": lambda bank, tol: verify_cuntz(bank, 2, 20, 0, tol),
    "gram": lambda bank, tol: verify_gram(bank, 3, tol),
}


@pytest.mark.parametrize("entry", [(1, 0), (1, 1), (3, 2)], ids=["a10", "a11", "a32"])
@pytest.mark.parametrize("name", ["rho_i", "pq_lopsided"])
def test_projection_fails_on_a_defect_of_one_entry(name, entry):
    # an entry scaled by 1 + eps moves the x cylinder it feeds, in every word
    # that reads it, by about eps |a_jk| against the others (0.5 eps for every
    # entry of rho = i; a_11 of the (0.6, 0.8) bank is -0.1), and the Cuntz
    # and Gram residuals by more than a quarter of that; the clean bank passes
    # at a tenth of the smaller tolerance
    bank = MENU[name][0]
    a = abs(bank.A[entry])
    for kind, check in _DEFECT_CHECKS.items():
        assert check(bank, 1e-12 * a / 40).passed, kind
        for eps in (1e-12, 1e-9):
            got = check(_scaled(bank, *entry, 1 + eps), eps * a / 4)
            assert not got.passed, (kind, eps)
            if kind == "projection":
                assert got.metrics["max_weight_dev"] >= eps * a


def test_weight_consistency_between_modes():
    families = [
        (rho_bank(1.0), 1.0, 0.0),
        (rho_bank(1j), (1 + 1j) / 2, (1 - 1j) / 2),
        (pq_bank(0.6, 0.8), 0.6, 0.8),
    ]
    for bank, p, q in families:
        for w in enumerate_X4(3):
            assert abs(projection_weight(bank, w) - frame_weight(p, q, c_of_word(w))) < 1e-12


@pytest.mark.parametrize(
    "flags,bank",
    [
        (["--rho-re", "1"], rho_bank(1.0)),
        (["--rho-re", "-1"], rho_bank(-1.0)),
        (["--rho-im", "1"], rho_bank(complex(0.0, 1.0))),
        (["--rho-re", "0.5", "--rho-im", "0.8660254037844386"],
         rho_bank(complex(0.5, 0.8660254037844386))),
        (["--p-re", "0.6", "--q-re", "0.8"], pq_bank(0.6, 0.8)),
        (["--p-re", "-0.6", "--q-re", "0.8"], pq_bank(-0.6, 0.8)),
    ],
    ids=["rho_one", "rho_minus_one", "rho_i", "rho_pi_over_3", "pq", "pq_negative_p"],
)
def test_weight_table_csv_matches_oracle_bytes(tmp_path, capsys, flags, bank):
    # every row against the closed form p^l1 0^l2 q^l3 per n, bit for bit,
    # (p, q) = (d_1, d_3) the bank's digit weights
    n_max = 4**6 + 5
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    assert main(["weights", *flags, "--n-max", str(n_max), "--out", str(got)]) == 0
    report = json.loads(capsys.readouterr().out)
    nonzero = oracle_write_weight_table(expected, *bank.digit_weights[1::2], n_max)
    assert got.read_bytes() == expected.read_bytes()
    assert report["metrics"]["nonzero_weights"] == nonzero


@pytest.mark.parametrize("n_max", [0, 3, 4, 63, 64, 65, 4**5 + 3])
def test_weight_table_lists_the_support_with_its_counts(n_max):
    # (1, 0.5, 0.25j, -0.5) has a nonzero digit-2 weight; (1, 0, 0, 1) is p = 0
    specs = [(1.0, 0.5, 0.25j, -0.5), (1.0, 0.0, 0.0, 1.0), pq_bank(-0.6, 0.8).digit_weights]
    for w in specs:
        n, d = weight_table(w, n_max)
        words = [word_of_index(k) for k in range(n_max + 1)]
        support = [k for k, word in enumerate(words) if all(w[j] != 0 for j in word)]
        assert n.tolist() == support
        assert [tuple(c) for c in _digit_counts(n).tolist()] == [digit_counts(k) for k in support]
        expected = [np.prod([complex(w[j]) for j in words[k]]) for k in support]
        assert np.max(np.abs(d - expected), initial=0.0) <= 1e-15


def test_kernel_input_guards(bank_one):
    with pytest.raises(DomainError):
        parseval_trace([(2**53, 1.0)], bank_one, 4)
    with pytest.raises(DomainError):
        h_partial(0.0, bank_one, 0)
    # its own cap: the message names max_len, not the n_max it implies
    with pytest.raises(CapacityError, match=f"^max_len {MAX_ENUM_LEN + 1} exceeds cap {MAX_ENUM_LEN}$"):
        h_partial(0.0, bank_one, MAX_ENUM_LEN + 1)


def test_trace_rho_one_at_basis_frequency(bank_one):
    trace = parseval_trace([(0, 1.0)], bank_one, 256)
    assert all(abs(v - 1.0) <= 1e-12 for _, v in trace.checkpoints)
    # gamma = 21 needs N >= 21 before the single surviving term arrives
    trace21 = parseval_trace([(21, 1.0)], bank_one, 256)
    values = dict(trace21.checkpoints)
    assert values[4] == 0 and values[16] == 0
    assert abs(values[64] - 1.0) <= 1e-12 and abs(values[256] - 1.0) <= 1e-12


def test_trace_monotone_and_bessel():
    f = [(0, 0.5 + 0.1j), (5, -0.25), (17, 0.3j)]
    trace = parseval_trace(f, pq_bank(S2, S2), 1024)
    values = [v for _, v in trace.checkpoints]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v <= trace.target * (1 + 1e-8) for v in values)
    terms = np.zeros(1024 + 1)  # the dense terms, 0.0 off the support
    terms[trace.n] = trace.terms
    assert np.all(terms >= 0)


def test_parseval_fails_above_the_bessel_cap():
    # nondecreasing partial sums that pass the target break the Bessel bound
    trace = PartialSumTrace(((4, 0.5), (16, 1.5)), 1.0, np.arange(2), np.array([0.5, 1.0]))
    assert not verify_parseval(trace, 1e-8).passed


def test_parseval_target_adds_the_scalar_terms_in_order():
    # one transform call over every difference g1 - g2 gives the bits of the
    # loop that calls the scalar mu4_hat pair after pair; on this f, adding
    # the same terms in reverse order changes the last bit
    f = [(0, 0.5 + 0.1j), (5, -0.25), (17, 0.3j), (-6, 1 - 2j), (1, 1 / 3), (3, 0.1 - 1e3j)]
    f.append((2**40 + 1, -0.4j))
    want = 0.0
    for g1, c1 in f:
        for g2, c2 in f:
            want += (complex(c1) * complex(c2).conjugate() * mu4_hat(g1 - g2)).real
    got = parseval_trace(f, pq_bank(S2, S2), 64).target
    assert repr(got) == repr(want)
    assert got > 0


def test_frozen_constants_match_their_oracle():
    # every frozen constant is a value of the recursion-path oracle, to the bit
    assert PQ_E2_CHECKPOINTS == oracle_trace_checkpoints(2, S2, S2, 4**6)
    rho_minus_one = oracle_trace_checkpoints(1, 0.0, 1.0, 4**8)
    assert RHO_M1_E1_AT_256 == rho_minus_one[256]
    assert S_E1_RHO_M1_AT_4POW8 == rho_minus_one[4**8]
    assert H4_AT_MINUS_HALF_RHO_M1 == oracle_h_partial(-0.5, rho_bank(-1.0), 4)


def test_trace_regression_nonterminating():
    # e_2 lies outside the digit-{0,1,3} weight support, so the trace climbs
    trace = parseval_trace([(2, 1.0)], pq_bank(S2, S2), 4096)
    values = dict(trace.checkpoints)
    for N, frozen in PQ_E2_CHECKPOINTS.items():
        assert abs(values[N] - frozen) <= 1e-9
    assert all(b > a for a, b in zip(sorted(values), sorted(values)[1:]))


def test_trace_matches_oracle_path(bank_minus_one):
    trace = parseval_trace([(1, 1.0)], bank_minus_one, 256)
    oracle = oracle_trace_checkpoints(1, 0.0, 1.0, 256)
    for N, value in trace.checkpoints:
        assert abs(value - oracle[N]) <= 1e-9
    assert abs(dict(trace.checkpoints)[256] - RHO_M1_E1_AT_256) <= 1e-9


def test_h_partial_at_zero_is_one(bank_one, bank_i, bank_pq):
    for bank in (bank_one, bank_i, bank_pq):
        for L in (1, 2, 3):
            assert abs(h_partial(0.0, bank, L) - 1.0) <= 1e-10


def test_h_partial_basis_case(bank_one):
    for gamma in (1, 5, 21):
        digits = len(_base4(gamma))
        assert abs(h_partial(float(gamma), bank_one, max(digits, 1)) - 1.0) <= 1e-10


def _base4(n):
    out = []
    while n:
        out.append(n % 4)
        n //= 4
    return out


@pytest.mark.parametrize("bank_name", ["one", "i", "pi_over_3", "minus_one", "pq"])
def test_h_partial_matches_both_oracles(bank_name, bank_one, bank_i, bank_minus_one, bank_pq):
    bank = {
        "one": bank_one,
        "i": bank_i,
        "pi_over_3": rho_bank(cis(1 / 6)),
        "minus_one": bank_minus_one,
        "pq": bank_pq,
    }[bank_name]
    ts = np.array([[-0.3, 0.7, 2.25], [3.0, -5.0, 0.5]])
    for L in (1, 2, 3, 4):
        at_once = h_partial(ts, bank, L)
        assert at_once.shape == ts.shape
        for t, got in zip(ts.ravel().tolist(), at_once.ravel().tolist()):
            assert got == h_partial(t, bank, L)  # one row of the array call, bit for bit
            assert abs(got - oracle_h_partial(t, bank, L)) <= 1e-12
            assert abs(got - oracle_h_partial_dense(t, bank, L)) <= 1e-12


@pytest.mark.parametrize("bank_name", sorted(MENU))
def test_h_partial_is_the_traces_last_partial_sum(bank_name):
    # one partial-sum path: at an integer t the energy function sums the
    # support in the trace's order, bit for bit
    bank = MENU[bank_name][0]
    gammas = range(-20, 40)
    for L in range(1, 6):
        got = h_partial(np.array(gammas, dtype=float), bank, L).tolist()
        want = [parseval_trace([(g, 1.0)], bank, 4**L - 1).final_value for g in gammas]
        assert got == want, L


def test_h_partial_monotone_in_depth(bank_i):
    for t in np.linspace(-1, 0, 9):
        values = [h_partial(float(t), bank_i, L) for L in (1, 2, 3)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= 1 + 1e-8


def test_ruelle_identity_small_grid(bank_i):
    check = verify_ruelle(bank_i, np.linspace(-1, 0, 9), 2, 1e-9)
    assert check.passed
    assert check.metrics["max_refinement_residual"] <= 1e-9
    assert check.metrics["max_specialization_gap"] <= 1e-12


def test_ruelle_at_zero(bank_pq):
    check = verify_ruelle(bank_pq, [0.0], 1, 1e-10)
    assert check.passed


def test_ruelle_identity_pq_bank(bank_pq):
    # the reduced form holds on every admissible bank, the solver banks
    # included; on the lopsided ones |d_1| != |d_3|
    for bank in (bank_pq, pq_bank(0.6, 0.8), pq_bank(0.6j, 0.8)):
        check = verify_ruelle(bank, np.linspace(-1, 0, 9), 3, 1e-9)
        assert check.passed
        assert check.metrics["max_specialization_gap"] <= SPECIALIZATION_TOL


def test_ruelle_fails_on_a_specialization_gap(bank_i):
    # a_20 and a_21 moved by 0.05 keep the kernel condition and make
    # d_2 = 0.05, which the reduced form leaves out: the refinement identity
    # still holds to rounding, and the specialization gap alone fails
    A = bank_i.A.copy()
    A[2] += 0.05 * np.array([1, 1, 0, 0])
    check = verify_ruelle(_unchecked(A), np.linspace(-1, 0, 21), 3, 1e-9)
    assert check.metrics["max_refinement_residual"] <= 1e-14
    assert check.metrics["max_specialization_gap"] > 1e-3
    assert not check.passed


def test_verify_incomplete(bank_minus_one):
    check = verify_incomplete(bank_minus_one, [0, 1, 3], 256, 1e-8)
    assert check.passed
    m = check.metrics
    assert m["deficiency_0"] <= 1e-12
    assert not m["flagged_0"]
    assert m["deficiency_1"] > 0.4
    assert m["flagged_1"]
    assert m["deficiency_3"] <= 1e-12
    # positivity at every checkpoint for the flagged frequency
    trace = parseval_trace([(1, 1.0)], bank_minus_one, 256)
    assert trace.deficiency == m["deficiency_1"]
    assert all(v < 1.0 for _, v in trace.checkpoints)


def test_incomplete_fails_when_a_trace_breaks_the_bessel_bound(monkeypatch, bank_minus_one):
    # both frequencies are flagged, so only the Bessel verdict of their
    # traces can fail the check
    monkeypatch.setattr(frames, "verify_parseval", lambda trace, tol: Check(False, {}, {}))
    check = verify_incomplete(bank_minus_one, [1, 2], 256, 1e-8)
    assert check.metrics["flagged_1"] and check.metrics["flagged_2"]
    assert not check.passed


@pytest.mark.parametrize("n_max", [1, 3, 5, 1000, 4**6, 4**6 + 1])
@pytest.mark.parametrize("name", MENU)
def test_trace_on_the_support_matches_the_dense_trace(name, n_max):
    # every checkpoint and the target bit for bit; the stored terms are the
    # dense terms on the support, and the dense terms vanish off it
    bank, gamma = MENU[name]
    for f in ([(gamma, 1.0)], [(0, 0.5 + 0.1j), (5, -0.25), (17, 0.3j)]):
        trace = parseval_trace(f, bank, n_max)
        checkpoints, target, terms = dense_parseval_trace(f, bank, n_max)
        assert trace.checkpoints == checkpoints
        assert trace.target == target
        assert np.array_equal(trace.terms, terms[trace.n])
        assert not np.any(np.delete(terms, trace.n))


@pytest.mark.parametrize("n_max", [_CSV_BLOCK - 1, _CSV_BLOCK, 3 * _CSV_BLOCK + 5])
def test_streamed_weight_table_matches_the_dense_writer(tmp_path, n_max):
    # complex weights, a p = 0 bank, real weights, and d_1 = 5e-161j, whose
    # products underflow to signed zeros on the support (35 rows of -0.0 at
    # 3 * 4^6 + 5), which a row off the support never writes
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    banks = [MENU[name][0] for name in ("rho_i", "rho_minus_one", "pq_lopsided")]
    for bank in banks + [rho_bank(complex(-1.0, 1e-160))]:
        nonzero = write_weight_table(got, bank, n_max)
        assert nonzero == dense_write_weight_table(expected, bank, n_max)
        assert got.read_bytes() == expected.read_bytes()


def test_weight_table_csv(tmp_path, bank_one):
    path = tmp_path / "weights.csv"
    write_weight_table(path, bank_one, 21)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,l1,l2,l3,weight_re,weight_im,weight_abs2"
    ones = [int(line.split(",")[0]) for line in lines[1:] if line.split(",")[6] == "1.0"]
    assert ones == GAMMA4_UP_TO_21
    # bit-reproducible
    path2 = tmp_path / "weights2.csv"
    write_weight_table(path2, bank_one, 21)
    assert path.read_bytes() == path2.read_bytes()


def test_trace_csv(tmp_path):
    # the last checkpoint, 1000, is no power of 4
    trace = parseval_trace([(2, 1.0)], pq_bank(S2, S2), 1000)
    path, expected = tmp_path / "trace.csv", tmp_path / "expected.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,partial_sum,target"
    assert len(lines) == 1 + len(trace.checkpoints)
    oracle_write_trace_csv(expected, trace)
    assert path.read_bytes() == expected.read_bytes()


def test_trace_csv_writes_numpy_floats_as_floats(tmp_path):
    # a library caller's trace may hold numpy floats, whose repr is np.float64(...)
    trace = PartialSumTrace(((4, np.float64(0.5)),), np.float64(1.0), np.arange(1), np.ones(1))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_bytes() == b"N,partial_sum,target\r\n4,0.5,1.0\r\n"
