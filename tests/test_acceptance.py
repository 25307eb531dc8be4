"""Acceptance suite: one test per certified claim, at its stated tolerance.

Each test prints a single pass/fail line (visible with pytest -s). The
frozen regression constants are values of the independent recursion-path
oracle, kept beside it in tests/oracles.py;
tests/test_frames.py::test_frozen_constants_match_their_oracle recomputes
them bit for bit.
"""

import math
import time

import numpy as np

from frame_lab.cuntz import verify_cuntz, verify_gram
from frame_lab.filters import a_to_h, pq_bank, rho_bank, verify_nogo_mu3
from frame_lab.frames import h_partial, parseval_trace, verify_ruelle
from frame_lab.transform import cis
from oracles import (
    H4_AT_MINUS_HALF_RHO_M1,
    ONE,
    S_E1_RHO_M1_AT_4POW8,
    Atom,
    Word4,
    apply_word,
    c_of_word,
    evaluate,
    function_sum,
    ifs_monte_carlo_integral,
    inner_product,
    oracle_project_V,
    oracle_trace_checkpoints,
    projection_weight,
)

S2 = 2**-0.5
GAMMA4_64 = [0, 1, 4, 5, 16, 17, 20, 21, 64]


def _report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance] C{num:02d} {name}: PASS ({detail})")


def _elapsed_guard(num: int, name: str, started: float, budget_s: float) -> float:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"C{num:02d} {name} exceeded runtime budget: {elapsed:.1f}s"
    return elapsed


def test_c01_unitarity_of_the_rho_family():
    started = time.perf_counter()
    max_dev = 0.0
    for m in range(64):
        rho = cis(m / 64)
        H = a_to_h(rho_bank(rho).A)
        max_dev = max(max_dev, np.max(np.abs(H.conj().T @ H - np.eye(4))))
    assert max_dev <= 1e-12
    elapsed = _elapsed_guard(1, "unitarity", started, 1.0)
    _report(1, "unitarity", f"max |H*H - I| = {max_dev:.2e} over 64 banks, {elapsed:.2f}s")


def test_c02_cuntz_relations(bank_pq):
    started = time.perf_counter()
    banks = [rho_bank(1.0), rho_bank(1j), rho_bank(cis(1 / 6)), bank_pq]
    worst_orth = worst_ident = 0.0
    for idx, bank in enumerate(banks):
        check = verify_cuntz(bank, level=2, trials=20, seed=1000 + idx, tol=1e-10)
        assert check.passed, f"bank {idx}: {check}"
        worst_orth = max(worst_orth, check.metrics["max_orthogonality_residual"])
        worst_ident = max(worst_ident, check.metrics["max_identity_residual"])
    elapsed = _elapsed_guard(2, "cuntz relations", started, 10.0)
    _report(
        2,
        "cuntz relations",
        f"orthogonality <= {worst_orth:.2e}, identity <= {worst_ident:.2e}, {elapsed:.1f}s",
    )


def test_c03_orthonormality_gram(bank_i):
    started = time.perf_counter()
    check = verify_gram(bank_i, 4, 1e-8)
    max_dev = max(check.metrics["max_offdiag"], check.metrics["max_diag_dev"])
    assert check.metrics["size"] == 256
    assert max_dev <= 1e-8
    assert check.passed
    elapsed = _elapsed_guard(3, "orthonormality", started, 60.0)
    _report(3, "orthonormality", f"256x256 Gram, max |G - I| = {max_dev:.2e}, {elapsed:.1f}s")


def _all_words_up_to(max_len: int):
    from itertools import product

    for K in range(max_len + 1):
        for letters in product(range(4), repeat=K):
            yield Word4(letters)


def test_c04_projection_formula(bank_i, bank_pq):
    started = time.perf_counter()
    max_dev = 0.0
    for bank in (bank_i, bank_pq):
        for word in _all_words_up_to(4):
            # every x cylinder totals d_omega at c(omega), and no other frequency appears
            totals = oracle_project_V(apply_word(bank, word, ONE))[0]
            assert {freq for freq, _ in totals} == {c_of_word(word)}
            assert len(totals) == 2 ** len(word.letters)
            d = projection_weight(bank, word)
            max_dev = max(max_dev, *(abs(total - d) for total in totals.values()))
    assert max_dev <= 1e-10
    elapsed = _elapsed_guard(4, "projection formula", started, 30.0)
    _report(4, "projection formula", f"682 words, max weight dev = {max_dev:.2e}, {elapsed:.1f}s")


def test_c05_exact_parseval_in_the_basis_limit():
    started = time.perf_counter()
    bank = rho_bank(1.0)
    worst_gap = 0.0
    worst_term = 0.0
    for gamma in [0, 1, 4, 5, 16, 17, 20, 21]:
        trace = parseval_trace([(gamma, 1.0)], bank, 4**6)
        for N, value in trace.checkpoints:
            if N >= gamma:
                worst_gap = max(worst_gap, abs(value - 1.0))
        terms = np.zeros(4**6 + 1)  # the dense terms, 0.0 off the support
        terms[trace.n] = trace.terms
        off = np.delete(terms, gamma)
        worst_term = max(worst_term, float(off.max()))
    assert worst_gap <= 1e-10
    assert worst_term <= 1e-20
    elapsed = _elapsed_guard(5, "basis-limit exactness", started, 10.0)
    _report(
        5,
        "basis-limit exactness",
        f"|S_N - 1| <= {worst_gap:.2e}, stray terms <= {worst_term:.2e}, {elapsed:.1f}s",
    )


def test_c06_bessel_cap_and_monotonicity():
    started = time.perf_counter()
    banks = [rho_bank(1j), rho_bank(cis(1 / 8)), pq_bank(S2, S2)]
    rng = np.random.default_rng(20250501)
    fs = []
    for _ in range(10):
        k = int(rng.integers(1, 4))
        freqs = rng.choice(GAMMA4_64, size=k, replace=False)
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        fs.append([(int(g), complex(c)) for g, c in zip(freqs, coeffs)])
    worst_excess = -1.0
    for bank in banks:
        for f in fs:
            trace = parseval_trace(f, bank, 4**6)
            values = [v for _, v in trace.checkpoints]
            assert all(b >= a for a, b in zip(values, values[1:])), "trace not monotone"
            cap = trace.target * (1.0 + 1e-8)
            assert all(v <= cap for v in values), "Bessel cap violated"
            worst_excess = max(worst_excess, max(values) - trace.target)
    elapsed = _elapsed_guard(6, "Bessel cap", started, 60.0)
    _report(6, "Bessel cap", f"30 traces monotone, max S - ||f||^2 = {worst_excess:.2e}, {elapsed:.1f}s")


def test_c07_parseval_convergence_regression():
    started = time.perf_counter()
    trace = parseval_trace([(0, 1.0)], pq_bank(S2, S2), 4**8)
    oracle = oracle_trace_checkpoints(0, S2, S2, 4**8)
    values = [v for _, v in trace.checkpoints]
    max_gap = 0.0
    for N, value in trace.checkpoints:
        max_gap = max(max_gap, abs(value - oracle[N]))
    assert max_gap <= 1e-9
    final = values[-1]
    for a, b in zip(values, values[1:]):
        if abs(a - final) > 1e-3:
            assert b > a, "trace stalled before reaching its terminal plateau"
    elapsed = _elapsed_guard(7, "convergence regression", started, 60.0)
    _report(
        7,
        "convergence regression",
        f"8 checkpoints match oracle to {max_gap:.2e}, final = {final:.12f}, {elapsed:.1f}s",
    )


def test_c08_refinement_identity(bank_i):
    started = time.perf_counter()
    m = verify_ruelle(bank_i, np.linspace(-1.0, 0.0, 21), 3, 1e-9).metrics
    assert m["max_refinement_residual"] <= 1e-9
    assert m["max_specialization_gap"] <= 1e-12
    elapsed = _elapsed_guard(8, "refinement identity", started, 120.0)
    _report(
        8,
        "refinement identity",
        f"residual = {m['max_refinement_residual']:.2e}, "
        f"reduced-form gap = {m['max_specialization_gap']:.2e}, {elapsed:.1f}s",
    )


def test_c09_energy_function_behavior(bank_one, bank_i, bank_minus_one, bank_pq):
    started = time.perf_counter()
    banks = [bank_one, bank_i, rho_bank(cis(1 / 6)), bank_minus_one, bank_pq]
    worst = 0.0
    for bank in banks:
        for L in (1, 2, 3, 4):
            worst = max(worst, abs(h_partial(0.0, bank, L) - 1.0))
    assert worst <= 1e-10

    grid = np.linspace(-1.0, 0.0, 21)
    min_h2 = min(h_partial(float(t), bank_i, 2) for t in grid)
    min_h4 = min(h_partial(float(t), bank_i, 4) for t in grid)
    assert min_h4 > min_h2

    h4_half = h_partial(-0.5, bank_minus_one, 4)
    assert H4_AT_MINUS_HALF_RHO_M1 < 1.0
    assert abs(h4_half - H4_AT_MINUS_HALF_RHO_M1) <= 1e-9
    elapsed = _elapsed_guard(9, "energy function", started, 120.0)
    _report(
        9,
        "energy function",
        f"h_L(0) = 1 +- {worst:.1e}; min h_4 = {min_h4:.3f} > min h_2 = {min_h2:.3f}; "
        f"h_4(-1/2)|rho=-1 = {h4_half:.12f} < 1, {elapsed:.1f}s",
    )


def test_c10_incompleteness_of_the_degenerate_family():
    started = time.perf_counter()
    trace = parseval_trace([(1, 1.0)], rho_bank(-1.0), 4**8)
    ns = np.arange(4**8 + 1)
    terms = np.zeros(4**8 + 1)  # the dense terms, 0.0 off the support
    terms[trace.n] = trace.terms
    stray = terms[ns % 4 != 3]
    assert float(stray.max()) <= 1e-20
    final = dict(trace.checkpoints)[4**8]
    assert abs(final - S_E1_RHO_M1_AT_4POW8) <= 1e-9
    deficiencies = [trace.target - v for _, v in trace.checkpoints]
    assert all(d > 0 for d in deficiencies)
    elapsed = _elapsed_guard(10, "incompleteness", started, 60.0)
    _report(
        10,
        "incompleteness",
        f"stray terms <= {float(stray.max()):.1e}, S(4^8) = {final:.12f}, "
        f"deficiency >= {min(deficiencies):.3f} at every checkpoint, {elapsed:.1f}s",
    )


def test_c11_scale3_obstruction():
    started = time.perf_counter()
    check = verify_nogo_mu3()
    m = check.metrics
    # (1, 0, 1, 0) maps to row 0's sum 1 followed by the three forced row sums
    assert m["input_norm"] == math.hypot(1, 0, 1, 0)
    assert m["output_vector"] == [1, 0, 0, 0]
    assert m["output_vector"][1:] == [0, 0, 0]  # the forced row sums
    assert abs(m["input_norm"] - math.sqrt(2.0)) <= 1e-15
    assert abs(m["output_norm"] - 1.0) <= 1e-15
    assert abs(m["norm_gap"] - (math.sqrt(2.0) - 1.0)) <= 1e-15
    assert check.passed
    elapsed = _elapsed_guard(11, "scale-3 obstruction", started, 1.0)
    _report(11, "scale-3 obstruction", f"norm gap = {m['norm_gap']:.10f}, {elapsed:.2f}s")


def test_c12_integration_paths_agree():
    started = time.perf_counter()
    from frame_lab.atoms import normalize

    rng = np.random.default_rng(424242)
    samples = 10**6
    tol = 5.0 / math.sqrt(samples)

    def random_sum():
        atoms = []
        for _ in range(2):
            level = int(rng.integers(0, 3))
            xbits = rng.integers(0, 2, size=level)
            ybits = rng.integers(0, 2, size=level)
            freq = int(rng.integers(-6, 7))
            coeff = 0.5 * complex(rng.standard_normal(), rng.standard_normal())
            atoms.append(Atom(coeff, freq, xbits + 2 * ybits))
        return normalize(function_sum(atoms))

    worst = 0.0
    for trial in range(20):
        F, G = random_sum(), random_sum()
        exact = inner_product(F, G)
        mc = ifs_monte_carlo_integral(
            lambda x, y, codes: evaluate(F, x, codes, 24) * np.conj(evaluate(G, x, codes, 24)),
            depth=24,
            samples=samples,
            seed=90000 + trial,
        )
        dev = abs(mc - exact)
        worst = max(worst, dev)
        assert dev <= tol, f"pair {trial}: MC vs exact deviation {dev:.3e} > {tol:.3e}"
    elapsed = _elapsed_guard(12, "integration-path agreement", started, 60.0)
    _report(
        12,
        "integration-path agreement",
        f"20 pairs at 1e6 samples, worst |MC - exact| = {worst:.2e} <= {tol:.1e}, {elapsed:.1f}s",
    )
