import random
import tracemalloc
import weakref

import numpy as np
import pytest

from frame_lab import cuntz
from frame_lab.atoms import ATOM, FunctionSum, concat, fs_sub, normalize, refine
from frame_lab.cuntz import (
    FAMILY_MAX_LEN,
    MAX_CUNTZ_LEVEL,
    MAX_TRIALS,
    _children,
    _gram_rows,
    _pair_sums,
    apply_S,
    apply_S_star,
    family_size,
    generated_family,
    random_function_sum,
    verify_cuntz,
    verify_gram,
)
from frame_lab.errors import CapacityError, DomainError, in_range
from frame_lab.filters import (
    MAX_SAMPLES,
    g_map,
    little_m,
    pq_bank,
    rho_bank,
    solve_alpha,
    verify_unitarity,
)
from frame_lab.frames import (
    MAX_ENUM_LEN,
    parseval_trace,
    verify_incomplete,
    verify_projection,
    verify_ruelle,
    write_weight_table,
)
from frame_lab.transform import cis
from oracles import (
    ONE,
    S_j,
    S_j_star,
    Word4,
    _dense_word_vector,
    apply_word,
    atom_sum,
    c_of_word,
    dense_inner,
    enumerate_X4,
    exponential,
    fs_add,
    fs_scale,
    inner_product,
    max_coeff_gap,
    norm,
    oracle_generated_family,
    oracle_verify_cuntz,
    oracle_verify_projection,
    s_word_one,
    unstack,
)

# Banks of the batched-vs-per-vector parity cases. Only the balanced solver
# bank leaves nonzero Cuntz residuals on these seeds, so its cases compare
# rounding, not only zeros.
PARITY_BANKS = {
    "pi_over_3": rho_bank(complex(cis(1 / 6))),
    "pq": solve_alpha(2**-0.5, 2**-0.5, 2**-0.5, 0.0, 0.0, 1.0),  # the bank_pq fixture
    "lopsided": pq_bank(0.6, 0.8),
    "lopsided_i": pq_bank(0.6j, 0.8),
}

# The parity banks and the quarter-turn banks rho = 1, i.
SIX_BANKS = {**PARITY_BANKS, "one": rho_bank(1.0), "i": rho_bank(1j)}


def test_S0_fixes_constant(bank_i):
    s0 = S_j(bank_i, 0, ONE)
    assert len(s0) == 4
    assert np.all(s0.atoms["coeff"] == 1)
    assert norm(fs_sub(s0, ONE)) < 1e-15


def test_apply_S_frequency_shift(bank_i):
    for j in range(4):
        out = S_j(bank_i, j, ONE)
        assert np.all(out.atoms["freq"] == j)


def test_apply_S_is_isometry(bank_i, bank_pq):
    rng = random.Random(21)
    for bank in (bank_i, bank_pq):
        for _ in range(5):
            F = random_function_sum(rng, 2)
            for j in range(4):
                assert abs(norm(S_j(bank, j, F)) - norm(F)) < 1e-10


def test_cuntz_orthogonality_on_random_vectors(bank_i):
    rng = random.Random(22)
    for _ in range(5):
        F = random_function_sum(rng, 2)
        nf = norm(F)
        for j in range(4):
            for k in range(4):
                G = S_j_star(bank_i, j, S_j(bank_i, k, F))
                D = fs_sub(G, F) if j == k else G
                assert norm(D) <= 1e-10 * nf


def test_adjoint_kills_orthogonal_exponential(bank_i):
    out = S_j_star(bank_i, 1, exponential(0))
    assert norm(out) < 1e-15


def test_adjoint_fixes_constant(bank_i):
    out = S_j_star(bank_i, 0, ONE)
    assert norm(fs_sub(out, ONE)) < 1e-15


def test_adjoint_correctness(bank_i):
    rng = random.Random(23)
    for _ in range(5):
        F = random_function_sum(rng, 2)
        G = random_function_sum(rng, 3)
        for j in range(4):
            lhs = inner_product(S_j(bank_i, j, F), G)
            rhs = inner_product(F, S_j_star(bank_i, j, G))
            assert abs(lhs - rhs) < 1e-10


def test_adjoint_on_exponentials_is_symbol(bank_i):
    for t_num in range(-8, 9, 2):
        t = t_num / 4
        for j in range(4):
            lhs = S_j_star(bank_i, j, exponential(t))
            m = little_m(bank_i, j, t)
            rhs = normalize(fs_scale(exponential(g_map(j, t)), m))
            assert norm(fs_sub(lhs, rhs)) < 1e-12


@pytest.mark.parametrize("name", SIX_BANKS)
def test_children_with_one_letter_per_atom_are_the_diagonal_of_apply_S(name):
    # S_j with j = v & 3 on each atom of vector v, merged, is vector 4v + j
    # of apply_S bit for bit: the identity sum's terms S_k S_k* F_v
    bank = SIX_BANKS[name]
    rng = random.Random(31)
    F = normalize(concat(*[random_function_sum(rng, level, 9) for level in range(5)]))
    letters = F.atoms["vec"][:, None, None] & 3
    got = normalize(FunctionSum._adopt(_children(bank, F.atoms, letters))).atoms
    full = apply_S(bank, F).atoms
    want = full[(full["vec"] >> 2 & 3) == (full["vec"] & 3)]
    assert len(got) > 0 and len(set(got["level"].tolist())) == 5
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", SIX_BANKS)
def test_adjoint_of_a_level_0_atom_is_the_symbol(name):
    # S_j* of c e_t is little_m(j, t) c e_{(t - j)/4}, bit for bit; one atom
    # per vector, so nothing merges. Near t = -8192 + j, (t - j) rounds, and
    # a symbol formed from cis((t - j)/2) is off by up to 1e-12
    bank = SIX_BANKS[name]
    rng = np.random.default_rng(32)
    t = np.concatenate([rng.uniform(-8, 8, 200), rng.integers(-64, 64, 50) / 8.0,
                        [-8191.397466899024, -8189.369497377974, 1e5 + 0.3]])
    atoms = np.zeros(len(t), dtype=ATOM)
    atoms["coeff"] = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
    atoms["freq"] = t
    atoms["vec"] = np.arange(len(t))
    got = apply_S_star(bank, FunctionSum(atoms)).atoms
    want = np.zeros((len(t), 4), dtype=ATOM)
    for j in range(4):
        want[:, j]["coeff"] = little_m(bank, j, t) * atoms["coeff"]
        want[:, j]["freq"] = g_map(j, t)
        want[:, j]["vec"] = 4 * atoms["vec"] + j
    assert got.tobytes() == normalize(FunctionSum(want.ravel())).atoms.tobytes()


def test_empty_word_is_identity(bank_i):
    rng = random.Random(24)
    F = random_function_sum(rng, 1)
    assert apply_word(bank_i, Word4(()), F) is F


def test_word_zero_on_constant(bank_i):
    out = apply_word(bank_i, Word4((0,)), ONE)
    assert norm(fs_sub(out, ONE)) < 1e-15


def test_closed_form_agrees_with_chain(bank_i):
    for letters in [(0,), (2,), (1, 3), (3, 0), (2, 1, 0), (1, 2, 3), (3, 1, 0, 2)]:
        w = Word4(letters)
        closed = s_word_one(bank_i, w)
        chained = normalize(apply_word(bank_i, w, ONE))
        assert max_coeff_gap(chained, atom_sum(closed)) < 1e-12


def test_generated_family_matches_apply_word():
    # the closed form against the operator recursion, word by word: each
    # batch is a run of consecutive words, at most FAMILY_BATCH_ATOMS
    # coefficients, and every atom of a word's recursion sits at the word's
    # own frequency n and level, its coefficient the entry of its code under
    # == (the recursion's exact phase 1 + 0j can flip the sign of a zero
    # part); every other entry of the row is an exact 0. At length 5 on two
    # banks whose entries are not dyadic, so every product rounds, and whose
    # batches hold two words each
    cases = [(bank, 4) for bank in SIX_BANKS.values()]
    cases += [(SIX_BANKS[name], FAMILY_MAX_LEN) for name in ("pi_over_3", "lopsided")]
    for bank, max_len in cases:
        words = oracle_generated_family(bank, max_len)
        for n, coeff in generated_family(bank, max_len):
            assert 0 < coeff.size <= cuntz.FAMILY_BATCH_ATOMS and len(coeff) == len(n)
            for want, row in zip(n.tolist(), coeff):
                m, F = next(words)
                assert m == want
                atoms = F.atoms
                assert np.all(atoms["freq"] == m) and np.all(4 ** atoms["level"] == len(row))
                assert np.array_equal(row[atoms["code"]], atoms["coeff"])
                assert not np.any(np.delete(row, atoms["code"]))
        assert next(words, None) is None


def test_s_word_one_zero_word_is_constant(bank_i):
    out = s_word_one(bank_i, Word4((0,)))
    assert np.all(out.atoms["coeff"] == 1)
    assert norm(fs_sub(out, ONE)) < 1e-15


def test_s_word_one_frequency(bank_i):
    assert np.all(s_word_one(bank_i, Word4((1,))).atoms["freq"] == 1)
    assert np.all(s_word_one(bank_i, Word4((2, 1))).atoms["freq"] == 9)


def test_s_word_one_unit_norm(bank_i):
    for w in enumerate_X4(3):
        assert abs(norm(s_word_one(bank_i, w)) - 1.0) < 1e-10


def test_s_word_one_rejects_empty(bank_i):
    with pytest.raises(DomainError):
        s_word_one(bank_i, Word4(()))


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("name", PARITY_BANKS)
def test_verify_cuntz_matches_per_trial_oracle(name, level):
    # the batched check adds each vector's terms in the per-trial order, so
    # the metrics agree bit for bit
    bank = PARITY_BANKS[name]
    seed = 2  # the pq bank leaves a nonzero residual at every level on this seed
    got = verify_cuntz(bank, level, trials=2, seed=seed, tol=1e-10)
    assert repr(got) == repr(oracle_verify_cuntz(bank, level, 2, seed, 1e-10))
    assert got.passed
    if name == "pq":
        assert got.metrics["max_orthogonality_residual"] > 0


def test_verify_cuntz_passes_match_the_per_trial_oracle(monkeypatch):
    # trials that span several passes, the last one short, draw the vectors
    # the per-trial oracle draws and keep its metrics bit for bit; on this
    # seed both of the first pass's largest residuals are below the run's,
    # so passes that drew the first pass's vectors again would read less
    monkeypatch.setattr(cuntz, "TRIALS_PER_PASS", 3)
    bank = PARITY_BANKS["pq"]
    got = verify_cuntz(bank, 1, trials=8, seed=2, tol=1e-10)
    assert repr(got) == repr(oracle_verify_cuntz(bank, 1, 8, 2, 1e-10))
    first = oracle_verify_cuntz(bank, 1, 3, 2, 1e-10).metrics
    for name, value in first.items():
        assert value < got.metrics[name], name


@pytest.mark.parametrize("level", [0, 2, 4])
def test_random_function_sum_draws_vector_after_vector(level):
    for seed in range(3):
        batch_rng, single_rng = random.Random(seed), random.Random(seed)
        batch = random_function_sum(batch_rng, level, vectors=7)
        for v in range(7):
            single = random_function_sum(single_rng, level)
            assert np.array_equal(unstack(batch, v).atoms, single.atoms)
        assert batch_rng.getstate() == single_rng.getstate()


@pytest.mark.parametrize("level", range(1, 5))
def test_random_function_sum_covers_its_ranges(level):
    atoms = np.concatenate(
        [random_function_sum(random.Random(seed), level, vectors=200).atoms for seed in range(4)]
    )
    assert set(atoms["freq"].tolist()) == set(range(-8, 9))
    assert np.all(atoms["level"] == level)
    assert np.all((0 <= atoms["code"]) & (atoms["code"] < 4**level))
    for position in range(level):
        pairs = atoms["code"] >> 2 * position & 3
        assert set(pairs.tolist()) == {0, 1, 2, 3}
    # independent standard normal parts
    re, im = atoms["coeff"].real, atoms["coeff"].imag
    assert max(abs(re.mean()), abs(im.mean()), abs(np.mean(re * im))) < 0.1
    assert abs(re.var() - 1) < 0.1 and abs(im.var() - 1) < 0.1


@pytest.mark.parametrize("max_len", range(1, 5))
@pytest.mark.parametrize("name", ["pi_over_3", "pq"])
def test_verify_projection_matches_per_word_oracle(name, max_len):
    # the pq bank's length-1 words project exactly; from length 2 on they
    # leave a residual of rounding, which both paths must read alike
    bank = PARITY_BANKS[name]
    got = verify_projection(bank, max_len, 1e-10)
    assert repr(got) == repr(oracle_verify_projection(bank, max_len, 1e-10))
    assert got.passed
    if name == "pq" and max_len > 1:
        assert got.metrics["max_weight_dev"] > 0


@pytest.mark.parametrize("max_len", range(1, FAMILY_MAX_LEN + 1))
def test_generated_family_batches_hold_at_most_the_atom_bound(bank_pq, max_len):
    # a batch at length K runs FAMILY_BATCH_ATOMS // 4^K words of 4^K
    # coefficients each, and at least one; every word is in exactly one batch
    batches = np.zeros(4**max_len, dtype=np.int64)
    for n, coeff in generated_family(bank_pq, max_len):
        assert coeff.size <= cuntz.FAMILY_BATCH_ATOMS
        np.add.at(batches, n, 1)
    assert np.all(batches == 1)


def test_a_longest_word_fits_in_one_batch():
    # a batch holds at least one whole word, so the atom bound needs a
    # longest word to fit
    assert 4**FAMILY_MAX_LEN <= cuntz.FAMILY_BATCH_ATOMS


def test_projection_drops_each_batch_before_the_next_is_built(monkeypatch, bank_pq):
    # neither the generator nor verify_projection's loop keeps a yielded
    # coefficient batch while _family_batch builds the next one
    yielded, family_batch = [], cuntz._family_batch

    def build(*args):
        assert all(ref() is None for ref in yielded)
        coeff = family_batch(*args)
        yielded.append(weakref.ref(coeff))
        return coeff

    monkeypatch.setattr(cuntz, "_family_batch", build)
    assert verify_projection(bank_pq, 3, 1e-10).passed
    assert len(yielded) > 1


def test_projection_holds_one_batch(bank_i):
    # at length 4, with batches of 2 * 4^5 coefficients, the check peaks at
    # ~0.13 MiB; batches of 4^7 coefficients take the peak to ~0.62 MiB, and
    # every batch kept to ~0.9 MiB
    verify_projection(bank_i, 1, 1e-10)
    tracemalloc.start()
    try:
        check = verify_projection(bank_i, 4, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 2**20, peak
    assert check.passed


def test_checks_at_their_caps_stay_in_bounded_memory(bank_i, bank_pq):
    # generated_family holds one batch of at most FAMILY_BATCH_ATOMS
    # coefficients (~0.17 MiB at length 5, ~0.67 MiB with batches of 4^7,
    # ~13 MiB with every batch kept), and the operators keep one copy of
    # their output. verify_cuntz
    # forms only the four terms S_k S_k* F_v of the identity sum, not all
    # sixteen S_j S_k* F_v; on the pq bank every residual keeps its rounding
    # (~1.6 MiB)
    tracemalloc.start()
    try:
        projection = verify_projection(bank_i, FAMILY_MAX_LEN, 1e-10)
        _, projection_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cuntz = verify_cuntz(bank_i, level=4, trials=MAX_TRIALS, seed=0, tol=1e-10)
        _, cuntz_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cuntz_pq = verify_cuntz(bank_pq, level=4, trials=MAX_TRIALS, seed=0, tol=1e-10)
        _, cuntz_pq_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert projection_peak <= 0.4 * 2**20, projection_peak
    assert cuntz_peak <= 2.25 * 2**20, cuntz_peak
    assert cuntz_pq_peak <= 2 * 2**20, cuntz_pq_peak
    assert projection.passed and cuntz.passed and cuntz_pq.passed


def test_spectral_checks_at_their_caps_hold_only_the_support(tmp_path, bank_i, bank_minus_one):
    # traces and incompleteness keep the support of the weights (3^10 and
    # 2^10 indices at 4^10), the weight table and its text one block at a
    # time, and the unitarity sweep one pass of banks; arrays over every
    # n <= 4^10 would take 16-24 MiB
    limit = 8 * 2**20
    cap = 4**MAX_ENUM_LEN
    runs = {
        "trace_rho_i": lambda: parseval_trace([(3, 1.0)], bank_i, cap),
        "trace_pq": lambda: parseval_trace([(3, 1.0)], pq_bank(0.6, 0.8), cap),
        "incomplete": lambda: verify_incomplete(bank_minus_one, [0, 1, 3], cap, 1e-8),
        "weight_table": lambda: write_weight_table(tmp_path / "w.csv", pq_bank(0.6, 0.8), 4**9),
        "unitarity": lambda: verify_unitarity(MAX_SAMPLES, 1e-12),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in runs.items():
            tracemalloc.reset_peak()
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) <= limit, peaks


def test_energy_function_at_the_ruelle_cap_streams_its_grid(bank_i):
    # h_partial takes the grid _ENERGY_BLOCK terms at a time; at once, the
    # 4 x 1000 points x 81 support frequencies of the cap take 12.4 MiB
    tracemalloc.start()
    try:
        check = verify_ruelle(bank_i, np.linspace(-1, 0, 1000), 4, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak
    assert check.passed


def test_verify_cuntz_report(bank_one):
    check = verify_cuntz(bank_one, level=2, trials=5, seed=3, tol=1e-10)
    assert check.passed
    assert check.metrics["max_orthogonality_residual"] <= 1e-10
    assert check.metrics["max_identity_residual"] <= 1e-10
    assert check.tolerances == {"relative_residual": 1e-10}


def test_identity_relation_on_constant(bank_i):
    total = fs_add(*[S_j(bank_i, k, S_j_star(bank_i, k, ONE)) for k in range(4)])
    assert norm(fs_sub(total, ONE)) <= 1e-12


def test_gram_level_one_identity(bank_i, bank_pq):
    for bank in (bank_i, bank_pq):
        check = verify_gram(bank, 1, 1e-10)
        assert check.passed
        assert check.metrics["size"] == 4
        assert check.metrics["max_offdiag"] <= 1e-10
        assert check.metrics["max_diag_dev"] <= 1e-10


@pytest.mark.parametrize("defect", [None, 0, -1], ids=["none", "diagonal", "last_offdiagonal"])
def test_gram_reads_every_entry_of_every_row(monkeypatch, bank_i, defect):
    # identity rows, one of them off by 1e-6 on its diagonal or in its last
    # entry, past its first off-diagonal one: the defect fails the check and
    # is its metric, and without it the check passes
    size = 16

    def rows(bank, max_len):
        for f in range(size):
            entries = np.zeros(size - f, dtype=complex)
            entries[0] = 1.0
            if f == 1 and defect is not None:
                entries[defect] += 1e-6
            yield entries

    monkeypatch.setattr(cuntz, "_gram_rows", rows)
    check = verify_gram(bank_i, 2, 1e-8)
    assert check.metrics["size"] == size
    metrics = (check.metrics["max_diag_dev"], check.metrics["max_offdiag"])
    if defect is None:
        assert check.passed and metrics == (0.0, 0.0)
    else:
        assert not check.passed
        assert metrics == ((abs((1.0 + 1e-6) - 1.0), 0.0) if defect == 0 else (0.0, 1e-6))


def test_cuntz_fails_on_a_defect_of_the_identity_residual_alone(monkeypatch, bank_i):
    # refine feeds only the identity residual: its first coefficient off by
    # 1e-6 leaves every orthogonality residual at 0, and the identity
    # residual alone fails the check
    original = cuntz.refine

    def refine(F, K):
        atoms = original(F, K).atoms.copy()
        atoms["coeff"][0] *= 1 + 1e-6
        return FunctionSum._adopt(atoms)

    monkeypatch.setattr(cuntz, "refine", refine)
    check = verify_cuntz(bank_i, 2, 10, 99, 1e-10)
    assert check.metrics["max_orthogonality_residual"] == 0.0
    assert check.metrics["max_identity_residual"] > 1e-7
    assert not check.passed


def test_gram_capacity_guard(bank_i):
    with pytest.raises(CapacityError):
        verify_gram(bank_i, FAMILY_MAX_LEN + 1, 1e-8)


def test_family_and_trial_capacity_guards(bank_i):
    past = f"^max_len {FAMILY_MAX_LEN + 1} exceeds cap {FAMILY_MAX_LEN}$"
    with pytest.raises(CapacityError, match=past):
        next(generated_family(bank_i, FAMILY_MAX_LEN + 1))
    with pytest.raises(CapacityError, match=f"^trials {MAX_TRIALS + 1} exceeds cap {MAX_TRIALS}$"):
        verify_cuntz(bank_i, level=1, trials=MAX_TRIALS + 1, seed=0, tol=1e-10)
    past = f"^level {MAX_CUNTZ_LEVEL + 1} exceeds cap {MAX_CUNTZ_LEVEL}$"
    with pytest.raises(CapacityError, match=past):  # checked before the bad seed
        verify_cuntz(bank_i, level=MAX_CUNTZ_LEVEL + 1, trials=1, seed=-1, tol=1e-10)
    # the one guard: a value in range comes back, and no cap bounds it from above
    assert family_size(FAMILY_MAX_LEN) == 4**FAMILY_MAX_LEN
    assert in_range("seed", 2**80, 0) == 2**80
    with pytest.raises(DomainError, match="^seed must be >= 0$"):
        in_range("seed", -1, 0)


def test_gram_rows_match_dense_oracle(bank_one, bank_i, bank_pq):
    # every word lifted to level 3 against the oracle at each pair's own depth
    words = enumerate_X4(3)
    for bank in (bank_one, bank_i, bank_pq):
        vecs = [(c_of_word(w), _dense_word_vector(bank, w), len(w)) for w in words]
        rows = list(_gram_rows(bank, 3))
        assert len(rows) == len(words)
        for f, row in enumerate(rows):
            assert len(row) == len(words) - f
            for g in range(f, len(words)):
                assert abs(row[g - f] - dense_inner(*vecs[f], *vecs[g])) <= 1e-12


def test_pair_sums_match_the_matmul_oracle(bank_one, bank_i, bank_pq):
    dense = solve_alpha(0.6, 0.8, 0.48, 0.64, 0.8, -0.6)  # no zero entry
    for bank in (bank_one, bank_i, bank_pq, pq_bank(0.6, 0.8), dense):
        R = np.vstack([bank.A, np.full(4, 0.5)])
        E, O = _pair_sums(R)
        assert np.max(np.abs(E - R[:, 0::2] @ R[:, 0::2].conj().T)) <= 4 * 2**-52
        assert np.max(np.abs(O - R[:, 1::2] @ R[:, 1::2].conj().T)) <= 4 * 2**-52


def test_gram_length_five(bank_i, bank_pq):
    for bank in (bank_i, bank_pq):
        check = verify_gram(bank, 5, 1e-8)
        assert check.metrics["size"] == 1024
        assert max(check.metrics["max_offdiag"], check.metrics["max_diag_dev"]) <= 1e-8
        assert check.passed


@pytest.mark.parametrize("max_len", range(1, FAMILY_MAX_LEN + 1))
@pytest.mark.parametrize("rho", [1.0, -1.0, 1j, -1j], ids=["1", "-1", "i", "-i"])
def test_gram_of_the_quarter_turn_banks_is_exact(rho, max_len):
    # dyadic entries and quarter-turn phases: each off-diagonal entry has an
    # exact zero factor, so the check holds at any tolerance
    check = verify_gram(rho_bank(rho), max_len, 1e-300)
    assert (check.metrics["max_offdiag"], check.metrics["max_diag_dev"]) == (0.0, 0.0)
    assert check.passed


def test_dense_inner_matches_generic(bank_i):
    words = [Word4((1,)), Word4((2, 1)), Word4((1, 3, 2)), Word4((3, 0))]
    for wa in words:
        for wb in words:
            va, vb = s_word_one(bank_i, wa), s_word_one(bank_i, wb)
            generic = inner_product(va, vb)
            dense = dense_inner(
                c_of_word(wa), _dense_word_vector(bank_i, wa), len(wa),
                c_of_word(wb), _dense_word_vector(bank_i, wb), len(wb),
            )
            assert abs(generic - dense) < 1e-12


def test_dense_inner_matches_generic_for_exponentials(bank_i):
    for t in (0.0, -0.37, 2.5):
        for letters in [(1,), (2, 1), (1, 3, 2)]:
            w = Word4(letters)
            generic = inner_product(exponential(t), s_word_one(bank_i, w))
            dense = dense_inner(
                t, np.ones(1, dtype=complex), 0,
                c_of_word(w), _dense_word_vector(bank_i, w), len(w),
            )
            assert abs(generic - dense) < 1e-12


def _canonical(F, level):
    flat = refine(F, level)
    return frozenset(
        (freq, code, round(coeff.real, 9), round(coeff.imag, 9))
        for coeff, freq, code, _, _ in flat.atoms.tolist()
    )


@pytest.mark.parametrize("L", [1, 2, 3])
def test_disjoint_union_property(bank_i, L):
    # the depth-(L+1) family equals the union of the isometry images of the
    # depth-L family, as sets of vectors
    lhs = {_canonical(s_word_one(bank_i, w), L + 1) for w in enumerate_X4(L + 1)}
    rhs = {
        _canonical(S_j(bank_i, j, s_word_one(bank_i, w)), L + 1)
        for j in range(4)
        for w in enumerate_X4(L)
    }
    assert lhs == rhs
    assert len(rhs) == 4 ** (L + 1)
