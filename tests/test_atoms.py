import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from frame_lab.atoms import (
    ATOM,
    MAX_LEVEL,
    FunctionSum,
    concat,
    fs_sub,
    inner_products,
    normalize,
    refine,
    renumber,
)
from frame_lab.cuntz import apply_S, apply_S_star
from frame_lab.errors import DomainError
from frame_lab.filters import rho_bank
from frame_lab.transform import mu4_hat
from oracles import (
    ONE,
    Atom,
    AtomSum,
    S_j,
    S_j_star,
    atom_apply_S,
    atom_apply_S_star,
    atom_inner_product,
    atom_normalize,
    atom_refine,
    atom_sum,
    evaluate,
    exponential,
    fs_add,
    fs_scale,
    function_sum,
    ifs_monte_carlo_integral,
    inner_product,
    max_coeff_gap,
    norm,
    unstack,
)


def random_sum(rng, max_level=2, n_atoms=3, coeff_scale=0.5):
    atoms = []
    for _ in range(n_atoms):
        level = int(rng.integers(0, max_level + 1))
        xbits = rng.integers(0, 2, size=level)
        ybits = rng.integers(0, 2, size=level)
        freq = Fraction(int(rng.integers(-6, 7)))
        coeff = coeff_scale * complex(rng.standard_normal(), rng.standard_normal())
        atoms.append(Atom(coeff, freq, xbits + 2 * ybits))
    return normalize(function_sum(atoms))


def test_exponential_at_zero_is_constant_one():
    assert np.array_equal(exponential(0).atoms, ONE.atoms)
    assert len(ONE) == 1
    assert ONE.level == 0


def test_exponential_norm_is_one():
    for t in (0, 5, -3, 1.5):
        assert abs(norm(exponential(t)) - 1.0) < 1e-12


def test_inner_product_constants():
    assert inner_product(ONE, ONE) == 1


def test_inner_product_of_exponentials_is_transform():
    assert inner_product(exponential(1), exponential(0)) == mu4_hat(1)
    got = inner_product(exponential(5), exponential(2))
    assert abs(got - mu4_hat(3)) < 1e-15


def test_level_one_cylinder_mass():
    corner = function_sum([Atom(1.0, 0, (0,))])
    assert abs(inner_product(corner, ONE) - 0.25) < 1e-15


@pytest.mark.parametrize(
    "row",
    [
        (1.0, 0.0, 4, 1),  # code outside [0, 4^level)
        (1.0, 0.0, -1, 2),
        (1.0, 0.0, 1, 0),
        (1.0, 0.0, 0, -1),  # level outside [0, 31]
        (1.0, 0.0, 0, 32),
        (1.0, float("nan"), 0, 0),  # non-finite frequency
        (1.0, float("inf"), 0, 1),
        (1.0, 0.0, 2**70, 1),  # not an int64
        ("x", 0.0, 0, 0),
    ],
)
def test_function_sum_rejects_bad_atoms(row):
    with pytest.raises(DomainError):
        FunctionSum([row])


def test_function_sum_coerces_its_input():
    F = FunctionSum([(1, 2, 3, 1), (0.5j, Fraction(-1, 4), 4**31 - 1, 31)])
    assert F.atoms.dtype.names == ("coeff", "freq", "code", "level", "vec")
    assert F.atoms["vec"].tolist() == [0, 0]
    assert F.atoms["coeff"].dtype == complex and F.atoms["freq"].tolist() == [2.0, -0.25]
    assert not F.atoms.flags.writeable
    assert len(FunctionSum([])) == 0 and FunctionSum([]).level == 0


def test_function_sum_copies_a_callers_array_and_its_results_are_read_only(bank_i):
    rows = np.array([(1.0, 0.0, 0, 0, 0), (2j, 1.0, 3, 1, 0)], dtype=ATOM)
    F = FunctionSum(rows)
    rows["coeff"] = 5.0
    assert F.atoms["coeff"].tolist() == [1.0, 2j]  # the caller's later write changes nothing
    assert rows.flags.writeable and not F.atoms.flags.writeable
    with pytest.raises(AttributeError):
        F.atoms = rows
    with pytest.raises(AttributeError):
        del F.atoms
    results = [
        normalize(F), concat(F, F), fs_add(F, F), fs_scale(F, 2.0), fs_sub(F, F),
        renumber(F, 2, 1), refine(F, 2), apply_S(bank_i, F), apply_S_star(bank_i, F),
    ]
    for G in results:
        assert not G.atoms.flags.writeable
        assert not np.shares_memory(G.atoms, rows) and not np.shares_memory(G.atoms, F.atoms)
        with pytest.raises(ValueError):
            G.atoms["coeff"] = 0.0


def test_operators_keep_the_level_cap(bank_i):
    # S_j adds a level: the children of a level-MAX_LEVEL atom would have
    # level MAX_LEVEL + 1 and codes past int64
    top = FunctionSum([(1.0, 0.5, 4**MAX_LEVEL - 1, MAX_LEVEL)])
    with pytest.raises(DomainError, match="levels must lie"):
        apply_S(bank_i, top)
    below = apply_S(bank_i, FunctionSum([(1.0, 0.5, 4 ** (MAX_LEVEL - 1) - 1, MAX_LEVEL - 1)]))
    assert below.level == MAX_LEVEL and np.all(below.atoms["code"] >= 0)
    assert np.all(below.atoms["code"] >> 2 * MAX_LEVEL == 0)
    assert apply_S_star(bank_i, top).level == MAX_LEVEL - 1


def test_refine_constant():
    r = refine(ONE, 1)
    assert len(r) == 4
    assert np.all(r.atoms["coeff"] == 1)
    assert np.all(r.atoms["level"] == 1)
    assert r.atoms["code"].tolist() == [0, 1, 2, 3]


def test_refine_preserves_norm_and_composes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        F = random_sum(rng)
        K = F.level
        assert abs(norm(refine(F, K + 2)) - norm(F)) < 1e-12
        twice = refine(refine(F, K + 1), K + 2)
        once = refine(F, K + 2)
        assert np.array_equal(normalize(twice).atoms, normalize(once).atoms)


def test_refine_contract_error():
    deep = function_sum([Atom(1.0, 0, (2, 1))])
    with pytest.raises(DomainError):
        refine(deep, 1)
    with pytest.raises(DomainError):
        refine(ONE, 40)  # 4^40 descendants: the count would wrap in int64


def test_normalize_merges_and_drops():
    # only exact zeros go: a zero atom and a sum that cancels; a sum of
    # rounding size stays
    a = Atom(0.5, 1, (2,))
    b = Atom(0.5, 1, (2,))
    z = Atom(0.0, 2, ())
    tiny = Atom(1e-17, 3, ())
    F = normalize(function_sum([a, b, z, tiny, Atom(0.25, 4, ()), Atom(-0.25, 4, ())]))
    assert F.atoms["freq"].tolist() == [1, 3]
    assert F.atoms["coeff"].tolist() == [1.0, 1e-17]


def test_normalize_frees_its_merge_temporaries_before_the_gather():
    # 4^6 distinct keys: the gather sets the peak, the output with its row
    # indices and merged coefficients, 1.5 times the output; a key gather,
    # slot index, order, first mask or second coefficient array kept alive
    # through the gather takes it past 1.6
    n = 4**6
    atoms = np.zeros(n, dtype=ATOM)
    atoms["coeff"], atoms["code"], atoms["level"] = 1.0, np.arange(n)[::-1], 6
    atoms["vec"] = np.arange(n) % 3
    F = FunctionSum(atoms)
    normalize(F)
    tracemalloc.start()
    try:
        out = normalize(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == n
    assert peak <= 1.6 * out.atoms.nbytes, peak


def test_normalize_keeps_inner_products():
    rng = np.random.default_rng(6)
    for _ in range(10):
        F = random_sum(rng)
        G = random_sum(rng)
        doubled = FunctionSum(np.concatenate([fs_scale(F, 0.5).atoms] * 2))
        assert abs(inner_product(doubled, G) - inner_product(F, G)) < 1e-12


def test_sesquilinearity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        F, G, H = (random_sum(rng) for _ in range(3))
        a = complex(rng.standard_normal(), rng.standard_normal())
        lhs = inner_product(fs_add(fs_scale(F, a), G), H)
        rhs = a * inner_product(F, H) + inner_product(G, H)
        assert abs(lhs - rhs) < 1e-12


def test_hermitian_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(10):
        F, G = random_sum(rng), random_sum(rng)
        assert abs(inner_product(F, G) - inner_product(G, F).conjugate()) < 1e-12


def test_norm_positive_definite():
    rng = np.random.default_rng(9)
    for _ in range(10):
        F = random_sum(rng)
        sq = inner_product(F, F)
        assert sq.real >= 0
        assert abs(sq.imag) < 1e-13
    assert norm(FunctionSum([])) == 0


def test_atom_equals_sum_of_children():
    rng = np.random.default_rng(10)
    parent = function_sum([Atom(1.0, 3, (3,))])
    children = refine(parent, 3)
    diff = fs_sub(parent, children)
    for _ in range(10):
        T = random_sum(rng)
        assert abs(inner_product(diff, T)) < 1e-12


def test_inner_product_against_monte_carlo():
    rng = np.random.default_rng(11)
    samples = 100_000
    for _ in range(4):
        F, G = random_sum(rng), random_sum(rng)
        exact = inner_product(F, G)
        mc = ifs_monte_carlo_integral(
            lambda x, y, codes: evaluate(F, x, codes, 24) * np.conj(evaluate(G, x, codes, 24)),
            depth=24,
            samples=samples,
            seed=int(rng.integers(0, 2**31)),
        )
        assert abs(mc - exact) <= 5 / math.sqrt(samples)


def test_mixed_level_inner_product_matches_refined():
    rng = np.random.default_rng(12)
    for _ in range(10):
        F = random_sum(rng, max_level=1)
        G = random_sum(rng, max_level=2)
        K = max(F.level, G.level)
        direct = inner_product(F, G)
        flat = inner_product(refine(F, K), refine(G, K))
        assert abs(direct - flat) < 1e-12


def _oracle_sum(rng, n_atoms, max_level=3):
    """Unnormalized oracle atoms on levels 0..max_level with integer or
    quarter-integer frequencies; some share a key, so normalize has merges
    to do."""
    atoms = []
    for _ in range(n_atoms):
        level = int(rng.integers(0, max_level + 1))
        word = rng.integers(0, 4, size=level)
        freq = Fraction(int(rng.integers(-12, 13)), int(rng.choice([1, 4])))
        coeff = 0.5 * complex(rng.standard_normal(), rng.standard_normal())
        atoms.append(Atom(coeff, freq, word))
    return atoms + atoms[: n_atoms // 3]


def test_array_calculus_matches_atom_oracle(bank_i, bank_pq):
    rng = np.random.default_rng(20261018)
    banks = [bank_i, rho_bank(complex(np.exp(1j * np.pi / 3))), bank_pq]
    for trial in range(30):
        bank = banks[trial % 3]
        raw = _oracle_sum(rng, 8)
        F, ref = normalize(function_sum(raw)), atom_normalize(AtomSum(raw))
        # merging adds in input order on both paths, so these agree bit for bit
        assert max_coeff_gap(F, ref) == 0.0
        assert max_coeff_gap(refine(F, 3), atom_refine(ref, 3)) == 0.0
        for j in range(4):
            assert max_coeff_gap(S_j(bank, j, F), atom_apply_S(bank, j, ref)) <= 1e-15
            assert max_coeff_gap(S_j_star(bank, j, F), atom_apply_S_star(bank, j, ref)) <= 1e-15
        G = normalize(function_sum(_oracle_sum(rng, 5)))
        want = atom_inner_product(ref, atom_sum(G))
        assert abs(inner_product(F, G) - want) <= 1e-15


@pytest.mark.parametrize("max_level", range(5))
def test_isometries_on_a_batch_match_atom_oracle(bank_pq, max_level):
    # vector v of the input becomes vectors 4v + j, holding S_j F_v and S_j* F_v;
    # vector 2 has no atoms, so vectors 8..11 stay empty
    rng = np.random.default_rng(40 + max_level)
    raw = {v: _oracle_sum(rng, 6, max_level) for v in (0, 1, 3)}
    batch = concat(*(renumber(function_sum(atoms), 1, v) for v, atoms in raw.items()))
    S, S_star = apply_S(bank_pq, batch), apply_S_star(bank_pq, batch)
    assert np.all(np.diff(S.atoms["vec"]) >= 0) and np.all(np.diff(S_star.atoms["vec"]) >= 0)
    for v in range(4):
        ref = AtomSum(raw.get(v, ()))
        for j in range(4):
            assert max_coeff_gap(unstack(S, 4 * v + j), atom_apply_S(bank_pq, j, ref)) <= 1e-15
            want = atom_apply_S_star(bank_pq, j, ref)
            assert max_coeff_gap(unstack(S_star, 4 * v + j), want) <= 1e-15
    assert S.atoms["vec"].max() == S_star.atoms["vec"].max() == 15


def test_batch_vectors_get_the_bits_of_their_single_sums():
    rng = np.random.default_rng(31)
    F = [normalize(function_sum(_oracle_sum(rng, 6))) for _ in range(4)]
    G = [normalize(function_sum(_oracle_sum(rng, 4))) for _ in range(4)]
    batch_F = concat(*(renumber(f, 1, v) for v, f in enumerate(F)))
    batch_G = concat(*(renumber(g, 1, v) for v, g in enumerate(G)))
    normalized, refined = normalize(batch_F), refine(batch_F, 3)
    got = inner_products(batch_F, batch_G, 4)
    for v in range(4):
        assert np.array_equal(unstack(normalized, v).atoms, F[v].atoms)
        assert np.array_equal(unstack(refined, v).atoms, refine(F[v], 3).atoms)
        assert repr(complex(got[v])) == repr(inner_product(F[v], G[v]))
    with pytest.raises(DomainError):
        inner_products(batch_F, batch_G, 3)  # vector 3 has no slot
    with pytest.raises(DomainError):
        renumber(ONE, 1, -1)
