import math
from fractions import Fraction

import numpy as np
import pytest

from frame_lab import (
    CapacityError,
    ContractError,
    DomainError,
    cis,
    mu4_hat,
)
from frame_lab.transform import _BLOCK, TOL, mu4_hat_array
from oracles import (
    XCylinder,
    cylinder_exp_integral,
    exact_cis,
    ifs_monte_carlo_integral,
    mu4_hat_recursive,
)


def test_cis_quarter_turns_exact():
    turns = [0.0, 0.5, 0.25, 0.75, -0.5, -0.25, -0.75, 7.0, -6.25, 2.0**40 + 0.5]
    want = [1, -1, 1j, -1j, -1, -1j, 1j, 1, -1j, -1]
    assert cis(turns).tolist() == want
    assert cis(0.25) == 1j and cis(0.25).shape == ()


def test_cis_matches_exact_oracle_off_quarter_turns():
    rng = np.random.default_rng(20261019)
    turns = np.concatenate([rng.uniform(-3, 3, 500), rng.integers(-4096, 4096, 500) / 64.0])
    want = np.array([exact_cis(Fraction(t)) for t in turns])
    assert np.max(np.abs(cis(turns) - want)) <= 1e-14


def test_mu4_hat_at_zero():
    assert mu4_hat(0) == 1


def test_mu4_hat_at_one_is_exactly_zero():
    assert mu4_hat(1) == 0


def test_mu4_hat_vanishes_on_odd_integers():
    # exact 0.0 at every 4^m * odd in [-4^7, 4^7], nonzero at 2 * 4^m * odd and at 0
    n = np.arange(-(4**7), 4**7 + 1)
    low_bit = np.where(n == 0, 2, n & -n)  # 2^(2-adic valuation); 0 counts as "not 4^m * odd"
    structural_zero = np.log2(low_bit).astype(int) % 2 == 0
    assert np.array_equal(mu4_hat_array(n) == 0, structural_zero)
    for t in (1, -3, 5, 4 * 7, -3 * 4**6, 1001):
        assert mu4_hat(t) == 0


def test_mu4_hat_array_matches_recursion_oracle():
    rng = np.random.default_rng(20261017)
    ts = np.concatenate(
        [rng.uniform(-100, 100, 400), np.arange(-300, 301), rng.integers(-(4**8), 4**8, 200) / 64.0]
    )
    got = mu4_hat_array(ts)
    want = np.array([mu4_hat_recursive(t) for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-12
    for t, value in zip(ts[::50], got[::50]):
        assert abs(mu4_hat(float(t)) - value) <= 1e-14


def test_mu4_hat_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(20261018)
    ts = np.concatenate([rng.uniform(-1000, 1000, 300), rng.integers(-(4**8), 4**8, 300) / 4.0])
    batch = mu4_hat_array(ts)
    alone = np.array([mu4_hat(float(t)) for t in ts])
    assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))
    part = np.ascontiguousarray(batch[::-7])
    assert np.array_equal(mu4_hat_array(ts[::-7]).view(np.uint64), part.view(np.uint64))


@pytest.fixture(scope="module")
def block_pool():
    """t values with |t| from 0 to 4^10, so that factor counts (24 to 34)
    differ within a block, each with its single-element transform and
    whether it is a structural zero 4^m * odd."""
    rng = np.random.default_rng(20261019)
    m = np.arange(11)
    zeros = np.concatenate([4.0**m, 3 * 4.0**m, 7 * 4.0 ** m[:-1], 45 * 4.0 ** m[:-2]])
    others = np.concatenate(
        [
            [0.0, 2.0, 8.0, 2.0 * 4**9, 4.0**10 - 2],
            rng.integers(-64, 64, 40) / 16.0 + 1 / 32,
            rng.uniform(-(4**10), 4**10, 60),
            rng.uniform(-1, 1, 20),
        ]
    )
    pool = np.concatenate([zeros, -zeros, others, -others])
    alone = np.concatenate([mu4_hat_array(t) for t in pool])
    return pool, alone, np.arange(len(pool)) < 2 * len(zeros)


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_mu4_hat_bits_do_not_depend_on_the_block(block_pool, size):
    pool, alone, is_zero = block_pool
    pick = np.random.default_rng(size).integers(0, len(pool), size)
    batch = mu4_hat_array(pool[pick])
    assert np.array_equal(batch.view(np.uint64), alone[pick].view(np.uint64))
    assert np.array_equal(batch == 0, is_zero[pick])
    assert not batch[is_zero[pick]].view(np.uint64).any()  # +0.0 in both parts


def test_uncertifiable_factor_count_is_refused():
    # t = 1e30 needs 74 factors at the default tolerance, above MAX_FACTORS = 64
    with pytest.raises(CapacityError):
        mu4_hat(1e30)
    with pytest.raises(CapacityError):
        mu4_hat_array(np.array([0.5, 1e30]))
    assert abs(mu4_hat(1e24)) <= 1.0


@pytest.mark.parametrize(
    "t, tol, culprit",
    [
        (1e30, TOL, "|t| = 1e+30"),
        (4.0, 5e-37, "|t| = 4"),  # 5e-37 alone needs 64 factors, |t| = 4 one more
        (1.0, 4e-37, "tolerance 4e-37"),  # 65 factors at any t
        (1e30, 4e-37, "tolerance 4e-37"),
        (0.0, 5e-324, "tolerance 4.94e-324"),
    ],
)
def test_capacity_message_names_the_input_that_needs_the_factors(t, tol, culprit):
    with pytest.raises(CapacityError) as exc:
        mu4_hat(t, tol)
    assert str(exc.value) == f"{culprit} needs over 64 factors"


def test_mu4_hat_at_two_matches_recursion_oracle():
    assert abs(mu4_hat(2) - mu4_hat_recursive(2.0)) < 1e-12
    assert abs(mu4_hat(2)) > 0.1


def test_recursion_invariant_on_random_grid():
    rng = np.random.default_rng(20240817)
    ts = rng.uniform(-100, 100, size=1000)
    for t in ts:
        lhs = mu4_hat(float(t))
        rhs = (1.0 + np.exp(1j * np.pi * t)) / 2.0 * mu4_hat(float(t) / 4.0)
        assert abs(lhs - rhs) <= 2 * TOL
        assert abs(lhs) <= 1.0 + TOL


def test_conjugate_symmetry():
    rng = np.random.default_rng(7)
    for t in rng.uniform(-50, 50, size=200):
        t = float(t)
        assert abs(mu4_hat(-t) - mu4_hat(t).conjugate()) <= 2 * TOL


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        mu4_hat(float("nan"))
    with pytest.raises(DomainError):
        mu4_hat(float("inf"))


def test_tolerance_validation():
    for tol in (0.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            mu4_hat(2, tol)
        with pytest.raises(DomainError):
            mu4_hat_array([0.5, 2.0], tol)


def test_cylinder_measure():
    for K in range(4):
        u = XCylinder((0, 2, 0, 2)[:K])
        assert cylinder_exp_integral(0, u) == pytest.approx(2.0**-K, abs=1e-15)


def test_cylinder_integral_zero_cases():
    assert cylinder_exp_integral(1, XCylinder(())) == 0
    assert cylinder_exp_integral(4, XCylinder((2,))) == 0


def test_cylinder_additivity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        delta = float(rng.uniform(-20, 20))
        digits = tuple(2 * int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, 4))))
        u = XCylinder(digits)
        children = sum(
            cylinder_exp_integral(delta, XCylinder(digits + (a,))) for a in (0, 2)
        )
        assert abs(children - cylinder_exp_integral(delta, u)) <= 4 * TOL


def test_cylinder_digits_validated():
    with pytest.raises(ValueError):
        XCylinder((1,))


def test_monte_carlo_constant_is_exact():
    val = ifs_monte_carlo_integral(lambda x, y, _: np.ones_like(x), depth=8, samples=1000, seed=1)
    assert val == 1


def test_monte_carlo_oscillation_vanishes():
    n = 200_000
    val = ifs_monte_carlo_integral(
        lambda x, y, _: np.exp(2j * np.pi * x), depth=24, samples=n, seed=11
    )
    assert abs(val) <= 5 / math.sqrt(n)


def test_monte_carlo_matches_transform():
    n = 200_000
    val = ifs_monte_carlo_integral(
        lambda x, y, _: np.exp(2j * np.pi * 2 * x), depth=24, samples=n, seed=12
    )
    assert abs(val - mu4_hat(2)) <= 5 / math.sqrt(n)


def test_monte_carlo_depth_guard():
    with pytest.raises(ContractError):
        ifs_monte_carlo_integral(lambda x, y, _: x, depth=4, samples=10, seed=0)


def test_monte_carlo_deterministic():
    a = ifs_monte_carlo_integral(lambda x, y, _: x + 1j * y, depth=12, samples=5000, seed=42)
    b = ifs_monte_carlo_integral(lambda x, y, _: x + 1j * y, depth=12, samples=5000, seed=42)
    assert a == b
