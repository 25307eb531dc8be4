"""Fourier transform of the Cantor-4 measure and cylinder integrals.

The measure mu4 is the unique probability measure invariant under
tau_0(x) = x/4, tau_2(x) = (x+2)/4. Applying the invariance identity to
e^{2 pi i t x} gives the infinite product

    mu4_hat(t) = prod_{k>=1} (1 + e^{4 pi i t / 4^k}) / 2,

truncated here with a certified tail rule. Unit-circle exponentials are
evaluated exactly at quarter turns so the structural zeros of mu4_hat at
4^m * (odd integer) come out as exact 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import CapacityError, ContractError, DomainError

Frequency = Real  # int, float or Fraction; phases of Fractions stay exact in cis

# e^{2 pi i m/4}, m = 0..3
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def cis(turns) -> complex:
    """e^{2 pi i * turns}, exact at quarter-turn arguments."""
    frac = turns % 1
    if frac == 0:
        return complex(1.0, 0.0)
    if frac == Fraction(1, 2):
        return complex(-1.0, 0.0)
    if frac == Fraction(1, 4):
        return complex(0.0, 1.0)
    if frac == Fraction(3, 4):
        return complex(0.0, -1.0)
    theta = 2.0 * math.pi * float(frac)
    return complex(math.cos(theta), math.sin(theta))


@dataclass(frozen=True)
class TransformEvaluator:
    """Truncation policy for the infinite product, plus a value memo."""

    tolerance: float = 1e-12
    max_factors: int = 64
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")
        if self.max_factors < 1:
            raise ContractError("max_factors must be >= 1")

    def factor_count(self, t_abs) -> np.ndarray:
        # Tail factors obey |factor - 1| <= pi*|t|*4^-k, so stopping at
        # max(2, ceil(log4(max(|t|,1)/eps)) + 2) with eps = tolerance/10
        # keeps the tail's total deviation below tolerance.
        log4 = (np.log(np.maximum(t_abs, 1.0)) - math.log(self.tolerance / 10.0)) / math.log(4.0)
        counts = np.maximum(2, np.ceil(log4).astype(np.int64) + 2)
        if np.any(counts > self.max_factors):
            raise CapacityError(f"|t| = {np.max(t_abs):.3g} needs over {self.max_factors} factors")
        return counts


DEFAULT_EVALUATOR = TransformEvaluator()


def mu4_hat_array(t, cfg: TransformEvaluator = DEFAULT_EVALUATOR) -> np.ndarray:
    """Truncated product at every element of a float64 array; the memo is not used.

    Factor k is (1 + i^q)/2 with q = (8t/4^k) mod 4, computed exactly by a
    power-of-two scaling and fmod; whole q take exact phases. Each element
    gets its own certified factor count.
    """
    t = np.array(t, dtype=np.float64, ndmin=1)
    if not np.all(np.isfinite(t)):
        raise DomainError("t must be finite")
    counts = cfg.factor_count(np.abs(t))
    acc = np.ones(t.shape, dtype=complex)
    for k in range(1, int(np.max(counts, initial=0)) + 1):
        q = np.fmod(t * 2.0 ** (3 - 2 * k), 4.0)
        q[counts < k] = 0.0  # past this element's certified count: factor 1
        phase = np.exp((0.5j * math.pi) * q)
        whole = q == np.floor(q)
        phase[whole] = _QUARTER_TURNS[q[whole].astype(np.int64) % 4]
        acc *= (1.0 + phase) * 0.5
    return acc


def mu4_hat(t: Frequency, cfg: TransformEvaluator = DEFAULT_EVALUATOR) -> complex:
    """mu4_hat_array at one real t, memoized per evaluator; |result| <= 1.

    t is read as float64, exact for integers and dyadic rationals below 2^53.
    """
    key = float(t)
    if isinstance(t, bool) or not math.isfinite(key):
        raise DomainError(f"t must be a finite real number, got {t!r}")
    value = cfg._memo.get(key)
    if value is None:
        value = cfg._memo[key] = complex(mu4_hat_array(key, cfg)[0])
    return value


@dataclass(frozen=True)
class XCylinder:
    """A level-K cylinder of the Cantor-4 set, addressed by digits in {0,2}."""

    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple(int(d) for d in self.digits)
        if any(d not in (0, 2) for d in digits):
            raise DomainError(f"cylinder digits must lie in {{0,2}}, got {digits!r}")
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def offset(self) -> Fraction:
        """Left endpoint sum(digits[i-1] / 4^i) as an exact rational."""
        K = len(self.digits)
        return Fraction(sum(d * 4 ** (K - i) for i, d in enumerate(self.digits, start=1)), 4**K)


def cylinder_exp_integral(
    delta: Frequency, u: XCylinder, cfg: TransformEvaluator = DEFAULT_EVALUATOR
) -> complex:
    """integral of e^{2 pi i delta x} over the cylinder u, against mu4.

    Equals 2^-K * e^{2 pi i delta offset(u)} * mu4_hat(delta / 4^K) by
    self-similarity of mu4 restricted to a level-K cylinder.
    """
    K = len(u)
    return 2.0 ** (-K) * cis(delta * u.offset) * mu4_hat(delta / 4**K, cfg)


def ifs_monte_carlo_integral(f, depth: int, samples: int, seed: int) -> complex:
    """Statistical integral of f against the product measure on C4 x [0,1].

    Averages f over points obtained by composing `depth` uniformly random
    contractions of the planar system applied to (0, 0); the point with
    digit string (k_1, .., k_d) is (sum xdig(k_i)/4^i, sum ydig(k_i)/2^i).
    Deterministic for a fixed seed. Test oracle only; never used in
    certified computations.
    """
    if depth < 8:
        raise ContractError("depth must be >= 8 for point-location error below 4^-8")
    if samples < 1:
        raise ContractError("samples must be positive")
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, 4, size=(samples, depth), dtype=np.uint8)
    xdig = (2.0 * (ks & 1)).astype(np.float64)
    ydig = (ks >> 1).astype(np.float64)
    xs = xdig @ (4.0 ** -np.arange(1, depth + 1))
    ys = ydig @ (2.0 ** -np.arange(1, depth + 1))
    vals = np.asarray(f(xs, ys), dtype=np.complex128)
    return complex(np.mean(vals))
