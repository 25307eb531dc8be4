"""Fourier transform of the Cantor-4 measure.

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
from dataclasses import dataclass
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
    """Truncation policy for the infinite product."""

    tolerance: float = 1e-12
    max_factors: int = 64

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
    """Truncated product at every element of a float64 array.

    Factor k is (1 + i^q)/2 with q = (8t/4^k) mod 4, computed exactly by a
    power-of-two scaling and fmod; whole q take exact phases. Each element
    gets its own certified factor count. The product is formed from real
    multiplies and adds, one rounding each, so an element's bits do not
    depend on the length of the array it is evaluated in.
    """
    t = np.array(t, dtype=np.float64, ndmin=1)
    if not np.all(np.isfinite(t)):
        raise DomainError("t must be finite")
    counts = cfg.factor_count(np.abs(t))
    re, im = np.ones(t.shape), np.zeros(t.shape)
    for k in range(1, int(np.max(counts, initial=0)) + 1):
        q = np.fmod(t * 2.0 ** (3 - 2 * k), 4.0)
        q[counts < k] = 0.0  # past this element's certified count: factor 1
        phase = np.exp((0.5j * math.pi) * q)
        whole = q == np.floor(q)
        phase[whole] = _QUARTER_TURNS[q[whole].astype(np.int64) % 4]
        f_re, f_im = (1.0 + phase.real) * 0.5, phase.imag * 0.5
        re, im = re * f_re - im * f_im, re * f_im + im * f_re
    out = np.empty(t.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def mu4_hat(t: Frequency, cfg: TransformEvaluator = DEFAULT_EVALUATOR) -> complex:
    """mu4_hat_array at one real t; |result| <= 1.

    t is read as float64, exact for integers and dyadic rationals below 2^53.
    """
    x = float(t)
    if isinstance(t, bool) or not math.isfinite(x):
        raise DomainError(f"t must be a finite real number, got {t!r}")
    return complex(mu4_hat_array(x, cfg)[0])
