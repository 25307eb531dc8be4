"""Fourier transform of the Cantor-4 measure.

The measure mu4 is the unique probability measure invariant under
tau_0(x) = x/4, tau_2(x) = (x+2)/4. Applying the invariance identity to
e^{2 pi i t x} gives the infinite product

    mu4_hat(t) = prod_{k>=1} (1 + e^{4 pi i t / 4^k}) / 2,

truncated here with a certified tail rule. Since (1 + e^{i theta})/2 =
e^{i theta/2} cos(theta/2), K factors are the real product
prod_{k<=K} cos(2 pi t/4^k) times the one phase e^{2 pi i t (1 - 4^-K)/3}.
The cosines are read from exact quarter turns, so the structural zeros of
mu4_hat at 4^m * (odd integer) come out as exact 0.0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError, positive_tol

# e^{2 pi i m/4}, m = 0..3 (a negative m indexes from the end: m = -1 is -i)
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])
_BLOCK = 4096  # elements per block of mu4_hat_array, and (factor x element) entries per pass
TOL = 1e-12  # default bound on the deviation of the truncated product from the infinite one
MAX_FACTORS = 64  # largest factor count a certified evaluation may use


def _reduced(turns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """float64 turns reduced to x - trunc(x), the mask of the reduced values
    that are whole quarter turns, and those quarters (-3..3).

    x - trunc(x) is exact and keeps the sign of a nonzero remainder: the bits
    of fmod(x, 1), but +0.0 at a negative whole turn, where fmod gives -0.0.
    """
    x = np.array(turns, dtype=np.float64, copy=None, ndmin=1)
    frac = x - np.trunc(x)
    quarters = 4.0 * frac
    whole = quarters == np.floor(quarters)
    return frac, whole, quarters[whole].astype(np.int64)


def cis(turns) -> np.ndarray:
    """e^{2 pi i * turns} at every element of float64 turns, exact at quarter turns.

    Where four times the reduced turns (_reduced) is whole the result is that
    exact quarter turn; elsewhere it is e^{i theta} with theta = 2 pi times
    the reduced value.
    """
    frac, whole, quarters = _reduced(turns)
    out = np.exp((2j * math.pi) * frac)
    out[whole] = _QUARTER_TURNS[quarters]
    return out.reshape(np.shape(turns))


def cos_turns(turns) -> np.ndarray:
    """cos(2 pi * turns) at every element of float64 turns: the real part of
    cis(turns), read from the same reduction and the same exact quarter
    turns, so a quarter turn is exactly 0.0 and a 3/4 turn -0.0."""
    frac, whole, quarters = _reduced(turns)
    out = np.cos((2 * math.pi) * frac)
    out[whole] = _QUARTER_TURNS.real[quarters]
    return out.reshape(np.shape(turns))


def factor_count(t_abs, tol: float) -> np.ndarray:
    """Certified factor count at every element of |t|.

    Tail factors obey |factor - 1| <= pi*|t|*4^-k, so stopping at
    max(2, ceil(log4(max(|t|,1)/eps)) + 2) with eps = tol/10 keeps the
    tail's total deviation below tol.
    """
    positive_tol(tol)
    # tol / 10 underflows to 0 for the least subnormal tolerances; the least
    # subnormal in its place still needs far more than MAX_FACTORS
    eps = max(tol / 10.0, math.ulp(0.0))
    log4 = (np.log(np.maximum(t_abs, 1.0)) - math.log(eps)) / math.log(4.0)
    counts = np.maximum(2, np.ceil(log4).astype(np.int64) + 2)
    if np.any(counts > MAX_FACTORS):
        # the tolerance is to blame when it alone, at |t| <= 1, needs more factors
        at_one = math.ceil(-math.log(eps) / math.log(4.0)) + 2
        culprit = f"tolerance {tol:.3g}" if at_one > MAX_FACTORS else f"|t| = {np.max(t_abs):.3g}"
        raise CapacityError(f"{culprit} needs over {MAX_FACTORS} factors")
    return counts


def mu4_hat_array(t, tol: float = TOL) -> np.ndarray:
    """Truncated product at every element of a float64 array.

    Factor k contributes cos(2 pi t/4^k), cos_turns(t/4^k): the turns come
    from a power-of-two scaling and cos_turns reduces them exactly, so a
    factor at a quarter turn is exactly 0.0. Each element gets its own
    certified factor count K, and its phase t (1 - 4^-K)/3 turns is taken
    once, from fmod(t, 3), which is exact, so that no whole turns of t/3
    are rounded into it.
    The elements are taken _BLOCK at a time. A block runs through its own
    largest count, an element's factors past its own being exactly 1, and
    takes as many factors per pass as keep a pass within _BLOCK (factor x
    element) entries: one at a time over a full block, all of them for a
    short array. Each pass multiplies its rows into the running product in
    order, one rounding each, so an element's bits do not depend on the
    array it is evaluated in; adding 0.0 leaves an exact zero +0.0 in both
    parts. An array with a value that is not finite is refused, and the
    first such value is named.
    """
    t = np.array(t, dtype=np.float64, ndmin=1)
    if not np.all(np.isfinite(t)):
        raise DomainError(f"t must be a finite real number, got {float(t[~np.isfinite(t)][0])!r}")
    counts = factor_count(np.abs(t), tol).ravel()
    out = np.empty(t.shape, dtype=complex)
    flat_t, flat_out = t.ravel(), out.reshape(-1)
    for lo in range(0, t.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        block, block_counts = flat_t[part], counts[part]
        product = np.ones(len(block))
        fewest, last = int(block_counts.min()), int(block_counts.max())
        per_pass = _BLOCK // len(block)
        for first in range(1, last + 1, per_pass):
            k = np.arange(first, min(first + per_pass, last + 1))[:, None]
            turns = np.ldexp(block, -2 * k)  # row k - first: t/4^k
            if k[-1, 0] > fewest:  # past an element's certified count its factor is 1
                turns[block_counts < k] = 0.0
            product = np.multiply.reduce([product, *cos_turns(turns)])
        phase = cis((np.fmod(block, 3.0) - np.ldexp(block, -2 * block_counts)) / 3.0)
        flat_out[part] = product * phase + 0.0
    return out
