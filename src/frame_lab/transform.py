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

import numpy as np

from .errors import CapacityError, DomainError

# e^{2 pi i m/4}, m = 0..3 (a negative m indexes from the end: m = -1 is -i)
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])
_BLOCK = 4096  # elements per block of mu4_hat_array, and (factor x element) entries per pass
TOL = 1e-12  # default bound on the deviation of the truncated product from the infinite one
MAX_FACTORS = 64  # largest factor count a certified evaluation may use


def cis(turns) -> np.ndarray:
    """e^{2 pi i * turns} at every element of float64 turns, exact at quarter turns.

    The turns are reduced by fmod, which is exact and keeps their sign. Where
    four times the reduced value is whole the result is that exact quarter
    turn; elsewhere it is e^{i theta} with theta = 2 pi times the reduced value.
    """
    frac = np.fmod(np.array(turns, dtype=np.float64, copy=None, ndmin=1), 1.0)
    out = np.exp((2j * math.pi) * frac)
    quarters = 4.0 * frac
    whole = quarters == np.floor(quarters)
    out[whole] = _QUARTER_TURNS[quarters[whole].astype(np.int64)]
    return out.reshape(np.shape(turns))


def factor_count(t_abs, tol: float) -> np.ndarray:
    """Certified factor count at every element of |t|.

    Tail factors obey |factor - 1| <= pi*|t|*4^-k, so stopping at
    max(2, ceil(log4(max(|t|,1)/eps)) + 2) with eps = tol/10 keeps the
    tail's total deviation below tol.
    """
    if not 0 < tol < math.inf:  # also rejects nan
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
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

    Factor k is (1 + cis(2t/4^k))/2: the turns come from a power-of-two
    scaling and cis reduces them by an exact fmod, so whole quarter turns
    take exact phases. Each element gets its own certified factor count.
    The elements are taken _BLOCK at a time. A block runs through its own
    largest count, an element's factors past its own being exactly 1, and
    takes as many factors per pass as keep a pass within _BLOCK (factor x
    element) entries: one at a time over a full block, all of them for a
    short array. The product is formed from real multiplies and adds, one
    rounding each, so an element's bits do not depend on the array it is
    evaluated in.
    """
    t = np.array(t, dtype=np.float64, ndmin=1)
    if not np.all(np.isfinite(t)):
        raise DomainError("t must be finite")
    counts = factor_count(np.abs(t), tol).ravel()
    out = np.empty(t.shape, dtype=complex)
    flat_t, flat_out = t.ravel(), out.reshape(-1)
    for lo in range(0, t.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        block, block_counts = flat_t[part], counts[part]
        re, im = np.ones(len(block)), np.zeros(len(block))
        fewest, last = int(block_counts.min()), int(block_counts.max())
        per_pass = _BLOCK // len(block)
        for first in range(1, last + 1, per_pass):
            k = np.arange(first, min(first + per_pass, last + 1))[:, None]
            turns = np.ldexp(block, 1 - 2 * k)  # row k - first: 2t/4^k
            if k[-1, 0] > fewest:  # past an element's certified count its factor is 1
                turns[block_counts < k] = 0.0
            phase = cis(turns)
            for f_re, f_im in zip((1.0 + phase.real) * 0.5, phase.imag * 0.5):
                re, im = re * f_re - im * f_im, re * f_im + im * f_re
        flat_out[part].real, flat_out[part].imag = re, im
    return out


def mu4_hat(t: float, tol: float = TOL) -> complex:
    """mu4_hat_array at one real t; |result| <= 1.

    t is read as float64, exact for integers and dyadic rationals below 2^53.
    """
    x = float(t)
    if isinstance(t, bool) or not math.isfinite(x):
        raise DomainError(f"t must be a finite real number, got {t!r}")
    return complex(mu4_hat_array(x, tol)[0])
