"""Projection onto the x-only subspace and the weighted exponential frames.

Projecting the generated orthonormal family onto functions of x alone turns
the word vector for omega into the single weighted exponential
(d_omega, c(omega)) with d_omega = prod_k (a_{j_k 0} + a_{j_k 2}).
verify_projection integrates out y on every x cylinder of the closed-form
family, a sum over the y axes of its coefficient rows, and measures one
residual against d_n on every cylinder, so a defect is a failed check. Indexed
by integers, the weights take the closed multiplicative form
p^{l1(n)} * 0^{l2(n)} * q^{l3(n)} over the base-4 digit counts of n;
weight_table is the one function that computes them. The trace machinery
certifies the Bessel bound, monotone Parseval partial sums, the refinement
identity of the coefficient-energy function h, and the incompleteness of
the p = 0 family.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .cuntz import family_size, generated_family
from .errors import DomainError, in_range, positive_tol
from .filters import FilterBank, g_map, little_m
from .report import Check
from .transform import mu4_hat_array

MAX_ENUM_LEN = 10  # n_max <= 4**MAX_ENUM_LEN for the weight table and every trace, max_len <= it for h_partial
MAX_GAMMAS = 100  # frequencies per verify_incomplete call, one trace each
MAX_RUELLE_LEVEL = 4  # deepest level L of verify_ruelle, whose energy sums reach 4^(L + 1)

WEIGHT_TABLE_COLUMNS = ("n", "l1", "l2", "l3", "weight_re", "weight_im", "weight_abs2")
TRACE_COLUMNS = ("N", "partial_sum", "target")
INCOMPLETE_THRESHOLD = 1e-6  # deficiency above which a frequency is flagged
SPECIALIZATION_TOL = 1e-12  # largest gap verify_ruelle allows between reduced and general sums
_CSV_BLOCK = 4**6  # weight table rows formatted and written at a time
_OFF_SUPPORT = ",0.0,0.0,0.0\r\n"  # weight_re, weight_im, weight_abs2 of a row with no weight: 0j
_ENERGY_BLOCK = 4**7  # h_partial's grid x support terms at a time (at least one grid point)
# Digit j adds 1 to l_j; the counts (<= 11) are summed packed 4 bits each in one int16.
_PACKED_COUNT = np.array([0, 1, 16, 256], dtype=np.int16)


def _listing(digits: np.ndarray, n_max: int) -> np.ndarray:
    """Ascending n <= n_max whose base-4 digits all lie in digits (which
    holds 0), built one place at a time as a Kronecker sum.

    Below the leading place every block fits under n_max; at it, blocks
    start only at or below n_max and one filter trims the last.
    """
    n = np.zeros(1, dtype=np.int64)
    place = 1
    while place <= n_max:
        lead = digits if 4 * place <= n_max else digits[digits * place <= n_max]
        n = np.add.outer(lead * place, n).ravel()
        place *= 4
    return n[n <= n_max]


def _digit_counts(n: np.ndarray) -> np.ndarray:
    """The counts (l1, l2, l3) of the digits 1, 2, 3 of every n, one base-4
    place at a time."""
    packed = np.zeros(len(n), dtype=np.int16)
    while np.any(n):
        packed += _PACKED_COUNT[n & 3]
        n = n >> 2
    return np.stack([packed & 15, packed >> 4 & 15, packed >> 8], axis=1)


def weight_table(digit_weights: Sequence[complex], n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The frame weights on their support: (n, d).

    n lists the n <= n_max whose base-4 digits all have nonzero weight, and
    d their weights, from the digit counts (l1, l2, l3) of _digit_counts,
    the counter the CSV blocks use. digit_weights[0] is 1 (the first
    row of an admissible bank is 1/2), and d_n = w1^l1 * w3^l3 is read from
    a table of that closed form evaluated by Python's complex arithmetic,
    one entry per (l1, l3): bit for bit p^l1 0^l2 q^l3. w2 is 0 for every
    admissible bank (its row sums to 0 and meets the kernel condition); a
    nonzero w2 multiplies in as w2^l2.
    """
    w1, w2, w3 = (complex(x) for x in digit_weights[1:])
    n = _listing(np.flatnonzero(digit_weights), in_range("n_max", n_max, 0, 4**MAX_ENUM_LEN))
    counts = _digit_counts(n)
    l1, l2, l3 = counts.T
    top = range(int(counts.max(initial=0)) + 1)
    p, q = [w1**k for k in top], [w3**k for k in top]
    d = np.array([[a * b for b in q] for a in p])[l1, l3]
    if w2:
        d = d * np.array([w2**k for k in top])[l2]
    return n, d


def verify_projection(bank: FilterBank, max_len: int, tol: float) -> Check:
    """P S_omega 1 = d_n e_n, n = c(omega), for every word of length <= max_len,
    as one residual: max_weight_dev is the largest |total - d_n| over every
    word and each of its 2^|omega| x cylinders.

    A batch of generated_family holds words of one length K as rows of 4^K
    coefficients, one per level-K code, at frequency n by construction.
    Pair k = xd/2 + 2 yd of each level puts its y bit above its x bit, so a
    row reshaped to (y, x, y, x, ..) axes, summed over its y axes and scaled
    by 2^-K, the measure of each y cylinder, gives every x cylinder's total;
    a cylinder with no mass totals 0 and counts |d_n|. So a wrong shape or
    weight fails the check at tol alike."""
    positive_tol(tol)
    size = family_size(max_len)
    weights = np.zeros(size, dtype=complex)
    support, d = weight_table(bank.digit_weights, size - 1)
    weights[support] = d
    max_dev = 0.0
    for n, coeff in generated_family(bank, max_len):
        bits = coeff.shape[1].bit_length() - 1  # 2K: a (y, x) pair of axes per level
        total = coeff.reshape(len(n), *[2] * bits).sum(axis=tuple(range(1, bits, 2)))
        gap = total.reshape(len(n), -1) * 2.0 ** -(bits // 2) - weights[n, None]
        del coeff  # dropped before the next batch is built
        dev = np.hypot(gap.real, gap.imag)  # bit for bit Python's abs, unlike np.abs
        max_dev = max(max_dev, float(np.max(dev)))
    return Check(max_dev <= tol, {"max_weight_dev": max_dev}, {"weight_dev": tol})


class PartialSumTrace(NamedTuple):
    """Partial sums at the checkpoints, the target ||f||^2, and the terms
    on the support of the frame weights: terms[i] belongs to index n[i],
    and every n <= n_max that n omits has the term 0.0."""

    checkpoints: tuple[tuple[int, float], ...]
    target: float
    n: np.ndarray
    terms: np.ndarray

    @property
    def final_value(self) -> float:
        return self.checkpoints[-1][1]

    @property
    def deficiency(self) -> float:
        return self.target - self.final_value


def _checkpoint_grid(n_max: int) -> list[int]:
    grid = []
    n = 4
    while n <= n_max:
        grid.append(n)
        n *= 4
    if not grid or grid[-1] != n_max:
        grid.append(n_max)
    return grid


def _frame_support(f, bank: FilterBank, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, weights): the ascending support n <= n_max of the bank's frame
    weights d_n, as weight_table lists it, and |d_n|^2 on it.

    Off the support every term of a trace or energy sum is 0.0 and none is
    stored, so their memory grows with the support (at most 3^L below
    4^L), not with n_max. The frequencies g of f must keep every g - n
    exact in float64.
    """
    n, d = weight_table(bank.digit_weights, n_max)
    if any(np.max(np.abs(g)) + n_max >= 2**53 for g, _ in f):
        raise DomainError("frequencies must stay below 2^53 to be exact in float64")
    return n, np.abs(d) ** 2


def _weighted_terms(f, n: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """terms[..., i] = weights[i] |sum_g c_g mu4_hat(g - n[i])|^2.

    The one kernel behind traces, incompleteness and the energy function.
    A frequency g may be an array ending in an axis of length 1: the terms
    then get its leading axes.
    """
    inner = sum(c * mu4_hat_array(g - n) for g, c in f)
    return weights * np.abs(inner) ** 2


def parseval_trace(
    f: Sequence[tuple[int, complex]],
    bank: FilterBank,
    n_max: int,
) -> PartialSumTrace:
    """Partial sums S_N = sum_{n<=N} |d_n|^2 |<f, e_n>|^2 at checkpoints 4^k,
    d_n the frame weights of the bank.

    f is a finite combination [(frequency, coefficient), ..] of integer
    exponential frequencies; <e_g, e_n> = mu4_hat(g - n) gives the inner
    products. The terms come from the weighted-transform kernel, the target
    ||f||^2 from one mu4_hat_array call over every difference g1 - g2, its
    terms added pair after pair. The sums run over the support of the
    weights, and S_N is read at the last index n <= N: np.cumsum adds in
    order and an exact 0.0 off the support changes no bit.
    """
    in_range("n_max", n_max, 1)
    f = [(int(g), complex(c)) for g, c in f]
    pairs = [(g1 - g2, c1 * c2.conjugate()) for g1, c1 in f for g2, c2 in f]
    target = 0.0
    for (_, c), mu in zip(pairs, mu4_hat_array([d for d, _ in pairs]).tolist()):
        target += (c * mu).real
    n, weights = _frame_support(f, bank, n_max)
    terms = _weighted_terms(f, n, weights)
    grid = _checkpoint_grid(n_max)
    running = np.cumsum(terms)[np.searchsorted(n, grid, "right") - 1]  # n[0] = 0 is on the support
    checkpoints = tuple(zip(grid, running.tolist()))
    return PartialSumTrace(checkpoints=checkpoints, target=target, n=n, terms=terms)


def verify_parseval(trace: PartialSumTrace, tol: float) -> Check:
    """The partial sums never decrease and stay below the Bessel cap
    target * (1 + tol)."""
    positive_tol(tol)
    values = [v for _, v in trace.checkpoints]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    passed = monotone and all(v <= trace.target * (1.0 + tol) for v in values)
    metrics = {f"s_{N}": v for N, v in trace.checkpoints}
    metrics.update({"target": trace.target, "deficiency": trace.deficiency})
    return Check(passed, metrics, {"bessel_slack": tol})


def h_partial(t, bank: FilterBank, max_len: int):
    """Coefficient energy sum_{omega, |omega| <= max_len} |<e_t, S_omega 1>|^2
    at every element of t, in t's shape (a float64 scalar for a scalar t).

    By the projection formula P S_omega 1 = d_omega e_{c(omega)} this is the
    Parseval partial sum over n < 4^max_len for e_t with the bank's digit
    weights, computed by the weighted-transform kernel and summed over the
    support in order, as parseval_trace sums: at an integer t it is bit for
    bit the trace's last partial sum at n_max = 4^max_len - 1. The grid is
    taken _ENERGY_BLOCK terms at a time (at least one point), so no array
    spans the grid times the support. The refinement identity check stays
    two-sided: the symbols little_m are independent.
    """
    t = np.asarray(t, dtype=np.float64)
    max_len = in_range("max_len", max_len, 1, MAX_ENUM_LEN)
    n, weights = _frame_support([(t, 1.0)], bank, 4**max_len - 1)
    points = t.reshape(-1, 1)
    step = max(1, _ENERGY_BLOCK // len(n))  # grid points per block
    out = np.empty(len(points))
    for lo in range(0, len(points), step):
        terms = _weighted_terms([(points[lo : lo + step], 1.0)], n, weights)
        out[lo : lo + step] = np.cumsum(terms, axis=-1)[:, -1]
    return out.reshape(t.shape)[()]


def verify_ruelle(bank: FilterBank, t_grid: Sequence[float], level: int, tol: float) -> Check:
    """Check h_{L+1}(t) = sum_j |m_j(t)|^2 h_L((t-j)/4) on a grid, to tol,
    at L = level.

    The identity is exact at every finite truncation depth because the
    depth-(L+1) family is the disjoint union of the isometry images of the
    depth-L family. By the kernel condition the coefficients reduce to
    |m_j(t)|^2 = |d_j|^2 cos^2(pi t/2) for even j and |d_j|^2 sin^2(pi t/2)
    for odd j, d_j the digit weights (d_0 = 1, d_2 = 0), and the reduced form
    must match the general one to SPECIALIZATION_TOL. The grid is checked at
    once: one energy kernel call per level.
    """
    positive_tol(tol)
    in_range("level", level, 1, MAX_RUELLE_LEVEL)
    t = np.array(t_grid, dtype=np.float64, ndmin=1)
    in_range("grid points", t.size, 1)
    lhs = h_partial(t, bank, level + 1)
    h_vals = h_partial(np.array([g_map(j, t) for j in range(4)]), bank, level)
    symbols = [np.abs(little_m(bank, j, t)) ** 2 for j in range(4)]
    rhs = sum(s * h for s, h in zip(symbols, h_vals))
    max_resid = float(np.max(np.abs(lhs - rhs)))
    c2 = np.cos(math.pi * t / 2.0) ** 2
    s2 = np.sin(math.pi * t / 2.0) ** 2
    _, d1, _, d3 = bank.digit_weights
    reduced = c2 * h_vals[0] + s2 * abs(d1) ** 2 * h_vals[1] + s2 * abs(d3) ** 2 * h_vals[3]
    max_gap = float(np.max(np.abs(rhs - reduced)))
    passed = max_resid <= tol and max_gap <= SPECIALIZATION_TOL
    metrics = {"max_refinement_residual": max_resid, "max_specialization_gap": max_gap}
    return Check(passed, metrics, {"residual": tol, "specialization": SPECIALIZATION_TOL})


def is_parseval(bank: FilterBank) -> bool:
    """Whether the bank's frame is Parseval, which holds exactly when its
    digit weight p = d_1 is nonzero (|d_1| > 1e-15)."""
    return abs(bank.digit_weights[1]) > 1e-15


def verify_incomplete(bank: FilterBank, gammas: Sequence[int], n_max: int, tol: float) -> Check:
    """Deficiency 1 - S_{n_max}(e_gamma) for the frame of a p = 0 bank.

    Its weights vanish off the integers whose base-4 digits lie in {0, 3}.
    A bank with p != 0 is refused: its frame is Parseval, and a deficiency
    that its truncated trace still shows is not incompleteness. A
    frequency is flagged when its deficiency exceeds INCOMPLETE_THRESHOLD:
    its exponential has energy visibly missing from the family's span. The
    check passes when every trace passes verify_parseval at tol and at
    least one frequency is flagged.
    """
    positive_tol(tol)
    if is_parseval(bank):
        raise DomainError(f"incompleteness needs a p = 0 bank, got p = {bank.digit_weights[1]:.6g}")
    in_range("gamma count", len(gammas), 1, MAX_GAMMAS)
    if len(set(gammas)) < len(gammas):
        raise DomainError(f"frequencies must be distinct, got {list(gammas)}")
    metrics = {}
    bessel, flagged = True, False
    for gamma in map(int, gammas):
        trace = parseval_trace([(gamma, 1.0)], bank, n_max)
        metrics[f"deficiency_{gamma}"] = trace.deficiency
        metrics[f"flagged_{gamma}"] = trace.deficiency > INCOMPLETE_THRESHOLD
        bessel = bessel and verify_parseval(trace, tol).passed
        flagged = flagged or metrics[f"flagged_{gamma}"]
    tolerances = {"report_threshold": INCOMPLETE_THRESHOLD, "bessel_slack": tol}
    return Check(bessel and flagged, metrics, tolerances)


def write_weight_table(path, bank: FilterBank, n_max: int) -> int:
    """CSV columns n, l1, l2, l3, weight_re, weight_im, weight_abs2 of the
    bank's frame weights for n = 0 .. n_max, _CSV_BLOCK rows formatted as
    one string at a time, so no array spans all n; returns the number of
    nonzero weights.

    A row on the support of weight_table ends in the repr of its weight's
    parts and of |d_n|^2, which keeps the sign of a weight that underflows to
    0.0; every other row ends in _OFF_SUPPORT. Lines end in CRLF, as the csv
    module writes them.
    """
    support, d = weight_table(bank.digit_weights, n_max)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(WEIGHT_TABLE_COLUMNS) + "\r\n")
        for start in range(0, n_max + 1, _CSV_BLOCK):
            n = np.arange(start, min(start + _CSV_BLOCK, n_max + 1))
            lo, hi = np.searchsorted(support, [start, start + len(n)])
            ends = [_OFF_SUPPORT] * len(n)
            for i, w in zip((support[lo:hi] - start).tolist(), d[lo:hi].tolist()):
                ends[i] = f",{w.real!r},{w.imag!r},{abs(w) ** 2!r}\r\n"
            l1, l2, l3 = _digit_counts(n).T.tolist()
            rows = zip(n.tolist(), l1, l2, l3, ends)
            fh.write("".join([f"{k},{a},{b},{c}{end}" for k, a, b, c, end in rows]))
    return int(np.count_nonzero(d))


def write_trace_csv(path, trace: PartialSumTrace) -> None:
    """CSV columns N, partial_sum, target, lines ending in CRLF; each value
    is written as the repr of its float, whatever float type the trace holds."""
    target = repr(float(trace.target))
    rows = [f"{N},{float(value)!r},{target}\r\n" for N, value in trace.checkpoints]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n" + "".join(rows))
