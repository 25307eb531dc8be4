"""Independent oracle implementations used only by the tests.

These deliberately avoid the library's evaluation paths: the transform is
computed by descending t -> t/4 with a closed form below 1e-8 instead of
the truncated ascending product, and the trace/energy oracles sum that
second path directly. The dense-atom energy oracle instead goes through the
closed-form word vectors and the atom inner products.
"""

import cmath
import math

import numpy as np

from frame_lab.cuntz import _dense_word_vector, dense_inner
from frame_lab.words import c_of_word, digit_counts, enumerate_X4


def mu4_hat_recursive(t, _memo={}):
    t = float(t)
    if t in _memo:
        return _memo[t]
    if abs(t) <= 1e-8:
        # exp(2 pi i t/3) * (1 - 2 pi^2 t^2/15) + O(t^4)
        val = cmath.exp(2j * math.pi * t / 3.0) * (1.0 - 2.0 * math.pi**2 * t**2 / 15.0)
    else:
        val = (1.0 + cmath.exp(1j * math.pi * t)) / 2.0 * mu4_hat_recursive(t / 4.0)
    _memo[t] = val
    return val


def oracle_trace_checkpoints(gamma: int, p: complex, q: complex, n_max: int) -> dict:
    """S_N at checkpoints 4^k (and n_max), via the recursion-path transform."""
    running = 0.0
    out = {}
    checkpoint = 4
    for n in range(n_max + 1):
        l1, l2, l3 = digit_counts(n)
        w = 0.0 if l2 else abs(p) ** l1 * abs(q) ** l3
        if w:
            running += w * w * abs(mu4_hat_recursive(gamma - n)) ** 2
        while n == checkpoint:
            out[checkpoint] = running
            checkpoint *= 4
    out[n_max] = running
    return out


def oracle_h_partial(t: float, bank, max_len: int) -> float:
    """Energy sum via the symbol recursion instead of atom inner products."""
    from frame_lab.filters import little_m

    total = 0.0
    for word in enumerate_X4(max_len):
        value = 1.0 + 0j
        cur = float(t)
        for j in reversed(word.letters):
            value *= little_m(bank, j, cur)
            cur = (cur - j) / 4.0
        total += abs(value * mu4_hat_recursive(cur)) ** 2
    return total


def oracle_h_partial_dense(t: float, rep, max_len: int) -> float:
    """Energy sum through the dense atom inner products <e_t, S_omega 1>."""
    e_vec = np.ones(1, dtype=complex)
    total = 0.0
    for word in enumerate_X4(max_len):
        vec = _dense_word_vector(rep.bank, word)
        val = dense_inner(t, e_vec, 0, c_of_word(word), vec, len(word), rep.cfg)
        total += abs(val) ** 2
    return total
