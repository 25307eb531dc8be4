"""The four-isometry representation acting on cylinder exponentials.

S_j scales by the filter and pulls back through the expanding map, which on
an atom prepends one pair index k per first-level cylinder (the pair
encoding of atoms, x digit 2 (k & X_BITS)); S_j* removes the leading pair.
The frequency maps t -> 4t + j and t -> (t - j)/4 are exact on the dyadic
float64 frequencies.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

import numpy as np

from .atoms import (
    ATOM,
    X_BITS,
    FunctionSum,
    concat,
    fs_sub,
    normalize,
    norms,
    refine,
    renumber,
)
from .errors import in_range, positive_tol
from .filters import FilterBank, g_map, little_m
from .report import Check
from .transform import cis, mu4_hat_array

FAMILY_MAX_LEN = 5  # longest words of the generated family and of its Gram matrix
MAX_TRIALS = 500  # random vectors per verify_cuntz call; the largest run takes well under a second
MAX_CUNTZ_LEVEL = 4  # deepest level of verify_cuntz's random vectors
TRIALS_PER_PASS = 64  # trial vectors verify_cuntz stacks at once; bounds its working memory
FAMILY_BATCH_ATOMS = 2 * 4**5  # most coefficients in a generated_family batch, while a longest word fits
ATOMS_PER_VECTOR = 3  # atoms in each random test vector of random_function_sum
_PAD = 4  # row index of the padding row in the Gram kernel's tables
_PAIRS = np.arange(4)
_X_DIGITS = 2 * (_PAIRS & X_BITS)  # x digit of each pair index: 0, 2, 0, 2


def apply_S(bank: FilterBank, F: FunctionSum) -> FunctionSum:
    """All four generating isometries at once: vector v of F becomes the
    vectors 4v + j, each holding S_j F_v.

    Under S_j an atom (c,t,u) maps to its four children; child k carries
    coefficient 2*a_jk*c*e^{-2 pi i t xd(k)}, frequency 4t + j, and k
    prepended to the word, xd(k) being the x digit of k. The children of
    every atom are one (atoms, 4 j, 4 k) broadcast, merged once its
    temporaries are freed.
    """
    return normalize(FunctionSum(_children(bank, F.atoms, _PAIRS[:, None])))


def _children(bank: FilterBank, atoms: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The unmerged images under S_j, the letters j broadcast against the
    (atoms, letters, 1) axes: (4, 1) applies every letter to every atom,
    (atoms, 1, 1) one letter per atom. The (atoms, letters, 4 k) rows come
    flattened; vector v goes to 4v + j."""
    a = atoms[:, None, None]
    coeff = 2.0 * bank.A[j, _PAIRS] * a["coeff"]
    coeff *= cis(-a["freq"] * _X_DIGITS)
    children = np.empty(coeff.shape, dtype=ATOM)
    children["coeff"] = coeff
    children["freq"] = 4 * a["freq"] + j
    children["code"] = _PAIRS << 2 * a["level"] | a["code"]
    children["level"] = a["level"] + 1
    children["vec"] = 4 * a["vec"] + j
    return children.ravel()


def apply_S_star(bank: FilterBank, F: FunctionSum) -> FunctionSum:
    """The adjoints, all four at once: vector v of F becomes the vectors
    4v + j, each holding S_j* F_v. S_j* strips the leading digit pair.

    Pair k of an atom (c,t,u) carries conj(a_jk) e^{2 pi i (t - j) xd(k)/4} / 2,
    whose phase is exactly 1 on an even pair (xd = 0). On a deeper atom
    only its leading pair k = u >> 2(level - 1) survives; on a level-0 atom
    all four pairs contribute, and their sum is the symbol: the image is
    little_m(j, t) c times the exponential at (t - j)/4. The images of every
    atom are one (atoms, 4 j) broadcast, merged once its temporaries are
    freed.
    """
    return normalize(FunctionSum(_adjoint_images(bank, F.atoms)))


def _adjoint_images(bank: FilterBank, a: np.ndarray) -> np.ndarray:
    """The unmerged images of apply_S_star: (atoms, 4 j) rows, flattened.
    A level-0 atom's factor is little_m, a deeper atom's its leading pair's
    term."""
    t = a["freq"][:, None]
    down = g_map(_PAIRS, t)  # (t - j) / 4 at (atom, j)
    odd = cis(2 * down)  # the phase of an odd pair (x digit 2)
    half = np.ascontiguousarray(0.5 * bank.A.conj().T)  # half[k, j] = conj(a_jk) / 2
    shift = np.maximum(2 * (a["level"] - 1), 0)
    lead = a["code"] >> shift
    factor = half[lead] * np.where((lead & 1)[:, None] == 1, odd, 1.0)
    top = a["level"] == 0
    factor[top] = little_m(bank, _PAIRS, t[top])
    out = np.empty((len(a), 4), dtype=ATOM)
    out["coeff"] = factor * a["coeff"][:, None]
    out["freq"] = down
    out["code"] = (a["code"] - (lead << shift))[:, None]
    out["level"] = np.maximum(a["level"] - 1, 0)[:, None]
    out["vec"] = 4 * a["vec"][:, None] + _PAIRS
    return out.ravel()


def family_size(max_len: int) -> int:
    """4^max_len, the number of words of length <= max_len, for a length the
    generated family allows."""
    return 4 ** in_range("max_len", max_len, 1, FAMILY_MAX_LEN)


def generated_family(bank: FilterBank, max_len: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """S_omega 1 for the words omega of X4 up to max_len, in batches (n, coeff):
    row i of coeff holds S_omega 1 for the word n[i] = c(omega), and every
    n < 4^max_len is in exactly one batch, the lengths in ascending order.

    A word is its index: the base-4 digits of n, applied most significant
    first (word 0 is (0,)). A batch is a run of consecutive words of one
    length K, FAMILY_BATCH_ATOMS // 4^K of them (at least one), each a row
    of 4^K coefficients, built in closed form by _family_batch from the
    letters that _level_rows lists. The generator holds no batch but the
    one it yields.
    """
    family_size(max_len)
    R = 2.0 * bank.A
    rows = _level_rows(max_len)
    for K in range(1, max_len + 1):
        words = max(1, FAMILY_BATCH_ATOMS // 4**K)  # words per batch, each of 4^K coefficients
        for lo in range(4 ** (K - 1) if K > 1 else 0, 4**K, words):
            n = np.arange(lo, min(lo + words, 4**K))
            yield n, _family_batch(R, rows[:K], n)


def _family_batch(R: np.ndarray, rows: np.ndarray, n: np.ndarray) -> np.ndarray:
    """S_omega 1 for the words n, all of length K = len(rows), in closed
    form: row w is e_{n[w]}'s step function, its coefficient on each
    level-K code, the Kronecker product of the rows R[rows[i - 1, n[w]]]
    (R = 2A) of levels i = 1 .. K, the leading pair most significant in
    the code. The levels are multiplied in as apply_S multiplies them, the
    deepest first (its phase is exactly 1 at integer frequencies): the
    values of the operator recursion, one apply_S per letter.
    """
    coeff = np.ones((len(n), 1), dtype=complex)
    for r in rows[::-1]:
        coeff = (R[r[n]][:, :, None] * coeff[:, None, :]).reshape(len(n), -1)
    return coeff


def random_function_sum(rng: random.Random, level: int, vectors: int = 1) -> FunctionSum:
    """Random test vectors 0 .. vectors - 1 of one batch, drawn one vector
    after another, so one draw of T vectors equals T single draws.

    Each atom takes, in this order: a frequency uniform in [-8, 8]
    (getrandbits(5), redrawn while above 16), a code uniform in
    [0, 4^level) (getrandbits(2 level): independent uniform pairs), and a
    coefficient whose real and imaginary parts are independent standard
    normals (Box-Muller on two random() draws).
    """
    atoms = []
    for v in range(vectors):
        for _ in range(ATOMS_PER_VECTOR):
            freq = rng.getrandbits(5)
            while freq > 16:
                freq = rng.getrandbits(5)
            code = rng.getrandbits(2 * level)
            radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
            angle = 2.0 * math.pi * rng.random()
            coeff = complex(radius * math.cos(angle), radius * math.sin(angle))
            atoms.append((coeff, freq - 8, code, level, v))
    return normalize(FunctionSum(np.array(atoms, dtype=ATOM)))


def verify_cuntz(bank: FilterBank, level: int, trials: int, seed: int, tol: float) -> Check:
    """Check S_j* S_k = delta_jk I and sum_k S_k S_k* = I on random vectors
    drawn by random.Random(seed): every residual, relative to the vector's
    norm, is at most tol.

    The trials run in passes of TRIALS_PER_PASS vectors. In a pass of T
    vectors, apply_S_star(apply_S(F)) holds S_j* S_k F_v at vector
    16v + 4k + j, and one subtraction of F_v at the slots j = k forms the
    16 T orthogonality residuals. The identity sum forms only its 4 T
    terms: each image S_k* F_v of apply_S_star(F) goes through _children
    with its own letter k, and each term S_k S_k* F_v is merged on its own
    before the four are added at vector v, where F less it is the identity
    residual. One norms call measures each kind, and one more the norms of F.
    """
    positive_tol(tol)
    in_range("trials", trials, 1, MAX_TRIALS)
    in_range("level", level, 0, MAX_CUNTZ_LEVEL)
    rng = random.Random(in_range("seed", seed, 0))
    max_orth = max_ident = 0.0
    for done in range(0, trials, TRIALS_PER_PASS):
        T = min(TRIALS_PER_PASS, trials - done)
        F = random_function_sum(rng, level, T)
        diagonal = concat(*[renumber(F, 16, 5 * k) for k in range(4)])  # F_v at the j = k slots
        orth = norms(fs_sub(apply_S_star(bank, apply_S(bank, F)), diagonal), 16 * T).reshape(T, 16)
        star = apply_S_star(bank, F).atoms  # S_k* F_v at vector 4v + k
        # S_k S_k* F_v at vector 16v + 5k, each merged on its own before the sum over k
        terms = normalize(FunctionSum(_children(bank, star, star["vec"][:, None, None] & 3)))
        terms = terms.atoms.copy()
        terms["vec"] >>= 4
        total = normalize(FunctionSum(terms))  # sum_k S_k S_k* F_v at vector v
        # At level 0 the sum is one level deeper than F; refined to it, F cancels
        # atom by atom instead of leaving a difference of ~1e-16 per atom pair.
        ident = norms(fs_sub(total, refine(F, total.level)), T)
        nf = norms(F, T)
        kept = nf != 0.0
        max_orth = max(max_orth, float(np.max(orth[kept] / nf[kept, None], initial=0.0)))
        max_ident = max(max_ident, float(np.max(ident[kept] / nf[kept], initial=0.0)))
    metrics = {"max_orthogonality_residual": max_orth, "max_identity_residual": max_ident}
    return Check(max_orth <= tol and max_ident <= tol, metrics, {"relative_residual": tol})


def _level_rows(max_len: int) -> np.ndarray:
    """rows[i - 1, n]: the filter row word n carries at level i, or _PAD.

    Word n has the base-4 digits of n as letters (word 0 is (0,)), and its
    leading pair couples to its last letter, so level i carries digit i - 1
    of n counted from the least significant; a word shorter than i is
    padded there. The one table of a word's letters, level by level: the
    generated family and the Gram kernel both read S_omega 1 from it.
    """
    n = np.arange(4**max_len)
    return np.array(
        [np.where(np.maximum(n, 1) < 4**i, _PAD, (n >> 2 * i) & 3) for i in range(max_len)]
    )


def _pair_sums(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[r, s] and O[r, s]: the sums of R[r, k] conj(R[s, k]) over the even
    and over the odd pair indices k, formed as products and sums rather than
    a matrix product, which would start BLAS."""
    products = R[:, None, :] * R[None, :, :].conj()
    return products[..., 0::2].sum(axis=-1), products[..., 1::2].sum(axis=-1)


def _gram_rows(bank: FilterBank, max_len: int) -> Iterator[np.ndarray]:
    """Row f of the Gram matrix of the words of length <= max_len, from the
    diagonal on: G[f, f:] for f = 0 .. 4^max_len - 1.

    S_omega 1 is e_{c(omega)} times the Kronecker product of the rows 2A[j]
    of its letters, one per level, as _level_rows lists them and as
    generated_family builds it. With every word lifted to level
    L = max_len by rows of ones (a padded level's factor is the next factor
    of mu4_hat), the entry for words f <= g with k = g - f is

        mu4_hat(-k / 4^L) * prod_i (E[r, s] + O[r, s] e^{-4 pi i k / 4^i}),

    r, s the rows of f and g at level i, and E, O the sums of the row
    products over the even and odd pair indices, divided by 4. Everything
    that depends on k alone is computed once.
    """
    R = np.vstack([bank.A, np.full(4, 0.5)])  # row _PAD: the ones row, halved like 2A
    E, O = _pair_sums(R)
    rows = _level_rows(max_len)
    n = rows.shape[1]
    k = np.arange(n)
    mu = mu4_hat_array(-k / 4.0**max_len)
    phases = [cis(-2.0 * k / 4**i) for i in range(1, max_len + 1)]  # exact at quarter turns
    tables = [(E[:, level], O[:, level]) for level in rows]  # E[r, s] of every word at level i
    for f in range(n):
        entries = mu[: n - f].copy()
        for (E_i, O_i), r, phase in zip(tables, rows[:, f], phases):
            entries *= E_i[r, f:] + O_i[r, f:] * phase[: n - f]
        yield entries


def verify_gram(bank: FilterBank, max_len: int, tol: float) -> Check:
    """The Gram matrix of the generated family over words of length <=
    max_len is the identity: every entry is within tol of it. The matrix is
    Hermitian, so only its upper triangle is formed, one row at a time, and
    none is stored.
    """
    positive_tol(tol)
    size = family_size(max_len)
    max_offdiag = max_diag_dev = 0.0
    for entries in _gram_rows(bank, max_len):
        max_diag_dev = max(max_diag_dev, float(abs(entries[0] - 1.0)))
        max_offdiag = max(max_offdiag, float(np.max(np.abs(entries[1:]), initial=0.0)))
    metrics = {"size": size, "max_offdiag": max_offdiag, "max_diag_dev": max_diag_dev}
    return Check(max(max_offdiag, max_diag_dev) <= tol, metrics, {"max_entry_dev": tol})
