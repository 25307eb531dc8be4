"""Independent oracle implementations used only by the tests.

These deliberately avoid the library's evaluation paths: the transform is
computed by descending t -> t/4 with a closed form below 1e-8 instead of
the truncated ascending product, and the trace/energy oracles sum that
second path directly. The dense inner product sums all 4^K pair words of
two word vectors at once, where the library's Gram kernel factorizes them
level by level; the dense-atom energy oracle goes through it. The exact
atom calculus (one Atom object per atom, Fraction frequencies, phases exact
at quarter turns) is the reference the library's record-array operators are
checked against; function_sum and atom_sum convert between the two forms.
The word vectors on the constant function, the cylinder integrals, the
reduced symbols, cis reduced by fmod and the Monte-Carlo integral over the
dilated fractal (with pointwise evaluation located by the sampler's digits)
are second paths to what the library computes through its operators and
atom calculus. Words
are Word4 tuples of letters here, with the index map c, its inverse and the
digit counts; the library names a word by its index alone. frame_weight
(per n, from the digit counts and a pair (p, q)), projection_weight (per
word, a product over its letters) and the CSV writer driven by them are
the second paths to the library's one digit-weight table. The per-vector
checks (one random trial vector or one word at a time) are the reference
for the library's batched verify_cuntz and verify_projection; they apply
one isometry S_j or S_j* to one sum with S_j and S_j_star, where the
library applies all four at once and numbers S_j F_v as vector 4v + j.
oracle_generated_family builds each word by that operator recursion, one
apply_S per letter, the second path to the library's generated_family,
which reads every word's coefficient row in closed form from its letters.
oracle_project_V is the one general x-projection, of any batch of atoms,
one dict of x-cylinder totals per vector; the library's verify_projection
sums the y axes of the closed-form rows instead. exponential, ONE,
inner_product, norm, fs_add and fs_scale are the single-sum forms the
tests write, thin over the library's batched inner_products, norms,
concat and normalize.
The dense trace and dense weight writer hold every n <= n_max in one
array, where the library keeps only the support of the weights or writes
one block at a time; they pin its bits. The CSV writers here go row by row
through csv.writer, where the library writes text blocks; they pin its
bytes. matmul_deviations forms H*H by a matrix product, which the library
avoids because it starts BLAS.
"""

import cmath
import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from frame_lab.atoms import (
    X_BITS,
    FunctionSum,
    concat,
    fs_sub,
    inner_products,
    norms,
    normalize,
    refine,
)
from frame_lab.cuntz import apply_S, apply_S_star, random_function_sum
from frame_lab.errors import CapacityError, DomainError
from frame_lab.filters import a_to_h, little_m
from frame_lab.frames import MAX_ENUM_LEN, TRACE_COLUMNS, WEIGHT_TABLE_COLUMNS, weight_table
from frame_lab.report import Check
from frame_lab.transform import mu4_hat, mu4_hat_array

_ALPHABET = (0, 1, 2, 3)


# ---- Single-sum helpers over the library's batched calculus.


def exponential(t) -> FunctionSum:
    """The global exponential e^{2 pi i t x} as a single level-0 atom."""
    return FunctionSum([(1.0, t, 0, 0)])


ONE = exponential(0)


def inner_product(F: FunctionSum, G: FunctionSum) -> complex:
    """<F, G> of two single sums."""
    return complex(inner_products(F, G, 1)[0])


def norm(F: FunctionSum) -> float:
    return float(norms(F, 1)[0])


def fs_add(*sums: FunctionSum) -> FunctionSum:
    return normalize(concat(*sums))


def fs_scale(F: FunctionSum, scalar: complex) -> FunctionSum:
    atoms = F.atoms.copy()
    atoms["coeff"] = scalar * atoms["coeff"]
    return FunctionSum(atoms)


@dataclass(frozen=True)
class Word4:
    """A word over {0,1,2,3}; letters[k] is the (k+1)-th operator applied."""

    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(int(j) for j in self.letters)
        if any(j not in _ALPHABET for j in letters):
            raise DomainError(f"letters must lie in {{0,1,2,3}}, got {letters!r}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


def c_of_word(word: Word4) -> int:
    """Base-4 place value of a word: sum of letters[k] * 4**(K-1-k)."""
    n = 0
    for j in word.letters:
        n = 4 * n + j
    return n


def word_of_index(n: int) -> Word4:
    """The unique word in X4 with c_of_word(word) == n; (0,) for n == 0."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    if n == 0:
        return Word4((0,))
    digits = []
    while n:
        digits.append(n % 4)
        n //= 4
    return Word4(tuple(reversed(digits)))


def digit_counts(n: int) -> tuple[int, int, int]:
    """Counts of the digits 1, 2, 3 in the base-4 expansion of n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    counts = [0, 0, 0]
    while n:
        d = n % 4
        if d:
            counts[d - 1] += 1
        n //= 4
    return tuple(counts)


def enumerate_X4(max_len: int) -> list[Word4]:
    """All words of X4 with length <= max_len, ascending by c_of_word.

    There are exactly 4**max_len of them: ascending c order is simply
    word_of_index(n) for n = 0 .. 4**max_len - 1.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    if max_len > MAX_ENUM_LEN:
        raise CapacityError(f"max_len {max_len} exceeds enumeration cap {MAX_ENUM_LEN}")
    return [word_of_index(n) for n in range(4**max_len)]


def S_j(bank, j: int, F: FunctionSum) -> FunctionSum:
    """S_j F of a single sum: vector j of the four isometries applied to it."""
    return unstack(apply_S(bank, F), j)


def S_j_star(bank, j: int, F: FunctionSum) -> FunctionSum:
    """S_j* F of a single sum: vector j of the four adjoints applied to it."""
    return unstack(apply_S_star(bank, F), j)


def apply_word(bank, word: Word4, F: FunctionSum) -> FunctionSum:
    """Composition S_{j_K} ... S_{j_1} F; letters[0] acts first."""
    for j in word.letters:
        F = S_j(bank, j, F)
    return F


def frame_weight(p: complex, q: complex, n: int) -> complex:
    """p^{l1(n)} * 0^{l2(n)} * q^{l3(n)}, with the convention 0^0 = 1."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"frequency index must be a nonnegative integer, got {n!r}")
    l1, l2, l3 = digit_counts(int(n))
    if l2 > 0:
        return 0j
    return complex(p**l1 * q**l3)


def projection_weight(bank, word) -> complex:
    """Closed-form d_omega = prod_k (a_{j_k 0} + a_{j_k 2})."""
    w = complex(1.0)
    for j in word:
        w *= bank.digit_weights[j]
    return w


def oracle_write_weight_table(path, p: complex, q: complex, n_max: int) -> int:
    """The weight CSV of the family (p, q) one n at a time from frame_weight
    and digit_counts; returns the number of nonzero weights."""
    nonzero = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHT_TABLE_COLUMNS)
        for n in range(n_max + 1):
            l1, l2, l3 = digit_counts(n)
            w = frame_weight(p, q, n)
            nonzero += abs(w) > 0
            writer.writerow([n, l1, l2, l3, repr(w.real), repr(w.imag), repr(abs(w) ** 2)])
    return nonzero


def dense_write_weight_table(path, bank, n_max: int) -> int:
    """The weight CSV from dense arrays of n = 0 .. n_max, written at once:
    the support's weights scattered into zeros, the digit counts per n;
    returns the number of nonzero weights."""
    support, d = weight_table(bank.digit_weights, n_max)
    weights = np.zeros(n_max + 1, dtype=complex)
    weights[support] = d
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHT_TABLE_COLUMNS)
        writer.writerows(
            [n, *digit_counts(n), repr(w.real), repr(w.imag), repr(abs(w) ** 2)]
            for n, w in enumerate(weights.tolist())
        )
    return int(np.count_nonzero(d))


def oracle_write_trace_csv(path, trace) -> None:
    """The trace CSV, columns N, partial_sum, target, row by row through
    csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for N, value in trace.checkpoints:
            writer.writerow([N, repr(value), repr(trace.target)])


def dense_parseval_trace(f, bank, n_max: int) -> tuple:
    """(checkpoints, target, terms) of the Parseval trace with the terms of
    every n = 0 .. n_max in one array, 0.0 off the support, summed by one
    np.cumsum over all of them."""
    f = [(int(g), complex(c)) for g, c in f]
    pairs = [(g1 - g2, c1 * c2.conjugate()) for g1, c1 in f for g2, c2 in f]
    target = 0.0
    for (_, c), mu in zip(pairs, mu4_hat_array([d for d, _ in pairs]).tolist()):
        target += (c * mu).real
    n, d = weight_table(bank.digit_weights, n_max)
    inner = sum(c * mu4_hat_array(g - n) for g, c in f)
    terms = np.zeros(n_max + 1)
    terms[n] = np.abs(d) ** 2 * np.abs(inner) ** 2
    running = np.cumsum(terms)
    grid = [4**k for k in range(1, MAX_ENUM_LEN + 1) if 4**k <= n_max]
    if not grid or grid[-1] != n_max:
        grid.append(n_max)
    return tuple((N, float(running[N])) for N in grid), target, terms


def matmul_deviations(A) -> dict[str, float]:
    """The three admissibility deviations of one 4x4 matrix, H*H by @."""
    A = np.asarray(A, dtype=complex)
    H = a_to_h(A)
    return {
        "first_row": float(np.max(np.abs(A[0] - 0.5))),
        "kernel": float(np.max(np.abs((A[:, 0] + A[:, 2]) - (A[:, 1] + A[:, 3])))),
        "unitarity": float(np.max(np.abs(H.conj().T @ H - np.eye(4)))),
    }


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
    total = 0.0
    for word in enumerate_X4(max_len):
        value = 1.0 + 0j
        cur = float(t)
        for j in reversed(word.letters):
            value *= little_m(bank, j, cur)
            cur = (cur - j) / 4.0
        total += abs(value * mu4_hat_recursive(cur)) ** 2
    return total


def _dense_word_vector(bank, word) -> np.ndarray:
    """Coefficients of S_word 1 over pair words in leading-pair-major order.

    S_word 1 is the exponential at c_of_word(word) times this level-K step
    function: pair word (p_1 .. p_K) carries prod_i 2 * a[letter applied
    (K-i+1)-th][p_i].
    """
    vec = np.ones(1, dtype=complex)
    for j in reversed(word.letters):  # leading pair couples to the last letter
        vec = np.kron(vec, 2.0 * bank.A[j, :])
    return vec


def _x_offsets(K: int) -> np.ndarray:
    """x-cylinder left endpoints per pair word, leading-pair-major order."""
    offs = np.zeros(1)
    for i in range(1, K + 1):
        offs = np.add.outer(offs, np.array([0.0, 2.0, 0.0, 2.0]) / 4.0**i).ravel()
    return offs


def dense_inner(
    freq_f,
    vec_f: np.ndarray,
    level_f: int,
    freq_g,
    vec_g: np.ndarray,
    level_g: int,
) -> complex:
    """<F, G> for two single-frequency step-function sums in dense form.

    The atom-pair sum of atoms.inner_product over all 4^K pair words at
    once: with F lifted to the deeper level K, the value is
    4^-K * mu4_hat((fF - fG)/4^K) * sum_m vF[m] conj(vG[m]) e^{2 pi i (fF - fG) off[m]}.
    """
    if level_f > level_g:
        return complex(dense_inner(freq_g, vec_g, level_g, freq_f, vec_f, level_f)).conjugate()
    K = level_g
    if level_f < K:
        vec_f = np.repeat(vec_f, 4 ** (K - level_f))
    delta = freq_f - freq_g
    if isinstance(delta, int):
        delta = Fraction(delta)
    phases = np.exp(2j * np.pi * float(delta) * _x_offsets(K))
    mu = mu4_hat(delta / 4**K if isinstance(delta, Fraction) else delta / 4.0**K)
    return complex(4.0 ** (-K) * mu * np.vdot(vec_g, vec_f * phases))


def oracle_h_partial_dense(t: float, bank, max_len: int) -> float:
    """Energy sum through the dense atom inner products <e_t, S_omega 1>."""
    e_vec = np.ones(1, dtype=complex)
    total = 0.0
    for word in enumerate_X4(max_len):
        vec = _dense_word_vector(bank, word)
        val = dense_inner(t, e_vec, 0, c_of_word(word), vec, len(word))
        total += abs(val) ** 2
    return total


def s_word_one(bank, word) -> FunctionSum:
    """Closed form of S_word 1: the exponential at c_of_word(word) times the
    level-K step function of the dense word vector, whose entry m sits on the
    cylinder with code m. Agrees atom by atom with apply_word(bank, word, ONE).
    """
    K = len(word)
    if K < 1:
        raise DomainError("s_word_one requires a nonempty word")
    coeffs = _dense_word_vector(bank, word)
    return normalize(FunctionSum([(c, c_of_word(word), m, K) for m, c in enumerate(coeffs)]))


# ---- Per-vector checks: the loops the library's batched checks replaced.


def unstack(F: FunctionSum, v: int) -> FunctionSum:
    """Vector v of a batch as a single sum (vec 0), atom order kept."""
    atoms = F.atoms[F.atoms["vec"] == v].copy()
    atoms["vec"] = 0
    return FunctionSum(atoms)


def oracle_verify_cuntz(bank, level: int, trials: int, seed: int, tol: float) -> Check:
    """verify_cuntz one trial vector at a time, drawn in the same order; the
    identity residual is formed at the deeper level, as the library forms it."""
    rng = random.Random(seed)
    max_orth = 0.0
    max_ident = 0.0
    for _ in range(trials):
        F = random_function_sum(rng, level)
        nf = norm(F)
        if nf == 0.0:
            continue
        for j in range(4):
            for k in range(4):
                G = S_j_star(bank, j, S_j(bank, k, F))
                D = fs_sub(G, F) if j == k else G
                max_orth = max(max_orth, norm(D) / nf)
        total = fs_add(*[S_j(bank, k, S_j_star(bank, k, F)) for k in range(4)])
        max_ident = max(max_ident, norm(fs_sub(total, refine(F, total.level))) / nf)
    metrics = {"max_orthogonality_residual": max_orth, "max_identity_residual": max_ident}
    return Check(max_orth <= tol and max_ident <= tol, metrics, {"relative_residual": tol})


def oracle_generated_family(bank, max_len: int) -> Iterator[tuple[int, FunctionSum]]:
    """(n, S_omega 1) one word at a time, n ascending: word n is one apply_S
    on word n // 4 (words 0..3 extend the empty word)."""
    prefixes: list[FunctionSum] = []
    for n in range(4**max_len):
        F = S_j(bank, n % 4, prefixes[n // 4] if n >= 4 else ONE)
        if n < 4 ** (max_len - 1):
            prefixes.append(F)
        yield n, F


def oracle_project_V(F: FunctionSum) -> dict[int, dict[tuple[float, tuple[int, ...]], complex]]:
    """{vec: {(frequency, x word): total}} of a batch refined to its deepest
    level K, one atom at a time in atom order. An atom's x word lists the x
    digit 2 (k & 1) of each of the K pairs k of its code, most significant
    first; a total adds c 2^-K over the atoms of one vector, frequency and x
    word, so every x word that holds an atom has a key and no other does."""
    K = F.level
    out: dict[int, dict] = {}
    for c, freq, code, _, vec in refine(F, K).atoms.tolist():
        x_word = tuple(2 * (code >> 2 * (K - 1 - i) & 1) for i in range(K))
        totals = out.setdefault(vec, {})
        totals[freq, x_word] = totals.get((freq, x_word), 0j) + c * 2.0 ** (-K)
    return out


def oracle_verify_projection(bank, max_len: int, tol: float) -> Check:
    """verify_projection one word at a time, against the same weight table:
    word n of length K must total d_n on each of its 2^K x words at
    frequency n and 0 on every other key, and each x word it lacks at
    frequency n counts |d_n|."""
    support, d = weight_table(bank.digit_weights, 4**max_len - 1)
    weights = np.zeros(4**max_len, dtype=complex)
    weights[support] = d
    max_dev = 0.0
    for (n, F), expect in zip(oracle_generated_family(bank, max_len), weights.tolist()):
        own = 0
        for (freq, _), total in oracle_project_V(F).get(0, {}).items():
            own += freq == n
            max_dev = max(max_dev, abs(total - (expect if freq == n else 0j)))
        if own < 2 ** len(word_of_index(n)):
            max_dev = max(max_dev, abs(expect))
    return Check(max_dev <= tol, {"max_weight_dev": max_dev}, {"weight_dev": tol})


def in_X4(word) -> bool:
    """Membership in X4: every length-1 word, plus longer words not starting with 0."""
    if len(word) == 1:
        return True
    return len(word) >= 2 and word.letters[0] != 0


def little_m_reduced(bank, j: int, t) -> complex:
    """Kernel-condition simplification of little_m (agrees within 1e-12)."""
    b = complex(np.conj(bank.A[j, 0]) + np.conj(bank.A[j, 2]))
    half = float(t) / 2.0
    phase = cmath.exp(1j * math.pi * half)
    if j % 2 == 0:
        return b * phase * math.cos(math.pi * half)
    return -1j * b * phase * math.sin(math.pi * half)


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


def cylinder_exp_integral(delta, u: XCylinder) -> complex:
    """integral of e^{2 pi i delta x} over the cylinder u, against mu4.

    Equals 2^-K * e^{2 pi i delta offset(u)} * mu4_hat(delta / 4^K) by
    self-similarity of mu4 restricted to a level-K cylinder.
    """
    K = len(u)
    return 2.0 ** (-K) * exact_cis(delta * u.offset) * mu4_hat(delta / 4**K)


def ifs_monte_carlo_integral(f, depth: int, samples: int, seed: int) -> complex:
    """Statistical integral of f against the product measure on C4 x [0,1].

    Averages f over points obtained by composing `depth` uniformly random
    contractions of the planar system applied to (0, 0); the point with
    digit string (k_1, .., k_d) is (sum xdig(k_i)/4^i, sum ydig(k_i)/2^i).
    f is called as f(x, y, codes) with the coordinate arrays and each
    point's digit string read as a base-4 integer, k_1 most significant.
    Deterministic for a fixed seed.
    """
    if depth < 8:
        raise DomainError("depth must be >= 8 for point-location error below 4^-8")
    if samples < 1:
        raise DomainError("samples must be positive")
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, 4, size=(samples, depth), dtype=np.uint8)
    # The codes and the coordinates read as integers stay below 2^53 for
    # depth <= 26, so the coordinates are exact.
    codes = np.einsum("ij,j->i", ks, 4 ** np.arange(depth - 1, -1, -1, dtype=np.int64))
    xs = 2 * (codes & X_BITS) * 4.0**-depth
    ys = _even_bits(codes >> 1) * 2.0**-depth
    vals = np.asarray(f(xs, ys, codes), dtype=np.complex128)
    return complex(np.mean(vals))


def _even_bits(v: np.ndarray) -> np.ndarray:
    """Bits 0, 2, 4, .. of each non-negative int64, packed to bits 0, 1, 2, .."""
    v = v & X_BITS
    for shift, keep in [
        (1, 0x3333_3333_3333_3333),
        (2, 0x0F0F_0F0F_0F0F_0F0F),
        (4, 0x00FF_00FF_00FF_00FF),
        (8, 0x0000_FFFF_0000_FFFF),
        (16, 0x0000_0000_FFFF_FFFF),
    ]:
        v = (v | v >> shift) & keep
    return v


def evaluate(F: FunctionSum, x, codes, depth: int) -> np.ndarray:
    """Pointwise values of F at the Monte-Carlo points x with their digit
    strings `codes` of `depth` base-4 digits.

    A point lies in an atom's level-K cylinder exactly when its first K
    digits, read as a base-4 code, are the atom's code, so the cylinders
    are located from the sampler's digits instead of from x and y.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape, dtype=np.complex128)
    for coeff, freq, code, level, _ in F.atoms.tolist():
        at = np.flatnonzero(codes >> 2 * (depth - level) == code)
        np.add.at(out, at, coeff * np.exp(2j * np.pi * freq * np.take(x, at)))
    return out


# ---- The exact atom calculus. One Atom object per atom, frequencies as exact
# rationals, unit exponentials exact at quarter turns; each operation is the
# per-atom loop the library's record-array version replaced.


def exact_cis(turns) -> complex:
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


def fmod_cis(turns) -> np.ndarray:
    """cis with its turns reduced by np.fmod(turns, 1.0), the reduction
    whose bits the library's x - trunc(x) keeps."""
    frac = np.fmod(np.array(turns, dtype=np.float64, ndmin=1), 1.0)
    out = np.exp((2j * math.pi) * frac)
    quarters = 4.0 * frac
    whole = quarters == np.floor(quarters)
    out[whole] = np.array([1.0, 1j, -1.0, -1j])[quarters[whole].astype(np.int64)]
    return out


def x_digit(k: int) -> int:
    """The x digit, 0 or 2, of pair index k = xd/2 + 2*yd."""
    return 2 * (k & 1)


@dataclass(frozen=True)
class Atom:
    coeff: complex
    freq: Fraction
    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        if not isinstance(self.freq, Fraction):
            object.__setattr__(self, "freq", Fraction(self.freq))
        word = tuple(int(k) for k in self.word)
        if any(k not in (0, 1, 2, 3) for k in word):
            raise DomainError(f"pair indices must lie in {{0,1,2,3}}, got {word!r}")
        object.__setattr__(self, "word", word)

    @property
    def level(self) -> int:
        return len(self.word)

    def key(self):
        return (self.freq, self.word)


@dataclass(frozen=True)
class AtomSum:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def level(self) -> int:
        return max((a.level for a in self.atoms), default=0)


def function_sum(atoms) -> FunctionSum:
    """The library's record-array sum of oracle Atoms, in the same order."""
    return FunctionSum(
        [(a.coeff, float(a.freq), sum(k << 2 * (a.level - 1 - i) for i, k in enumerate(a.word)), a.level)
         for a in atoms]
    )


def atom_sum(F: FunctionSum) -> AtomSum:
    """The oracle form of a library sum, atom by atom."""
    return AtomSum(
        Atom(complex(coeff), Fraction(freq), tuple((code >> 2 * (level - 1 - i)) & 3 for i in range(level)))
        for coeff, freq, code, level, _ in F.atoms.tolist()
    )


def max_coeff_gap(F: FunctionSum, ref: AtomSum) -> float:
    """Largest coefficient difference between a library sum and an oracle
    sum over the union of their keys, a key missing on one side reading 0;
    inf unless the library's keys ascend in key order."""
    got = atom_sum(F).atoms
    keys = [a.key() for a in got]
    if keys != sorted(set(keys)):
        return math.inf
    mine = {a.key(): a.coeff for a in got}
    theirs = {a.key(): a.coeff for a in ref.atoms}
    return max((abs(mine.get(k, 0) - theirs.get(k, 0)) for k in mine.keys() | theirs.keys()),
               default=0.0)


def atom_normalize(F: AtomSum) -> AtomSum:
    """Merge identical-key atoms, drop the exact zeros, sort keys."""
    merged: dict = {}
    for a in F.atoms:
        merged[a.key()] = merged.get(a.key(), 0.0) + a.coeff
    kept = [Atom(coeff, freq, word) for (freq, word), coeff in merged.items() if coeff != 0]
    kept.sort(key=lambda a: a.key())
    return AtomSum(tuple(kept))


def atom_refine(F: AtomSum, K: int) -> AtomSum:
    """Split every atom into its level-K descendants (equal as a function)."""
    out: list[Atom] = []
    for a in F.atoms:
        if a.level > K:
            raise DomainError(f"cannot refine level-{a.level} atom to level {K}")
        frontier = [a]
        while frontier and frontier[0].level < K:
            nxt = []
            for b in frontier:
                for k in range(4):
                    nxt.append(Atom(b.coeff, b.freq, b.word + (k,)))
            frontier = nxt
        out.extend(frontier)
    return atom_normalize(AtomSum(tuple(out)))


def _compatible(a: Atom, b: Atom):
    """Deeper-cylinder word of the intersection, or None if disjoint."""
    if a.level <= b.level:
        lo, hi = a, b
    else:
        lo, hi = b, a
    if hi.word[: lo.level] == lo.word:
        return hi.word
    return None


def atom_inner_product(F: AtomSum, G: AtomSum) -> complex:
    """<F, G> in L^2 of the product measure, summed exactly over atom pairs.

    A nested pair at deeper level K with intersection word u contributes
    cF * conj(cG) * 2^-K * 2^-K * e^{2 pi i D offset(u)} * mu4_hat(D / 4^K)
    with D the frequency difference and offset(u) the left endpoint
    sum_i x_digit(u_i) / 4^i; disjoint pairs contribute nothing.
    """
    terms, ts = [], []
    fa = sorted(F.atoms, key=lambda a: a.key())
    ga = sorted(G.atoms, key=lambda a: a.key())
    for a in fa:
        for b in ga:
            u = _compatible(a, b)
            if u is None:
                continue
            K = max(a.level, b.level)
            delta = a.freq - b.freq
            offset = Fraction(
                sum(x_digit(k) * 4 ** (K - i) for i, k in enumerate(u, start=1)), 4**K
            ) if K else Fraction(0)
            terms.append(a.coeff * b.coeff.conjugate() * 4.0 ** (-K) * exact_cis(delta * offset))
            ts.append(float(delta / 4**K))
    total = complex(0.0, 0.0)
    for term, mu in zip(terms, mu4_hat_array(ts).tolist()):
        total += term * mu
    return total


def atom_apply_S(bank, j: int, F: AtomSum) -> AtomSum:
    """Child k of atom (c,t,u): coefficient 2*a_jk*c*e^{-2 pi i t x_digit(k)},
    frequency 4t + j, word (k,) + u."""
    A = bank.A
    out = []
    for a in F.atoms:
        freq = 4 * a.freq + j
        phases = {xd: exact_cis(-a.freq * xd) for xd in (0, 2)}
        for k in range(4):
            out.append(Atom(2.0 * A[j, k] * a.coeff * phases[x_digit(k)], freq, (k,) + a.word))
    return atom_normalize(AtomSum(tuple(out)))


def atom_apply_S_star(bank, j: int, F: AtomSum) -> AtomSum:
    """Adjoint of atom_apply_S: strips the leading pair (sums all four on a level-0 atom)."""
    A = bank.A
    out = []
    for a in F.atoms:
        shifted = (a.freq - j) / 4
        if a.level == 0:
            coeff = 0.5 * sum(
                A[j, k].conjugate() * exact_cis((a.freq - j) * Fraction(x_digit(k), 4))
                for k in range(4)
            )
            out.append(Atom(coeff * a.coeff, shifted, ()))
        else:
            k = a.word[0]
            coeff = 0.5 * A[j, k].conjugate() * exact_cis((a.freq - j) * Fraction(x_digit(k), 4))
            out.append(Atom(coeff * a.coeff, shifted, a.word[1:]))
    return atom_normalize(AtomSum(tuple(out)))
