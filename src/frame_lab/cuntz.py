"""The four-isometry representation acting on cylinder exponentials.

S_j scales by the filter and pulls back through the expanding map, which on
an atom prepends one digit pair per first-level cylinder; S_j* removes the
leading pair. Digit pairs are encoded k = xdigit/2 + 2*ydigit, matching the
order of the four planar contractions. All frequency arithmetic is exact
(t -> 4t + j and t -> (t - j)/4 on rationals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .atoms import ONE, Atom, FunctionSum, fs_add, fs_sub, norm, normalize
from .errors import CapacityError, ContractError
from .filters import FilterBank
from .transform import DEFAULT_EVALUATOR, TransformEvaluator, cis, mu4_hat
from .words import Word4, c_of_word, enumerate_X4

GRAM_MAX_LEN = 5


def pair_index(xdigit: int, ydigit: int) -> int:
    return xdigit // 2 + 2 * ydigit


def pair_digits(k: int) -> tuple[int, int]:
    return 2 * (k & 1), k >> 1


@dataclass(frozen=True)
class CuntzRep:
    bank: FilterBank
    cfg: TransformEvaluator = field(default_factory=lambda: DEFAULT_EVALUATOR)

    def __post_init__(self):
        if not self.bank.admissible:
            raise ContractError("CuntzRep requires an admissible filter bank")


def apply_S(rep: CuntzRep, j: int, F: FunctionSum) -> FunctionSum:
    """One generating isometry: atom (c,t,u,v) maps to its four children.

    Child k carries coefficient 2*a_jk*c*e^{-2 pi i t xd(k)}, frequency
    4t + j, and the digit pair of k prepended to the words.
    """
    if j not in (0, 1, 2, 3):
        raise ContractError(f"isometry index must be in 0..3, got {j}")
    A = rep.bank.A
    out = []
    for a in F.atoms:
        freq = 4 * a.freq + j
        phases = [cis(-a.freq * xd) for xd in (0, 2)]
        for k in range(4):
            xd, yd = pair_digits(k)
            out.append(
                Atom(
                    2.0 * A[j, k] * a.coeff * phases[xd // 2],
                    freq,
                    (xd,) + a.xword,
                    (yd,) + a.yword,
                )
            )
    return normalize(FunctionSum(tuple(out)))


def apply_S_star(rep: CuntzRep, j: int, F: FunctionSum) -> FunctionSum:
    """Adjoint of apply_S: strips the leading digit pair.

    On a level-0 atom all four cylinders contribute and the result is the
    symbol value little_m(j, t) times the exponential at (t - j)/4; on a
    deeper atom only the cylinder matching the leading pair survives.
    """
    if j not in (0, 1, 2, 3):
        raise ContractError(f"isometry index must be in 0..3, got {j}")
    A = rep.bank.A
    out = []
    for a in F.atoms:
        shifted = (a.freq - j) / 4
        if a.level == 0:
            coeff = 0.5 * sum(
                A[j, k].conjugate() * cis((a.freq - j) * Fraction(pair_digits(k)[0], 4))
                for k in range(4)
            )
            out.append(Atom(coeff * a.coeff, shifted, (), ()))
        else:
            k0 = pair_index(a.xword[0], a.yword[0])
            coeff = 0.5 * A[j, k0].conjugate() * cis((a.freq - j) * Fraction(a.xword[0], 4))
            out.append(Atom(coeff * a.coeff, shifted, a.xword[1:], a.yword[1:]))
    return normalize(FunctionSum(tuple(out)))


def apply_word(rep: CuntzRep, word: Word4, F: FunctionSum) -> FunctionSum:
    """Composition S_{j_K} ... S_{j_1} F; letters[0] acts first."""
    for j in word.letters:
        F = apply_S(rep, j, F)
    return F


def generated_family(rep: CuntzRep, max_len: int) -> Iterator[tuple[Word4, FunctionSum]]:
    """(omega, S_omega 1) for the words of X4 up to max_len, ascending in c(omega).

    Word n is word n // 4 with the letter n % 4 appended (words 0..3 extend
    the empty word), so S_omega 1 is one apply_S on an earlier result: the
    same apply_S sequence as apply_word(rep, omega, ONE), one call per word.
    """
    prefixes: list[FunctionSum] = []
    for n, word in enumerate(enumerate_X4(max_len)):
        F = apply_S(rep, n % 4, prefixes[n // 4] if n >= 4 else ONE)
        if n < 4 ** (max_len - 1):
            prefixes.append(F)
        yield word, F


def _dense_word_vector(bank: FilterBank, word: Word4) -> np.ndarray:
    """Coefficients of S_word 1 over pair words in leading-pair-major order.

    S_word 1 is the exponential at c_of_word(word) times this level-K step
    function: pair word (p_1 .. p_K) carries prod_i 2 * a[letter applied
    (K-i+1)-th][p_i].
    """
    vec = np.ones(1, dtype=complex)
    for j in reversed(word.letters):  # leading pair couples to the last letter
        vec = np.kron(vec, 2.0 * bank.A[j, :])
    return vec


_OFFSETS_CACHE: dict[int, np.ndarray] = {}


def _x_offsets(K: int) -> np.ndarray:
    """x-cylinder left endpoints per pair word, leading-pair-major order."""
    offs = _OFFSETS_CACHE.get(K)
    if offs is None:
        offs = np.zeros(1)
        for i in range(1, K + 1):
            contrib = np.array([0.0, 2.0, 0.0, 2.0]) / 4.0**i
            offs = np.add.outer(offs, contrib).ravel()
        _OFFSETS_CACHE[K] = offs
    return offs


def dense_inner(
    freq_f,
    vec_f: np.ndarray,
    level_f: int,
    freq_g,
    vec_g: np.ndarray,
    level_g: int,
    cfg: TransformEvaluator,
) -> complex:
    """<F, G> for two single-frequency step-function sums in dense form.

    Same atom-pair sum as atoms.inner_product, vectorized: with F lifted to
    the deeper level K, the value is
    4^-K * mu4_hat((fF - fG)/4^K) * sum_m vF[m] conj(vG[m]) e^{2 pi i (fF - fG) off[m]}.
    """
    if level_f > level_g:
        return complex(dense_inner(freq_g, vec_g, level_g, freq_f, vec_f, level_f, cfg)).conjugate()
    K = level_g
    if level_f < K:
        vec_f = np.repeat(vec_f, 4 ** (K - level_f))
    delta = freq_f - freq_g
    if isinstance(delta, int):
        delta = Fraction(delta)
    phases = np.exp(2j * np.pi * float(delta) * _x_offsets(K))
    mu = mu4_hat(delta / 4**K if isinstance(delta, Fraction) else delta / 4.0**K, cfg)
    return complex(4.0 ** (-K) * mu * np.vdot(vec_g, vec_f * phases))


@dataclass(frozen=True)
class CuntzCheckReport:
    trials: int
    level: int
    seed: int
    tol: float
    max_orthogonality_residual: float
    max_identity_residual: float
    passed: bool


def random_function_sum(rng: np.random.Generator, level: int, n_atoms: int = 3) -> FunctionSum:
    """Random test vector: integer frequencies in [-8, 8], random cylinders."""
    atoms = []
    for _ in range(n_atoms):
        freq = Fraction(int(rng.integers(-8, 9)))
        xword = tuple(int(d) for d in 2 * rng.integers(0, 2, size=level))
        yword = tuple(int(b) for b in rng.integers(0, 2, size=level))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        atoms.append(Atom(coeff, freq, xword, yword))
    return normalize(FunctionSum(tuple(atoms)))


def verify_cuntz(
    rep: CuntzRep, level: int, trials: int, seed: int, tol: float
) -> CuntzCheckReport:
    """Check S_j* S_k = delta_jk I and sum_k S_k S_k* = I on random vectors."""
    if trials < 1:
        raise ContractError("trials must be >= 1")
    if level < 0:
        raise ContractError("level must be >= 0")
    if level > 4:
        raise CapacityError("level must be <= 4")
    rng = np.random.default_rng(seed)
    max_orth = 0.0
    max_ident = 0.0
    for _ in range(trials):
        F = random_function_sum(rng, level)
        nf = norm(F, rep.cfg)
        if nf == 0.0:
            continue
        for j in range(4):
            for k in range(4):
                G = apply_S_star(rep, j, apply_S(rep, k, F))
                D = fs_sub(G, F) if j == k else G
                max_orth = max(max_orth, norm(D, rep.cfg) / nf)
        parts = [apply_S(rep, k, apply_S_star(rep, k, F)) for k in range(4)]
        total = fs_add(*parts)
        max_ident = max(max_ident, norm(fs_sub(total, F), rep.cfg) / nf)
    passed = max_orth <= tol and max_ident <= tol
    return CuntzCheckReport(
        trials=trials,
        level=level,
        seed=seed,
        tol=tol,
        max_orthogonality_residual=max_orth,
        max_identity_residual=max_ident,
        passed=passed,
    )


@dataclass(frozen=True)
class GramReport:
    max_len: int
    size: int
    max_offdiag: float
    max_diag_dev: float
    matrix: np.ndarray

    @property
    def max_dev(self) -> float:
        return max(self.max_offdiag, self.max_diag_dev)


def gram_X4(rep: CuntzRep, max_len: int) -> GramReport:
    """Gram matrix of the generated family over words of length <= max_len."""
    if max_len > GRAM_MAX_LEN:
        raise CapacityError(f"max_len {max_len} exceeds Gram cap {GRAM_MAX_LEN}")
    words = enumerate_X4(max_len)
    vecs = [
        (c_of_word(w), _dense_word_vector(rep.bank, w), len(w))
        for w in words
    ]
    n = len(vecs)
    G = np.eye(n, dtype=complex)
    for i in range(n):
        fi, vi, li = vecs[i]
        for j in range(i, n):
            fj, vj, lj = vecs[j]
            G[i, j] = dense_inner(fi, vi, li, fj, vj, lj, rep.cfg)
            G[j, i] = G[i, j].conjugate()
    dev = np.abs(G - np.eye(n))
    off = dev - np.diag(np.diag(dev))
    return GramReport(
        max_len=max_len,
        size=n,
        max_offdiag=float(np.max(off)),
        max_diag_dev=float(np.max(np.diag(dev))),
        matrix=G,
    )
