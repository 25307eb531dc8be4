"""Exact calculus for cylinder-supported exponentials on C4 x [0,1].

An Atom is c * e^{2 pi i t x} * indicator(cylinder), where the level-K
cylinder is addressed by one word of K pair indices k in {0,1,2,3}: the
index of the planar contraction (x, y) -> ((x + xd)/4, (y + yd)/2) with
k = xd/2 + 2*yd, so the x digit of k is x_digit(k) = 2*(k & 1) and its y bit
k >> 1. Each operator of the representation prepends or removes one pair.
Frequencies are exact rationals; two atoms merge only on identical keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractError, DomainError
from .transform import DEFAULT_EVALUATOR, TransformEvaluator, cis, mu4_hat_array

MERGE_TOL = 1e-15


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
class FunctionSum:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def level(self) -> int:
        return max((a.level for a in self.atoms), default=0)


ZERO = FunctionSum(())


def exponential(t) -> FunctionSum:
    """The global exponential e^{2 pi i t x} as a single level-0 atom."""
    return FunctionSum((Atom(1.0, Fraction(t), ()),))


ONE = exponential(0)


def normalize(F: FunctionSum) -> FunctionSum:
    """Merge identical-key atoms, drop coefficients of size <= MERGE_TOL, sort keys."""
    merged: dict = {}
    for a in F.atoms:
        merged[a.key()] = merged.get(a.key(), 0.0) + a.coeff
    kept = [
        Atom(coeff, freq, word)
        for (freq, word), coeff in merged.items()
        if abs(coeff) > MERGE_TOL
    ]
    kept.sort(key=lambda a: a.key())
    return FunctionSum(tuple(kept))


def fs_add(*sums: FunctionSum) -> FunctionSum:
    atoms: list[Atom] = []
    for F in sums:
        atoms.extend(F.atoms)
    return normalize(FunctionSum(tuple(atoms)))


def fs_scale(F: FunctionSum, scalar: complex) -> FunctionSum:
    return FunctionSum(tuple(Atom(scalar * a.coeff, a.freq, a.word) for a in F.atoms))


def fs_sub(F: FunctionSum, G: FunctionSum) -> FunctionSum:
    return fs_add(F, fs_scale(G, -1.0))


def refine(F: FunctionSum, K: int) -> FunctionSum:
    """Split every atom into its level-K descendants (equal as a function)."""
    out: list[Atom] = []
    for a in F.atoms:
        if a.level > K:
            raise ContractError(f"cannot refine level-{a.level} atom to level {K}")
        frontier = [a]
        while frontier and frontier[0].level < K:
            nxt = []
            for b in frontier:
                for k in range(4):
                    nxt.append(Atom(b.coeff, b.freq, b.word + (k,)))
            frontier = nxt
        out.extend(frontier)
    return normalize(FunctionSum(tuple(out)))


def _compatible(a: Atom, b: Atom):
    """Deeper-cylinder word of the intersection, or None if disjoint."""
    if a.level <= b.level:
        lo, hi = a, b
    else:
        lo, hi = b, a
    if hi.word[: lo.level] == lo.word:
        return hi.word
    return None


def inner_product(
    F: FunctionSum, G: FunctionSum, cfg: TransformEvaluator = DEFAULT_EVALUATOR
) -> complex:
    """<F, G> in L^2 of the product measure, summed exactly over atom pairs.

    A nested pair at deeper level K with intersection word u contributes
    cF * conj(cG) * 2^-K * 2^-K * e^{2 pi i D offset(u)} * mu4_hat(D / 4^K)
    with D the frequency difference and offset(u) the left endpoint
    sum_i x_digit(u_i) / 4^i; disjoint pairs contribute nothing. The
    transform values of all pairs come from one mu4_hat_array call.
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
            terms.append(a.coeff * b.coeff.conjugate() * 4.0 ** (-K) * cis(delta * offset))
            ts.append(float(delta / 4**K))
    total = complex(0.0, 0.0)
    for term, mu in zip(terms, mu4_hat_array(ts, cfg).tolist()):
        total += term * mu
    return total


def norm(F: FunctionSum, cfg: TransformEvaluator = DEFAULT_EVALUATOR) -> float:
    return float(np.sqrt(max(inner_product(F, F, cfg).real, 0.0)))
