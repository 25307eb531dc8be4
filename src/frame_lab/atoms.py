"""Cylinder-supported exponentials on C4 x [0,1], held as one record array.

A FunctionSum is a sum of atoms c * e^{2 pi i t x} * indicator(cylinder),
one row of its record array `atoms` each: coeff (complex128), freq
(float64), code and level (int64). The level-K cylinder is addressed by K
pair indices k in {0,1,2,3}, the index of the planar contraction
(x, y) -> ((x + xd)/4, (y + yd)/2) with k = xd/2 + 2*yd; code holds them as
base-4 digits, the first pair most significant. The x digit of pair k is
2 * (k & 1), so the x digits of a code are its bits under X_BITS. Every
frequency the operators reach from integer input is a dyadic n/4^e, which
float64 holds exactly; two atoms merge only on identical keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .transform import cis, mu4_hat_array

ATOM = np.dtype(
    [("coeff", np.complex128), ("freq", np.float64), ("code", np.int64), ("level", np.int64)]
)
MAX_LEVEL = 31  # the 4^31 codes of a level still fit in int64
X_BITS = 0x5555_5555_5555_5555  # the x bit (k & 1) of every pair k of a code
MERGE_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class FunctionSum:
    """Atoms (coeff, freq, code, level), coerced to a read-only ATOM array."""

    atoms: np.ndarray

    def __post_init__(self):
        try:
            atoms = np.array(self.atoms, dtype=ATOM, ndmin=1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"atoms must be (coeff, freq, code, level) rows: {exc}") from None
        level, code = atoms["level"], atoms["code"]
        if atoms.ndim != 1:
            raise DomainError(f"atoms must form one row per atom, got shape {atoms.shape}")
        if np.any((level < 0) | (level > MAX_LEVEL)):
            raise DomainError(f"levels must lie in [0, {MAX_LEVEL}]")
        if np.any((code < 0) | (code >= np.left_shift(1, 2 * level))):
            raise DomainError("codes must lie in [0, 4^level)")
        if not np.all(np.isfinite(atoms["freq"])):
            raise DomainError("frequencies must be finite")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def level(self) -> int:
        return int(np.max(self.atoms["level"], initial=0))


def exponential(t) -> FunctionSum:
    """The global exponential e^{2 pi i t x} as a single level-0 atom."""
    return FunctionSum([(1.0, t, 0, 0)])


ONE = exponential(0)


def _key_order(atoms: np.ndarray) -> np.ndarray:
    """Stable sort by (freq, word), a word before its extensions: by freq, then
    code shifted left to the deepest level, then level."""
    level = atoms["level"]
    deepest = np.max(level, initial=0)
    return np.lexsort((level, atoms["code"] << 2 * (deepest - level), atoms["freq"]))


def normalize(F: FunctionSum) -> FunctionSum:
    """Merge identical-key atoms, drop coefficients of size <= MERGE_TOL, sort keys.

    Merged coefficients are added in input order.
    """
    a = F.atoms[_key_order(F.atoms)]
    first = np.ones(len(a), dtype=bool)
    first[1:] = np.any([a[f][1:] != a[f][:-1] for f in ("freq", "code", "level")], axis=0)
    coeff = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(coeff, np.cumsum(first) - 1, a["coeff"])
    out = a[first]
    out["coeff"] = coeff
    return FunctionSum(out[np.abs(coeff) > MERGE_TOL])


def fs_add(*sums: FunctionSum) -> FunctionSum:
    return normalize(FunctionSum(np.concatenate([F.atoms for F in sums])))


def fs_scale(F: FunctionSum, scalar: complex) -> FunctionSum:
    atoms = F.atoms.copy()
    atoms["coeff"] = scalar * atoms["coeff"]
    return FunctionSum(atoms)


def fs_sub(F: FunctionSum, G: FunctionSum) -> FunctionSum:
    return fs_add(F, fs_scale(G, -1.0))


def refine(F: FunctionSum, K: int) -> FunctionSum:
    """Split every atom into its level-K descendants (equal as a function)."""
    if F.level > K:
        raise ContractError(f"cannot refine a level-{F.level} atom to level {K}")
    if K > MAX_LEVEL:
        raise DomainError(f"levels must lie in [0, {MAX_LEVEL}], got {K}")
    copies = 4 ** (K - F.atoms["level"])
    out = np.repeat(F.atoms, copies)
    # descendant i of an atom appends the base-4 digits of i to its code
    i = np.arange(len(out)) - np.repeat(np.cumsum(copies) - copies, copies)
    out["code"] = out["code"] << 2 * (K - out["level"]) | i
    out["level"] = K
    return normalize(FunctionSum(out))


def inner_product(F: FunctionSum, G: FunctionSum) -> complex:
    """<F, G> in L^2 of the product measure, summed over nested atom pairs.

    A pair whose deeper atom has level K and code u contributes
    cF * conj(cG) * 4^-K * e^{2 pi i D offset(u)} * mu4_hat(D / 4^K)
    with D the frequency difference and offset(u) = 2 (u & X_BITS) / 4^K
    the left endpoint of its x cylinder; disjoint pairs contribute nothing.
    The pairs are taken in key order, their transform values come from one
    mu4_hat_array call, and their terms are added one after another.
    """
    a = F.atoms[_key_order(F.atoms)][:, None]
    b = G.atoms[_key_order(G.atoms)][None, :]
    common = np.minimum(a["level"], b["level"])
    nested = a["code"] >> 2 * (a["level"] - common) == b["code"] >> 2 * (b["level"] - common)
    i, j = np.nonzero(nested)
    a, b = a[i, 0], b[0, j]
    deeper = np.where(a["level"] >= b["level"], a, b)
    scale = np.ldexp(1.0, -2 * deeper["level"])  # 4^-K
    delta = a["freq"] - b["freq"]
    offset = 2 * (deeper["code"] & X_BITS) * scale
    terms = a["coeff"] * b["coeff"].conj() * scale * cis(delta * offset)
    terms *= mu4_hat_array(delta * scale)
    return complex(np.cumsum(terms)[-1]) if len(terms) else 0j


def norm(F: FunctionSum) -> float:
    return float(np.sqrt(max(inner_product(F, F).real, 0.0)))
