"""Cylinder-supported exponentials on C4 x [0,1], held as one record array.

A FunctionSum is a sum of atoms c * e^{2 pi i t x} * indicator(cylinder),
one row of its record array `atoms` each: coeff (complex128), freq
(float64), code, level and vec (int64). The level-K cylinder is addressed by
K pair indices k in {0,1,2,3}, the index of the planar contraction
(x, y) -> ((x + xd)/4, (y + yd)/2) with k = xd/2 + 2*yd; code holds them as
base-4 digits, the first pair most significant. The x digit of pair k is
2 * (k & 1), so the x digits of a code are its bits under X_BITS. Every
frequency the operators reach from integer input is a dyadic n/4^e, which
float64 holds exactly; two atoms merge only on identical keys.

vec numbers the vector an atom belongs to, so one record array can hold a
batch of sums that every operation treats separately: atoms of different
vectors never merge or pair. A single sum has vec 0 everywhere, and each
vector of a batch gets the bits its single sum would get.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .transform import cis, mu4_hat_array

ATOM = np.dtype(
    [
        ("coeff", np.complex128),
        ("freq", np.float64),
        ("code", np.int64),
        ("level", np.int64),
        ("vec", np.int64),
    ]
)
_ROW = np.dtype(ATOM.descr[:4])  # a row of a single sum: (coeff, freq, code, level), vec 0
# numpy copies and concatenates a record array field by field, and repeats a
# read-only one (as every FunctionSum holds) at half speed; _copy, concat and
# refine view it as raw rows of bytes, which move whole (np.take and
# np.compress already do)
_RAW = np.dtype((np.void, ATOM.itemsize))
MAX_LEVEL = 31  # the 4^31 codes of a level still fit in int64
X_BITS = 0x5555_5555_5555_5555  # the x bit (k & 1) of every pair k of a code


class FunctionSum:
    """Atoms as a read-only ATOM array: an ATOM array is copied, any other
    input is read as rows (coeff, freq, code, level) of one sum, vec 0.
    Setting or deleting an attribute raises AttributeError."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        if isinstance(atoms, np.ndarray) and atoms.dtype == ATOM:
            atoms = _copy(atoms)
        else:
            try:
                single = np.array(atoms, dtype=_ROW, ndmin=1)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError(f"atoms must be (coeff, freq, code, level) rows: {exc}") from None
            atoms = np.zeros(single.shape, dtype=ATOM)
            for name in _ROW.names:
                atoms[name] = single[name]
        object.__setattr__(self, "atoms", _checked(atoms))

    @classmethod
    def _adopt(cls, atoms: np.ndarray, checked: bool = False) -> FunctionSum:
        """The sum over an ATOM array that no one else writes to, such as
        one the library has just built: made read-only, but not copied, and
        checked like any input unless its rows were gathered from a checked
        array (checked=True)."""
        if checked:
            atoms.setflags(write=False)
        else:
            _checked(atoms)
        F = object.__new__(cls)
        object.__setattr__(F, "atoms", atoms)
        return F

    def __setattr__(self, name, value=None):  # value=None: also serves as __delattr__
        raise AttributeError(f"a FunctionSum is read-only: {name} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle build the copy through __init__, not setattr
        return FunctionSum, (self.atoms,)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def level(self) -> int:
        return int(np.max(self.atoms["level"], initial=0))


def _copy(atoms: np.ndarray) -> np.ndarray:
    return np.array(atoms.view(_RAW), ndmin=1).view(ATOM)


def _checked(atoms: np.ndarray) -> np.ndarray:
    """atoms, made read-only, once its rows pass every range check."""
    level, code = atoms["level"], atoms["code"]
    if atoms.ndim != 1:
        raise DomainError(f"atoms must form one row per atom, got shape {atoms.shape}")
    if len(atoms):  # reductions, not elementwise masks: construction is on every hot path
        if level.min() < 0 or level.max() > MAX_LEVEL:
            raise DomainError(f"levels must lie in [0, {MAX_LEVEL}]")
        if code.min() < 0 or (code >> 2 * level).any():
            raise DomainError("codes must lie in [0, 4^level)")
        if not np.isfinite(atoms["freq"]).all():
            raise DomainError("frequencies must be finite")
        if atoms["vec"].min() < 0:
            raise DomainError("vector indices must be >= 0")
    atoms.setflags(write=False)
    return atoms


def _key_order(atoms: np.ndarray) -> np.ndarray:
    """Stable sort by (vec, freq, word), a word before its extensions: by vec,
    then freq, then code shifted left to the deepest level, then level."""
    level = atoms["level"]
    deepest = np.max(level, initial=0)
    return np.lexsort((level, atoms["code"] << 2 * (deepest - level), atoms["freq"], atoms["vec"]))


def normalize(F: FunctionSum) -> FunctionSum:
    """Merge identical-key atoms, drop the exact zeros, sort keys.

    Merged coefficients are added in input order, and every nonzero sum is
    kept, however small: a residual of rounding alone stays measurable. The
    merge runs on the sort order and one key field at a time; the kept rows
    are gathered once, after every index array but theirs is freed, and as
    rows of F they are not checked again.
    """
    atoms = F.atoms
    order = _key_order(atoms)
    first = np.zeros(len(order), dtype=bool)  # the first atom of each key, in key order
    first[:1] = True
    for name in ("vec", "freq", "code", "level"):
        key = atoms[name][order]
        first[1:] |= key[1:] != key[:-1]
        del key
    slot = np.cumsum(first)
    slot -= 1  # the merged row of each atom, in key order
    coeff = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(coeff, slot, atoms["coeff"][order])
    del slot
    kept = coeff != 0
    rows, coeff = order[first][kept], coeff[kept]
    del order, first, kept
    out = np.take(atoms, rows)
    out["coeff"] = coeff
    return FunctionSum._adopt(out, checked=True)


def concat(*sums: FunctionSum) -> FunctionSum:
    """The atoms of every sum, in order, each keeping its vector index."""
    return FunctionSum._adopt(np.concatenate([F.atoms.view(_RAW) for F in sums]).view(ATOM))


def fs_sub(F: FunctionSum, G: FunctionSum) -> FunctionSum:
    """F - G, each vector apart: G's coefficients times -1.0, merged once
    with F's atoms."""
    atoms = np.concatenate([F.atoms.view(_RAW), G.atoms.view(_RAW)]).view(ATOM)
    atoms["coeff"][len(F):] *= -1.0
    return normalize(FunctionSum._adopt(atoms, checked=True))


def renumber(F: FunctionSum, scale: int, offset: int) -> FunctionSum:
    """The same batch with vector v renamed scale * v + offset."""
    atoms = _copy(F.atoms)
    atoms["vec"] = scale * atoms["vec"] + offset
    return FunctionSum._adopt(atoms)


def refine(F: FunctionSum, K: int) -> FunctionSum:
    """Split every atom into its level-K descendants (equal as a function)."""
    if F.level > K:
        raise DomainError(f"cannot refine a level-{F.level} atom to level {K}")
    if K > MAX_LEVEL:
        raise DomainError(f"levels must lie in [0, {MAX_LEVEL}], got {K}")
    copies = 4 ** (K - F.atoms["level"])
    out = np.repeat(F.atoms.view(_RAW), copies).view(ATOM)
    # descendant i of an atom appends the base-4 digits of i to its code
    i = np.arange(len(out)) - np.repeat(np.cumsum(copies) - copies, copies)
    out["code"] = out["code"] << 2 * (K - out["level"]) | i
    out["level"] = K
    return normalize(FunctionSum._adopt(out))


def inner_products(F: FunctionSum, G: FunctionSum, count: int) -> np.ndarray:
    """<F_v, G_v> for v = 0 .. count - 1, in L^2 of the product measure,
    each summed over the nested atom pairs of vector v.

    A pair whose deeper atom has level K and code u contributes
    cF * conj(cG) * 4^-K * e^{2 pi i D offset(u)} * mu4_hat(D / 4^K)
    with D the frequency difference and offset(u) = 2 (u & X_BITS) / 4^K
    the left endpoint of its x cylinder; disjoint pairs contribute nothing.
    Each vector's pairs are taken in key order, F's atom major, and its
    terms are added one after another; the transform values of every pair
    come from one mu4_hat_array call.
    """
    a = np.take(F.atoms, _key_order(F.atoms))
    b = np.take(G.atoms, _key_order(G.atoms))
    na = np.bincount(a["vec"], minlength=count)
    nb = np.bincount(b["vec"], minlength=count)
    if len(na) > count or len(nb) > count:
        raise DomainError(f"vector indices must lie in [0, {count})")
    # pair p of vector v is its (p // nb[v])-th atom of F with its (p % nb[v])-th of G
    pairs = na * nb
    v = np.repeat(np.arange(count), pairs)
    p = np.arange(len(v)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    a = np.take(a, np.cumsum(na)[v] - na[v] + p // nb[v])
    b = np.take(b, np.cumsum(nb)[v] - nb[v] + p % nb[v])
    common = np.minimum(a["level"], b["level"])
    nested = a["code"] >> 2 * (a["level"] - common) == b["code"] >> 2 * (b["level"] - common)
    a, b, v = np.compress(nested, a), np.compress(nested, b), v[nested]
    a_deeper = a["level"] >= b["level"]
    scale = np.ldexp(1.0, -2 * np.where(a_deeper, a["level"], b["level"]))  # 4^-K
    delta = a["freq"] - b["freq"]
    offset = 2 * (np.where(a_deeper, a["code"], b["code"]) & X_BITS) * scale
    terms = a["coeff"] * b["coeff"].conj() * scale * cis(delta * offset)
    terms *= mu4_hat_array(delta * scale)
    out = np.zeros(count, dtype=complex)
    np.add.at(out, v, terms)
    return out


def norms(F: FunctionSum, count: int) -> np.ndarray:
    """||F_v|| for v = 0 .. count - 1."""
    return np.sqrt(np.maximum(inner_products(F, F, count).real, 0.0))
