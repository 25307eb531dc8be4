"""Filter coefficient matrices and their admissibility certificates.

A bank is a 4x4 coefficient matrix A (rows = filter index j, columns =
first-level cylinder index k); H is its sign-flipped matrix,
H[j][k] = A[j][k] * s(j,k) with s = -1 exactly when j and k are both odd.
A is admissible when (i) row 0 of A is (1/2,1/2,1/2,1/2),
(ii) a_j0 + a_j2 = a_j1 + a_j3 for every j, and (iii) H is unitary.
Those are exactly the hypotheses under which the generated vector family
is orthonormal and projects onto weighted exponentials. A FilterBank is
admissible by construction: building one from any other matrix raises
InfeasibleParameters, so the operators that take a bank check nothing.
verify_unitarity measures the same deviations on any matrix.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError, InfeasibleParameters, in_range
from .report import Check
from .transform import cis

# s(j,k) = -1 iff j in {1,3} and k in {1,3}
SIGN_PATTERN = np.ones((4, 4))
SIGN_PATTERN[np.ix_([1, 3], [1, 3])] = -1.0

# Orthonormal real basis underlying the solver parametrization:
# rows 1,3 of H live in span{u1,u2,u3}, row 2 in span{u2,u3}, row 0 is u0.
U0 = 0.5 * np.array([1, 1, 1, 1], dtype=complex)
U1 = 0.5 * np.array([1, -1, 1, -1], dtype=complex)
U2 = 0.5 * np.array([1, 1, -1, -1], dtype=complex)
U3 = 0.5 * np.array([1, -1, -1, 1], dtype=complex)

DEFAULT_UNITARITY_TOL = 1e-12
MAX_SAMPLES = 100_000  # banks per verify_unitarity sweep; the largest run takes under a second
_SWEEP_PASS = 2048  # banks per deviations call of the sweep; bounds its working memory
# Pass thresholds of the scale-3 obstruction: a phase factor |1 + e^{4 pi i j/R}|
# above the first forces row j, and the norm gap sqrt(2) - 1 must exceed the second.
NOGO_MIN_PHASE_FACTOR = 1e-9
NOGO_MIN_NORM_GAP = 0.41


def hadamard_rho(rho) -> np.ndarray:
    """The one-parameter coefficient matrix family, |rho| = 1: one 4x4
    matrix per element of rho, stacked in rho's shape.

    A = 1/2 [[1,1,1,1], [1,1,rho,rho], [1,1,-1,-1], [1,1,-rho,-rho]];
    the matching H is a complex Hadamard matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    off = ~(np.abs(np.abs(rho) - 1.0) <= DEFAULT_UNITARITY_TOL)
    if np.any(off):
        size = float(np.abs(rho[off][0]))
        raise DomainError(f"|rho| must be 1 within {DEFAULT_UNITARITY_TOL}, got |rho| = {size}")
    A = np.empty(rho.shape + (4, 4), dtype=complex)
    A[...] = [[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, -1, -1], [1, 1, 0, 0]]
    A[..., 1, 2:] = rho[..., None]
    A[..., 3, 2:] = -rho[..., None]
    return 0.5 * A


def a_to_h(A: np.ndarray) -> np.ndarray:
    return np.asarray(A, dtype=complex) * SIGN_PATTERN


def deviations(A) -> dict[str, np.ndarray]:
    """How far each matrix of a stack A (..., 4, 4) is from each
    admissibility condition: max |a_0k - 1/2| (first_row), max |a_j0 + a_j2
    - a_j1 - a_j3| (kernel) and max |H*H - I| (unitarity), each an array of
    A's leading shape. The entries must be finite.

    H*H is formed as products summed over the row axis, not by a matrix
    product: the first complex matrix product in a process starts BLAS, and
    every process that builds a bank comes here. The sum over the four rows
    runs in order, so a matrix gets the same bits alone as in any stack.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (4, 4):
        raise DomainError(f"A must be 4x4, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(np.float64))):
        raise DomainError("A must have finite entries")
    H = a_to_h(A)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail every dev <= tol
        HH = np.sum(H.conj()[..., :, :, None] * H[..., :, None, :], axis=-3)
        return {
            "first_row": np.max(np.abs(A[..., 0, :] - 0.5), axis=-1),
            "kernel": np.max(
                np.abs((A[..., :, 0] + A[..., :, 2]) - (A[..., :, 1] + A[..., :, 3])), axis=-1
            ),
            "unitarity": np.max(np.abs(HH - np.eye(4)), axis=(-2, -1)),
        }


class FilterBank:
    """An admissible coefficient matrix A, held read-only.

    Building one checks every admissibility condition at
    DEFAULT_UNITARITY_TOL and raises InfeasibleParameters naming the first
    that fails, so every bank in existence defines a representation. A is
    a read-only copy, and setting or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("A",)

    def __init__(self, A):
        A = np.array(A, dtype=complex)
        for condition, dev in deviations(A).items():
            if not dev <= DEFAULT_UNITARITY_TOL:
                raise InfeasibleParameters(condition, f"off by {dev:.3g}")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    def __setattr__(self, name, value=None):  # value=None: also serves as __delattr__
        raise AttributeError(f"a FilterBank is read-only: {name} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle build the copy through __init__, not setattr
        return FilterBank, (self.A,)

    @property
    def digit_weights(self) -> tuple[complex, ...]:
        """(d_0, d_1, d_2, d_3), d_j = a_j0 + a_j2: the per-digit projection
        weights, which every frame weight is a product of."""
        return tuple(complex(d) for d in self.A[:, 0] + self.A[:, 2])


def rho_bank(rho: complex) -> FilterBank:
    """Convenience: admissible bank for the one-parameter family."""
    return FilterBank(hadamard_rho(rho))


def solve_alpha(
    a10: complex,
    a30: complex,
    a11: complex,
    a12: complex,
    a21: complex,
    a22: complex,
) -> FilterBank:
    """Assemble an admissible bank from the free parameters of the solver.

    Feasibility requires |a10|^2 + |a30|^2 = 1 (duality of the two weight
    bases), unit norm of the row-1 and row-2 coordinate vectors, and
    orthogonality a11*conj(a21) + a12*conj(a22) = 0. Row 3 is then coupled
    to row 1 by lambda = -conj(a10)*a30 / (1 - |a10|^2); in the degenerate
    case |a10| = 1 row 3 is the orthogonal complement of row 2 instead.
    """
    a10, a30, a11, a12, a21, a22 = (complex(z) for z in (a10, a30, a11, a12, a21, a22))
    # Each guard holds to DEFAULT_UNITARITY_TOL, as FilterBank does. It reads
    # `not dev <= ...` so that a nan deviation fails it, and squares by
    # multiplying, which gives inf where ** 2 raises OverflowError. A
    # deviation is computed only once the guards before it hold: abs of the
    # orthogonality sum overflows on parameters a norm guard refuses.
    n10, n30, n11, n12, n21, n22 = (abs(z) * abs(z) for z in (a10, a30, a11, a12, a21, a22))
    guards = (
        ("duality", "|a10|^2 + |a30|^2 = 1", lambda: n10 + n30 - 1.0),
        ("row1_norm", "|a10|^2+|a11|^2+|a12|^2 = 1", lambda: n10 + n11 + n12 - 1.0),
        ("row2_norm", "|a21|^2+|a22|^2 = 1", lambda: n21 + n22 - 1.0),
        ("row12_orthogonality", "a11*conj(a21)+a12*conj(a22) = 0",
         lambda: a11 * a21.conjugate() + a12 * a22.conjugate()),
    )
    for constraint, identity, deviation in guards:
        dev = abs(deviation())
        if not dev <= DEFAULT_UNITARITY_TOL:
            raise InfeasibleParameters(constraint, f"{identity} off by {dev:.3g}")

    if 1.0 - abs(a10) ** 2 <= DEFAULT_UNITARITY_TOL:  # the degenerate case |a10| = 1
        row3 = -a22.conjugate() * U2 + a21.conjugate() * U3
    else:
        lam = -a10.conjugate() * a30 / (1.0 - abs(a10) ** 2)
        row3 = a30 * U1 + lam * a11 * U2 + lam * a12 * U3
    H = np.array(
        [
            U0,
            a10 * U1 + a11 * U2 + a12 * U3,
            a21 * U2 + a22 * U3,
            row3,
        ]
    )
    # Each constraint above holds within the tolerance, but their errors can
    # add up: the bank's own unitarity check refuses what they let through.
    return FilterBank(a_to_h(H))  # the sign flip is its own inverse


def pq_bank(p: complex, q: complex) -> FilterBank:
    """The solver bank of the weight family (p, q): a10 = p, a30 = q,
    a11 = sqrt(1 - |p|^2), a12 = a21 = 0, a22 = 1. Its digit weights are
    (1, p, 0, q) up to the rounding of assembling A."""
    p = complex(p)
    fill = math.sqrt(max(0.0, 1.0 - abs(p) * abs(p)))  # 0 for |p| >= 1 and for nan
    return solve_alpha(p, q, fill, 0.0, 0.0, 1.0)


def little_m(bank: FilterBank, j, t) -> complex:
    """Symbol of the adjoint on exponentials: S_j* e_t = little_m(j,t) e_{(t-j)/4},
    at every element of the filter indices j and of t, broadcast together."""
    j = np.asarray(j)
    if j.dtype.kind not in "iu" or np.any((j < 0) | (j > 3)):
        raise DomainError(f"filter index must be in 0..3, got {j}")
    A = bank.A
    even_part = 0.5 * (A[j, 0].conjugate() + A[j, 2].conjugate())
    odd_part = 0.5 * (A[j, 1].conjugate() + A[j, 3].conjugate())
    return even_part + (-1.0) ** j * odd_part * cis(0.5 * np.asarray(t, dtype=np.float64))


def g_map(j, t) -> np.ndarray:
    """Frequency descent map (t - j) / 4, at every element of j and t,
    broadcast together."""
    return (np.asarray(t, dtype=np.float64) - j) / 4.0


def _scale_replay(R: int, d: tuple[complex, ...]) -> dict:
    """The scale-R replay on v = (1, 0, 1, 0), which H maps to the digit
    weights (d_0, ..., d_3). Row 0's orthogonality to row j, with the
    kernel condition, reads (1 + e^{4 pi i j / R}) d_j = 0, so a phase
    factor above NOGO_MIN_PHASE_FACTOR forces d_j = 0; every other d_j is
    taken from d, a real bank's. Returns the smallest factor, H v, its norm
    and the norm H v lost."""
    factors = [abs(1.0 + complex(cis(2 * j % R / R))) for j in (1, 2, 3)]
    forced = [f > NOGO_MIN_PHASE_FACTOR for f in factors]
    image = [d[0].real] + [0.0 if f else d[j].real for j, f in enumerate(forced, 1)]
    output_norm = math.hypot(*image)
    return {
        "min_phase_factor_abs": min(factors),
        "output_vector": image,
        "output_norm": output_norm,
        "norm_gap": math.hypot(1, 0, 1, 0) - output_norm,
    }


def verify_nogo_mu3() -> Check:
    """Replay of the obstruction for the middle-third analogue, for this
    construction only, with scale 4 as its control.

    With scale 3 every phase factor 1 + e^{4 pi i j / 3} is nonvanishing,
    so rows 1 to 3 are forced: H maps (1,0,1,0), of norm sqrt(2), to
    (1,0,0,0), of norm 1, and cannot be unitary. With scale 4 the factors
    are 0, 2, 0, so only d_2 = 0 is forced, which the rho = 1 bank meets:
    its H v = (1,1,0,0) keeps the norm. Passes when scale 3 is obstructed
    (every factor above the first threshold, the norm gap above the
    second) and scale 4 is not.
    """
    d = rho_bank(1.0).digit_weights
    scale3, scale4 = _scale_replay(3, d), _scale_replay(4, d)
    obstructed = [
        m["min_phase_factor_abs"] > NOGO_MIN_PHASE_FACTOR and m["norm_gap"] > NOGO_MIN_NORM_GAP
        for m in (scale3, scale4)
    ]
    metrics = {"input_norm": math.hypot(1, 0, 1, 0), **scale3}
    metrics.update({f"control_{key}": value for key, value in scale4.items()})
    tolerances = {"min_phase_factor_abs": NOGO_MIN_PHASE_FACTOR, "norm_gap": NOGO_MIN_NORM_GAP}
    return Check(obstructed == [True, False], metrics, tolerances)


def verify_unitarity(samples: int, tol: float, A=None) -> Check:
    """max |H*H - I| <= tol over the banks at the samples points
    rho = e^{2 pi i m / samples} of the unit circle; given a matrix A, its
    three admissibility conditions instead, each within tol.

    The banks are measured _SWEEP_PASS at a time, one deviations call on
    their stack, which gives each bank the bits it gets alone. Each rho is
    np.exp of 1j times the real quotient 2 pi m / samples: bit for bit the
    scalar np.exp(2j * np.pi * m / samples). Dividing a complex array by
    samples would round some phases differently.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    if A is not None:
        dev = {name: float(d) for name, d in deviations(A).items()}
        metrics = {
            "max_dev": dev["unitarity"],
            "first_row_max_dev": dev["first_row"],
            "kernel_max_dev": dev["kernel"],
        }
        return Check(all(d <= tol for d in dev.values()), metrics, {"unitarity": tol})
    in_range("samples", samples, 1, MAX_SAMPLES)
    max_dev = 0.0
    for lo in range(0, samples, _SWEEP_PASS):
        m = np.arange(lo, min(lo + _SWEEP_PASS, samples))
        rho = np.exp(1j * (2 * np.pi * m / samples))
        max_dev = max(max_dev, float(np.max(deviations(hadamard_rho(rho))["unitarity"])))
    return Check(max_dev <= tol, {"max_dev": max_dev}, {"unitarity": tol})


def matrix_to_json(A: np.ndarray) -> str:
    """Serialize a 4x4 complex matrix as {"rows": [[{"re","im"} x4] x4]}."""
    A = np.asarray(A, dtype=complex)
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in A]
    return json.dumps({"rows": rows}, sort_keys=True)


def matrix_from_json(text: str | bytes) -> np.ndarray:
    """Parse the matrix_to_json schema; any other document raises DomainError."""
    try:
        rows = json.loads(text)["rows"]
        entries = [[complex(e["re"], e["im"]) for e in row] for row in rows]
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError) as exc:
        raise DomainError(f"matrix JSON is not in the rows/re/im schema ({exc})") from None
    if len(entries) != 4 or any(len(row) != 4 for row in entries):
        raise DomainError("matrix JSON must contain 4 rows of 4 entries")
    return np.array(entries)
