"""Weighted Fourier frames for the Cantor-4 measure.

Constructs the frames via a four-isometry representation on a dilated
fractal and numerically certifies every finitely checkable claim about
them: unitarity of the coefficient matrices, the isometry relations,
orthonormality of the generated family, the projection formula, Bessel and
Parseval partial-sum behavior, the refinement identity of the coefficient
energy function, the incompleteness of the degenerate weight family, and
the scale-3 obstruction.
"""

__version__ = "0.1.0"

from .atoms import FunctionSum, normalize, refine
from .cuntz import apply_S, apply_S_star, verify_cuntz, verify_gram
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    FrameLabError,
    InfeasibleParameters,
)
from .filters import (
    FilterBank,
    g_map,
    hadamard_rho,
    little_m,
    pq_bank,
    rho_bank,
    solve_alpha,
    verify_nogo_mu3,
    verify_unitarity,
)
from .frames import (
    PartialSumTrace,
    h_partial,
    parseval_trace,
    verify_incomplete,
    verify_parseval,
    verify_projection,
    verify_ruelle,
    weight_table,
)
from .report import Check, report_json
from .transform import cis, mu4_hat

__all__ = [
    "CapacityError",
    "Check",
    "ContractError",
    "DomainError",
    "FilterBank",
    "FrameLabError",
    "FunctionSum",
    "InfeasibleParameters",
    "PartialSumTrace",
    "apply_S",
    "apply_S_star",
    "cis",
    "g_map",
    "h_partial",
    "hadamard_rho",
    "little_m",
    "mu4_hat",
    "normalize",
    "parseval_trace",
    "pq_bank",
    "refine",
    "report_json",
    "rho_bank",
    "solve_alpha",
    "verify_cuntz",
    "verify_gram",
    "verify_incomplete",
    "verify_nogo_mu3",
    "verify_parseval",
    "verify_projection",
    "verify_ruelle",
    "verify_unitarity",
    "weight_table",
]
