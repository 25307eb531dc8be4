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

from .atoms import FunctionSum, exponential, inner_product, norm, normalize, refine
from .cuntz import (
    CuntzRep,
    apply_S,
    apply_S_star,
    gram_X4,
    verify_cuntz,
)
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    FrameLabError,
    InfeasibleParameters,
    UnsupportedShape,
)
from .filters import (
    FilterBank,
    filter_bank_from_A,
    g_map,
    hadamard_rho,
    little_m,
    mu3_nogo_certificate,
    rho_bank,
    solve_alpha,
)
from .frames import (
    PartialSumTrace,
    WeightSpec,
    WeightedExponential,
    h_partial,
    incompleteness_report,
    parseval_trace,
    project_V,
    verify_ruelle,
    weight_table,
)
from .report import RunReport
from .transform import cis, mu4_hat

__all__ = [
    "CapacityError",
    "ContractError",
    "CuntzRep",
    "DomainError",
    "FilterBank",
    "FrameLabError",
    "FunctionSum",
    "InfeasibleParameters",
    "PartialSumTrace",
    "RunReport",
    "UnsupportedShape",
    "WeightSpec",
    "WeightedExponential",
    "apply_S",
    "apply_S_star",
    "cis",
    "exponential",
    "filter_bank_from_A",
    "g_map",
    "gram_X4",
    "h_partial",
    "hadamard_rho",
    "incompleteness_report",
    "inner_product",
    "little_m",
    "mu3_nogo_certificate",
    "mu4_hat",
    "norm",
    "normalize",
    "parseval_trace",
    "project_V",
    "refine",
    "rho_bank",
    "solve_alpha",
    "verify_cuntz",
    "verify_ruelle",
    "weight_table",
]
