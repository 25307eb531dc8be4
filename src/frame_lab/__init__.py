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

# Loads the library and numpy before `python -m frame_lab` compiles cli.py and imports argparse: lower peak RSS.
from . import atoms, cuntz, errors, filters, frames, report, transform
