"""Weighted Fourier frames for the Cantor-4 measure.

Constructs the frames via a four-isometry representation on a dilated
fractal and numerically certifies every finitely checkable claim about
them: unitarity of the coefficient matrices, the isometry relations,
orthonormality of the generated family, the projection formula, Bessel and
Parseval partial-sum behavior, the refinement identity of the coefficient
energy function, the incompleteness of the degenerate weight family, and
the scale-3 obstruction.
"""

import os
import sys

__version__ = "0.1.0"

# The library makes no BLAS call, and OpenBLAS starts one worker thread per
# CPU when numpy is imported: ask it for one thread, the calling one, and keep
# a value the caller set. Once numpy is imported its pool exists, and setting
# the variable then would only mislead.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del os, sys

# Loads the library and numpy before `python -m frame_lab` compiles cli.py and imports argparse: lower peak RSS.
from . import atoms, cuntz, errors, filters, frames, report, transform
