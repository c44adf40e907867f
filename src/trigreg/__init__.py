"""Regularized trigonometric least squares on the circle.

Approximates noisy periodic signals sampled on equidistant grids by
penalized least squares in an orthonormal trigonometric basis, with
closed-form solves, diagnostics, and automatic selection of the
regularization parameter (discrepancy principle, L-curve, GCV, oracle)
plus a seeded experiment harness and a command-line interface.

The package exports the public names of its modules; each module's
``__all__`` is the one list of them.
"""

from . import approximant, experiment, grid, penalty, selection
from .approximant import *  # noqa: F403
from .experiment import *  # noqa: F403
from .grid import *  # noqa: F403
from .penalty import *  # noqa: F403
from .selection import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *approximant.__all__,
    *experiment.__all__,
    *grid.__all__,
    *penalty.__all__,
    *selection.__all__,
    "__version__",
]
