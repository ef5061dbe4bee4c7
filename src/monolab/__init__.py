"""monolab: a numerical laboratory for a two-phase parabolic monotonicity
functional on curved charts in normal coordinates.

Submodules: geometry (charts), kernels (Gaussian kernel and order-zero
parametrix), cutoff, quadrature (kernel-weighted space-time rules),
solutions (two-phase pairs, heat solver, admissibility), functional (the
scale functional and its inequality checks), gauss_transforms (reduction to
Gauss measure and the Gaussian inequalities), battery (the table of
checks), config/report/cli (scenario runner).

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set: every matrix monolab factors is small, and an idle OpenBLAS worker
thread spins on a CPU after numpy is imported.  It must happen before numpy's
first import to take effect.  ``numpy.random``, which numpy loads on first
use, is imported here too, so that it loads with the package and not inside
the first check that draws a sample.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import (battery, cli, config, cutoff, functional,  # noqa: E402
               gauss_transforms, geometry, kernels, quadrature, report, solutions)

import numpy.random  # noqa: E402, F401

__all__ = [
    "battery", "cli", "config", "cutoff", "functional", "gauss_transforms", "geometry",
    "kernels", "quadrature", "report", "solutions", "__version__",
]
