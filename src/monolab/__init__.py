"""monolab: a numerical laboratory for a two-phase parabolic monotonicity
functional on curved charts in normal coordinates.

Submodules: geometry (charts), kernels (Gaussian kernel and order-zero
parametrix), cutoff, quadrature (kernel-weighted space-time rules),
solutions (two-phase pairs, heat solver, admissibility), functional (the
scale functional and its inequality checks), gauss_transforms (reduction to
Gauss measure and the Gaussian inequalities), config/report/cli (scenario
runner).

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set: every matrix monolab factors is small, parallelism spans scenarios, and
an idle OpenBLAS worker thread spins on a CPU after numpy is imported.  It
must happen before numpy's first import to take effect.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import (cli, config, cutoff, functional, gauss_transforms,  # noqa: E402
               geometry, kernels, quadrature, report, solutions)

__all__ = [
    "cli", "config", "cutoff", "functional", "gauss_transforms", "geometry",
    "kernels", "quadrature", "report", "solutions", "__version__",
]
