"""Threshold poles of weakly perturbed planar waveguides.

Locates the resolvent pole that detaches from a transverse threshold of a
straight guide under a small localized perturbation: a regular potential
in the interior, or a window or patch changing one wall's condition.  Three
lanes give the pole: closed-form leading asymptotics, a mode-sum secular
equation, and a finite-difference oracle on truncated guides.

The package root exports what README's example and the sweep use: the
cross-section and its basis, the secular lane's kernel and solve, the
oracle's guide and eigensolve, and the sweep's ``parse_config`` and
``run_experiment``.  Everything else is imported from its module
(``wgpoles.harness``, ``wgpoles.oracle``, ...).  Importing the package
sets ``OPENBLAS_NUM_THREADS=1`` unless the caller set it (one BLAS thread:
the solves are too small to gain from more, which only add CPU and move
the report's last digits); it reaches numpy's OpenBLAS if numpy loads after.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as each OpenBLAS loads

from .harness import ConfigError, SweepRow, parse_config, run_experiment  # noqa: E402
from .modesum import ModeSumKernel  # noqa: E402
from .oracle import TruncatedGuide, build_fd_operator, lowest_eigenpairs  # noqa: E402
from .regular_pole import solve_secular  # noqa: E402
from .transverse import BC_DIRICHLET, CrossSection, build_basis  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "BC_DIRICHLET",
    "ConfigError",
    "CrossSection",
    "ModeSumKernel",
    "SweepRow",
    "TruncatedGuide",
    "__version__",
    "build_basis",
    "build_fd_operator",
    "lowest_eigenpairs",
    "parse_config",
    "run_experiment",
    "solve_secular",
]
