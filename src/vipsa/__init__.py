"""Adaptive S-matrix ansatz simulations for small Fermi-Hubbard grids."""

import os

# Must run before numpy is first imported anywhere in the process, so the
# BLAS pools honor the requested width.  Explicit settings win.
_threads = os.environ.get("VIPSA_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
del os, _threads

from .core import (
    RunResult,
    VipsaConfig,
    build_pool,
    first_order_oracle,
    rs_perturbation,
    select,
    vipsa_run,
)
from .hamiltonians import (
    GroundSpace,
    build_kspace,
    build_real,
    ground_space,
    interaction_quadruples,
    spin_operators,
)
from .hva import HvaAnsatz, HvaLayout, HvaResult, build_layout, hva_run
from .lattice import GridSpec, default_filling, fermi_sea

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "GroundSpace",
    "HvaAnsatz",
    "HvaLayout",
    "HvaResult",
    "RunResult",
    "VipsaConfig",
    "build_kspace",
    "build_layout",
    "build_pool",
    "build_real",
    "default_filling",
    "fermi_sea",
    "first_order_oracle",
    "ground_space",
    "hva_run",
    "interaction_quadruples",
    "rs_perturbation",
    "select",
    "spin_operators",
    "vipsa_run",
]
