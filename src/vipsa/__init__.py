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
    PoolOperator,
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
    HamiltonianPair,
    build_kspace,
    build_real,
    ground_space,
    hamiltonian_pair,
    interaction_quadruples,
    sector_diagonalize,
    spin_operators,
)
from .hva import HvaAnsatz, HvaLayout, HvaResult, build_layout, hva_run
from .lattice import GridSpec, default_filling, fermi_sea

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "GroundSpace",
    "HamiltonianPair",
    "HvaAnsatz",
    "HvaLayout",
    "HvaResult",
    "PoolOperator",
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
    "hamiltonian_pair",
    "hva_run",
    "interaction_quadruples",
    "rs_perturbation",
    "sector_diagonalize",
    "select",
    "spin_operators",
    "vipsa_run",
]
