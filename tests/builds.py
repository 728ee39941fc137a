"""Builds that several test files repeat, made once per test session.

Each function here caches its result on its arguments (`functools.lru_cache`,
so once per process, which is one pytest session) and hands out read-only
arrays (`flags.writeable = False`): a test that wrote into a shared matrix
or ground space would fail, not change another test's input.  The
arguments are values: `GridSpec` is frozen, and so are the sector sizes.

Each object comes from the library call a test would make on its own, with
the same arguments, so a shared object has the bytes of an unshared build;
`sector_reference` likewise comes from the oracle call a test would make.
"""

from functools import lru_cache

import numpy as np

from vipsa.hamiltonians import (
    GroundSpace,
    ModeHamiltonian,
    build_kspace,
    build_real,
    ground_space,
    sector_matrix,
)
from vipsa.lattice import GridSpec, momentum_labels, sea_label
from vipsa.statevector import sector_basis


def _read_only(*arrays) -> None:
    for array in arrays:
        array.flags.writeable = False


@lru_cache(maxsize=None)
def kspace_hamiltonian(grid: GridSpec) -> ModeHamiltonian:
    """build_kspace(grid), whose Pauli sum's arrays, compiled ones too, are
    read-only like every PauliSum's."""
    return build_kspace(grid)


@lru_cache(maxsize=None)
def whole_sector_matrix(grid: GridSpec, n_up: int, n_down: int):
    """The mode-register H over the whole (n_up, n_down) sector, as
    sector_matrix builds it on the sorted sector bitstrings."""
    matrix = sector_matrix(kspace_hamiltonian(grid).pauli,
                           sector_basis(grid.n_qubits, n_up, n_down), grid.n_qubits)
    _read_only(matrix.data, matrix.indices, matrix.indptr)
    return matrix


@lru_cache(maxsize=None)
def sea_block(grid: GridSpec, n_up: int, n_down: int) -> tuple[int, np.ndarray]:
    """The momentum label of the (n_up, n_down) Fermi sea and the sorted
    sector bitstrings of its block, where every state of an adaptive run
    lives, from one momentum_labels pass over the sector."""
    states = sector_basis(grid.n_qubits, n_up, n_down)
    label = sea_label(grid, n_up, n_down)
    block = states[momentum_labels(grid, states) == label]
    _read_only(block)
    return label, block


@lru_cache(maxsize=None)
def sea_block_space(grid: GridSpec, n_up: int, n_down: int) -> GroundSpace:
    """The mode-register ground space solved per point-group class,
    keeping the matrix of the Fermi sea's block, as a run solves it."""
    space = ground_space(kspace_hamiltonian(grid), n_up, n_down, keep=True)
    _read_only(space.vectors, space.blocks, space.matrix_rows,
               space.matrix.data, space.matrix.indices, space.matrix.indptr)
    return space


@lru_cache(maxsize=None)
def site_space(grid: GridSpec, n_up: int, n_down: int) -> GroundSpace:
    """The site-register ground space solved on its momentum blocks,
    keeping the whole sector's matrix, as a layered run solves it."""
    space = ground_space(build_real(grid), n_up, n_down, keep=True)
    _read_only(space.vectors, space.blocks, space.matrix_rows,
               space.matrix.data, space.matrix.indices, space.matrix.indptr)
    return space


@lru_cache(maxsize=None)
def sector_reference(grid: GridSpec, register: str, n_up: int, n_down: int,
                     how_many: int) -> tuple[np.ndarray, np.ndarray]:
    """oracles.lowest_sector_values of the register's Pauli sum ("k" the
    mode register's, "real" the site register's) on the (n_up, n_down)
    sector: the lowest how_many values and the lowest multiplet's basis."""
    from oracles import lowest_sector_values  # oracles imports this module

    h = (kspace_hamiltonian(grid) if register == "k" else build_real(grid)).pauli
    values, multiplet = lowest_sector_values(h, grid.n_qubits, n_up, n_down, how_many)
    _read_only(values, multiplet)
    return values, multiplet
