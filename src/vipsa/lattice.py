"""Lattice geometry, single-particle modes, and Fermi-sea bookkeeping.

Conventions used throughout the package:

* Sites of an ``nx x ny`` grid are indexed ``site = x + nx*y``.
* Spin-orbitals map to qubits as ``qubit = 2*orbital + spin`` with spin
  ``UP = 0``, ``DOWN = 1``.  The same rule is used for the real-space
  register (orbital = site) and the momentum register (orbital = mode
  slot ``mx + nx*my``).
* Boundary conditions are per axis.  An axis of length 2 must be open
  (its periodic wrap would repeat its one bond), longer axes default
  to periodic.
* Open axes carry standing-wave momenta ``k = pi*(m+1)/(L+1)``;
  periodic axes carry Bloch momenta ``k = 2*pi*m/L``.  Either way the
  single-particle energy of a mode is ``-2t*(cos kx + cos ky)``, which
  reproduces the exact hopping-matrix spectrum for both boundary types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UP = 0
DOWN = 1

OPEN = "open"
PERIODIC = "periodic"

# Modes within this energy window of the Fermi level count as one shell.
DEGENERACY_TOL = 1e-9


def default_boundary(length: int) -> str:
    return OPEN if length == 2 else PERIODIC


@dataclass(frozen=True)
class GridSpec:
    """Geometry and couplings of one Fermi-Hubbard problem instance."""

    nx: int
    ny: int
    bc_x: str
    bc_y: str
    t: float = 1.0
    u: float = 0.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid {self.nx}x{self.ny} is too small")
        for axis, length, bc in (("x", self.nx, self.bc_x), ("y", self.ny, self.bc_y)):
            if bc not in (OPEN, PERIODIC):
                raise ValueError(f"unknown boundary condition {bc!r}")
            if bc == PERIODIC and length == 2:
                raise ValueError(f"a periodic {axis} axis needs length 3 or more, got 2")
        for name in ("t", "u"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def make(cls, nx: int, ny: int, t: float = 1.0, u: float = 0.0,
             bc_x: str | None = None, bc_y: str | None = None) -> "GridSpec":
        """Build a grid with the default per-axis boundary rule."""
        return cls(nx, ny,
                   bc_x if bc_x is not None else default_boundary(nx),
                   bc_y if bc_y is not None else default_boundary(ny),
                   t, u)

    @property
    def n_sites(self) -> int:
        return self.nx * self.ny

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_sites

    def site_index(self, x: int, y: int) -> int:
        return x + self.nx * y

    def label(self) -> str:
        return f"{self.nx}x{self.ny}"


def qubit_index(orbital: int, spin: int) -> int:
    """Qubit carrying (orbital, spin).  Even qubits are spin-up."""
    if spin not in (UP, DOWN):
        raise ValueError(f"spin must be {UP} or {DOWN}, got {spin}")
    return 2 * orbital + spin


@dataclass(frozen=True)
class Mode:
    """One single-particle momentum mode of the non-interacting problem."""

    mx: int
    my: int
    kx: float
    ky: float
    energy: float
    slot: int  # mx + nx*my; fixes the qubit pair of this mode

    def qubit(self, spin: int) -> int:
        return qubit_index(self.slot, spin)


def axis_momenta(length: int, bc: str) -> np.ndarray:
    """Per-axis momentum values, indexed by the axis mode number m."""
    m = np.arange(length)
    if bc == PERIODIC:
        return 2.0 * np.pi * m / length
    return np.pi * (m + 1) / (length + 1)


def axis_energies(length: int, bc: str, t: float) -> np.ndarray:
    return -2.0 * t * np.cos(axis_momenta(length, bc))


def axis_wavefunctions(length: int, bc: str) -> np.ndarray:
    """Columns are the axis mode wavefunctions (complex for periodic axes).

    Open axes get the standing waves sqrt(2/(L+1)) * sin((m+1)(x+1)pi/(L+1)),
    which diagonalize the open hopping chain exactly.
    """
    x = np.arange(length)[:, None]
    m = np.arange(length)[None, :]
    if bc == PERIODIC:
        return np.exp(2j * np.pi * m * x / length) / math.sqrt(length)
    return np.sqrt(2.0 / (length + 1)) * np.sin((m + 1) * (x + 1) * np.pi / (length + 1))


def real_axis_wavefunctions(length: int, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal axis basis and its energies.

    For open axes this is the standing-wave basis unchanged.  For periodic
    axes the degenerate +-k Bloch pairs are rotated to cos/sin combinations,
    so any Slater determinant built from these columns is real.  Returns
    (energies, wavefunction matrix with columns as modes).
    """
    if bc == OPEN:
        return axis_energies(length, bc, 1.0), axis_wavefunctions(length, bc)
    x = np.arange(length)
    cols = [np.full(length, 1.0 / math.sqrt(length))]
    energies = [-2.0]
    for m in range(1, (length - 1) // 2 + 1):
        k = 2.0 * np.pi * m / length
        cols.append(np.sqrt(2.0 / length) * np.cos(k * x))
        cols.append(np.sqrt(2.0 / length) * np.sin(k * x))
        energies += [-2.0 * math.cos(k)] * 2
    if length % 2 == 0:
        cols.append(np.where(x % 2 == 0, 1.0, -1.0) / math.sqrt(length))
        energies.append(2.0)
    return np.asarray(energies), np.stack(cols, axis=1)


def enumerate_modes(grid: GridSpec) -> list[Mode]:
    """All nx*ny modes sorted ascending by energy, ties broken by (my, mx)."""
    ex = axis_energies(grid.nx, grid.bc_x, grid.t)
    ey = axis_energies(grid.ny, grid.bc_y, grid.t)
    kx = axis_momenta(grid.nx, grid.bc_x)
    ky = axis_momenta(grid.ny, grid.bc_y)
    modes = [Mode(mx, my, kx[mx], ky[my], ex[mx] + ey[my], mx + grid.nx * my)
             for my in range(grid.ny) for mx in range(grid.nx)]
    # quantize the sort energy so float noise cannot split degenerate shells
    modes.sort(key=lambda md: (round(md.energy, 9), md.my, md.mx))
    return modes


def _shell_choose(energies: list[float], n: int) -> int:
    """Ways to fill n particles into sorted levels, counting the Fermi shell."""
    if n == 0:
        return 1
    e_f = energies[n - 1]
    below = sum(1 for e in energies if e < e_f - DEGENERACY_TOL)
    shell = sum(1 for e in energies if abs(e - e_f) <= DEGENERACY_TOL)
    return math.comb(shell, n - below)


@dataclass(frozen=True)
class FermiSea:
    """Index-order filling of the lowest modes for each spin species."""

    occupied_up: tuple[Mode, ...]
    occupied_down: tuple[Mode, ...]
    energy: float
    degeneracy: int

    @property
    def n_up(self) -> int:
        return len(self.occupied_up)

    @property
    def n_down(self) -> int:
        return len(self.occupied_down)

    def occupied_qubits(self) -> tuple[int, ...]:
        ups = (m.qubit(UP) for m in self.occupied_up)
        downs = (m.qubit(DOWN) for m in self.occupied_down)
        return tuple(sorted([*ups, *downs]))


def fermi_sea(grid: GridSpec, n_up: int, n_down: int) -> FermiSea:
    """Fill the n_up/n_down lowest modes; ties resolved by the mode sort order.

    The degeneracy counts every equally low filling, one binomial factor per
    spin species over the partially filled Fermi shell.
    """
    modes = enumerate_modes(grid)
    if not 0 <= n_up <= len(modes) or not 0 <= n_down <= len(modes):
        raise ValueError(f"cannot place ({n_up},{n_down}) fermions in {len(modes)} modes")
    energies = [m.energy for m in modes]
    occ_up = tuple(modes[:n_up])
    occ_dn = tuple(modes[:n_down])
    energy = sum(e for e in energies[:n_up]) + sum(e for e in energies[:n_down])
    deg = _shell_choose(energies, n_up) * _shell_choose(energies, n_down)
    return FermiSea(occ_up, occ_dn, energy, deg)


def default_filling(grid: GridSpec) -> tuple[int, int]:
    """Half filling, except 3x3 where the benchmark sector is (5, 4)."""
    n = grid.n_sites
    if n % 2 == 1:
        return (n + 1) // 2, n // 2
    return n // 2, n // 2


def hopping_edges(grid: GridSpec) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Nearest-neighbour bonds as (site, site) pairs, split by axis."""
    horizontal, vertical = [], []
    for y in range(grid.ny):
        for x in range(grid.nx - 1):
            horizontal.append((grid.site_index(x, y), grid.site_index(x + 1, y)))
        if grid.bc_x == PERIODIC:
            horizontal.append((grid.site_index(grid.nx - 1, y), grid.site_index(0, y)))
    for x in range(grid.nx):
        for y in range(grid.ny - 1):
            vertical.append((grid.site_index(x, y), grid.site_index(x, y + 1)))
        if grid.bc_y == PERIODIC:
            vertical.append((grid.site_index(x, grid.ny - 1), grid.site_index(x, 0)))
    return horizontal, vertical


def hopping_matrix(grid: GridSpec) -> np.ndarray:
    """Real-space single-particle hopping matrix (n_sites x n_sites)."""
    h = np.zeros((grid.n_sites, grid.n_sites))
    horizontal, vertical = hopping_edges(grid)
    for i, j in horizontal + vertical:
        h[i, j] = h[j, i] = -grid.t
    return h


def real_orbital_basis(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Real single-particle eigenbasis of the hopping matrix, plus fill order.

    Returns (energies indexed by slot, W with W[site, slot] real orthogonal,
    slots sorted by the same (energy, my, mx) rule as enumerate_modes).
    Used to prepare real Slater states in the real-space register.
    """
    ex, wx = real_axis_wavefunctions(grid.nx, grid.bc_x)
    ey, wy = real_axis_wavefunctions(grid.ny, grid.bc_y)
    energies = np.zeros(grid.n_sites)
    w = np.zeros((grid.n_sites, grid.n_sites))
    order_keys = []
    for my in range(grid.ny):
        for mx in range(grid.nx):
            slot = mx + grid.nx * my
            energies[slot] = grid.t * (ex[mx] + ey[my])
            for y in range(grid.ny):
                for x in range(grid.nx):
                    w[grid.site_index(x, y), slot] = wx[x, mx] * wy[y, my]
            order_keys.append((round(energies[slot], 9), my, mx, slot))
    order = [slot for _, _, _, slot in sorted(order_keys)]
    return energies, w, order
