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
from dataclasses import dataclass

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

    def bitstring(self) -> int:
        """The sea as one mode-register basis state: bit q set when q is occupied."""
        return sum(1 << q for q in self.occupied_qubits())


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


# ---------------------------------------------------------------------------
# total momentum and the point group of the mode register


def _label_moduli(grid: GridSpec) -> tuple[int, int]:
    """Modulus of each label component: L on a periodic axis, 2 on an open one."""
    return (grid.nx if grid.bc_x == PERIODIC else 2, grid.ny if grid.bc_y == PERIODIC else 2)


def momentum_labels(grid: GridSpec, states) -> np.ndarray:
    """Total-momentum label of each mode-register bitstring, as lx + Mx*ly.

    lx sums the x mode number m of every occupied mode, either spin, mod L on
    a periodic axis and mod 2 on an open one, where a standing wave has
    parity (-1)^m under reflection; ly likewise, and Mx is the x modulus.
    The mode-register Hamiltonian conserves both, so it never couples two
    bitstrings with different labels.
    """
    mod_x, mod_y = _label_moduli(grid)
    states = np.asarray(states)
    lx = np.zeros(states.shape, dtype=np.int64)
    ly = np.zeros(states.shape, dtype=np.int64)
    for slot in range(grid.n_sites):
        count = np.bitwise_count(states & (3 << 2 * slot))
        lx += (slot % grid.nx) * count
        ly += (slot // grid.nx) * count
    return lx % mod_x + mod_x * (ly % mod_y)


def label_momenta(grid: GridSpec, label: int) -> tuple[int, int]:
    """The (lx, ly) components of a momentum_labels label."""
    ly, lx = divmod(int(label), _label_moduli(grid)[0])
    return lx, ly


@dataclass(frozen=True)
class SlotPermutation:
    """One point-group element as a permutation of mode slots: the modes of
    slot s move to slot image[s], both spins alike."""

    image: tuple[int, ...]

    def apply(self, states) -> tuple[np.ndarray, np.ndarray]:
        """(images, signs): each bitstring's image, and the +-1 sign of
        reordering its moved creation operators into ascending qubit order."""
        states = np.asarray(states)
        targets = [2 * self.image[q // 2] + q % 2 for q in range(2 * len(self.image))]
        images = np.zeros_like(states)
        odd = np.zeros(states.shape, dtype=bool)
        for q, target in enumerate(targets):
            bit = (states >> q) & 1
            images |= bit << target
            # each occupied pair (q, p), p > q, whose images swap order flips the sign
            passed = sum(1 << p for p in range(q + 1, len(targets)) if targets[p] < target)
            odd ^= (bit & np.bitwise_count(states & passed) & 1).astype(bool)
        return images, np.where(odd, -1.0, 1.0)


@dataclass(frozen=True)
class PointGroup:
    """The mode register's total-momentum blocks and the point group that
    permutes them.

    `elements` lists every group element once, the identity first: k -> -k
    on any set of periodic axes, each combined with x <-> y on a square grid
    whose two axes share a boundary condition.  The mode-register
    Hamiltonian commutes with each element's signed permutation, so blocks
    one element maps onto each other have the same spectrum.
    """

    grid: GridSpec
    elements: tuple[SlotPermutation, ...]

    def labels(self, states) -> np.ndarray:
        return momentum_labels(self.grid, states)

    def classes(self, states: np.ndarray, labels: np.ndarray,
                first: int | None = None) -> list[list[tuple[int, SlotPermutation]]]:
        """The labels present, split into point-group classes, in the order
        of their smallest labels.  A class lists (label, element) for each
        member, its representative first and the others in ascending label
        order; the element maps the representative onto that member, and
        the representative's own is the identity.  The representative is
        the label `first` in its class and the smallest label in any other."""
        present, seed_rows = np.unique(labels, return_index=True)
        images = {element: dict(zip(present.tolist(),
                                    self.labels(element.apply(states[seed_rows])[0]).tolist()))
                  for element in self.elements}
        return _classes(present.tolist(), self.elements,
                        lambda element, label: images[element][label], first)


def _classes(labels: list[int], elements: tuple[SlotPermutation, ...], image,
             first: int | None = None) -> list[list[tuple[int, SlotPermutation]]]:
    """The ascending labels split into the classes of elements (the identity
    first), as PointGroup.classes lists them; image(element, label) is the
    label an element maps a label onto."""

    def orbit(representative: int) -> dict[int, SlotPermutation]:
        # the identity comes first, so the representative is the first key
        members: dict[int, SlotPermutation] = {}
        for element in elements:
            members.setdefault(image(element, representative), element)
        return members

    classes, seen = [], set()
    for label in labels:
        if label in seen:
            continue
        members = orbit(label)
        if first in members:
            members = orbit(first)
        seen.update(members)
        representative, *others = members.items()
        classes.append([representative, *sorted(others, key=lambda member: member[0])])
    return classes


def point_group(grid: GridSpec) -> PointGroup:
    """The point group of the grid's mode register (see PointGroup)."""
    flips_x = (False, True) if grid.bc_x == PERIODIC else (False,)
    flips_y = (False, True) if grid.bc_y == PERIODIC else (False,)
    swaps = (False, True) if grid.nx == grid.ny and grid.bc_x == grid.bc_y else (False,)
    elements = []
    for swap in swaps:
        for flip_y in flips_y:
            for flip_x in flips_x:
                image = []
                for slot in range(grid.n_sites):
                    mx, my = slot % grid.nx, slot // grid.nx
                    mx, my = (-mx % grid.nx if flip_x else mx), (-my % grid.ny if flip_y else my)
                    image.append(my + grid.nx * mx if swap else mx + grid.nx * my)
                elements.append(SlotPermutation(tuple(image)))
    return PointGroup(grid, tuple(dict.fromkeys(elements)))


# ---------------------------------------------------------------------------
# lattice momentum of the site register


@dataclass(frozen=True)
class Translations:
    """The site register's lattice translations, the momentum blocks they
    define, and the point group that permutes those blocks.

    `shifts` lists each translation's (ax, ay), the identity first: every
    shift along a periodic axis, none along an open one.  A momentum K =
    (kx, ky), kx in range(nx) on a periodic x axis and 0 on an open one,
    likewise ky, is labelled like a mode slot, kx + nx*ky; its block is the
    image of the projector P_K = (1/N_T) sum_a e^{-iK.a} U_a, with U_a the
    signed site permutation of shift a.  The site Hamiltonian commutes with
    every U_a, so it never mixes two blocks.  `elements` is the point group
    of point_group(grid), acting on sites as it acts on mode slots there; an
    element maps block K onto block image[K], so blocks it maps onto each
    other have the same spectrum.
    """

    grid: GridSpec
    shifts: tuple[tuple[int, int], ...]
    elements: tuple[SlotPermutation, ...]

    def translation(self, shift: tuple[int, int]) -> SlotPermutation:
        """The site permutation (x, y) -> (x + ax, y + ay), modulo the axis lengths."""
        nx, ny = self.grid.nx, self.grid.ny
        return SlotPermutation(tuple((x + shift[0]) % nx + nx * ((y + shift[1]) % ny)
                                     for y in range(ny) for x in range(nx)))

    def characters(self, label: int) -> np.ndarray:
        """e^{-iK.a} of momentum label K for each shift a, exactly +-1 where real."""
        nx, ny = self.grid.nx, self.grid.ny
        # K.a in units of 2 pi / (nx ny)
        turns = np.array([(label % nx) * ax * ny + (label // nx) * ay * nx
                          for ax, ay in self.shifts]) % (nx * ny)
        return np.where(turns == 0, 1, np.where(2 * turns == nx * ny, -1,
                                                np.exp(-2j * np.pi * turns / (nx * ny))))

    def orbits(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(reps, owner, signs) of the sorted sector bitstrings states: reps
        the ascending positions of the orbit representatives, each orbit's
        smallest bitstring; owner[i] the index in reps of bitstring i's; and
        signs[a, i] the fermionic sign of shift a on bitstring i where it
        takes that bitstring to its representative, 0 where it does not."""
        images = np.empty((len(self.shifts), len(states)), dtype=states.dtype)
        signs = np.empty(images.shape, dtype=np.int8)
        for row, shift in enumerate(self.shifts):
            images[row], signs[row] = self.translation(shift).apply(states)
        smallest = images.min(axis=0)
        signs[images != smallest] = 0
        reps, owner = np.unique(np.searchsorted(states, smallest), return_inverse=True)
        return reps, owner, signs

    def classes(self) -> list[list[tuple[int, SlotPermutation]]]:
        """The momentum labels split into point-group classes, as
        PointGroup.classes lists them, each class's smallest label its
        representative."""
        return _classes(sorted(ax + self.grid.nx * ay for ax, ay in self.shifts), self.elements,
                        lambda element, label: element.image[label])


def translations(grid: GridSpec) -> Translations:
    """The site register's translations and point group (see Translations)."""
    xs = range(grid.nx) if grid.bc_x == PERIODIC else (0,)
    ys = range(grid.ny) if grid.bc_y == PERIODIC else (0,)
    return Translations(grid, tuple((ax, ay) for ay in ys for ax in xs),
                        point_group(grid).elements)
