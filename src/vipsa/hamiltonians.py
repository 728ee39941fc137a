"""Hubbard Hamiltonians in both registers, with sector-exact reference tools.

The same physical model is built twice: in real space as hopping plus on-site
repulsion, and in the momentum-mode register as a diagonal kinetic part plus a
table of two-body scattering quadruples.  The quadruple table doubles as the
source of the variational operator pool, so it is exposed as first-class data
rather than hidden inside the Pauli sum.

Everything downstream (ground spaces, fidelities, the perturbation oracle)
works in a fixed (n_up, n_down) occupation sector.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .fermions import ANNIHILATE, CREATE, LadderTerm, PauliSum, hopping_pair, jordan_wigner, number_term
from .lattice import DOWN, UP, GridSpec, axis_energies, axis_wavefunctions, enumerate_modes, hopping_edges, qubit_index
from .statevector import StateVector, _compiled_terms, _parity, apply_pauli_sum, diagonal_values, expectation, sector_weights

# Dense sector solves above this dimension would need gigabytes and minutes on
# a single core; fall back to restarted Lanczos there.
DENSE_SECTOR_CUTOFF = 2400
GROUND_DEGENERACY_TOL = 1e-8
AMPLITUDE_DROP_TOL = 1e-12


# ---------------------------------------------------------------------------
# interaction quadruples


@dataclass(frozen=True)
class InteractionQuadruple:
    """One two-body scattering term c†_{up_to ↑} c†_{down_to ↓} c_{down_from ↓} c_{up_from ↑}.

    Mode indices are register slots (qubit pair = 2*slot + spin).  `amplitude`
    is the real coefficient multiplying the operator in the Hamiltonian, and
    `energy_gap` is the kinetic-energy change of the move, the denominator
    that decides pool membership.
    """

    up_to: int
    down_to: int
    down_from: int
    up_from: int
    amplitude: float
    energy_gap: float

    def ladder_term(self) -> LadderTerm:
        return LadderTerm(1.0, (
            (qubit_index(self.up_to, UP), CREATE),
            (qubit_index(self.down_to, DOWN), CREATE),
            (qubit_index(self.down_from, DOWN), ANNIHILATE),
            (qubit_index(self.up_from, UP), ANNIHILATE),
        ))

    @property
    def is_diagonal(self) -> bool:
        """Density-density terms n_up n_down; these never enter the pool."""
        return self.up_to == self.up_from and self.down_to == self.down_from

    def conjugate_indices(self) -> tuple[int, int, int, int]:
        return self.up_from, self.down_from, self.down_to, self.up_to


def _axis_overlap(length: int, bc: str) -> np.ndarray:
    """4-mode overlap tensor f[a,b,c,d] = sum_x conj(w_a w_b) w_c w_d per axis.

    For periodic axes this collapses to a momentum delta divided by the axis
    length; for open axes it is the standing-wave contraction.
    """
    w = axis_wavefunctions(length, bc)
    return np.einsum("xa,xb,xc,xd->abcd", w.conj(), w.conj(), w, w)


def interaction_quadruples(grid: GridSpec) -> list[InteractionQuadruple]:
    """Hermitian-closed table of all quadruples with |amplitude| > 1e-12.

    Every entry's conjugate partner (roles of created and annihilated modes
    swapped) is also in the table with the same amplitude, so summing
    amplitude * operator over the list gives the interaction directly.
    """
    if grid.u == 0.0:
        return []
    fx = _axis_overlap(grid.nx, grid.bc_x)
    fy = _axis_overlap(grid.ny, grid.bc_y)
    ex = axis_energies(grid.nx, grid.bc_x, grid.t)
    ey = axis_energies(grid.ny, grid.bc_y, grid.t)
    quads = []
    for a, b, c, d in itertools.product(range(grid.n_sites), repeat=4):
        ax, ay = a % grid.nx, a // grid.nx
        bx, by = b % grid.nx, b // grid.nx
        cx, cy = c % grid.nx, c // grid.nx
        dx, dy = d % grid.nx, d // grid.nx
        v = grid.u * fx[ax, bx, cx, dx] * fy[ay, by, cy, dy]
        if abs(v) <= AMPLITUDE_DROP_TOL:
            continue
        if abs(complex(v).imag) > 1e-12 * abs(v):
            raise ValueError(f"interaction amplitude not real: {v}")
        gap = (ex[ax] + ey[ay]) + (ex[bx] + ey[by]) - (ex[cx] + ey[cy]) - (ex[dx] + ey[dy])
        quads.append(InteractionQuadruple(a, b, c, d, float(complex(v).real), float(gap)))
    return quads


def kinetic_kspace(grid: GridSpec) -> PauliSum:
    """Diagonal mode-occupation energy sum_k eps_k (n_k_up + n_k_down)."""
    acc: list[tuple[complex, tuple]] = []
    for mode in enumerate_modes(grid):
        for spin in (UP, DOWN):
            acc.extend(jordan_wigner(number_term(mode.qubit(spin), mode.energy), grid.n_qubits))
    return PauliSum.from_terms(acc)


def build_kspace(grid: GridSpec) -> tuple[PauliSum, list[InteractionQuadruple]]:
    """Momentum-register Hamiltonian and its scattering-quadruple table."""
    quads = interaction_quadruples(grid)
    acc = [(coeff, letters) for coeff, letters in kinetic_kspace(grid)]
    for quad in quads:
        acc.extend(jordan_wigner(quad.ladder_term().scaled(quad.amplitude), grid.n_qubits))
    return PauliSum.from_terms(acc), quads


def onsite_interaction(grid: GridSpec) -> PauliSum:
    """Diagonal repulsion U sum_sites n_up n_down in the site register."""
    acc: list[tuple[complex, tuple]] = []
    if grid.u != 0.0:
        for site in range(grid.n_sites):
            n_up = jordan_wigner(number_term(qubit_index(site, UP)), grid.n_qubits)
            n_down = jordan_wigner(number_term(qubit_index(site, DOWN)), grid.n_qubits)
            acc.extend(grid.u * (n_up * n_down))
    return PauliSum.from_terms(acc)


def build_real(grid: GridSpec) -> PauliSum:
    """Site-register Hamiltonian: -t nearest-neighbour hopping + U n_up n_down."""
    acc: list[tuple[complex, tuple]] = []
    horizontal, vertical = hopping_edges(grid)
    for i, j in horizontal + vertical:
        for spin in (UP, DOWN):
            for term in hopping_pair(qubit_index(i, spin), qubit_index(j, spin), -grid.t):
                acc.extend(jordan_wigner(term, grid.n_qubits))
    acc.extend(onsite_interaction(grid))
    return PauliSum.from_terms(acc)


@dataclass(frozen=True)
class HamiltonianPair:
    """Both register pictures of one grid, plus the quadruple table."""

    grid: GridSpec
    real_space: PauliSum
    k_space: PauliSum
    quadruples: tuple[InteractionQuadruple, ...]


def hamiltonian_pair(grid: GridSpec) -> HamiltonianPair:
    k_space, quads = build_kspace(grid)
    return HamiltonianPair(grid, build_real(grid), k_space, tuple(quads))


def spin_operators(n_sites: int) -> tuple[PauliSum, PauliSum]:
    """Total S_z and S^2 over the 2*n_sites register.

    Both are built from on-orbital spin flips, so the same expressions are
    valid in the site register and the mode register.
    """
    n_qubits = 2 * n_sites
    acc_z: list[tuple[complex, tuple]] = []
    raising = PauliSum.zero()
    for orbital in range(n_sites):
        up, down = qubit_index(orbital, UP), qubit_index(orbital, DOWN)
        acc_z.extend(jordan_wigner(number_term(up, 0.5), n_qubits))
        acc_z.extend(jordan_wigner(number_term(down, -0.5), n_qubits))
        raising = raising + jordan_wigner(
            LadderTerm(1.0, ((up, CREATE), (down, ANNIHILATE))), n_qubits)
    s_z = PauliSum.from_terms(acc_z)
    lowering = raising.dagger()
    s_squared = s_z * s_z + 0.5 * (raising * lowering + lowering * raising)
    return s_z, s_squared


# ---------------------------------------------------------------------------
# sector-restricted exact diagonalization


def sector_basis(n_qubits: int, n_up: int, n_down: int) -> np.ndarray:
    """Sorted bitstrings with n_up even-qubit and n_down odd-qubit particles."""
    if n_qubits % 2:
        raise ValueError("register must pair up/down qubits")
    n_sites = n_qubits // 2
    if not (0 <= n_up <= n_sites and 0 <= n_down <= n_sites):
        raise ValueError(f"sector ({n_up},{n_down}) does not fit {n_sites} orbitals")
    ups = [sum(1 << (2 * i) for i in combo)
           for combo in itertools.combinations(range(n_sites), n_up)]
    downs = [sum(1 << (2 * i + 1) for i in combo)
             for combo in itertools.combinations(range(n_sites), n_down)]
    states = np.fromiter((u | d for u in ups for d in downs),
                         dtype=np.uint32, count=len(ups) * len(downs))
    states.sort()
    return states


def sector_matrix(h: PauliSum, states: np.ndarray, n_qubits: int) -> scipy.sparse.csr_matrix:
    """<i|h|j> over the given basis, verifying h does not leave it."""
    groups: dict[int, list[tuple[complex, np.uint32]]] = {}
    for coeff, flip, yz in _compiled_terms(h, n_qubits):
        groups.setdefault(int(flip), []).append((coeff, yz))
    dim = len(states)
    source = np.arange(dim)
    rows, cols, data = [], [], []
    for flip, entries in groups.items():
        amp = np.zeros(dim, dtype=np.complex128)
        for coeff, yz in entries:
            amp += np.where(_parity(states & yz), -coeff, coeff)
        if flip == 0:
            rows.append(source)
            cols.append(source)
            data.append(amp)
            continue
        targets = states ^ np.uint32(flip)
        idx = np.searchsorted(states, targets)
        idx_c = np.minimum(idx, dim - 1)
        found = states[idx_c] == targets
        stray = np.abs(amp[~found])
        if stray.size and stray.max() > AMPLITUDE_DROP_TOL:
            raise ValueError("operator couples states outside the sector")
        rows.append(idx_c[found])
        cols.append(source[found])
        data.append(amp[found])
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim), dtype=np.complex128)
    return matrix.tocsr()


def _as_real_if_possible(matrix: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    if matrix.nnz == 0 or np.abs(matrix.data.imag).max() <= 1e-12:
        return matrix.real
    return matrix


def _lowest_eigenpairs(matrix, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    ncv = min(dim, max(2 * k + 16, 48))
    # a fixed generic start vector makes the returned basis of a degenerate
    # multiplet, and so every stored artifact, the same from run to run
    v0 = np.random.default_rng(0).standard_normal(dim)
    vals, vecs = scipy.sparse.linalg.eigsh(matrix, k=k, which="SA", ncv=ncv, tol=0, v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


@dataclass(frozen=True)
class SectorEigen:
    """Lowest eigenpairs of a sector block, vectors in sector coordinates."""

    values: np.ndarray
    vectors: np.ndarray
    states: np.ndarray


def sector_diagonalize(h: PauliSum, n_qubits: int, n_up: int, n_down: int,
                       how_many: int = 6,
                       dense_cutoff: int = DENSE_SECTOR_CUTOFF) -> SectorEigen:
    """Lowest eigenpairs of h restricted to the (n_up, n_down) sector."""
    if not h.is_hermitian():
        raise ValueError("sector diagonalization requires a Hermitian operator")
    states = sector_basis(n_qubits, n_up, n_down)
    dim = len(states)
    how_many = min(how_many, dim)
    matrix = _as_real_if_possible(sector_matrix(h, states, n_qubits))
    if dim <= dense_cutoff:
        vals, vecs = np.linalg.eigh(matrix.toarray())
    else:
        k = min(dim - 2, max(how_many + 4, 10))
        vals, vecs = _lowest_eigenpairs(matrix, dim, k)
    return SectorEigen(vals[:how_many].copy(), vecs[:, :how_many].copy(), states)


@dataclass(frozen=True)
class GroundSpace:
    """Orthonormal basis of the degenerate ground eigenspace of one sector.

    `vectors` has one column per ground state, expressed over `states`, the
    sorted sector bitstrings.  Stored artifacts (`save`/`load`) keep exactly
    these fields: n_qubits, n_up, n_down, energy, vectors, states.
    """

    n_qubits: int
    n_up: int
    n_down: int
    energy: float
    vectors: np.ndarray
    states: np.ndarray

    @property
    def degeneracy(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        np.savez_compressed(path, n_qubits=self.n_qubits, n_up=self.n_up,
                            n_down=self.n_down, energy=self.energy,
                            vectors=self.vectors, states=self.states)

    @classmethod
    def load(cls, path) -> "GroundSpace":
        with np.load(path) as data:
            return cls(int(data["n_qubits"]), int(data["n_up"]), int(data["n_down"]),
                       float(data["energy"]), data["vectors"], data["states"])

    def sector_fidelity(self, x: np.ndarray) -> float:
        """Total squared overlap with a state given over `states`."""
        return float(np.sum(np.abs(self.vectors.conj().T @ x) ** 2))


def ground_space(h: PauliSum, n_qubits: int, n_up: int, n_down: int,
                 tol: float = GROUND_DEGENERACY_TOL,
                 dense_cutoff: int = DENSE_SECTOR_CUTOFF) -> GroundSpace:
    """Ground multiplet of the sector, degeneracy resolved at tolerance tol."""
    if not h.is_hermitian():
        raise ValueError("ground space requires a Hermitian operator")
    states = sector_basis(n_qubits, n_up, n_down)
    dim = len(states)
    matrix = _as_real_if_possible(sector_matrix(h, states, n_qubits))
    if dim <= dense_cutoff:
        vals, vecs = np.linalg.eigh(matrix.toarray())
    else:
        k = min(dim - 2, 12)
        while True:
            vals, vecs = _lowest_eigenpairs(matrix, dim, k)
            if (vals <= vals[0] + tol).sum() < len(vals) or k == dim - 2:
                break
            # the whole returned window is degenerate; widen it
            k = min(dim - 2, 2 * k)
    count = int((vals <= vals[0] + tol).sum())
    basis, _ = np.linalg.qr(vecs[:, :count])
    return GroundSpace(n_qubits, n_up, n_down, float(vals[0]), basis, states)


def fidelity(psi: StateVector, gs: GroundSpace) -> float:
    """Total squared overlap of psi with the ground space."""
    if psi.n_qubits != gs.n_qubits:
        raise ValueError("state and ground space live on different registers")
    return gs.sector_fidelity(psi.amplitudes[gs.states])


class SectorHamiltonian:
    """Sector-restricted matrix form of a Hamiltonian for fast repeated use.

    apply() assumes the state already lives in the sector (as every circuit
    here guarantees); any amplitude outside it is ignored.
    """

    def __init__(self, h: PauliSum, n_qubits: int, n_up: int, n_down: int):
        self.n_qubits = n_qubits
        self.states = sector_basis(n_qubits, n_up, n_down)
        self.matrix = sector_matrix(h, self.states, n_qubits)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.n_qubits != self.n_qubits:
            raise ValueError("state size does not match the sector register")
        out = np.zeros_like(psi.amplitudes)
        out[self.states] = self.matrix @ psi.amplitudes[self.states]
        return StateVector(self.n_qubits, out)

    def expectation(self, psi: StateVector) -> float:
        gathered = psi.amplitudes[self.states]
        value = np.vdot(gathered, self.matrix @ gathered)
        if abs(value.imag) > 1e-10:
            raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
        return float(value.real)


# ---------------------------------------------------------------------------
# Rayleigh-Schrodinger perturbation oracle


def rs_perturbation(h0: PauliSum, h1: PauliSum, phi0: StateVector,
                    degeneracy_tol: float = GROUND_DEGENERACY_TOL,
                    dense_cutoff: int = DENSE_SECTOR_CUTOFF) -> tuple[float, float, float]:
    """(E0, E1, E2) for the split h0 + h1 around the eigenstate phi0 of h0.

    phi0 must be a normalized eigenstate of h0, non-degenerate within its own
    occupation sector; degenerate reference states are rejected because the
    second-order sum would need the degenerate theory.
    """
    if not h1.is_hermitian():
        raise ValueError("perturbation requires a Hermitian h1")
    if abs(phi0.norm() - 1.0) > 1e-10:
        raise ValueError("phi0 must be normalized")
    weights = sector_weights(phi0)
    if len(weights) != 1:
        raise ValueError("phi0 must occupy a single (n_up, n_down) sector")
    (n_up, n_down), = weights.keys()
    n = phi0.n_qubits
    states = sector_basis(n, n_up, n_down)

    e0 = expectation(h0, phi0)
    residual = apply_pauli_sum(h0, phi0).amplitudes - e0 * phi0.amplitudes
    if np.linalg.norm(residual) > 1e-8 * max(1.0, abs(e0)):
        raise ValueError("phi0 is not an eigenstate of h0")
    e1 = expectation(h1, phi0)
    image = apply_pauli_sum(h1, phi0).amplitudes[states]

    if h0.is_diagonal():
        # the sector bitstrings are themselves the h0 eigenbasis
        levels = diagonal_values(h0, n)[states]
        degenerate = np.abs(levels - e0) <= degeneracy_tol
        if degenerate.sum() != 1:
            raise ValueError("phi0 is degenerate within its sector")
        excited = ~degenerate
        e2 = np.sum(np.abs(image[excited]) ** 2 / (e0 - levels[excited]))
    else:
        dim = len(states)
        if dim > dense_cutoff:
            raise ValueError(f"sector dimension {dim} too large for the dense "
                             "perturbation solve; use a diagonal h0")
        matrix = _as_real_if_possible(sector_matrix(h0, states, n))
        levels, vecs = np.linalg.eigh(matrix.toarray())
        degenerate = np.abs(levels - e0) <= degeneracy_tol
        if degenerate.sum() != 1:
            raise ValueError("phi0 is degenerate within its sector")
        overlaps = vecs.conj().T @ image
        excited = ~degenerate
        e2 = np.sum(np.abs(overlaps[excited]) ** 2 / (e0 - levels[excited]))
    return float(e0), float(e1), float(e2)
