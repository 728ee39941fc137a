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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .fermions import ANNIHILATE, CREATE, LadderTerm, PauliSum, hopping_pair, jordan_wigner, number_term
from .lattice import DOWN, UP, GridSpec, axis_energies, axis_wavefunctions, enumerate_modes, hopping_edges, qubit_index
from .statevector import StateVector, _compiled_terms, _parity, sector_basis

# Connected blocks of a sector matrix up to this dimension are solved dense,
# larger ones by restarted Lanczos.  On one core of a Xeon, with k = 12, the
# two cross between 250 and 300 states (dense 6 ms against Lanczos 8 ms at
# 248, 18 ms against 10 ms at 300, 19 ms against 10 ms at 400, 50 ms against
# 15 ms at 628).  The cutoff sits a little above, so that the 2x3 site
# register (400 states, one block) keeps its full spectrum from one solve.
DENSE_SECTOR_CUTOFF = 400
# rs_perturbation's dense solve of a non-diagonal h0: above this dimension it
# would need gigabytes and minutes on a single core.
DENSE_PERTURBATION_LIMIT = 2400
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


def sector_matrix(h: PauliSum, states: np.ndarray, n_qubits: int) -> scipy.sparse.csr_matrix:
    """<i|h|j> over the given basis, verifying h does not leave it.

    Entries whose Pauli-string amplitudes cancel to exactly zero are not
    stored; every flip pattern reaches a distinct (row, column) pair, so no
    stored entry is a sum of several.
    """
    groups: dict[int, list[tuple[complex, np.uint32]]] = {}
    for coeff, flip, yz in _compiled_terms(h, n_qubits):
        groups.setdefault(int(flip), []).append((coeff, yz))
    dim = len(states)
    if not groups:
        return scipy.sparse.csr_matrix((dim, dim), dtype=np.complex128)
    source = np.arange(dim)
    rows, cols, data = [], [], []
    for flip, entries in groups.items():
        amp = np.zeros(dim, dtype=np.complex128)
        for coeff, yz in entries:
            amp += np.where(_parity(states & yz), -coeff, coeff)
        if flip == 0:
            keep = amp != 0
            rows.append(source[keep])
            cols.append(source[keep])
            data.append(amp[keep])
            continue
        targets = states ^ np.uint32(flip)
        idx = np.searchsorted(states, targets)
        idx_c = np.minimum(idx, dim - 1)
        found = states[idx_c] == targets
        stray = np.abs(amp[~found])
        if stray.size and stray.max() > AMPLITUDE_DROP_TOL:
            raise ValueError("operator couples states outside the sector")
        keep = found & (amp != 0)
        rows.append(idx_c[keep])
        cols.append(source[keep])
        data.append(amp[keep])
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim), dtype=np.complex128)
    return matrix.tocsr()


def real_part(matrix: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """Real part of a CSR matrix, with contiguous float64 data of its own
    (``matrix.real`` keeps a strided view into the complex data)."""
    return scipy.sparse.csr_matrix((matrix.data.real.copy(), matrix.indices, matrix.indptr),
                                   shape=matrix.shape)


def as_real_if_possible(matrix: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """real_part(matrix) if its imaginary part is negligible, else matrix."""
    if matrix.nnz == 0 or np.abs(matrix.data.imag).max() <= 1e-12:
        return real_part(matrix)
    return matrix


def real_sector_matrix(h: PauliSum, states: np.ndarray, n_qubits: int) -> scipy.sparse.csr_matrix:
    """as_real_if_possible(sector_matrix(h, states, n_qubits)): the sector
    Hamiltonian as the solvers and the runs use it."""
    return as_real_if_possible(sector_matrix(h, states, n_qubits))


def _lowest_eigenpairs(matrix, k: int, widen_tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Lowest min(dim - 2, k) eigenpairs from Lanczos, with k doubled while
    all of them lie within widen_tol of the lowest.  Values ascend."""
    dim = matrix.shape[0]
    k = min(dim - 2, k)
    while True:
        ncv = min(dim, max(2 * k + 16, 48))
        # a fixed generic start vector makes the returned basis of a degenerate
        # multiplet, and so every stored artifact, the same from run to run
        v0 = np.random.default_rng(0).standard_normal(dim)
        vals, vecs = scipy.sparse.linalg.eigsh(matrix, k=k, which="SA", ncv=ncv, tol=0, v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if (widen_tol is None or (vals <= vals[0] + widen_tol).sum() < len(vals)
                or k == dim - 2):
            return vals, vecs
        # the whole returned window is degenerate; widen it
        k = min(dim - 2, 2 * k)


@dataclass(frozen=True)
class _Spectrum:
    """What _sector_spectrum found: `labels` gives the connected block of each
    sector state, `owners` the block each vector is supported on."""

    states: np.ndarray
    matrix: scipy.sparse.csr_matrix
    labels: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    owners: np.ndarray


def _sector_spectrum(h: PauliSum, n_qubits: int, n_up: int, n_down: int, k: int,
                     dense_cutoff: int, widen_tol: float | None = None) -> _Spectrum:
    """Lowest eigenpairs of h on the (n_up, n_down) sector, block by block.

    The matrix is real_sector_matrix(h, states, n_qubits).  Its connected
    components are blocks h never mixes, and each is solved on its own: up to
    dense_cutoff states, or when too small for a Lanczos window of k, every
    eigenpair comes from one batched dense solve per block size; above it,
    the lowest k come from Lanczos (see _lowest_eigenpairs).  An eigenvalue
    a Lanczos block did not return lies at or above its window top, so the
    merged values at or below the lowest top are the lowest of the whole
    sector.  Of those, the lowest k are kept, with every one within widen_tol
    of the lowest (all of them when k covers the sector), so the vectors stay
    about (dim, k) even when every state is a block of its own, as at U = 0
    in the mode register.  Values ascend; each vector lives on one block.
    """
    # imported here, not with the module: it adds about 1 MiB to every
    # process, and a run that loads its ground space from the cache solves nothing
    import scipy.sparse.csgraph

    if not h.is_hermitian():
        raise ValueError("sector diagonalization requires a Hermitian operator")
    states = sector_basis(n_qubits, n_up, n_down)
    dim = len(states)
    matrix = real_sector_matrix(h, states, n_qubits)
    n_blocks, labels = scipy.sparse.csgraph.connected_components(matrix, directed=False)
    sizes = np.bincount(labels, minlength=n_blocks)
    starts = np.cumsum(sizes) - sizes
    members = np.argsort(labels, kind="stable")  # block by block, ascending within each
    dense = (sizes <= dense_cutoff) | (sizes <= k + 2)

    # each piece is (blocks, rows, values, vectors) of shapes (b,), (b, s),
    # (b, m) and (b, s, m): m eigenpairs of each of b blocks of s states
    pieces = []
    top = np.inf
    if dense.any():
        coo = matrix.tocoo()
        position = np.empty(dim, dtype=np.intp)
        position[members] = np.arange(dim) - starts[labels[members]]
        for size in np.unique(sizes[dense]):
            blocks = np.flatnonzero(dense & (sizes == size))
            slot = np.full(n_blocks, -1)
            slot[blocks] = np.arange(len(blocks))
            where = slot[labels[coo.row]]
            entry = where >= 0
            stack = np.zeros((len(blocks), size, size), dtype=matrix.dtype)
            stack[where[entry], position[coo.row[entry]], position[coo.col[entry]]] = coo.data[entry]
            vals, vecs = np.linalg.eigh(stack)
            pieces.append((blocks, members[starts[blocks, None] + np.arange(size)], vals, vecs))
    for block in np.flatnonzero(~dense):
        rows = members[starts[block]:starts[block] + sizes[block]]
        vals, vecs = _lowest_eigenpairs(matrix if n_blocks == 1 else matrix[rows][:, rows],
                                        k, widen_tol)
        top = min(top, vals[-1])
        pieces.append((np.array([block]), rows[None], vals[None], vecs[None]))

    values = np.concatenate([vals.ravel() for _, _, vals, _ in pieces])
    order = np.argsort(values, kind="stable")
    known = int((values <= top).sum())
    wanted = k if widen_tol is None else max(k, int((values <= values[order[0]] + widen_tol).sum()))
    keep = order[:min(known, wanted)]

    offsets = np.cumsum([0] + [vals.size for _, _, vals, _ in pieces])
    piece_of = np.searchsorted(offsets, keep, side="right") - 1
    vectors = np.zeros((dim, len(keep)), dtype=np.result_type(*(piece[3] for piece in pieces)))
    owners = np.empty(len(keep), dtype=labels.dtype)
    for index, (blocks, rows, vals, vecs) in enumerate(pieces):
        columns = np.flatnonzero(piece_of == index)
        block, pair = np.divmod(keep[columns] - offsets[index], vals.shape[1])
        vectors[rows[block], columns[:, None]] = vecs[block, :, pair]
        owners[columns] = blocks[block]
    return _Spectrum(states, matrix, labels, values[keep], vectors, owners)


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
    spectrum = _sector_spectrum(h, n_qubits, n_up, n_down, max(how_many + 4, 10), dense_cutoff)
    return SectorEigen(spectrum.values[:how_many].copy(), spectrum.vectors[:, :how_many].copy(),
                       spectrum.states)


@dataclass(frozen=True)
class GroundSpace:
    """Orthonormal basis of the degenerate ground eigenspace of one sector.

    `vectors` has one column per ground state, expressed over `states`, the
    sorted sector bitstrings.  `matrix` is the sector Hamiltonian the space
    was solved from, over the same basis, so a run can reuse it instead of
    building it again.  Stored artifacts (`save`/`load`) keep exactly these
    fields: n_qubits, n_up, n_down, energy, vectors, states and the matrix,
    plus an optional key naming the problem they solve.
    """

    n_qubits: int
    n_up: int
    n_down: int
    energy: float
    vectors: np.ndarray
    states: np.ndarray
    matrix: scipy.sparse.csr_matrix = field(repr=False, compare=False)

    def __post_init__(self):
        dim = len(self.states)
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"sector matrix of shape {self.matrix.shape} does not fit "
                             f"{dim} sector states")

    @property
    def degeneracy(self) -> int:
        return self.vectors.shape[1]

    def save(self, path, key: str | None = None) -> None:
        """Write the fields, and key if given, to path (a name or binary file).

        The file is not compressed: the sector matrix dominates it, and
        compressing it costs far more time than reading the raw arrays back.
        """
        extra = {} if key is None else {"key": np.array(key)}
        np.savez(path, n_qubits=self.n_qubits, n_up=self.n_up,
                 n_down=self.n_down, energy=self.energy,
                 vectors=self.vectors, states=self.states,
                 matrix_shape=np.array(self.matrix.shape), matrix_data=self.matrix.data,
                 matrix_indices=self.matrix.indices, matrix_indptr=self.matrix.indptr, **extra)

    @classmethod
    def load(cls, path, key: str | None = None) -> "GroundSpace":
        """Read a saved ground space; with a key, raise ValueError unless the
        file was saved under the same key.  A file without a sector matrix
        (the format before it was stored) raises KeyError."""
        with np.load(path) as data:
            if key is not None and ("key" not in data or str(data["key"]) != key):
                raise ValueError(f"{path} was not saved under the key {key!r}")
            matrix = scipy.sparse.csr_matrix(
                (data["matrix_data"], data["matrix_indices"], data["matrix_indptr"]),
                shape=tuple(int(n) for n in data["matrix_shape"]))
            return cls(int(data["n_qubits"]), int(data["n_up"]), int(data["n_down"]),
                       float(data["energy"]), data["vectors"], data["states"], matrix)

    def sector_fidelity(self, x: np.ndarray) -> float:
        """Total squared overlap with a state given over `states`."""
        return float(np.sum(np.abs(self.vectors.conj().T @ x) ** 2))


def ground_space(h: PauliSum, n_qubits: int, n_up: int, n_down: int,
                 tol: float = GROUND_DEGENERACY_TOL,
                 dense_cutoff: int = DENSE_SECTOR_CUTOFF) -> GroundSpace:
    """Ground multiplet of the sector, degeneracy resolved at tolerance tol.

    The returned space keeps the sector matrix it was solved from, and each
    of its vectors lives on one connected block of that matrix.
    """
    spectrum = _sector_spectrum(h, n_qubits, n_up, n_down, 12, dense_cutoff, widen_tol=tol)
    values, owners = spectrum.values, spectrum.owners
    count = int((values <= values[0] + tol).sum())
    # orthonormalize block by block, so no vector leaks into another block
    basis = np.zeros_like(spectrum.vectors[:, :count])
    for block in np.unique(owners[:count]):
        rows = np.flatnonzero(spectrum.labels == block)
        columns = np.flatnonzero(owners[:count] == block)
        basis[np.ix_(rows, columns)] = np.linalg.qr(spectrum.vectors[np.ix_(rows, columns)])[0]
    return GroundSpace(n_qubits, n_up, n_down, float(values[0]), basis, spectrum.states,
                       spectrum.matrix)


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
                    dense_cutoff: int = DENSE_PERTURBATION_LIMIT) -> tuple[float, float, float]:
    """(E0, E1, E2) for the split h0 + h1 around the eigenstate phi0 of h0.

    phi0 must be a normalized eigenstate of h0, non-degenerate within its own
    occupation sector; degenerate reference states are rejected because the
    second-order sum would need the degenerate theory.  Everything after
    locating that sector runs on its sector matrices.
    """
    if not (h0.is_hermitian() and h1.is_hermitian()):
        raise ValueError("perturbation requires a Hermitian h0 and h1")
    if abs(phi0.norm() - 1.0) > 1e-10:
        raise ValueError("phi0 must be normalized")
    n = phi0.n_qubits
    support = np.flatnonzero(np.abs(phi0.amplitudes) ** 2 > 1e-14).astype(np.uint32)
    up = np.uint32(sum(1 << q for q in range(0, n, 2)))
    sectors = set(zip(np.bitwise_count(support & up).tolist(),
                      np.bitwise_count(support & ~up).tolist()))
    if len(sectors) != 1:
        raise ValueError("phi0 must occupy a single (n_up, n_down) sector")
    (n_up, n_down), = sectors
    states = sector_basis(n, n_up, n_down)
    x = phi0.amplitudes[states]
    m0 = real_sector_matrix(h0, states, n)
    m1 = real_sector_matrix(h1, states, n)

    e0 = np.vdot(x, m0 @ x).real
    if np.linalg.norm(m0 @ x - e0 * x) > 1e-8 * max(1.0, abs(e0)):
        raise ValueError("phi0 is not an eigenstate of h0")
    image = m1 @ x
    e1 = np.vdot(x, image).real

    if h0.is_diagonal():
        # the sector bitstrings are themselves the h0 eigenbasis
        levels = m0.diagonal()
        overlaps = image
    else:
        dim = len(states)
        if dim > dense_cutoff:
            raise ValueError(f"sector dimension {dim} too large for the dense "
                             "perturbation solve; use a diagonal h0")
        levels, vecs = np.linalg.eigh(m0.toarray())
        overlaps = vecs.conj().T @ image
    degenerate = np.abs(levels - e0) <= degeneracy_tol
    if degenerate.sum() != 1:
        raise ValueError("phi0 is degenerate within its sector")
    excited = ~degenerate
    e2 = np.sum(np.abs(overlaps[excited]) ** 2 / (e0 - levels[excited]))
    return float(e0), float(e1), float(e2)
