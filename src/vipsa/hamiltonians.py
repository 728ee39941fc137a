"""Hubbard Hamiltonians in both registers, with sector-exact reference tools.

The same physical model is built twice: in real space as hopping plus on-site
repulsion, and in the momentum-mode register as a diagonal kinetic part plus a
table of two-body scattering quadruples.  The quadruple table doubles as the
source of the variational operator pool, so it is exposed as first-class data
rather than hidden inside the Pauli sum.  The site register's sector rows are
built straight from its hopping tables (SiteHamiltonian); its Pauli sum
(build_real) is kept as the operator the tests check those rows against.

Everything downstream (ground spaces, fidelities) works in a fixed
(n_up, n_down) occupation sector.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
import scipy.sparse

from . import cache
from .fermions import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    PauliSum,
    _times,
    hopping_pair,
    jordan_wigner,
    jordan_wigner_images,
    jordan_wigner_sum,
    number_term,
)
from .lattice import (
    DOWN,
    PERIODIC,
    UP,
    GridSpec,
    PointGroup,
    Translations,
    axis_energies,
    axis_wavefunctions,
    enumerate_modes,
    hopping_edges,
    label_momenta,
    qubit_index,
    sea_label,
)
from .statevector import StateVector, _compiled_terms, _ladder_orbits, _parity, sector_basis

# Connected blocks of a sector matrix up to this dimension are solved dense,
# larger ones by restarted Lanczos.  On one core of a Xeon, with the ground
# window of 6 in a 20-vector Krylov basis, the two cross between 224 and 300
# states (dense 5 ms against Lanczos 9 ms at 224, 10 ms against 8 ms at 300,
# 17 ms against 6-9 ms at 400, 80 ms against 15 ms at 784; site-register
# blocks at U = 4).  The cutoff stays at 400, above the crossover, because
# the two solvers round differently: moving it would change the stored
# ground vectors of every block between the two sizes in their last bits.
DENSE_SECTOR_CUTOFF = 400
GROUND_DEGENERACY_TOL = 1e-8
# First Lanczos window of ground_space, in eigenpairs per block.  It covers
# the ground multiplets met here (4 states on 3x3 at half filling, 1 on 2x4),
# and a larger multiplet doubles it (see _lowest_eigenpairs).
GROUND_WINDOW = 6
# eigsh tolerance of the one-vector solve that screens each Lanczos block of
# ground_space outside the Fermi sea's class (see _screen).  On 3x4
# mode-register blocks of 71 000 states it finds the block's lowest value to
# 10 digits in 0.8-1.2 s, where tol=0 takes 1.5-2.3 s and the full window
# about 4.8 s.
SCREEN_TOL = 1e-6
# Restarts (ARPACK iterations) allowed to one eigsh solve, about 10 times the
# most any converged solve here takes: 49, for the 16-fold level of 3x3 (4,4)
# at U = 1e-9 (18 on the benchmark's grids, 25 on 3x4 (6,6)).  eigsh's
# default, 10 times the block size, spins a 1764-state block that cannot
# converge (3x3 at U = 1e303) for 16 s before it fails; this fails it in
# about half a second.
LANCZOS_MAXITER = 500
AMPLITUDE_DROP_TOL = 1e-12
# Largest |U| the mode register's H is solved at.  Its U/N momentum couplings
# must cancel down to the exchange scale 4t^2/U, and float64 keeps about U eps
# of each sum: 2x3 (3,3)'s two registers part by 4.1e-10 at 1e6, 1.9e-9 at
# 1.5e6 and 8.4e-9 at 1e7, and at 1e20 the mode register's energy is -35137.
MODE_COUPLING_LIMIT = 1e6
# Working set of sector_matrix's flip tables, in entries: a batch of tables
# holds at most this many, and the states their nonzero entries select are
# sought this many (entry, state) pairs at a time.  At 2^16 the search and
# the hits it finds stay small beside the matrix being gathered: a 2x4
# site-register sector, where a quarter of the pairs are hits, peaks at 2.3
# times its matrix, and a 3x3 mode-register block at 2.4 (2^18 gave 5.1 and
# 3.2).
SIGN_TABLE_ENTRIES = 1 << 16


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

    @property
    def label(self) -> str:
        """The name of this orientation's rotation in the pool."""
        return f"A{self.up_to},{self.down_to}|{self.down_from},{self.up_from}"

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


@lru_cache(maxsize=8)  # a cold run's H and its pool both read the table
def interaction_quadruples(grid: GridSpec) -> tuple[InteractionQuadruple, ...]:
    """Hermitian-closed table of all quadruples with |amplitude| > 1e-12 |U|.

    The cut is relative because a vanishing amplitude keeps a rounding
    residue of about 1e-17 |U|, which an absolute cut lets through at large U.

    Every entry's conjugate partner (roles of created and annihilated modes
    swapped) is also in the table with the same amplitude, so summing
    amplitude * operator over the list gives the interaction directly.
    Entries come in (up_to, down_to, down_from, up_from) order, the slots
    of each ascending, the last fastest.
    """
    if grid.u == 0.0:
        return ()
    # every (a, b, c, d) of slots at once, a along the first axis
    ys, xs = np.divmod(np.arange(grid.n_sites), grid.nx)
    v = _times(_times(grid.u, _axis_overlap(grid.nx, grid.bc_x)[np.ix_(*[xs] * 4)]),
               _axis_overlap(grid.ny, grid.bc_y)[np.ix_(*[ys] * 4)])
    kept = np.abs(v) > AMPLITUDE_DROP_TOL * abs(grid.u)
    v = v[kept]
    unreal = np.abs(v.imag) > 1e-12 * np.abs(v)
    if unreal.any():
        raise ValueError(f"interaction amplitude not real: {v[unreal][0]}")
    e = (axis_energies(grid.nx, grid.bc_x, grid.t)[xs]
         + axis_energies(grid.ny, grid.bc_y, grid.t)[ys])
    gap = (e[:, None, None, None] + e[None, :, None, None] - e[None, None, :, None]
           - e[None, None, None, :])[kept]
    slots = (index.tolist() for index in np.nonzero(kept))
    return tuple(itertools.starmap(InteractionQuadruple,
                                   zip(*slots, v.real.tolist(), gap.tolist())))


def kinetic_kspace(grid: GridSpec) -> PauliSum:
    """Diagonal mode-occupation energy sum_k eps_k (n_k_up + n_k_down)."""
    terms = [number_term(mode.qubit(spin), mode.energy)
             for mode in enumerate_modes(grid) for spin in (UP, DOWN)]
    return PauliSum.merged(jordan_wigner_images(terms, grid.n_qubits))


def build_kspace(grid: GridSpec) -> tuple[PauliSum, tuple[InteractionQuadruple, ...]]:
    """Momentum-register Hamiltonian and its scattering-quadruple table."""
    quads = interaction_quadruples(grid)
    images = jordan_wigner_images([quad.ladder_term().scaled(quad.amplitude) for quad in quads],
                                  grid.n_qubits)
    return PauliSum.merged(kinetic_kspace(grid).masks(), images), quads


def onsite_interaction(grid: GridSpec) -> PauliSum:
    """Diagonal repulsion U sum_sites n_up n_down in the site register."""
    parts = []
    if grid.u != 0.0:
        for site in range(grid.n_sites):
            n_up = jordan_wigner(number_term(qubit_index(site, UP)), grid.n_qubits)
            n_down = jordan_wigner(number_term(qubit_index(site, DOWN)), grid.n_qubits)
            parts.append((grid.u * (n_up * n_down)).masks())
    return PauliSum.merged(*parts)


def _hopping_terms(grid: GridSpec) -> list[LadderTerm]:
    """-t (c†_i c_j + c†_j c_i) on every nearest-neighbour bond, per spin."""
    horizontal, vertical = hopping_edges(grid)
    return [term for i, j in horizontal + vertical for spin in (UP, DOWN)
            for term in hopping_pair(qubit_index(i, spin), qubit_index(j, spin), -grid.t)]


def build_real(grid: GridSpec) -> PauliSum:
    """Site-register Hamiltonian: -t nearest-neighbour hopping + U n_up n_down,
    as a Pauli sum (SiteHamiltonian builds its sector rows without one)."""
    return PauliSum.merged(jordan_wigner_images(_hopping_terms(grid), grid.n_qubits),
                           onsite_interaction(grid).masks())


def double_occupancy(states: np.ndarray) -> np.ndarray:
    """The count of doubly occupied sites of each site-register bitstring."""
    # up qubit 2i and down qubit 2i + 1 both set
    return np.bitwise_count(states & (states >> 1) & np.uint32(0x55555555))


@dataclass(frozen=True)
class SiteHamiltonian:
    """build_real's Hamiltonian of `grid`, built on a sector from its
    hopping tables, a given set of rows at a time, with no Pauli string."""

    grid: GridSpec

    def rows(self, states: np.ndarray, positions: np.ndarray) -> scipy.sparse.csr_matrix:
        """H's rows at the ascending positions of the sorted sector
        bitstrings states, over all of them, as a real CSR of shape
        (len(positions), len(states)).

        The diagonal is U times double_occupancy.  Each hopping term's
        _ladder_orbits table over the rows' bitstrings sends a row's
        bitstring s to sign |s'>, so <s'|term|s> = -t sign; H is real
        symmetric, so that is also H's entry in row s, column s'.  A pair's
        two terms give its two entries.  Exact zeros are not stored, as
        sector_matrix stores none, and the CSR has sorted indices and int32
        indptr and indices, as sector_matrix's does.  Every entry but the
        diagonal is that of sector_matrix(build_real(grid), ...) to the
        bit, and so is the diagonal when the products of U are exact (U a
        multiple of 1/4, say); elsewhere the Pauli sum's diagonal rounds
        U/4 sums differently, by a few ulps of the entry, and keeps a
        rounding residue where this one stores an exact zero.
        """
        picked = states[positions]
        local = np.arange(len(positions), dtype=np.int32)
        with np.errstate(over="ignore"):
            diagonal = self.grid.u * double_occupancy(picked)
        if not np.isfinite(diagonal).all():
            raise ValueError("site Hamiltonian has a non-finite entry (float64 overflow)")
        rows, targets, data = [local], [picked], [diagonal]
        for term in _hopping_terms(self.grid):
            src, dst, sign = _ladder_orbits(term.factors, picked)
            rows.append(local[src])
            targets.append(dst)
            data.append(-self.grid.t * sign)
        rows, targets, data = (np.concatenate(part) for part in (rows, targets, data))
        stored = data != 0
        columns = np.searchsorted(states, targets[stored]).astype(np.int32)
        return scipy.sparse.coo_matrix((data[stored], (rows[stored], columns)),
                                       shape=(len(positions), len(states))).tocsr()


def spin_operators(n_sites: int) -> tuple[PauliSum, PauliSum]:
    """Total S_z and S^2 over the 2*n_sites register.

    Both are built from on-orbital spin flips, so the same expressions are
    valid in the site register and the mode register.
    """
    n_qubits = 2 * n_sites
    orbitals = [(qubit_index(orbital, UP), qubit_index(orbital, DOWN))
                for orbital in range(n_sites)]
    s_z = jordan_wigner_sum([term for up, down in orbitals
                             for term in (number_term(up, 0.5), number_term(down, -0.5))], n_qubits)
    raising = jordan_wigner_sum([LadderTerm(1.0, ((up, CREATE), (down, ANNIHILATE)))
                                 for up, down in orbitals], n_qubits)
    lowering = raising.dagger()
    s_squared = s_z * s_z + 0.5 * (raising * lowering + lowering * raising)
    return s_z, s_squared


# ---------------------------------------------------------------------------
# sector-restricted exact diagonalization


def _signed_sums(coeffs: np.ndarray, signs: np.ndarray, strings, masks: np.ndarray) -> np.ndarray:
    """For each mask, the sum over strings, in their order, of the string's
    coefficient times (-1)^|mask & sign mask|, from a zero of the
    coefficients' dtype.  strings iterates over string indices: scalars, one
    per string, or arrays of one string per row of masks."""
    total = np.zeros(masks.shape, dtype=coeffs.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for string in strings:
            signed = coeffs[string, None]
            total += np.where(_parity(masks & signs[string, None]), -signed, signed)
    return total


def _flip_tables(coeffs, flips, signs, batches: dict, n_qubits: int):
    """The nonzero table entries of the flip groups in batches, keyed by
    (string count, flip width), each a list of groups' string indices:
    arrays of each entry's flip, the subset of its flipped bits that selects
    it, its group's sign mask outside the flip and its summed coefficient
    (see sector_matrix)."""
    entries = [], [], [], []
    for (_, width), batch in batches.items():
        # subset c of a flip holds its i-th lowest bit where c has bit i
        pick = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        step = max(1, SIGN_TABLE_ENTRIES >> width)
        for start in range(0, len(batch), step):
            strings = np.array(batch[start:start + step]).T
            flip = flips[strings[0]]
            bits = np.nonzero(flip[:, None] >> np.arange(n_qubits, dtype=np.uint32) & 1)[1]
            subsets = (pick << bits.reshape(-1, 1, width)).sum(axis=2, dtype=np.uint32)
            table = _signed_sums(coeffs, signs, strings, subsets)
            group, entry = np.nonzero(table)
            for part, values in zip(entries, (flip[group], subsets[group, entry],
                                              signs[strings[0]][group] & ~flip[group],
                                              table[group, entry])):
                part.append(values)
    return tuple(np.concatenate(part) for part in entries)


def _sector_pieces(coeffs, flips, signs, states: np.ndarray, n_qubits: int):
    """Yield the entries sector_matrix stores as (rows, columns, values)
    pieces, checking each amplitude as it says."""
    dim = len(states)
    scale = max(1.0, float(np.abs(coeffs).max()))
    index_dtype = np.int32 if dim <= np.iinfo(np.int32).max else np.intp

    def piece(moved, amp, targets=None):
        # amplitudes amp of the basis positions moved, sent to the bitstrings
        # targets (None: each state to itself)
        if not np.isfinite(amp).all():
            raise ValueError("sector matrix has a non-finite entry (float64 overflow)")
        if targets is None:
            return moved.astype(index_dtype), moved.astype(index_dtype), amp
        idx = np.minimum(np.searchsorted(states, targets), dim - 1)
        found = states[idx] == targets
        stray = np.abs(amp[~found])
        if stray.size and stray.max() > AMPLITUDE_DROP_TOL * scale:
            raise ValueError("operator couples states outside the sector")
        return idx[found].astype(index_dtype), moved[found].astype(index_dtype), amp[found]

    groups: dict[int, list[int]] = {}
    for index, flip in enumerate(flips.tolist()):
        groups.setdefault(flip, []).append(index)
    bases = (signs & ~flips).tolist()
    batches: dict[tuple[int, int], list[list[int]]] = {}
    for flip, members in groups.items():
        width = flip.bit_count()
        if flip and 1 << width <= dim and len({bases[index] for index in members}) == 1:
            batches.setdefault((len(members), width), []).append(members)
            continue
        amp = _signed_sums(coeffs, signs, members, states)
        moved = np.flatnonzero(amp)
        yield piece(moved, amp[moved], states[moved] ^ np.uint32(flip) if flip else None)
    if not batches:
        return
    flip, subset, base, total = _flip_tables(coeffs, flips, signs, batches, n_qubits)
    step = max(1, SIGN_TABLE_ENTRIES // dim)
    for start in range(0, len(total), step):
        part = slice(start, start + step)
        entry, moved = np.divmod(np.flatnonzero((states & flip[part, None]) == subset[part, None]),
                                 dim)
        entry += start
        source = states[moved]
        value = total[entry]
        # 0 - T, not -T: the per-string sum never ends on -0.0, which a
        # complex entry's real or imaginary part would keep
        yield piece(moved, np.where(_parity(source & base[entry]), 0.0 - value, value),
                    source ^ flip[entry])


def sector_matrix(h: PauliSum, states: np.ndarray, n_qubits: int) -> scipy.sparse.csr_matrix:
    """<i|h|j> over the given basis, verifying h does not leave it.

    The strings are grouped by the bits they flip, and a group's amplitude
    on a state is the sum of its strings' signed coefficients in string
    order, in float64 when every compiled coefficient is real.

    When a group's strings share one sign mask outside the flip, base, its
    amplitude on state s is (-1)^|s & base| T[s & flip]: T has one entry per
    subset of the flipped bits, each summed over the strings in the same
    order, and negation commutes with rounding, so the bits are those of
    the per-string sum.  The tables of groups with equal string count and
    flip width are summed together, and only the states that select a
    nonzero entry are visited, for their base parity and basis lookup,
    SIGN_TABLE_ENTRIES (entry, state) pairs at a time.  Any other group,
    such as the diagonal one, or one whose table would outgrow the basis,
    adds its strings' signed rows over every state.

    Entries whose amplitudes cancel to exactly zero are not stored; every
    flip pattern reaches a distinct (row, column) pair, so no stored entry
    is a sum of several.  Nor are entries left at zero when a negligible
    imaginary part is dropped.  Only the nonzero amplitudes are looked up in
    the basis, and one that leaves it is rounding residue up to
    AMPLITUDE_DROP_TOL times max(1, the largest |coefficient|).  A
    non-finite amplitude on some state is a ValueError.

    The CSR has sorted indices, int32 indptr and indices (below 2^31
    entries), and float64 data unless an entry's imaginary part exceeds
    1e-12 times max(1, the largest |entry|).  Entries are gathered as int32
    (row, column) pairs, and each array is joined from its pieces before the
    next, so the build peaks at about 2.5 times the matrix it returns.
    """
    coeffs, flips, signs = _compiled_terms(h, n_qubits)
    dim = len(states)
    if not len(coeffs):
        return scipy.sparse.csr_matrix((dim, dim))
    if not coeffs.imag.any():
        coeffs = coeffs.real
    # an empty first piece, so that a sum storing nothing still joins
    empty = np.empty(0, dtype=np.int32)
    rows, cols, data = zip((empty, empty, coeffs[:0]),
                           *_sector_pieces(coeffs, flips, signs, states, n_qubits))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    if np.iscomplexobj(data) and (not data.size or np.abs(data.imag).max()
                                  <= 1e-12 * max(1.0, np.abs(data).max())):
        # a purely imaginary entry leaves a real part of zero; drop it
        kept = data.real != 0
        rows, cols, data = rows[kept], cols[kept], data.real[kept]
    return scipy.sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def _lanczos(matrix, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of matrix from eigsh at tolerance tol, values
    ascending, from a fixed start vector in a Krylov basis of
    min(dim, max(2k + 8, 20)) vectors: a restarted Lanczos solve costs about
    the window times the basis it reorthogonalises against, so both follow k.
    eigsh gets the matrix's own product as a LinearOperator, the same
    csr_matvec without a wrapped sparse matrix's matmat dispatch, and at
    most LANCZOS_MAXITER restarts.  It is looked up at call time, so a
    patched (or traced) one sees every solve.  A solve that ARPACK fails
    (one that does not converge, say) is a ValueError naming the block size."""
    # imported here, not with the module: a run that loads its ground space
    # from the cache solves nothing, and the import costs about 10 MiB
    import scipy.sparse.linalg

    dim = matrix.shape[0]
    ncv = min(dim, max(2 * k + 8, 20))
    # a fixed generic start vector makes the returned basis of a degenerate
    # multiplet, and so every stored artifact, the same from run to run
    v0 = np.random.default_rng(0).standard_normal(dim)
    operator = scipy.sparse.linalg.LinearOperator(matrix.shape, matvec=matrix.dot,
                                                  dtype=matrix.dtype)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(operator, k=k, which="SA", ncv=ncv, tol=tol,
                                               v0=v0, maxiter=LANCZOS_MAXITER)
    except scipy.sparse.linalg.ArpackError as err:
        raise ValueError(f"Lanczos failed on a block of {dim} states: {err}") from None
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _lowest_eigenpairs(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Lowest min(dim - 2, k) eigenpairs from Lanczos, for a window k of
    GROUND_WINDOW doubled while all of them lie within GROUND_DEGENERACY_TOL
    of the lowest.  Values ascend.  Each solve converges its window to
    machine precision (tol=0), as _lanczos says.
    """
    dim = matrix.shape[0]
    k = min(dim - 2, GROUND_WINDOW)
    while True:
        vals, vecs = _lanczos(matrix, k, 0)
        if (vals <= vals[0] + GROUND_DEGENERACY_TOL).sum() < len(vals) or k == dim - 2:
            return vals, vecs
        # the whole returned window is degenerate; widen it
        k = min(dim - 2, 2 * k)


def _screen(matrix) -> np.ndarray:
    """[theta, theta - r] of one block: theta its lowest Ritz value from a
    one-vector Lanczos solve (_lanczos, k = 1, tol SCREEN_TOL) and r the
    residual |Hv - theta v| of its Ritz vector v, from one more mat-vec.

    theta bounds the block's lowest eigenvalue from above, and some
    eigenvalue lies within r of theta.  That it is the lowest, so that
    theta - r bounds the lowest from below, is trusted to Lanczos from a
    generic start, as the full window (_lowest_eigenpairs) trusts it to find
    the block's lowest values.
    """
    # imported here, as in _lanczos; BLAS's norm scales as it sums, so a
    # residual of entries near the float64 limit does not overflow
    import scipy.linalg

    (theta,), ritz = _lanczos(matrix, 1, SCREEN_TOL)
    vector = ritz[:, 0]
    residual = scipy.linalg.norm(matrix @ vector - theta * vector, check_finite=False)
    return np.array([theta, theta - residual])


# GroundSpace.blocks of a space solved without momentum labels: the site
# register's momentum blocks, which are not bitstring sets
UNLABELLED = -1


@dataclass(frozen=True)
class GroundSpace:
    """Orthonormal basis of the degenerate ground eigenspace of one sector.

    `vectors` has one column per ground state over `states`, the sorted
    sector bitstrings, which sector_basis derives from the sector (one that
    cannot exist is a ValueError).  `matrix`, kept by ground_space's keep,
    is H on the block at the ascending positions `matrix_rows` of `states`
    (None without a matrix), over its own bitstrings in sector order, so it
    applies H to any vector given on the block: the Fermi sea's momentum
    block in the mode register, the whole sector in the site register.  Its
    CSR arrays are checked (row pointers rising from 0 to the entry count,
    columns in range, finite real entries, as both registers' H has), so a
    file that passes its crcs but not these is refused, not applied.
    `blocks` holds the total-momentum label (lattice.momentum_labels) of
    each vector's block, UNLABELLED when the sector was solved without them.
    `save` and `load` keep these fields plus an optional key naming their
    problem.
    """

    n_qubits: int
    n_up: int
    n_down: int
    energy: float
    vectors: np.ndarray
    matrix: scipy.sparse.csr_matrix | None = field(default=None, repr=False, compare=False)
    blocks: np.ndarray | None = None
    matrix_rows: np.ndarray | None = None

    def __post_init__(self):
        dim = len(self.states)
        if self.matrix is not None:
            rows = self.matrix_rows
            if rows is None:
                raise ValueError("a sector matrix is kept with its rows (matrix_rows)")
            if (rows.ndim != 1 or rows.dtype.kind != "i" or np.any(np.diff(rows) <= 0)
                    or np.any((rows < 0) | (rows >= dim)) or self.matrix.shape != (len(rows),) * 2):
                raise ValueError(f"sector matrix of shape {self.matrix.shape} does not fit "
                                 f"{len(rows)} ascending rows of {dim} sector states")
            # a mat-vec trusts the CSR arrays: an index out of range is a
            # read outside the vector, not an error
            indptr, indices = self.matrix.indptr, self.matrix.indices
            if (len(indptr) != len(rows) + 1 or indptr[0] != 0 or indptr[-1] != len(indices)
                    or len(self.matrix.data) != len(indices) or np.any(np.diff(indptr) < 0)
                    or len(indices) and (indices.min() < 0 or indices.max() >= len(rows))):
                raise ValueError("sector matrix is not a well-formed CSR: its row pointers "
                                 "must rise from 0 to its entries, and its columns stay "
                                 f"within its {len(rows)} rows")
            if not np.isfinite(self.matrix.data).all():
                raise ValueError("sector matrix has a non-finite entry")
            if np.iscomplexobj(self.matrix.data):
                raise ValueError("sector matrix is complex; both registers' H is real")
        if self.vectors.shape[0] != dim:
            raise ValueError(f"ground vectors of length {self.vectors.shape[0]} do not fit "
                             f"{dim} sector states")
        if self.blocks is None:
            object.__setattr__(self, "blocks", np.full(self.degeneracy, UNLABELLED))
        if self.blocks.shape != (self.degeneracy,):
            raise ValueError(f"{self.blocks.shape} block labels do not fit "
                             f"{self.degeneracy} ground vectors")

    @property
    def states(self) -> np.ndarray:
        return sector_basis(self.n_qubits, self.n_up, self.n_down)

    @property
    def degeneracy(self) -> int:
        return self.vectors.shape[1]

    def save(self, path, key: str | None = None) -> None:
        """Write the fields, and key if given, to path (a name or binary file)
        as cache.write_fields does; only a space that keeps a matrix can be saved."""
        if self.matrix is None:
            raise ValueError("a ground space is saved with its sector matrix, and this one has none")
        cache.write_fields(path, {"n_qubits": self.n_qubits, "n_up": self.n_up,
                                  "n_down": self.n_down, "energy": self.energy,
                                  "vectors": self.vectors, "blocks": self.blocks,
                                  "matrix_rows": self.matrix_rows,
                                  "matrix_shape": np.array(self.matrix.shape),
                                  "matrix_data": self.matrix.data,
                                  "matrix_indices": self.matrix.indices,
                                  "matrix_indptr": self.matrix.indptr}, key)

    @classmethod
    def load(cls, path, key: str | None = None) -> "GroundSpace":
        """Read a saved ground space.  Any file it cannot use raises
        ValueError: one saved under another key than the one given, or one
        without a field it needs (saved before the matrix, its rows or the
        block labels were stored, say).  A `states` record, from before
        sector_basis derived the bitstrings, is ignored."""
        with cache.reading(path, key) as data:
            matrix = scipy.sparse.csr_matrix(
                (data["matrix_data"], data["matrix_indices"], data["matrix_indptr"]),
                shape=tuple(int(n) for n in data["matrix_shape"]))
            return cls(int(data["n_qubits"]), int(data["n_up"]), int(data["n_down"]),
                       float(data["energy"]), data["vectors"], matrix,
                       data["blocks"], data["matrix_rows"])


def _block_ground(matrix, screen: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Lowest multiplet of one block's matrix: (values, vectors), values
    ascending within GROUND_DEGENERACY_TOL of the lowest, vectors over the
    matrix's rows; or, for a block bound for Lanczos and screen, its screen.

    A block whose off-diagonal entries are all rounding residue, at most
    AMPLITUDE_DROP_TOL times max(1, the largest |entry|), is read off its
    diagonal: unit vectors in ascending value, ties in row order.  Any other
    block's stored entries must connect it, or it is a ValueError.  It is
    solved dense up to DENSE_SECTOR_CUTOFF states (read at call time), or
    when too small for a Lanczos window, and its kept vectors are
    orthonormalized together (_multiplet).  A larger block is solved by a
    Lanczos window that widens until it holds the block's whole lowest
    multiplet (_lowest_eigenpairs), or, with screen, screened instead: the
    return is (_screen(matrix), None), its lowest Ritz value theta and the
    bound theta - r.  A screened block's multiplet, for a caller that needs
    it, is _multiplet(*_lowest_eigenpairs(matrix)), the window's; that
    checks nothing again.  Values that are not finite, a screen's too, are
    a ValueError.
    """
    dim = matrix.shape[0]
    residue = AMPLITUDE_DROP_TOL * max(1.0, np.abs(matrix.data).max(initial=0.0))
    off = matrix.indices != np.arange(dim, dtype=np.int32).repeat(np.diff(matrix.indptr))
    if np.abs(matrix.data).max(where=off, initial=0.0) <= residue:
        values, vectors = matrix.diagonal().real, scipy.sparse.identity(dim, matrix.dtype, "csc")
    else:
        # imported here, not with the module: a run that loads its ground
        # space from the cache solves nothing, and this import pulls in
        # scipy.sparse.linalg too, about 9.5 MiB and 0.1 s together
        from scipy.sparse.csgraph import connected_components

        pattern = scipy.sparse.csr_matrix((np.ones(len(matrix.data)), matrix.indices,
                                           matrix.indptr), shape=matrix.shape)
        if connected_components(pattern, directed=False, return_labels=False) > 1:
            raise ValueError("block is not connected: its Hamiltonian conserves a label "
                             "that the solve does not split by")
        if dim <= DENSE_SECTOR_CUTOFF or dim <= GROUND_WINDOW + 2:
            values, vectors = np.linalg.eigh(matrix.toarray())
        elif screen:
            values, vectors = _screen(matrix), None
        else:
            values, vectors = _lowest_eigenpairs(matrix)
    if not np.isfinite(values).all():
        raise ValueError("sector spectrum is not finite (float64 overflow)")
    return (values, None) if vectors is None else _multiplet(values, vectors)


def _multiplet(values: np.ndarray, vectors) -> tuple[np.ndarray, np.ndarray]:
    """The values within GROUND_DEGENERACY_TOL of the lowest, ascending (ties
    in column order), and their vectors: unit columns of a sparse identity
    as they are, any others orthonormalized together."""
    order = np.argsort(values, kind="stable")
    keep = order[:int((values <= values[order[0]] + GROUND_DEGENERACY_TOL).sum())]
    if scipy.sparse.issparse(vectors):
        return values[keep], vectors[:, keep].toarray()
    return values[keep], np.linalg.qr(vectors[:, keep])[0]


def _momentum_blocks(rows_at, states: np.ndarray, symmetry: Translations, classes):
    """Yield (members, rows, basis, block) of each of classes, point-group
    classes of the site register's momentum blocks (see Translations), in
    order, folding a class only once the one before is consumed and none
    that holds no state: rows every sector position, basis the sparse
    isometry B from the representative block K onto the sector, and block
    its matrix B^H H B.  A block whose entries above AMPLITUDE_DROP_TOL times
    max(1, its largest |entry|) do not connect it is given as one entry per
    connected part, each with its columns of B.

    With F_K[rep(s), s] = (1/N_T) sum of e^{-iK.a} sigma_a(s) over the shifts
    a that take bitstring s to its orbit's representative, B = conj(F_K)^T
    D^-1 and D = diag(sqrt(F_K[r, r])), over the representatives r whose norm
    F_K[r, r] is not zero; B^H H B = D^-1 F_K H[:, reps] D^-1, as H commutes
    with the translations.  H is Hermitian, so H[:, reps] is the conjugate
    transpose of H's rows at the representatives, which rows_at(reps) gives
    for the ascending sector positions reps, and no product over the whole
    sector is formed.  A block whose characters are all real (K.a a
    multiple of pi) is real.
    """
    # imported here, not with the module, as in _block_ground
    from scipy.sparse.csgraph import connected_components

    reps, owner, signs = symmetry.orbits(states)
    at_reps = rows_at(reps)
    everything = np.arange(len(states))
    for members in classes:
        characters = symmetry.characters(members[0][0])
        weights = sum(character * row for character, row in zip(characters, signs)) / len(signs)
        if not weights.imag.any():
            weights = weights.real
        # a norm is the stabilizer's share of the shifts, at least 1/N_T, or 0
        norms = weights[reps].real
        kept = norms > 0.5 / len(signs)
        if not kept.any():
            continue
        column = np.cumsum(kept) - 1
        # the states of the kept orbits, each one entry of B
        covered = np.flatnonzero(kept[owner])
        scale = np.sqrt(norms[kept])
        basis = scipy.sparse.csr_matrix(
            (weights[covered].conj() / scale[column[owner[covered]]], column[owner[covered]],
             np.searchsorted(covered, np.arange(len(states) + 1))),
            shape=(len(states), len(scale)))
        top = scipy.sparse.diags(1 / scale) @ at_reps[kept]
        block = (top @ basis).conj().T.tocsr()
        # the couplings of an orbit can cancel (on an even ring at K = pi,
        # say), so a block may fall apart; each part is solved on its own
        magnitude = abs(block)
        coupled = magnitude > AMPLITUDE_DROP_TOL * max(1.0, magnitude.max())
        n_parts, part = connected_components(coupled, directed=False)
        if n_parts == 1:
            yield members, everything, basis, block
            continue
        for index in range(n_parts):
            columns = np.flatnonzero(part == index)
            yield members, everything, basis[:, columns], block[columns][:, columns]


def check_mode_coupling(grid: GridSpec) -> None:
    """Refuse (ValueError) a |U| above MODE_COUPLING_LIMIT: see there."""
    if abs(grid.u) > MODE_COUPLING_LIMIT:
        raise ValueError(f"|U| = {abs(grid.u):g} is above {MODE_COUPLING_LIMIT:g}, the largest "
                         "coupling the mode register resolves")


def ground_space(h: PauliSum | SiteHamiltonian, symmetry: PointGroup | Translations,
                 n_up: int, n_down: int, keep: bool = False) -> GroundSpace:
    """Ground multiplet of the sector of symmetry.grid's register, degeneracy
    resolved at GROUND_DEGENERACY_TOL.

    h is the mode register's Pauli sum, which sector_matrix builds on each
    set of bitstrings, solved on the point group of its grid, whose coupling
    check_mode_coupling must pass; or a SiteHamiltonian, solved on the
    translations of its own grid.  Any other pairing is a ValueError.

    The class of the Fermi sea's block (lattice.fermi_sea) comes first.  The
    Gell-Mann-Low state, switched on adiabatically from the sea, keeps the
    sea's momentum, so that class is where the ground level is looked for:
    it holds it in the benchmark's 3x3 (5,4) and 2x4 (4,4) sectors and on
    3x4 (6,6).  Its blocks are checked and solved as _block_ground says, a
    block bound for Lanczos with its full window (_lowest_eigenpairs) at
    once, unscreened.  Every other block is checked, and solved or
    screened, as _block_ground says.  A screened block (one bound for
    Lanczos) gets its full window only if its bound theta - r lies within
    GROUND_DEGENERACY_TOL of the least value found so far: the sea class's
    level, every screened theta and every solved block's lowest value.  A
    block above that cannot hold a vector of the multiplet, as long as
    Lanczos finds its lowest value (the trust the full window needs too), so
    the space is the one a full window on every block gives, to the bit.
    On 3x3 (5,4) each register spends one window and two screens.  Where the
    sea's class does not hold the level (2x3 at half filling, 2x4 (3,2)),
    its window is spent, and the class that does gets one more.  A class's
    blocks are built once the class before is done, and a screened block is
    held only while it may hold the level, in both registers.

    With the point group, the sector splits into total-momentum blocks that
    h never mixes, and the blocks of one point-group class share their
    spectrum.  Each class's representative block is built by sector_matrix
    on its bitstrings and solved, and the signed permutations of its ground
    vectors are the other blocks'.  No whole-sector matrix is built.  The
    representative is the class's smallest label, or, with keep, the Fermi
    sea's label (lattice.fermi_sea) in its class: the space keeps that
    block's matrix over the block's own bitstrings, and the block's rows
    (see GroundSpace), so every block built is solved.  An adaptive run
    lives in that block, as the state it grows from does.

    With the translations, each class's representative momentum block is
    folded from H's rows at the orbit representatives (see
    _momentum_blocks), the sea's class first, and solved; its ground
    vectors are lifted onto the sector, and their signed permutations are
    the other blocks'.  The vectors are complex unless every block holding
    one is real.  With keep, the space keeps the whole-sector matrix, the
    one set of bitstrings holding the sea that h does not leave, built by
    h.rows over every row, and the blocks are folded from its rows;
    otherwise h.rows builds only the representatives' rows, about one in
    N_T, and no whole-sector matrix is built.  The site register's blocks
    are not bitstring sets, so its space is UNLABELLED.

    The multiplet is every vector within GROUND_DEGENERACY_TOL of the lowest
    value, each on one block, in columns by block label, ascending in value.
    """
    site = isinstance(symmetry, Translations)
    if not (site and h == SiteHamiltonian(symmetry.grid)
            or isinstance(symmetry, PointGroup) and isinstance(h, PauliSum)):
        raise ValueError("a Pauli sum is solved on a point group, and a site Hamiltonian "
                         "on the translations of its own grid")
    if not site and not h.is_hermitian():
        raise ValueError("sector diagonalization requires a Hermitian operator")
    grid = symmetry.grid
    states = sector_basis(grid.n_qubits, n_up, n_down)
    matrix = matrix_rows = kept_label = None
    sea = sea_label(grid, n_up, n_down)

    def away_from_sea(members) -> bool:
        return sea not in dict(members)

    if site:
        # the sea's lattice momentum: an open axis has no shift, and the mode
        # label's component along it is a parity
        lx, ly = label_momenta(grid, sea)
        sea = ((lx if grid.bc_x == PERIODIC else 0)
               + grid.nx * (ly if grid.bc_y == PERIODIC else 0))
        rows_at = partial(h.rows, states)
        if keep:
            matrix_rows = np.arange(len(states))
            matrix = rows_at(matrix_rows)
            # the representatives' rows are sliced from it, not built again
            rows_at = matrix.__getitem__
        blocks = _momentum_blocks(rows_at, states, symmetry,
                                  sorted(symmetry.classes(), key=away_from_sea))
    else:
        check_mode_coupling(grid)
        labels = symmetry.labels(states)
        if keep:
            kept_label = sea
        classes = sorted(symmetry.classes(states, labels, kept_label), key=away_from_sea)
        # built lazily, so only the block being solved is held
        blocks = ((members, rows, None, sector_matrix(h, states[rows], grid.n_qubits))
                  for members in classes for rows in [np.flatnonzero(labels == members[0][0])])
    solved, screened = [], []
    least = np.inf  # the lowest screened theta or solved value so far
    for members, rows, basis, block in blocks:
        if members[0][0] == kept_label:
            matrix, matrix_rows = block, rows
        values, vectors = _block_ground(block, screen=away_from_sea(members))
        least = min(least, values[0])
        if vectors is None:
            screened.append((values[1], members, rows, basis, block))
        else:
            solved.append((members, rows, basis, values, vectors))
        # a block the level cannot reach is dropped as soon as it is known,
        # and the loop's name lets go of it before the next block is built
        screened = [entry for entry in screened if entry[0] <= least + GROUND_DEGENERACY_TOL]
        del block
    for _, members, rows, basis, block in screened:
        solved.append((members, rows, basis, *_multiplet(*_lowest_eigenpairs(block))))
    lowest = min(values[0] for *_, values, _ in solved)
    found = {}  # block label -> its parts' ground vectors over the sector
    for members, rows, basis, values, vectors in solved:
        kept = vectors[:, values <= lowest + GROUND_DEGENERACY_TOL]
        if not kept.shape[1]:
            continue
        if basis is not None:
            kept = basis @ kept
        for label, element in members:
            lifted = np.zeros((len(states), kept.shape[1]), dtype=kept.dtype)
            if label == members[0][0]:
                # the representative's element is the identity, all signs +1
                lifted[rows] = kept
            else:
                images, signs = element.apply(states[rows])
                lifted[np.searchsorted(states, images)] = signs[:, None] * kept
            found.setdefault(label, []).append(lifted)
    order = sorted(found)
    vectors = np.concatenate([part for label in order for part in found[label]], axis=1)
    vector_blocks = None if site else np.repeat(
        order, [sum(part.shape[1] for part in found[label]) for label in order])
    return GroundSpace(grid.n_qubits, n_up, n_down, float(lowest), vectors, matrix,
                       vector_blocks, matrix_rows)


def fidelity(x: np.ndarray, gs: GroundSpace) -> float:
    """Total squared overlap of the ground space with a state given on its
    kept rows, whose bitstrings are gs.states[gs.matrix_rows] (every state
    when the space keeps none); the ground vectors' entries off those rows
    meet only zeros of the state, so they are left out."""
    vectors = gs.vectors
    if gs.matrix_rows is not None and len(gs.matrix_rows) < len(vectors):
        vectors = vectors[gs.matrix_rows]
    return float(np.sum(np.abs(vectors.conj().T @ x) ** 2))


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
