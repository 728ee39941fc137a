"""Hamiltonian builders, sector diagonalization, and the perturbation oracle."""

import dataclasses
import io
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg
from numpy.lib.format import write_array, write_array_header_1_0

from vipsa import hamiltonians
from vipsa.cache import read_fields, write_fields, write_record
from vipsa.core import PoolTables, rs_perturbation
from vipsa.fermions import PauliSum, hopping_pair, jordan_wigner_sum
from vipsa.hamiltonians import (
    GroundSpace,
    ModeHamiltonian,
    SectorHamiltonian,
    SiteHamiltonian,
    build_kspace,
    build_real,
    fidelity,
    ground_space,
    interaction_quadruples,
    kinetic_kspace,
    sector_basis,
    sector_matrix,
    spin_operators,
)
from vipsa.lattice import (
    GridSpec,
    Translations,
    default_filling,
    fermi_sea,
    label_classes,
    momentum_labels,
    point_group,
    real_orbital_basis,
    sea_label,
    translations,
)
from vipsa.statevector import (
    PoolRotation,
    StateVector,
    slater_amplitudes,
)

from builds import (
    kspace_hamiltonian,
    sea_block,
    sea_block_space,
    sector_reference,
    site_space,
    whole_sector_matrix,
)
from oracles import (
    basis_state,
    dense_pauli_sum,
    dense_sector_block,
    loop_interaction_quadruples,
    lowest_sector_values,
)
from replay import kept_amplitudes, register_apply, register_expectation


def assert_ground_level(gs, spectrum, atol, matrix=None):
    """gs is the lowest level of the ascending spectrum, to atol in energy:
    as many orthonormal vectors as the level has values within
    GROUND_DEGENERACY_TOL, each with residual ||Hv - Ev|| <= 1e-9 under
    matrix (gs.matrix by default)."""
    matrix = gs.matrix if matrix is None else matrix
    assert gs.energy == pytest.approx(spectrum[0], abs=atol)
    tol = hamiltonians.GROUND_DEGENERACY_TOL
    assert gs.degeneracy == np.count_nonzero(spectrum <= spectrum[0] + tol)
    np.testing.assert_allclose(gs.vectors.conj().T @ gs.vectors, np.eye(gs.degeneracy),
                               rtol=0, atol=1e-12)
    residual = np.linalg.norm(matrix @ gs.vectors - gs.energy * gs.vectors, axis=0)
    assert residual.max() <= 1e-9


def test_real_2x2_dense_shape():
    grid = GridSpec.make(2, 2, u=4.0)
    h = build_real(grid).pauli
    assert h.is_hermitian()
    dense = dense_pauli_sum(h, grid.n_qubits)
    assert np.abs(dense.imag).max() < 1e-14
    np.testing.assert_allclose(dense, dense.T.conj(), atol=1e-12)


def test_real_u0_ground_energy():
    grid = GridSpec.make(2, 2)
    gs = ground_space(build_real(grid), 2, 2)
    assert gs.energy == pytest.approx(-4.0, abs=1e-10)


def test_quadruples_3x3_uniform():
    grid = GridSpec.make(3, 3, u=6.0)
    quads = interaction_quadruples(grid)
    assert len(quads) == 9 ** 3
    table = {(q.up_to, q.down_to, q.down_from, q.up_from): q.amplitude for q in quads}
    for q in quads:
        assert q.amplitude == pytest.approx(6.0 / 9.0, abs=1e-12)
        for axis_len, pick in ((3, lambda s: s % 3), (3, lambda s: s // 3)):
            transfer = pick(q.up_to) + pick(q.down_to) - pick(q.down_from) - pick(q.up_from)
            assert transfer % axis_len == 0
        assert table[q.conjugate_indices()] == pytest.approx(q.amplitude, abs=1e-12)
    assert sum(1 for q in quads if q.is_diagonal) == 81


def test_quadruples_2x2_parity():
    grid = GridSpec.make(2, 2, u=4.0)
    quads = interaction_quadruples(grid)
    assert len(quads) == 4 ** 3
    for q in quads:
        assert q.amplitude == pytest.approx(1.0, abs=1e-12)  # U/N = 4/4
        for pick in (lambda s: s % 2, lambda s: s // 2):
            total = pick(q.up_to) + pick(q.down_to) + pick(q.down_from) + pick(q.up_from)
            assert total % 2 == 0


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_large_coupling_keeps_the_table(shape):
    # a vanishing amplitude keeps a rounding residue that grows with U; at
    # U = 1e5 it must neither enter the table nor fail the realness check
    def indices(q):
        return q.up_to, q.down_to, q.down_from, q.up_from

    unit = interaction_quadruples(GridSpec.make(*shape, u=1.0))
    large = interaction_quadruples(GridSpec.make(*shape, u=1e5))
    assert [indices(q) for q in large] == [indices(q) for q in unit]
    for q_large, q_unit in zip(large, unit):
        assert q_large.amplitude == pytest.approx(1e5 * q_unit.amplitude, rel=1e-12)
        assert q_large.energy_gap == q_unit.energy_gap
    if shape == (2, 3):
        grid = GridSpec.make(*shape, u=1e5)
        k = ground_space(build_kspace(grid), 3, 3)
        values, multiplet = lowest_sector_values(build_real(grid).pauli, grid.n_qubits, 3, 3,
                                                 how_many=6)
        assert k.energy == pytest.approx(values[0], abs=1e-9)
        assert k.degeneracy == multiplet.shape[1]


# every boundary pair of the 2x2-3x4 grids and of their transposes
QUADRUPLE_GRIDS = [(nx, ny, bc_x, bc_y)
                   for nx, ny in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3)]
                   for bc_x in (["open", "periodic"] if nx > 2 else ["open"])
                   for bc_y in (["open", "periodic"] if ny > 2 else ["open"])]


@pytest.mark.parametrize("u", [6.0, 5.75, -2.9, 1e-3, 0.0])
@pytest.mark.parametrize("nx, ny, bc_x, bc_y", QUADRUPLE_GRIDS)
def test_quadruple_table_is_the_index_loop_to_the_bit(nx, ny, bc_x, bc_y, u):
    # the whole table at once rounds every amplitude and gap as the loop
    # over index tuples does, in the same order (on 4x3 at U = 5.75 a fused
    # complex product would move an amplitude by one ulp)
    def fields(quads):
        return [tuple((type(value), value.hex() if isinstance(value, float) else value)
                      for value in dataclasses.astuple(quad)) for quad in quads]

    grid = GridSpec(nx, ny, bc_x, bc_y, u=u)
    assert fields(interaction_quadruples(grid)) == fields(loop_interaction_quadruples(grid))


def test_quadruple_energy_gap_moves_kinetic_energy():
    grid = GridSpec.make(2, 3, u=4.0)
    kinetic = kinetic_kspace(grid)
    checked = 0
    for q in interaction_quadruples(grid):
        if q.is_diagonal:
            continue
        term = q.ladder_term()
        qubits = [qq for qq, _ in term.factors]
        assert len(set(qubits)) == 4
        before = basis_state({qubits[2], qubits[3]}, grid.n_qubits)
        after = PoolRotation(term).generator_apply(before)
        assert after.norm() == pytest.approx(1.0, abs=1e-12)
        shift = register_expectation(kinetic, after) - register_expectation(kinetic, before)
        assert shift == pytest.approx(q.energy_gap, abs=1e-10)
        checked += 1
        if checked >= 10:
            break
    assert checked == 10


def test_kspace_hermitian_and_real():
    grid = GridSpec.make(2, 3, u=4.0)
    h, quads = build_kspace(grid).pauli, interaction_quadruples(grid)
    assert h.is_hermitian()
    assert max(abs(complex(c).imag) for c, _ in h) < 1e-12
    assert all(abs(q.amplitude - 4.0 / 6.0) < 1e-12 for q in quads)


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3)])
def test_register_spectra_agree(nx, ny):
    grid = GridSpec.make(nx, ny, u=4.0)
    n_up = n_down = grid.n_sites // 2
    real_values, k_values = (
        lowest_sector_values(h, grid.n_qubits, n_up, n_down, how_many=10 ** 9)[0]
        for h in (build_real(grid).pauli, build_kspace(grid).pauli))
    assert len(real_values) == len(sector_basis(grid.n_qubits, n_up, n_down))
    np.testing.assert_allclose(real_values, k_values, atol=1e-9)


@pytest.mark.parametrize("dense_up_to", [400, 0])  # all eigvalsh, all eigsh
@pytest.mark.parametrize("register", ["k", "real"])
def test_lowest_values_oracle_matches_the_whole_sector(register, dense_up_to):
    grid = GridSpec.make(2, 3, u=4.0)
    h = (build_kspace(grid) if register == "k" else build_real(grid)).pauli
    whole, vectors = np.linalg.eigh(
        sector_matrix(h, sector_basis(grid.n_qubits, 3, 3), grid.n_qubits).toarray())
    got, multiplet = lowest_sector_values(h, grid.n_qubits, 3, 3, how_many=6,
                                          dense_up_to=dense_up_to)
    np.testing.assert_allclose(got, whole[:6], rtol=0, atol=1e-10)
    # the same lowest multiplet: its projector differs from the dense one's
    # by at most rounding in spectral norm
    ground = vectors[:, whole <= whole[0] + hamiltonians.GROUND_DEGENERACY_TOL]
    assert multiplet.shape == ground.shape
    np.testing.assert_allclose(multiplet.conj().T @ multiplet, np.eye(ground.shape[1]),
                               rtol=0, atol=1e-12)
    assert np.linalg.norm(ground - multiplet @ (multiplet.conj().T @ ground), 2) <= 1e-10


def test_spin_operator_expectations():
    grid = GridSpec.make(2, 2)
    s_z, s_sq = spin_operators(grid.n_sites)
    assert s_z.is_hermitian() and s_sq.is_hermitian()
    sea = fermi_sea(grid, 2, 2)
    psi = basis_state(sea.occupied_qubits(), grid.n_qubits)
    assert register_expectation(s_z, psi) == pytest.approx(0.0, abs=1e-12)

    grid9 = GridSpec.make(3, 3)
    s_z9, _ = spin_operators(grid9.n_sites)
    sea9 = fermi_sea(grid9, 5, 4)
    psi9 = basis_state(sea9.occupied_qubits(), grid9.n_qubits)
    assert register_expectation(s_z9, psi9) == pytest.approx(0.5, abs=1e-12)


def test_hamiltonian_commutes_with_spin():
    grid = GridSpec.make(2, 2, u=4.0)
    h = dense_pauli_sum(build_real(grid).pauli, grid.n_qubits)
    s_z, s_sq = spin_operators(grid.n_sites)
    for op in (s_z, s_sq):
        dense = dense_pauli_sum(op, grid.n_qubits)
        comm = h @ dense - dense @ h
        assert np.abs(comm).max() < 1e-10


def itertools_sector_basis(n_qubits, n_up, n_down):
    """Every bitstring with n_up set even bits and n_down set odd bits, sorted."""
    n_sites = n_qubits // 2
    ups = [sum(1 << (2 * i) for i in c) for c in itertools.combinations(range(n_sites), n_up)]
    downs = [sum(1 << (2 * i + 1) for i in c)
             for c in itertools.combinations(range(n_sites), n_down)]
    return np.array(sorted(u | d for u in ups for d in downs), dtype=np.uint32)


def test_sector_basis_dimensions():
    assert len(sector_basis(8, 2, 2)) == 36
    assert len(sector_basis(12, 3, 3)) == 400
    assert len(sector_basis(16, 4, 4)) == 4900
    assert len(sector_basis(18, 5, 4)) == 15876
    states = sector_basis(8, 2, 2)
    assert (np.diff(states.astype(np.int64)) > 0).all()
    for n_qubits, n_up, n_down in [(8, 2, 2), (12, 3, 3), (12, 1, 4), (16, 4, 4),
                                   (18, 5, 4), (8, 0, 0), (8, 4, 4), (10, 5, 0), (10, 0, 5)]:
        got = sector_basis(n_qubits, n_up, n_down)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, itertools_sector_basis(n_qubits, n_up, n_down))
    assert sector_basis(8, 0, 0).tolist() == [0]
    assert sector_basis(8, 4, 4).tolist() == [0xFF]
    with pytest.raises(ValueError):
        sector_basis(7, 1, 1)
    with pytest.raises(ValueError):
        sector_basis(8, 5, 0)


def test_sector_basis_is_one_read_only_array_per_sector():
    first = sector_basis(8, 2, 1)
    assert sector_basis(8, 2, 1) is first and sector_basis(8, 1, 2) is not first
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0
    # a ground space derives its bitstrings, and stores none
    grid = GridSpec.make(2, 2, u=4.0)
    gs = ground_space(build_real(grid), 2, 1)
    assert gs.states is first


def test_an_oversized_sector_is_refused_before_anything_is_allocated():
    # 3x4's (6,6) sector fits the budget; 4x4's (8,8), 165 636 900 states,
    # would take 660 MB of bitstrings alone, and is refused from its binomials
    from vipsa import statevector

    assert 853776 <= statevector.SECTOR_STATE_BUDGET < 165636900
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="165636900 states"):
            sector_basis(32, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the error message, not a basis


def test_sector_ground_matches_full_dense():
    grid = GridSpec.make(2, 2, u=4.0)
    gs = ground_space(build_real(grid), 2, 2)
    # independent solve: slice the sector block out of the full 256-dim matrix
    full = dense_pauli_sum(build_real(grid).pauli, grid.n_qubits)
    idx = np.arange(256)
    n_up = np.bitwise_count(idx & 0b01010101)
    n_down = np.bitwise_count(idx & 0b10101010)
    keep = idx[(n_up == 2) & (n_down == 2)]
    np.testing.assert_array_equal(gs.states, keep)
    block = full[np.ix_(keep, keep)]
    assert_ground_level(gs, np.linalg.eigvalsh(block), 1e-10, matrix=block)


def block_multiplet(matrix, screen=True, block_ground=hamiltonians._block_ground):
    """_block_ground's multiplet of one block, a screened block's solved in
    full as ground_space solves a block that may hold the level; bound to
    _block_ground at import, so it can stand in for it."""
    values, vectors = block_ground(matrix, screen)
    if vectors is None:
        values, vectors = hamiltonians._multiplet(*hamiltonians._lowest_eigenpairs(matrix))
    return values, vectors


def block_space(grid, n_up, n_down, matrix) -> GroundSpace:
    """The ground space block_multiplet finds on the whole (n_up, n_down)
    sector's matrix, which it keeps, solved as one block."""
    values, vectors = block_multiplet(matrix)
    return GroundSpace(grid.n_qubits, n_up, n_down, float(values[0]), vectors, matrix,
                       matrix_rows=np.arange(matrix.shape[0]))


def test_iterative_solver_matches_dense(monkeypatch):
    grid = GridSpec.make(2, 3, u=4.0)
    matrix = sector_matrix(build_real(grid).pauli, sector_basis(grid.n_qubits, 3, 3), grid.n_qubits)
    dense = block_space(grid, 3, 3, matrix)
    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 10)
    krylov = block_space(grid, 3, 3, matrix)
    whole = np.linalg.eigvalsh(dense.matrix.toarray())
    for gs in (dense, krylov):
        assert_ground_level(gs, whole, 1e-9)


def test_iterative_ground_space_is_reproducible(monkeypatch):
    # the Lanczos start vector is fixed, so two solves agree bit for bit
    grid = GridSpec.make(2, 3, u=4.0)
    h = build_kspace(grid)
    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 0)
    first, second = (ground_space(h, 3, 3) for _ in range(2))
    np.testing.assert_array_equal(first.vectors, second.vectors)
    assert first.energy == second.energy


def test_sectors_too_small_for_lanczos_are_solved_dense(monkeypatch):
    # a one-state sector (and one-state blocks) leave no room for a Lanczos window
    grid = GridSpec.make(2, 2, u=4.0)
    h = build_kspace(grid)
    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 0)
    empty = ground_space(h, 0, 0)
    assert empty.degeneracy == 1 and empty.energy == pytest.approx(0.0, abs=1e-12)
    single = ground_space(h, 1, 0)
    block = dense_sector_block(h.pauli, sector_basis(grid.n_qubits, 1, 0), grid.n_qubits)
    assert_ground_level(single, np.linalg.eigvalsh(block), 1e-12, matrix=block)


@pytest.mark.parametrize("cutoff", [400, 66, 0])  # all dense, mixed, all Lanczos
def test_block_spectra_match_the_whole_sector(monkeypatch, cutoff):
    grid = GridSpec.make(2, 3, u=4.0)
    h = build_kspace(grid)
    states = sector_basis(grid.n_qubits, 3, 3)
    matrix = sector_matrix(h.pauli, states, grid.n_qubits)
    whole = np.linalg.eigvalsh(matrix.toarray())
    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", cutoff)
    gs = ground_space(h, 3, 3)
    assert_ground_level(gs, whole, 1e-10, matrix=matrix)


def test_block_spectra_match_a_whole_sector_lanczos_solve():
    grid = GridSpec.make(2, 4, u=4.0)
    h = build_kspace(grid)
    states = sector_basis(grid.n_qubits, 4, 4)
    matrix = sector_matrix(h.pauli, states, grid.n_qubits)
    assert scipy.sparse.csgraph.connected_components(matrix, directed=False)[0] == 8
    whole = scipy.sparse.linalg.eigsh(matrix, k=12, which="SA", tol=0,
                                      v0=np.random.default_rng(0).standard_normal(len(states)))[0]
    assert_ground_level(ground_space(h, 4, 4), np.sort(whole),
                        1e-9, matrix=matrix)


def recorded_eigsh(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch eigsh to record (dimension, k, ncv) of every call; the solver
    looks eigsh up at call time, so a patched (or traced) eigsh sees every
    block's solve."""
    seen = []
    eigsh = scipy.sparse.linalg.eigsh

    def recorded(matrix, *args, **kwargs):
        seen.append((matrix.shape[0], kwargs["k"], kwargs["ncv"]))
        return eigsh(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    return seen


@pytest.mark.parametrize("register,calls", [("k", 6), ("real", 3)])
def test_one_lanczos_solve_per_block(monkeypatch, register, calls):
    # the mode register's 8 label blocks fall in 6 point-group classes, and
    # the site register's 4 momentum blocks of the y ring in 3: K = 0, the
    # pair K = 1 ~ 3, and K = 2; the Fermi sea's class, K = 0, which holds
    # the 1-fold ground level, is solved first with the full window, and
    # each other class's block is screened by one one-vector solve
    grid = GridSpec.make(2, 4, u=4.0)
    seen = recorded_eigsh(monkeypatch)
    gs = ground_space(register_h(grid, register), 4, 4)
    assert len(seen) == calls
    window, *screens = seen
    if register == "k":
        labels = momentum_labels(grid, gs.states)
        solved = sum(np.count_nonzero(labels == members[0][0])
                     for members in label_classes(np.unique(labels).tolist(), point_group(grid)))
        assert window[0] == np.count_nonzero(labels == 0)
    else:
        # the blocks cover the sector, K = 1 standing for K = 3 too
        solved = len(gs.states) - screens[0][0]
    assert sum(dim for dim, _, _ in seen) == solved
    # a window of 6 in a Krylov basis of max(2k + 8, 20) = 20 vectors, then
    # one pair per screen in the same basis size
    assert window[1:] == (6, 20)
    assert {(k, ncv) for _, k, ncv in screens} == {(1, 20)}


def register_h(grid, register):
    """The H of the register ("k" or "real") on grid, as its builder gives it."""
    return kspace_hamiltonian(grid) if register == "k" else build_real(grid)


def unscreened_space(monkeypatch, grid, register, sector, keep=False) -> GroundSpace:
    """The ground space with every block solved in full (block_multiplet),
    none screened out."""
    with monkeypatch.context() as patch:
        patch.setattr(hamiltonians, "_block_ground", block_multiplet)
        return ground_space(register_h(grid, register), *sector, keep=keep)


def assert_same_space(space, reference):
    assert space.energy == reference.energy
    arrays = [(space.vectors, reference.vectors), (space.blocks, reference.blocks)]
    assert (space.matrix is None) == (reference.matrix is None)
    if space.matrix is not None:
        arrays.append((space.matrix_rows, reference.matrix_rows))
        arrays += [(getattr(space.matrix, part), getattr(reference.matrix, part))
                   for part in ("data", "indices", "indptr")]
    for array, expected in arrays:
        np.testing.assert_array_equal(array, expected)
        assert array.dtype == expected.dtype


# the benchmark's grids and couplings; 2x3's blocks (66-68 states in the
# mode register, at most 136 in the site register) are solved dense at the
# default cutoff, so it is lowered to screen them
SCREENED_GRIDS = [((2, 3), (6.0, 5.75, 6.25, 5.5, 6.5), 10),
                  ((2, 4), (4.0, 3.75, 4.25, 3.5, 4.5), None),
                  ((3, 3), (6.0, 5.75, 6.25, 5.5, 6.5), None)]


@pytest.mark.parametrize("register", ["k", "real"])
@pytest.mark.parametrize("shape, couplings, cutoff", SCREENED_GRIDS)
def test_screened_ground_space_is_the_unscreened_one(monkeypatch, shape, couplings, cutoff,
                                                     register):
    # the screen only drops blocks that hold no vector of the multiplet, and
    # the blocks it keeps get the same window on the same matrix, so every
    # field keeps its bits, with or without a kept block
    if cutoff is not None:
        monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", cutoff)
    seen = recorded_eigsh(monkeypatch)
    for u in couplings:
        grid = GridSpec.make(*shape, u=u)
        sector = default_filling(grid)
        for keep in (False, True):
            seen.clear()
            space = ground_space(register_h(grid, register), *sector, keep=keep)
            screens = sum(k == 1 for _, k, _ in seen)
            windows = len(seen) - screens
            assert seen[0][1] == hamiltonians.GROUND_WINDOW  # the sea's class, unscreened
            # the sea's class holds the level, except on 2x3 at half filling,
            # whose level's class gets one more window
            assert windows == (2 if shape == (2, 3) else 1)
            # some block was screened out (2x3's site register screens one
            # class, the level's)
            assert windows - 1 < screens or (shape, register) == ((2, 3), "real")
            assert_same_space(space, unscreened_space(monkeypatch, grid, register, sector, keep))


@pytest.mark.parametrize("register, u", [("real", 0.0), ("k", 1e-9), ("real", 1e-9)])
def test_a_multiplet_across_classes_keeps_every_class(monkeypatch, register, u):
    # 3x3 (4,4) at (nearly) zero coupling: the 16-fold level spans all three
    # classes; the sea's class gets its full window first, and each screened
    # block may hold the level and gets its full window too (the mode
    # register's blocks at U = 0 are diagonal, read off unscreened)
    grid = GridSpec.make(3, 3, u=u)
    seen = recorded_eigsh(monkeypatch)
    space = ground_space(register_h(grid, register), 4, 4)
    assert space.degeneracy == 16
    assert seen == [(1764, 6, 20)] + [(1764, 1, 20)] * 2 + [(1764, 6, 20)] * 2
    assert_same_space(space, unscreened_space(monkeypatch, grid, register, (4, 4)))


@pytest.mark.parametrize("register", ["k", "real"])
def test_each_register_screens_each_class_once(monkeypatch, register):
    # 3x3 (5,4) at U = 6: three classes of 1764-state blocks; the Fermi
    # sea's, which holds the 4-fold ground level, gets the full window
    # first, and each other class one screen; eigsh is looked up at call
    # time, so a patched one sees every solve
    grid = GridSpec.make(3, 3, u=6.0)
    seen = recorded_eigsh(monkeypatch)
    space = ground_space(register_h(grid, register), 5, 4)
    assert seen == [(1764, 6, 20)] + [(1764, 1, 20)] * 2
    assert space.degeneracy == 4


@pytest.mark.parametrize("register", ["k", "real"])
@pytest.mark.parametrize("shape, couplings, cutoff", SCREENED_GRIDS[1:])
def test_every_screen_bounds_its_block_from_below(monkeypatch, shape, couplings, cutoff,
                                                  register):
    # theta - r bounds a block's lowest value from below only once the k = 1
    # Lanczos has converged to it, not to the value above; SCREEN_TOL makes
    # it so.  At tol 1e-3, ARPACK stops near the second value of the 3x3
    # (5,4) mode block of label 4 at U = 6, and its bound lies above the first
    screened = []
    screen = hamiltonians._screen

    def recorded(matrix):
        values = screen(matrix)
        screened.append((matrix, values[1]))
        return values

    monkeypatch.setattr(hamiltonians, "_screen", recorded)
    for u in couplings:
        grid = GridSpec.make(*shape, u=u)
        ground_space(register_h(grid, register), *default_filling(grid))
    assert len(screened) >= 2 * len(couplings)  # the two classes away from the sea, at least
    for block, bound in screened:
        assert bound <= hamiltonians._lowest_eigenpairs(block)[0][0]


@pytest.mark.parametrize("keep", [False, True])
def test_the_site_register_folds_each_class_just_before_its_solve(monkeypatch, keep):
    # 3x3 (5,4) at U = 6: each class's block is folded (one characters call)
    # and solved (one _block_ground call per part) before the next class is
    # folded, the sea's class first, unscreened; so a screened-out block is
    # let go before the next one is built
    grid = GridSpec.make(3, 3, u=6.0)
    events = []
    characters, block_ground = Translations.characters, hamiltonians._block_ground
    with monkeypatch.context() as patch:
        patch.setattr(Translations, "characters", lambda self, label: (
            events.append(("fold", label)) or characters(self, label)))
        patch.setattr(hamiltonians, "_block_ground", lambda matrix, screen=True: (
            events.append(("solve", screen)) or block_ground(matrix, screen)))
        space = ground_space(register_h(grid, "real"), 5, 4, keep=keep)
    classes = label_classes(translations(grid).labels, point_group(grid))
    assert [event for event, _ in events] == ["fold", "solve"] * len(classes)
    assert [screen for event, screen in events if event == "solve"] == [False, True, True]
    assert sorted(label for event, label in events if event == "fold") == sorted(
        members[0][0] for members in classes)
    assert_same_space(space, unscreened_space(monkeypatch, grid, "real", (5, 4), keep))


@pytest.mark.parametrize("register", ["k", "real"])
@pytest.mark.parametrize("shape, sector, parity, windows", [
    # the sea's class does not hold the level: its window is spent, and the
    # level's class gets one more
    ((2, 3), (3, 3), 0, 2), ((2, 4), (3, 2), 0, 2),
    # the sea has odd parity along the open x axis, along which the site
    # register has no shift; on 2x4 the 3-fold level spans two classes
    ((2, 3), (2, 1), 1, 1), ((2, 4), (2, 1), 1, 2)])
def test_the_sea_class_first_gives_the_unscreened_space(monkeypatch, shape, sector, parity,
                                                        windows, register):
    # blocks of 12-392 states, every one bound for Lanczos at this cutoff
    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 10)
    grid = GridSpec.make(*shape, u=4.0)
    assert sea_block(grid, *sector)[0] % 2 == parity  # the label's x part, mod 2
    seen = recorded_eigsh(monkeypatch)
    for keep in (False, True):
        seen.clear()
        space = ground_space(register_h(grid, register), *sector, keep=keep)
        assert seen[0][1] == hamiltonians.GROUND_WINDOW  # the sea's class, unscreened
        assert len(seen) - sum(k == 1 for _, k, _ in seen) == windows
        assert_same_space(space, unscreened_space(monkeypatch, grid, register, sector, keep))


def disconnected(block):
    """The block with its last row and column cut off from the rest."""
    return scipy.sparse.block_diag((block[:-1, :-1], block[-1:, -1:]), format="csr")


def overflowing(block):
    """The block with one diagonal entry infinite, so its spectrum is not finite."""
    block = block.tolil()
    block[0, 0] = np.inf
    return block.tocsr()


@pytest.mark.parametrize("damage, message", [(disconnected, "not connected"),
                                             (overflowing, "spectrum is not finite")])
def test_a_screened_out_block_is_still_checked(monkeypatch, damage, message):
    # 3x3 (5,4) at U = 6 in the mode register: the last class built, label
    # 4's, lies 0.85 above the ground level and is screened out; damaged, it
    # is refused as the block solved on its own is
    grid = GridSpec.make(3, 3, u=6.0)
    h = register_h(grid, "k")
    states = sector_basis(grid.n_qubits, 5, 4)
    labels = momentum_labels(grid, states)
    last = sector_matrix(h.pauli, states[labels == 4], grid.n_qubits)
    bound = hamiltonians._screen(last)[1]
    assert bound > sea_block_space(grid, 5, 4).energy + 0.8
    with pytest.raises(ValueError, match=message):
        block_multiplet(damage(last))
    build = hamiltonians.sector_matrix
    monkeypatch.setattr(hamiltonians, "sector_matrix", lambda h, rows, n: (
        damage(build(h, rows, n)) if labels[np.searchsorted(states, rows[0])] == 4
        else build(h, rows, n)))
    with pytest.raises(ValueError, match=message):
        ground_space(h, 5, 4)


def test_ground_window_doubles_over_a_larger_multiplet(monkeypatch):
    # 2x4 at U = 0 in the (2,2) sector: 784 site-register states in one
    # block, a 9-fold ground level, more than the first window holds
    grid = GridSpec.make(2, 4, u=0.0)
    h = build_real(grid).pauli
    states = sector_basis(grid.n_qubits, 2, 2)
    matrix = sector_matrix(h, states, grid.n_qubits)
    seen = recorded_eigsh(monkeypatch)
    values, vectors = block_multiplet(matrix)
    # the screen, then the first window and its double, each in a basis of
    # max(2k + 8, 20)
    assert seen == [(784, 1, 20), (784, 6, 20), (784, 12, 32)]
    assert vectors.shape[1] == 9
    lowest = np.linalg.eigvalsh(dense_sector_block(h, states, grid.n_qubits))[0]
    assert values[0] == pytest.approx(lowest, abs=1e-10)


@pytest.mark.parametrize("register", ["k", "real"])
def test_ground_space_matches_a_twelve_pair_solve(register):
    # every block solved with a twice wider window, 12 pairs in a 48-vector
    # basis, from the same start vector
    grid = GridSpec.make(2, 4, u=4.0)
    h = build_kspace(grid) if register == "k" else build_real(grid)
    gs = ground_space(h, 4, 4)
    matrix = sector_matrix(h.pauli, gs.states, grid.n_qubits)
    labels = scipy.sparse.csgraph.connected_components(matrix, directed=False)[1]
    values, columns = [], []
    for block in np.unique(labels):
        rows = np.flatnonzero(labels == block)
        vals, vecs = scipy.sparse.linalg.eigsh(
            matrix[rows][:, rows], k=12, which="SA", ncv=48, tol=0,
            v0=np.random.default_rng(0).standard_normal(len(rows)))
        for value, vec in zip(vals, vecs.T):
            column = np.zeros(len(gs.states), dtype=vecs.dtype)
            column[rows] = vec
            values.append(value)
            columns.append(column)
    values = np.array(values)
    ground = values <= values.min() + hamiltonians.GROUND_DEGENERACY_TOL
    wide = np.linalg.qr(np.array(columns)[ground].T)[0]
    assert gs.degeneracy == wide.shape[1]
    assert gs.energy == pytest.approx(values.min(), abs=1e-12)
    # sine of the largest angle between the two spaces, i.e. the spectral
    # norm of the projector difference
    outside = wide - gs.vectors @ (gs.vectors.conj().T @ wide)
    assert np.linalg.norm(outside, 2) <= 1e-10


def test_sector_block_oracle_matches_dense_slice():
    grid = GridSpec.make(2, 2, u=4.0)
    h = build_kspace(grid).pauli
    states = sector_basis(grid.n_qubits, 2, 2)
    full = dense_pauli_sum(h, grid.n_qubits)
    np.testing.assert_allclose(dense_sector_block(h, states, grid.n_qubits),
                               full[np.ix_(states, states)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
@pytest.mark.parametrize("register", ["k", "real"])
def test_sector_matrix_stores_only_nonzeros(shape, register):
    grid = GridSpec.make(*shape, u=4.0)
    h = (build_kspace(grid) if register == "k" else build_real(grid)).pauli
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    matrix = sector_matrix(h, states, grid.n_qubits)
    assert matrix.nnz == matrix.count_nonzero()
    np.testing.assert_allclose(matrix.toarray(), dense_sector_block(h, states, grid.n_qubits),
                               rtol=0, atol=1e-12)
    assert matrix.data.dtype == np.float64 and matrix.data.flags.c_contiguous


def test_sector_matrix_drops_entries_left_zero_by_a_negligible_imaginary_part():
    # the purely imaginary 1e-10j hopping falls below 1e-12 of the U = 1e3
    # diagonal, so the matrix is made real; its entries must not stay as zeros
    grid = GridSpec.make(2, 2, u=1e3)
    h = build_real(grid).pauli + jordan_wigner_sum(hopping_pair(0, 6, 1e-10j), grid.n_qubits)
    matrix = sector_matrix(h, sector_basis(grid.n_qubits, 2, 2), grid.n_qubits)
    assert matrix.data.dtype == np.float64 and matrix.data.flags.c_contiguous
    assert matrix.nnz == matrix.count_nonzero() == 222
    assert matrix.has_sorted_indices


def build_peak(h, states, n_qubits: int) -> tuple[int, int]:
    """(peak bytes traced while sector_matrix builds, bytes of the matrix built)."""
    tracemalloc.start()
    try:
        matrix = sector_matrix(h, states, n_qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


@pytest.mark.parametrize("register", ["k", "real"])
def test_sector_matrix_build_peaks_near_the_matrix_size(register):
    # the entries are gathered as int32 pairs and float64 values and joined one
    # array at a time, so the build holds about 2.5 times the finished matrix;
    # a complex COO with intp indices, converted and then made real, held 6 times
    grid = GridSpec.make(2, 4, u=4.0)
    h = (build_kspace(grid) if register == "k" else build_real(grid)).pauli
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    peak, size = build_peak(h, states, grid.n_qubits)
    assert peak <= 3.5 * size, f"peak {peak} bytes for a {size}-byte matrix"


def test_class_block_build_peaks_near_the_matrix_size():
    # a 3x3 (5,4) class-representative block of the mode register, as ED
    # builds it, under the same bound
    grid = GridSpec.make(3, 3, u=6.0)
    states = sector_basis(grid.n_qubits, 5, 4)
    labels = momentum_labels(grid, states)
    label = label_classes(np.unique(labels).tolist(), point_group(grid))[0][0][0]
    peak, size = build_peak(kspace_hamiltonian(grid).pauli, states[labels == label], grid.n_qubits)
    assert peak <= 3.5 * size, f"peak {peak} bytes for a {size}-byte matrix"


def test_sector_violation_detected():
    bad = PauliSum.from_terms([(1.0, ((0, "X"),))])
    states = sector_basis(4, 1, 1)
    with pytest.raises(ValueError):
        sector_matrix(bad, states, 4)


def test_ground_space_free_sea_and_fidelity():
    grid = GridSpec.make(2, 2)
    gs = ground_space(ModeHamiltonian(grid, kinetic_kspace(grid)), 2, 2)
    assert gs.degeneracy == 4
    assert gs.energy == pytest.approx(-4.0, abs=1e-10)

    sea = fermi_sea(grid, 2, 2)
    psi = basis_state(sea.occupied_qubits(), grid.n_qubits)
    assert fidelity(kept_amplitudes(psi, gs), gs) == pytest.approx(1.0, abs=1e-10)

    # a state built from an unoccupied-shell mode is orthogonal to the multiplet
    top = basis_state({6, 7, 0, 1}, grid.n_qubits)
    weight = fidelity(kept_amplitudes(top, gs), gs)
    assert weight == pytest.approx(0.0, abs=1e-10)

    # fidelity is invariant under re-basing the ground space
    rng = np.random.default_rng(3)
    random = rng.normal(size=(gs.degeneracy, gs.degeneracy))
    q, _ = np.linalg.qr(random)
    rotated = GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy,
                          gs.vectors @ q, gs.matrix)
    mixed = StateVector(grid.n_qubits,
                        psi.amplitudes * 0.8 + 0.6 * basis_state({0, 1, 2, 3}, 8).amplitudes)
    assert (fidelity(kept_amplitudes(mixed, rotated), rotated)
            == pytest.approx(fidelity(kept_amplitudes(mixed, gs), gs), abs=1e-10))


def test_one_fidelity_takes_the_sum_each_register_took():
    # the site register's space keeps its whole sector, whose rows the sum
    # runs over; the mode register's keeps the sea's block, and the sum runs
    # over the ground vectors' rows of it.  Both give the bits of the sums
    # the layered and the adaptive run took before, and a full-register
    # state gathered onto the kept rows gives the same
    grid = GridSpec.make(2, 3, u=4.0)
    n_up, n_down = default_filling(grid)
    site = site_space(grid, n_up, n_down)
    mode = sea_block_space(grid, n_up, n_down)
    assert len(mode.matrix_rows) < len(mode.states)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(len(site.states))
    assert fidelity(x, site) == float(np.sum(np.abs(site.vectors.conj().T @ x) ** 2))
    y = rng.standard_normal(len(mode.matrix_rows))
    assert fidelity(y, mode) == float(np.sum(np.abs(mode.vectors[mode.matrix_rows].conj().T @ y) ** 2))
    psi = StateVector.zero(grid.n_qubits)
    psi.amplitudes[mode.states[mode.matrix_rows]] = y
    assert fidelity(kept_amplitudes(psi, mode), mode) == fidelity(y, mode)


def test_ground_space_roundtrip(tmp_path):
    gs = site_space(GridSpec.make(2, 2, u=4.0), 2, 2)
    path = tmp_path / "gs.npys"
    gs.save(path)
    loaded = GroundSpace.load(path)
    assert loaded.energy == gs.energy
    assert loaded.degeneracy == gs.degeneracy
    np.testing.assert_array_equal(loaded.states, gs.states)
    np.testing.assert_allclose(loaded.vectors, gs.vectors)


@pytest.mark.parametrize("register", ["k", "real"])
def test_ground_space_keeps_the_sector_matrix(tmp_path, monkeypatch, register):
    # the space a run takes its H from holds the matrix of the run's block,
    # in memory and after save/load: the site register's whole sector, and
    # in the mode register the whole-sector matrix's rows and columns of the
    # Fermi sea's block, label 4 on 2x3 (3,3), which no class solve builds
    from vipsa.cli import cached_ground_space

    grid = GridSpec.make(2, 3, u=4.0)
    h = (build_kspace(grid) if register == "k" else build_real(grid)).pauli
    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 0)
    gs = cached_ground_space(grid, 3, 3, register, None)
    fresh = sector_matrix(h, gs.states, grid.n_qubits)
    rows = np.arange(len(gs.states))
    if register == "k":
        assert sea_block(grid, 3, 3)[0] == 4
        rows = np.flatnonzero(momentum_labels(grid, gs.states) == 4)
        fresh = fresh[rows][:, rows]
    gs.save(tmp_path / "gs.npys")
    loaded = GroundSpace.load(tmp_path / "gs.npys")
    for space in (gs, loaded):
        np.testing.assert_array_equal(space.matrix_rows, rows)
    for matrix in (gs.matrix, loaded.matrix):
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(matrix, part), getattr(fresh, part))
            assert getattr(matrix, part).dtype == getattr(fresh, part).dtype
        assert matrix.shape == fresh.shape


# (shape, U, sector) of the grids whose kept matrices are checked: 2x3
# (3,3)'s sea lies in label 4, and its ground in label 0
KEPT_SECTORS = [((2, 3), 4.0, (3, 3)), ((2, 4), 4.0, (4, 4)), ((3, 3), 6.0, (5, 4))]


@pytest.mark.parametrize("register", ["k", "real"])
@pytest.mark.parametrize("shape, u, sector", KEPT_SECTORS)
def test_kept_matrix_is_the_block_a_run_lives_in(shape, u, sector, register):
    # keep holds, to the bit, the mode register's sector_matrix of the
    # Fermi sea's momentum block over that block's rows, and the site
    # register's rows over its whole sector
    grid = GridSpec.make(*shape, u=u)
    if register == "k":
        space = sea_block_space(grid, *sector)
        label = sea_label(grid, *sector)
        rows = np.flatnonzero(momentum_labels(grid, space.states) == label)
        expected = sector_matrix(kspace_hamiltonian(grid).pauli, space.states[rows], grid.n_qubits)
        if shape == (2, 3):
            assert label == 4 and space.blocks.tolist() == [0]
    else:
        space = site_space(grid, *sector)
        rows = np.arange(len(space.states))
        expected = SiteHamiltonian(grid).rows(space.states, rows)
    np.testing.assert_array_equal(space.matrix_rows, rows)
    assert space.matrix_rows.dtype == rows.dtype and space.matrix.shape == expected.shape
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(space.matrix, part), getattr(expected, part))
        assert getattr(space.matrix, part).dtype == getattr(expected, part).dtype


def test_ground_space_keeps_its_block_labels(tmp_path):
    grid = GridSpec.make(3, 3, u=0.0)
    h = ModeHamiltonian(grid, kinetic_kspace(grid))
    gs = ground_space(h, 5, 4)
    assert gs.matrix is None
    # the fourfold free sea: one down-spin hole in each of the four modes of
    # the -1 shell, one in each block of the middle class
    assert gs.blocks.tolist() == [1, 2, 3, 6]
    with pytest.raises(ValueError, match="sector matrix"):
        gs.save(tmp_path / "bare.npys")
    kept = dataclasses.replace(gs, matrix=sector_matrix(h.pauli, gs.states, grid.n_qubits),
                               matrix_rows=np.arange(len(gs.states)))
    kept.save(tmp_path / "gs.npys")
    np.testing.assert_array_equal(GroundSpace.load(tmp_path / "gs.npys").blocks, gs.blocks)
    unlabelled = dataclasses.replace(gs, blocks=None)
    assert unlabelled.blocks.tolist() == [hamiltonians.UNLABELLED] * 4
    with pytest.raises(ValueError, match="block labels"):
        GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy, gs.vectors,
                    blocks=gs.blocks[:-1])


MOMENTUM_GRIDS = [(2, 2), (2, 3), (2, 4), (3, 3)]
# the default-boundary grids above at six couplings, then every other
# boundary pair of 2x2-3x3 and of their transposes at U = 4
LABEL_GRIDS = [
    *(pytest.param(GridSpec.make(*shape, u=u), id=f"shape{index}-{u}")
      for u in (0.37, 2.0, 4.0, 6.0, -2.9, 0.0) for index, shape in enumerate(MOMENTUM_GRIDS)),
    *(pytest.param(GridSpec.make(nx, ny, u=4.0, bc_x=bc_x, bc_y=bc_y),
                   id=f"{nx}x{ny}-{bc_x}-{bc_y}")
      for nx, ny, bc_x, bc_y in [(2, 3, "open", "open"), (3, 2, "open", "open"),
                                 (3, 2, "periodic", "open"), (2, 4, "open", "open"),
                                 (4, 2, "open", "open"), (4, 2, "periodic", "open"),
                                 (3, 3, "open", "open"), (3, 3, "open", "periodic"),
                                 (3, 3, "periodic", "open")]),
]


@pytest.mark.parametrize("grid", LABEL_GRIDS)
def test_momentum_labels_are_the_connected_blocks(grid):
    # once rounding residue is dropped (off-diagonal entries of at most
    # AMPLITUDE_DROP_TOL times max(1, the largest |entry|)), each label is one
    # connected block of an interacting sector, and carries no off-diagonal
    # entry in a sector of one spin species, or at U = 0
    h = build_kspace(grid).pauli
    for n_up, n_down in [default_filling(grid), (2, 0), (0, grid.n_sites // 2)]:
        states = sector_basis(grid.n_qubits, n_up, n_down)
        matrix = abs(sector_matrix(h, states, grid.n_qubits))
        residue = hamiltonians.AMPLITUDE_DROP_TOL * max(1.0, matrix.max())
        coupled = scipy.sparse.triu(matrix > residue, k=1)
        n_blocks, blocks = scipy.sparse.csgraph.connected_components(coupled, directed=False)
        labels = momentum_labels(grid, states)
        # each connected block carries one label
        first = np.zeros(n_blocks, dtype=labels.dtype)
        first[blocks] = labels
        assert np.array_equal(first[blocks], labels)
        if grid.u and n_up and n_down:
            assert n_blocks == len(np.unique(labels))
        else:  # H is diagonal: every state is a block, finer than the labels
            assert n_blocks == len(states) > len(np.unique(labels))


@pytest.mark.parametrize("shape", MOMENTUM_GRIDS)
def test_signed_maps_carry_block_matrices(shape):
    grid = GridSpec.make(*shape, u=4.0)
    h = build_kspace(grid).pauli
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    labels = momentum_labels(grid, states)
    blocks = {label: states[labels == label] for label in np.unique(labels).tolist()}
    matrices = {label: sector_matrix(h, block, grid.n_qubits) for label, block in blocks.items()}
    for label, block in blocks.items():
        for element in point_group(grid):
            images, signs = element.apply(block)
            target = int(momentum_labels(grid, images[0]))
            # P[i, j] = sign_j when bitstring j of this block maps to bitstring i of the target
            perm = scipy.sparse.csr_matrix(
                (signs, (np.searchsorted(blocks[target], images), np.arange(len(block)))),
                shape=(len(block), len(block)))
            moved = perm @ matrices[label] @ perm.T
            assert abs(moved - matrices[target]).max() <= 1e-12


@pytest.mark.parametrize("shape, u", [((2, 2), 4.0), ((2, 3), 0.0), ((2, 3), 4.0),
                                      ((2, 4), 4.0), ((2, 4), -2.9), ((3, 3), 4.0)])
def test_point_group_ground_space_matches_the_oracle(shape, u):
    grid = GridSpec.make(*shape, u=u)
    n_up, n_down = default_filling(grid)
    gs = ground_space(build_kspace(grid), n_up, n_down)
    whole = whole_sector_matrix(grid, n_up, n_down)
    spectrum, multiplet = sector_reference(grid, "k", n_up, n_down, how_many=6)
    assert_ground_level(gs, spectrum, 1e-10, matrix=whole)
    # the oracle's multiplet, to within rounding of its projector
    assert gs.degeneracy == multiplet.shape[1]
    outside = multiplet - gs.vectors @ (gs.vectors.conj().T @ multiplet)
    assert np.linalg.norm(outside, 2) <= 1e-8
    # each vector lives on the block its label names
    for label, vector in zip(gs.blocks, gs.vectors.T):
        assert set(momentum_labels(grid, gs.states[vector != 0]).tolist()) == {label}


def test_a_block_that_is_not_connected_is_refused():
    # the mode register's whole sector splits into label blocks, which the
    # block solver does not rediscover
    grid = GridSpec.make(2, 3, u=4.0)
    with pytest.raises(ValueError, match="not connected"):
        hamiltonians._block_ground(whole_sector_matrix(grid, 3, 3))


@pytest.mark.parametrize("shape, sector, degeneracy", [((2, 3), (2, 0), 1), ((3, 3), (2, 0), 2),
                                                       ((2, 4), (7, 0), 1), ((3, 3), (0, 4), 3)])
def test_residue_only_blocks_are_read_off_the_diagonal(shape, sector, degeneracy):
    # one spin species on open axes: H is its kinetic diagonal, and the Pauli
    # sum leaves off-diagonal rounding residue of 1e-17 to 1e-16 that must not
    # mix the ground states; an eigensolver on the whole block mixes them by
    # up to 4e-16 on 2x4 (7,0) and 3x3 (0,4), and moves the 3x3 energy by 2 ulp
    grid = GridSpec.make(*shape, u=4.0, bc_x="open", bc_y="open")
    h = build_kspace(grid)
    states = sector_basis(grid.n_qubits, *sector)
    matrix = sector_matrix(h.pauli, states, grid.n_qubits)
    diagonal = matrix.diagonal()
    residue = abs(matrix - scipy.sparse.diags(diagonal)).max()
    assert 0 < residue <= hamiltonians.AMPLITUDE_DROP_TOL
    block_values, block_vectors = hamiltonians._block_ground(matrix)
    gs = ground_space(h, *sector)
    for energy, vectors in ((block_values[0], block_vectors), (gs.energy, gs.vectors)):
        assert energy == diagonal.min() and vectors.shape[1] == degeneracy
        rows, columns = np.nonzero(vectors)
        assert sorted(columns) == list(range(degeneracy))
        assert np.all(np.abs(vectors[rows, columns]) == 1.0)
        assert np.all(diagonal[rows] <= diagonal.min() + hamiltonians.GROUND_DEGENERACY_TOL)


def test_point_group_solve_builds_one_block_per_class(monkeypatch):
    # 2x4 (4,4): 8 blocks of 608-628 states in 6 classes, (0,1) ~ (0,3) and
    # (1,1) ~ (1,3), labels 2 ~ 6 and 3 ~ 7; the kept block, the sea's, label
    # 0, is its class's representative, so every block built is solved once,
    # the sea's first by its window and every other by one screen, and
    # nothing builds the 4900-state sector
    grid = GridSpec.make(2, 4, u=4.0)
    h = build_kspace(grid)
    built = []
    build = hamiltonians.sector_matrix
    monkeypatch.setattr(hamiltonians, "sector_matrix",
                        lambda h, states, n: built.append(len(states)) or build(h, states, n))
    seen = recorded_eigsh(monkeypatch)
    states = sector_basis(grid.n_qubits, 4, 4)
    labels = momentum_labels(grid, states)
    per_class = [np.count_nonzero(labels == label) for label in (0, 1, 2, 3, 4, 5)]
    assert sea_block(grid, 4, 4)[0] == 0
    for keep in (False, True):
        built.clear()
        seen.clear()
        gs = ground_space(h, 4, 4, keep=keep)
        assert built == per_class
        assert seen == [(per_class[0], 6, 20)] + [(dim, 1, 20) for dim in per_class[1:]]
        assert (gs.matrix is not None) == keep
        if keep:
            np.testing.assert_array_equal(gs.matrix_rows, np.flatnonzero(labels == 0))
            assert gs.matrix.shape == (per_class[0],) * 2


# every boundary pair of the 2x2-3x3 grids and of their transposes
SITE_GRIDS = [(2, 2, "open", "open"), (2, 3, "open", "open"), (2, 3, "open", "periodic"),
              (3, 2, "open", "open"), (3, 2, "periodic", "open"), (3, 3, "open", "open"),
              (3, 3, "open", "periodic"), (3, 3, "periodic", "open"),
              (3, 3, "periodic", "periodic")]
# and the rings of even length, whose momentum pi has real characters and
# whose bitstrings can repeat under a shift with either sign
RING_GRIDS = [(2, 4, "open", "periodic"), (4, 2, "periodic", "open")]


def site_sectors(grid: GridSpec) -> list[tuple[int, int]]:
    """The default filling, one spin species empty, and two more."""
    return list(dict.fromkeys([default_filling(grid), (2, 0), (1, 2), (0, grid.n_sites - 1)]))


@pytest.mark.parametrize("nx, ny, bc_x, bc_y", SITE_GRIDS + RING_GRIDS)
def test_site_rows_match_the_pauli_sum_build(nx, ny, bc_x, bc_y):
    # where every product of U is exact the rows from the hopping tables are
    # the Pauli-sum CSR to the bit; elsewhere the Pauli sum rounds its U/4
    # sums differently, and leaves a residue on the diagonal of each state
    # with no doubly occupied site, where the tables store nothing
    rng = np.random.default_rng(34)
    for u in (0.0, 4.0, 6.0, -2.5, 0.1, 0.3, -2.9):
        grid = GridSpec(nx, ny, bc_x, bc_y, u=u)
        h = build_real(grid).pauli
        for sector in site_sectors(grid):
            states = sector_basis(grid.n_qubits, *sector)
            oracle = sector_matrix(h, states, grid.n_qubits)
            built = SiteHamiltonian(grid).rows(states, np.arange(len(states)))
            assert built.dtype == np.float64 and built.has_sorted_indices
            if u in (0.0, 4.0, 6.0, -2.5):
                for part in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(built, part), getattr(oracle, part))
            else:
                # every stored entry is the Pauli sum's too, and the Pauli
                # sum's others are the residues
                assert (built != 0).multiply(oracle != 0).nnz == built.nnz
                rows, columns = (oracle - oracle.multiply(built != 0)).nonzero()
                np.testing.assert_array_equal(rows, columns)
                assert not hamiltonians.double_occupancy(states[rows]).any()
                scale = max(1.0, abs(oracle).max())
                assert abs(built - oracle).max() <= 1e-15 * scale, (u, sector)
            if u == -2.9:
                # rows at any ascending positions are those rows of the whole
                positions = np.flatnonzero(rng.random(len(states)) < 0.3)
                some = SiteHamiltonian(grid).rows(states, positions)
                for part in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(some, part),
                                                  getattr(built[positions], part))


@pytest.mark.parametrize("h", [build_kspace(GridSpec.make(2, 3, u=4.0)).pauli,
                               build_real(GridSpec.make(2, 3, u=4.0)).pauli,
                               None, GridSpec.make(2, 3, u=4.0)],
                         ids=["mode-pauli-sum", "site-pauli-sum", "none", "grid"])
def test_ground_space_solves_only_a_register_hamiltonian(h):
    # the H's type names the register, and so the symmetry it is solved on;
    # a bare Pauli sum names none, and nor does a grid
    with pytest.raises(ValueError, match="^ground_space solves a ModeHamiltonian or a "
                                         f"SiteHamiltonian, not {type(h).__name__}$"):
        ground_space(h, 3, 3)


def test_ground_space_refuses_a_non_hermitian_mode_hamiltonian():
    grid = GridSpec.make(2, 3, u=4.0)
    skew = PauliSum.from_terms([(1e-3j, ((0, "Z"),))])
    with pytest.raises(ValueError, match="^sector diagonalization requires a Hermitian operator$"):
        ground_space(ModeHamiltonian(grid, build_kspace(grid).pauli + skew), 3, 3)


@pytest.mark.parametrize("u", [0.0, 2.0, 4.0, -2.9])
@pytest.mark.parametrize("nx, ny, bc_x, bc_y", SITE_GRIDS + RING_GRIDS)
def test_site_momentum_blocks_match_the_whole_sector_solve(nx, ny, bc_x, bc_y, u):
    grid = GridSpec(nx, ny, bc_x, bc_y, u=u)
    h = build_real(grid)
    for sector in site_sectors(grid):
        values, whole = sector_reference(grid, "real", *sector, how_many=6)
        blocked = ground_space(h, *sector)
        assert blocked.energy == pytest.approx(values[0], abs=1e-10)
        assert blocked.degeneracy == whole.shape[1]
        assert blocked.matrix is None
        assert blocked.blocks.tolist() == [hamiltonians.UNLABELLED] * blocked.degeneracy
        # the spectral norm of the projector difference, the sine of the
        # largest angle between the two spaces
        outside = whole - blocked.vectors @ (blocked.vectors.conj().T @ whole)
        assert np.linalg.norm(outside, 2) <= 1e-8
        np.testing.assert_allclose(blocked.vectors.conj().T @ blocked.vectors,
                                   np.eye(blocked.degeneracy), rtol=0, atol=1e-10)
        matrix = sector_matrix(h.pauli, blocked.states, grid.n_qubits)
        residual = matrix @ blocked.vectors - blocked.energy * blocked.vectors
        assert np.linalg.norm(residual, axis=0).max() <= 1e-10


@pytest.mark.parametrize("nx, ny, bc_x, bc_y", SITE_GRIDS)
def test_the_site_hamiltonian_commutes_with_its_symmetries(nx, ny, bc_x, bc_y):
    grid = GridSpec(nx, ny, bc_x, bc_y, u=4.0)
    states = sector_basis(grid.n_qubits, 2, 1)
    matrix = SiteHamiltonian(grid).rows(states, np.arange(len(states)))
    group = translations(grid)
    for element in [group.translation(shift) for shift in group.shifts] + list(point_group(grid)):
        images, signs = element.apply(states)
        perm = scipy.sparse.csr_matrix((signs, (np.searchsorted(states, images),
                                                np.arange(len(states)))), shape=matrix.shape)
        assert abs(perm @ matrix @ perm.T - matrix).max() <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sector", [(5, 4), (2, 2)])
def test_complex_momentum_blocks_solve_without_warnings(sector):
    # 3x3: six of the nine momentum blocks are complex, solved by Lanczos at
    # (5,4) (1764 states each) and dense at (2,2) (144); the connectivity
    # check reads the blocks' sparsity, not their complex values.  The
    # energy is the mode register's
    grid = GridSpec.make(3, 3, u=4.0)
    gs = ground_space(build_real(grid), *sector)
    assert gs.energy == pytest.approx(sea_block_space(grid, *sector).energy, abs=1e-10)


def test_site_solve_builds_the_whole_sector_only_to_keep_it(monkeypatch):
    # 3x3 (5,4): nine momentum blocks of 1764 states in three classes, K = 0,
    # the four K on the zone's edges and the four on its corners; only each
    # class's representative is solved, the Fermi sea's (K = (0, 1), an
    # edge) by its window and the other two by a screen each, and H's rows
    # are built once: at the 1764 orbit representatives, or over the whole
    # sector when the space keeps it, which then keeps that matrix
    grid = GridSpec.make(3, 3, u=6.0)
    built = []
    rows = SiteHamiltonian.rows
    monkeypatch.setattr(SiteHamiltonian, "rows",
                        lambda h, states, positions: built.append(len(positions))
                        or rows(h, states, positions))
    seen = recorded_eigsh(monkeypatch)
    for keep in (False, True):
        built.clear()
        seen.clear()
        gs = ground_space(build_real(grid), 5, 4, keep=keep)
        assert seen == [(1764, 6, 20)] + [(1764, 1, 20)] * 2
        assert built == [15876 if keep else 1764]
        assert gs.degeneracy == 4 and np.iscomplexobj(gs.vectors)
    whole = rows(SiteHamiltonian(grid), gs.states, np.arange(len(gs.states)))
    np.testing.assert_array_equal(gs.matrix_rows, np.arange(len(gs.states)))
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(gs.matrix, part), getattr(whole, part))


# (shape, sector) pairs: each grid's default filling and one other
SLICED_SECTORS = [((2, 2), (2, 2)), ((2, 2), (1, 2)), ((2, 3), (3, 3)), ((2, 3), (2, 1)),
                  ((2, 4), (4, 4)), ((2, 4), (3, 2)), ((3, 3), (5, 4)), ((3, 3), (4, 2))]


@pytest.mark.parametrize("u", [0.0, 0.37, 4.0, 6.0, -2.9])
@pytest.mark.parametrize("shape, sector", SLICED_SECTORS)
def test_class_blocks_sliced_from_the_whole_sector_are_built_blocks(shape, sector, u):
    # a block built by sector_matrix on its own bitstrings is the same CSR,
    # bit for bit, as its slice of the whole-sector matrix; that is why the
    # one-block matrix a run keeps gives the whole-sector matrix's H x
    grid = GridSpec.make(*shape, u=u)
    h = build_kspace(grid).pauli
    states = sector_basis(grid.n_qubits, *sector)
    whole = sector_matrix(h, states, grid.n_qubits)
    labels = momentum_labels(grid, states)
    for members in label_classes(np.unique(labels).tolist(), point_group(grid)):
        rows = np.flatnonzero(labels == members[0][0])
        sliced = whole[rows][:, rows]
        built = sector_matrix(h, states[rows], grid.n_qubits)
        assert sliced.shape == built.shape
        for part in ("indptr", "indices", "data"):
            assert getattr(sliced, part).dtype == getattr(built, part).dtype, part
            assert getattr(sliced, part).tobytes() == getattr(built, part).tobytes(), part
        assert sliced.has_sorted_indices == built.has_sorted_indices


# every boundary pair GridSpec accepts on 2x2-2x4 and 3x2 (a periodic axis
# needs length 3 or more), then the default 3x3
BYTE_GRIDS = [GridSpec.make(nx, ny, u=u, bc_x=bc_x, bc_y=bc_y)
              for (nx, ny), u in [((2, 2), 4.0), ((2, 3), 6.0), ((3, 2), -2.9), ((2, 4), 0.37)]
              for bc_x in ("open", "periodic") for bc_y in ("open", "periodic")
              if (bc_x == "open" or nx > 2) and (bc_y == "open" or ny > 2)]
BYTE_GRIDS.append(GridSpec.make(3, 3, u=6.0))


def test_the_sea_block_matrix_applies_h_to_the_byte():
    # H x for a vector on the sea's block: the kept one-block matrix gives
    # the bytes the whole-sector matrix gives in the block's rows, because
    # they hold the same entries in the same order, and the whole-sector
    # product is +0.0 in every other row
    rng = np.random.default_rng(22)
    for grid in BYTE_GRIDS:
        n_up, n_down = default_filling(grid)
        gs = sea_block_space(grid, n_up, n_down)
        whole = whole_sector_matrix(grid, n_up, n_down)
        inside = momentum_labels(grid, gs.states) == sea_block(grid, n_up, n_down)[0]
        np.testing.assert_array_equal(gs.matrix_rows, np.flatnonzero(inside))
        assert gs.matrix.nnz < whole.nnz and inside.sum() < len(gs.states)
        for _ in range(3):
            x = np.where(inside, rng.standard_normal(len(gs.states)), 0.0)
            product = whole @ x
            assert (gs.matrix @ x[inside]).tobytes() == product[inside].tobytes(), grid
            assert not product[~inside].any(), grid


@pytest.mark.parametrize("shape, u", [((2, 3), 4.0), ((2, 4), -2.9), ((3, 3), 6.0)])
def test_keeping_the_matrix_saves_the_two_step_bytes(shape, u):
    # a per-class solve that keeps the sea's block stores the same file as
    # that space with its matrix cut from a separate whole-sector build, to
    # the rows and columns of the sea's block; and it holds the ground space
    # of a solve with every class's smallest label as its representative
    import io

    grid = GridSpec.make(*shape, u=u)
    n_up, n_down = default_filling(grid)
    sea = fermi_sea(grid, n_up, n_down).bitstring()
    blocks = ground_space(build_kspace(grid), n_up, n_down)
    labels = momentum_labels(grid, blocks.states)
    label = int(momentum_labels(grid, sea))
    whole = whole_sector_matrix(grid, n_up, n_down)
    rows = np.flatnonzero(labels == label)
    kept = sea_block_space(grid, n_up, n_down)
    two_step = dataclasses.replace(kept, matrix=whole[rows][:, rows])
    files = []
    for space in (two_step, kept):
        files.append(io.BytesIO())
        space.save(files[-1], key="k")
    assert files[1].getvalue() == files[0].getvalue()
    np.testing.assert_array_equal(kept.matrix_rows, rows)
    assert kept.energy == pytest.approx(blocks.energy, rel=0, abs=1e-12)
    np.testing.assert_array_equal(kept.blocks, blocks.blocks)
    # the same span: the overlaps of two orthonormal bases of it are unitary
    np.testing.assert_allclose(np.linalg.svd(kept.vectors.T @ blocks.vectors)[1], 1.0,
                               rtol=0, atol=1e-12)


def test_ground_space_without_matrix_fails_to_load(tmp_path):
    gs = site_space(GridSpec.make(2, 2, u=4.0), 2, 2)
    # the fields saved before the sector matrix was stored
    write_fields(tmp_path / "bare.npys",
                 {"n_qubits": gs.n_qubits, "n_up": gs.n_up, "n_down": gs.n_down,
                  "energy": gs.energy, "vectors": gs.vectors, "states": gs.states})
    with pytest.raises(ValueError, match="matrix_data"):
        GroundSpace.load(tmp_path / "bare.npys")
    with pytest.raises(ValueError, match="does not fit"):
        GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy, gs.vectors,
                    gs.matrix[:-1, :-1].tocsr(), matrix_rows=gs.matrix_rows)
    # a kept matrix names its rows, even all of them
    with pytest.raises(ValueError, match="matrix_rows"):
        GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy, gs.vectors, gs.matrix)


def test_ground_space_load_checks_the_key(tmp_path):
    gs = site_space(GridSpec.make(2, 2, u=4.0), 2, 2)
    gs.save(tmp_path / "keyed.npys", key="real 2x2 u=4")
    gs.save(tmp_path / "plain.npys")
    loaded = GroundSpace.load(tmp_path / "keyed.npys", key="real 2x2 u=4")
    np.testing.assert_array_equal(loaded.vectors, gs.vectors)
    GroundSpace.load(tmp_path / "keyed.npys")  # no key asked for, none checked
    for name in ("keyed.npys", "plain.npys"):
        with pytest.raises(ValueError):
            GroundSpace.load(tmp_path / name, key="real 2x2 u=5")


def cache_fields(saved) -> dict:
    """Every field of a GroundSpace or PoolTables, the sector matrix as its
    shape and arrays."""
    fields = {f.name: getattr(saved, f.name) for f in dataclasses.fields(saved)}
    if "matrix" in fields:
        matrix = fields.pop("matrix")
        fields.update(matrix_shape=matrix.shape, matrix_data=matrix.data,
                      matrix_indices=matrix.indices, matrix_indptr=matrix.indptr)
    return fields


@pytest.mark.parametrize("kind", ["ground-k", "ground-real", "pool"])
def test_cache_files_round_trip_bit_exactly(tmp_path, kind):
    grid = GridSpec.make(2, 3, u=4.7)
    if kind == "pool":
        saved = PoolTables.build(grid, sector_basis(grid.n_qubits, 3, 2))
    else:
        build = build_kspace if kind == "ground-k" else build_real
        saved = ground_space(build(grid), 3, 2, keep=True)
    saved.save(tmp_path / "first.npys", key=kind)
    loaded = type(saved).load(tmp_path / "first.npys", key=kind)
    assert_same_cache_fields(loaded, saved)
    loaded.save(tmp_path / "again.npys", key=kind)
    assert (tmp_path / "again.npys").read_bytes() == (tmp_path / "first.npys").read_bytes()


def assert_same_cache_fields(got, want) -> None:
    want, got = cache_fields(want), cache_fields(got)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert type(got[name]) is type(value), name
        if isinstance(value, np.ndarray):
            assert (got[name].dtype, got[name].shape) == (value.dtype, value.shape), name
            assert got[name].tobytes() == value.tobytes(), name
        else:
            assert got[name] == value, name


def test_whole_sector_rows_are_saved_and_needed(tmp_path):
    # a site-register space keeps the whole sector's matrix, and its file
    # names every row; a file that leaves them out, as one written while
    # their absence meant every row, does not load
    grid = GridSpec.make(2, 4, u=4.0)
    gs = site_space(grid, 4, 4)
    gs.save(tmp_path / "space.npys", key="real 2x4")
    fields = read_fields(tmp_path / "space.npys", None)
    np.testing.assert_array_equal(fields.pop("matrix_rows"), np.arange(len(gs.states)))
    assert_same_cache_fields(GroundSpace.load(tmp_path / "space.npys", key="real 2x4"), gs)
    write_fields(tmp_path / "without-rows.npys", fields)
    with pytest.raises(ValueError, match="matrix_rows"):
        GroundSpace.load(tmp_path / "without-rows.npys", key="real 2x4")


def write_checked(handle, value) -> None:
    """Write value's .npy record and its crc, as write_fields writes each."""
    record = io.BytesIO()
    write_array(record, value)
    write_record(handle, record.getvalue())


def test_cache_records_are_sized_before_anything_is_allocated(tmp_path):
    path = tmp_path / "huge.npys"
    with open(path, "wb") as handle:
        write_checked(handle, np.array(["huge"]))
        write_array_header_1_0(handle, {"descr": "<f8", "fortran_order": False,
                                        "shape": (1 << 24,)})
        handle.write(bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not fit"):
            read_fields(path, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # far below the 128 MiB the header claims


@pytest.mark.parametrize("names", [np.array([1, 2]), np.array([["a", "b"]]),
                                   np.array(["a", "a"]), np.array("a")],
                         ids=["integers", "matrix", "repeated", "scalar"])
def test_cache_field_names_must_be_distinct_strings(tmp_path, names):
    path = tmp_path / "names.npys"
    with open(path, "wb") as handle:
        for record in (names, np.zeros(1), np.zeros(1)):
            write_checked(handle, record)
    with pytest.raises(ValueError, match="distinct field names"):
        read_fields(path, None)


def test_sector_hamiltonian_fast_apply():
    grid = GridSpec.make(2, 3, u=4.0)
    h = build_kspace(grid).pauli
    fast = SectorHamiltonian(h, grid.n_qubits, 3, 3)
    rng = np.random.default_rng(11)
    amps = np.zeros(1 << grid.n_qubits, dtype=np.complex128)
    amps[fast.states] = rng.normal(size=len(fast.states)) + 1j * rng.normal(size=len(fast.states))
    amps /= np.linalg.norm(amps)
    psi = StateVector(grid.n_qubits, amps)
    slow = register_apply(h, grid.n_qubits)(psi)
    quick = fast.apply(psi)
    np.testing.assert_allclose(quick.amplitudes, slow.amplitudes, atol=1e-12)
    assert fast.expectation(psi) == pytest.approx(psi.dot(slow).real, abs=1e-10)


def test_perturbation_trivial_and_sign():
    e0, e1, e2 = rs_perturbation(GridSpec.make(2, 2), 1, 1)
    assert (e0, e1, e2) == (pytest.approx(-4.0), 0.0, 0.0)

    e0, e1, e2 = rs_perturbation(GridSpec.make(2, 2, u=4.0), 1, 1)
    assert e0 == pytest.approx(-4.0, abs=1e-12)
    assert e1 == pytest.approx(1.0, abs=1e-12)  # U * sum |phi(r)|^4 = 4/16 * 4
    assert e2 < 0


def test_perturbation_rejects_degenerate_reference():
    grid = GridSpec.make(2, 2, u=4.0)
    assert fermi_sea(grid, 2, 2).degeneracy == 4
    with pytest.raises(ValueError):
        rs_perturbation(grid, 2, 2)


def test_perturbation_registers_agree():
    # the mode-register series against the same series in the site register,
    # by dense algebra in the eigenbasis of the hopping term around the
    # Slater determinant of the lowest orbital
    grid = GridSpec.make(2, 2, u=0.8)
    from_k = rs_perturbation(grid, 1, 1)

    free = GridSpec.make(2, 2)
    states = sector_basis(grid.n_qubits, 1, 1)
    h0 = dense_sector_block(build_real(free).pauli, states, grid.n_qubits)
    h1 = dense_sector_block(build_real(grid).pauli, states, grid.n_qubits) - h0
    _, w, order = real_orbital_basis(free)
    phi = slater_amplitudes(w, [order[0]], [order[0]], states)
    levels, vectors = np.linalg.eigh(h0)
    e0 = np.vdot(phi, h0 @ phi).real
    excited = np.abs(levels - e0) > 1e-8
    assert np.count_nonzero(~excited) == 1
    overlaps = vectors[:, excited].conj().T @ (h1 @ phi)
    from_r = (e0, np.vdot(phi, h1 @ phi).real,
              np.sum(np.abs(overlaps) ** 2 / (e0 - levels[excited])))
    np.testing.assert_allclose(from_k, from_r, atol=1e-10)


def test_perturbation_third_order_scaling():
    results = {}
    for u in (0.1, 0.2):
        grid = GridSpec.make(2, 2, u=u)
        e0, e1, e2 = rs_perturbation(grid, 1, 1)
        exact = ground_space(build_kspace(grid), 1, 1).energy
        results[u] = abs(exact - (e0 + e1 + e2))
    assert results[0.2] > 1e-10
    assert results[0.1] <= 0.25 * 1.2 * results[0.2]
