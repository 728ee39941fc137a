"""Hamiltonian builders, sector diagonalization, and the perturbation oracle."""

import numpy as np
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg

from vipsa.fermions import PauliSum
from vipsa.hamiltonians import (
    GroundSpace,
    SectorHamiltonian,
    as_real_if_possible,
    build_kspace,
    build_real,
    fidelity,
    ground_space,
    hamiltonian_pair,
    interaction_quadruples,
    kinetic_kspace,
    real_part,
    real_sector_matrix,
    rs_perturbation,
    sector_basis,
    sector_diagonalize,
    sector_matrix,
    spin_operators,
)
from vipsa.lattice import DOWN, UP, GridSpec, default_filling, fermi_sea, real_orbital_basis
from vipsa.statevector import (
    StateVector,
    apply_pauli_sum,
    apply_pool_generator,
    basis_state,
    expectation,
    slater_statevector,
)

from oracles import dense_pauli_sum, dense_sector_block


def test_real_2x2_dense_shape():
    grid = GridSpec.make(2, 2, u=4.0)
    h = build_real(grid)
    assert h.is_hermitian()
    dense = dense_pauli_sum(h, grid.n_qubits)
    assert np.abs(dense.imag).max() < 1e-14
    np.testing.assert_allclose(dense, dense.T.conj(), atol=1e-12)


def test_real_u0_ground_energy():
    grid = GridSpec.make(2, 2)
    eig = sector_diagonalize(build_real(grid), grid.n_qubits, 2, 2, how_many=1)
    assert eig.values[0] == pytest.approx(-4.0, abs=1e-10)


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
        after = apply_pool_generator(term, before)
        assert after.norm() == pytest.approx(1.0, abs=1e-12)
        shift = expectation(kinetic, after) - expectation(kinetic, before)
        assert shift == pytest.approx(q.energy_gap, abs=1e-10)
        checked += 1
        if checked >= 10:
            break
    assert checked == 10


def test_kspace_hermitian_and_real():
    grid = GridSpec.make(2, 3, u=4.0)
    h, quads = build_kspace(grid)
    assert h.is_hermitian()
    assert max(abs(complex(c).imag) for c, _ in h) < 1e-12
    assert all(abs(q.amplitude - 4.0 / 6.0) < 1e-12 for q in quads)


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3)])
def test_register_spectra_agree(nx, ny):
    grid = GridSpec.make(nx, ny, u=4.0)
    pair = hamiltonian_pair(grid)
    n_up = n_down = grid.n_sites // 2
    real_eig = sector_diagonalize(pair.real_space, grid.n_qubits, n_up, n_down, how_many=10 ** 9)
    k_eig = sector_diagonalize(pair.k_space, grid.n_qubits, n_up, n_down, how_many=10 ** 9)
    np.testing.assert_allclose(real_eig.values, k_eig.values, atol=1e-9)


def test_spin_operator_expectations():
    grid = GridSpec.make(2, 2)
    s_z, s_sq = spin_operators(grid.n_sites)
    assert s_z.is_hermitian() and s_sq.is_hermitian()
    sea = fermi_sea(grid, 2, 2)
    psi = basis_state(sea.occupied_qubits(), grid.n_qubits)
    assert expectation(s_z, psi) == pytest.approx(0.0, abs=1e-12)

    grid9 = GridSpec.make(3, 3)
    s_z9, _ = spin_operators(grid9.n_sites)
    sea9 = fermi_sea(grid9, 5, 4)
    psi9 = basis_state(sea9.occupied_qubits(), grid9.n_qubits)
    assert expectation(s_z9, psi9) == pytest.approx(0.5, abs=1e-12)


def test_hamiltonian_commutes_with_spin():
    grid = GridSpec.make(2, 2, u=4.0)
    h = dense_pauli_sum(build_real(grid), grid.n_qubits)
    s_z, s_sq = spin_operators(grid.n_sites)
    for op in (s_z, s_sq):
        dense = dense_pauli_sum(op, grid.n_qubits)
        comm = h @ dense - dense @ h
        assert np.abs(comm).max() < 1e-10


def test_sector_basis_dimensions():
    assert len(sector_basis(8, 2, 2)) == 36
    assert len(sector_basis(12, 3, 3)) == 400
    assert len(sector_basis(16, 4, 4)) == 4900
    assert len(sector_basis(18, 5, 4)) == 15876
    states = sector_basis(8, 2, 2)
    assert (np.diff(states.astype(np.int64)) > 0).all()
    with pytest.raises(ValueError):
        sector_basis(7, 1, 1)
    with pytest.raises(ValueError):
        sector_basis(8, 5, 0)


def test_sector_ground_matches_full_dense():
    grid = GridSpec.make(2, 2, u=4.0)
    h = build_real(grid)
    eig = sector_diagonalize(h, grid.n_qubits, 2, 2, how_many=10 ** 9)
    # independent solve: slice the sector block out of the full 256-dim matrix
    full = dense_pauli_sum(h, grid.n_qubits)
    idx = np.arange(256)
    n_up = np.bitwise_count(idx & 0b01010101)
    n_down = np.bitwise_count(idx & 0b10101010)
    keep = idx[(n_up == 2) & (n_down == 2)]
    block = np.linalg.eigvalsh(full[np.ix_(keep, keep)])
    np.testing.assert_allclose(eig.values, block, atol=1e-10)


def test_iterative_solver_matches_dense():
    grid = GridSpec.make(2, 3, u=4.0)
    h = build_real(grid)
    dense = sector_diagonalize(h, grid.n_qubits, 3, 3, how_many=6)
    krylov = sector_diagonalize(h, grid.n_qubits, 3, 3, how_many=6, dense_cutoff=10)
    np.testing.assert_allclose(dense.values, krylov.values, atol=1e-9)


def test_iterative_ground_space_is_reproducible():
    # the Lanczos start vector is fixed, so two solves agree bit for bit
    grid = GridSpec.make(2, 3, u=4.0)
    h, _ = build_kspace(grid)
    first, second = (ground_space(h, grid.n_qubits, 3, 3, dense_cutoff=0) for _ in range(2))
    np.testing.assert_array_equal(first.vectors, second.vectors)
    assert first.energy == second.energy


def test_sectors_too_small_for_lanczos_are_solved_dense():
    # a one-state sector (and one-state blocks) leave no room for a Lanczos window
    grid = GridSpec.make(2, 2, u=4.0)
    h, _ = build_kspace(grid)
    empty = ground_space(h, grid.n_qubits, 0, 0, dense_cutoff=0)
    assert empty.degeneracy == 1 and empty.energy == pytest.approx(0.0, abs=1e-12)
    single = sector_diagonalize(h, grid.n_qubits, 1, 0, how_many=10 ** 9, dense_cutoff=0)
    states = sector_basis(grid.n_qubits, 1, 0)
    np.testing.assert_allclose(
        single.values, np.linalg.eigvalsh(dense_sector_block(h, states, grid.n_qubits)),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("dense_cutoff", [400, 66, 0])  # all dense, mixed, all Lanczos
def test_block_spectra_match_the_whole_sector(dense_cutoff):
    grid = GridSpec.make(2, 3, u=4.0)
    h, _ = build_kspace(grid)
    states = sector_basis(grid.n_qubits, 3, 3)
    matrix = real_sector_matrix(h, states, grid.n_qubits)
    whole = np.linalg.eigvalsh(matrix.toarray())
    how_many = 10 ** 9 if dense_cutoff == 400 else 6
    eig = sector_diagonalize(h, grid.n_qubits, 3, 3, how_many=how_many,
                             dense_cutoff=dense_cutoff)
    assert len(eig.values) == min(how_many, len(states))
    np.testing.assert_allclose(eig.values, whole[:len(eig.values)], rtol=0, atol=1e-10)
    np.testing.assert_allclose(matrix @ eig.vectors, eig.vectors * eig.values, rtol=0, atol=1e-9)


def test_block_spectra_match_a_whole_sector_lanczos_solve():
    grid = GridSpec.make(2, 4, u=4.0)
    h, _ = build_kspace(grid)
    states = sector_basis(grid.n_qubits, 4, 4)
    matrix = real_sector_matrix(h, states, grid.n_qubits)
    assert scipy.sparse.csgraph.connected_components(matrix, directed=False)[0] == 8
    whole = scipy.sparse.linalg.eigsh(matrix, k=12, which="SA", tol=0,
                                      v0=np.random.default_rng(0).standard_normal(len(states)))[0]
    eig = sector_diagonalize(h, grid.n_qubits, 4, 4, how_many=12)
    np.testing.assert_allclose(eig.values, np.sort(whole), rtol=0, atol=1e-9)


@pytest.mark.parametrize("register,calls", [("k", 8), ("real", 1)])
def test_one_lanczos_solve_per_block(monkeypatch, register, calls):
    # the solver looks eigsh up at call time, so a patched (or traced) eigsh
    # sees every block's solve
    grid = GridSpec.make(2, 4, u=4.0)
    h = build_kspace(grid)[0] if register == "k" else build_real(grid)
    seen = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(matrix, *args, **kwargs):
        seen.append(matrix.shape[0])
        return eigsh(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    gs = ground_space(h, grid.n_qubits, 4, 4)
    assert len(seen) == calls and sum(seen) == len(gs.states)


def test_sector_block_oracle_matches_dense_slice():
    grid = GridSpec.make(2, 2, u=4.0)
    h, _ = build_kspace(grid)
    states = sector_basis(grid.n_qubits, 2, 2)
    full = dense_pauli_sum(h, grid.n_qubits)
    np.testing.assert_allclose(dense_sector_block(h, states, grid.n_qubits),
                               full[np.ix_(states, states)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
@pytest.mark.parametrize("register", ["k", "real"])
def test_sector_matrix_stores_only_nonzeros(shape, register):
    grid = GridSpec.make(*shape, u=4.0)
    h = build_kspace(grid)[0] if register == "k" else build_real(grid)
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    matrix = sector_matrix(h, states, grid.n_qubits)
    assert matrix.nnz == matrix.count_nonzero()
    np.testing.assert_allclose(matrix.toarray(), dense_sector_block(h, states, grid.n_qubits),
                               rtol=0, atol=1e-12)
    for real in (real_part(matrix), as_real_if_possible(matrix)):
        assert real.data.dtype == np.float64 and real.data.flags.c_contiguous
        np.testing.assert_array_equal(real.toarray(), matrix.toarray().real)


def test_sector_violation_detected():
    bad = PauliSum.from_terms([(1.0, ((0, "X"),))])
    states = sector_basis(4, 1, 1)
    with pytest.raises(ValueError):
        sector_matrix(bad, states, 4)


def test_ground_space_free_sea_and_fidelity():
    grid = GridSpec.make(2, 2)
    gs = ground_space(kinetic_kspace(grid), grid.n_qubits, 2, 2)
    assert gs.degeneracy == 4
    assert gs.energy == pytest.approx(-4.0, abs=1e-10)

    sea = fermi_sea(grid, 2, 2)
    psi = basis_state(sea.occupied_qubits(), grid.n_qubits)
    assert fidelity(psi, gs) == pytest.approx(1.0, abs=1e-10)

    # a state built from an unoccupied-shell mode is orthogonal to the multiplet
    top = basis_state({6, 7, 0, 1}, grid.n_qubits)
    weight = fidelity(top, gs)
    assert weight == pytest.approx(0.0, abs=1e-10)

    # fidelity is invariant under re-basing the ground space
    rng = np.random.default_rng(3)
    random = rng.normal(size=(gs.degeneracy, gs.degeneracy))
    q, _ = np.linalg.qr(random)
    rotated = GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy,
                          gs.vectors @ q, gs.states, gs.matrix)
    mixed = StateVector(grid.n_qubits,
                        psi.amplitudes * 0.8 + 0.6 * basis_state({0, 1, 2, 3}, 8).amplitudes)
    assert fidelity(mixed, rotated) == pytest.approx(fidelity(mixed, gs), abs=1e-10)


def test_ground_space_roundtrip(tmp_path):
    grid = GridSpec.make(2, 2, u=4.0)
    gs = ground_space(build_real(grid), grid.n_qubits, 2, 2)
    path = tmp_path / "gs.npz"
    gs.save(path)
    loaded = GroundSpace.load(path)
    assert loaded.energy == gs.energy
    assert loaded.degeneracy == gs.degeneracy
    np.testing.assert_array_equal(loaded.states, gs.states)
    np.testing.assert_allclose(loaded.vectors, gs.vectors)


@pytest.mark.parametrize("register", ["k", "real"])
def test_ground_space_keeps_the_sector_matrix(tmp_path, register):
    grid = GridSpec.make(2, 3, u=4.0)
    h = build_kspace(grid)[0] if register == "k" else build_real(grid)
    gs = ground_space(h, grid.n_qubits, 3, 3, dense_cutoff=0)
    fresh = as_real_if_possible(sector_matrix(h, gs.states, grid.n_qubits))
    gs.save(tmp_path / "gs.npz")
    for matrix in (gs.matrix, GroundSpace.load(tmp_path / "gs.npz").matrix):
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(matrix, part), getattr(fresh, part))
            assert getattr(matrix, part).dtype == getattr(fresh, part).dtype
        assert matrix.shape == fresh.shape


def test_ground_space_without_matrix_fails_to_load(tmp_path):
    grid = GridSpec.make(2, 2, u=4.0)
    gs = ground_space(build_real(grid), grid.n_qubits, 2, 2)
    # the file format before the sector matrix was stored
    np.savez(tmp_path / "bare.npz", n_qubits=gs.n_qubits, n_up=gs.n_up, n_down=gs.n_down,
             energy=gs.energy, vectors=gs.vectors, states=gs.states)
    with pytest.raises(KeyError):
        GroundSpace.load(tmp_path / "bare.npz")
    with pytest.raises(ValueError, match="does not fit"):
        GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy, gs.vectors,
                    gs.states[:-1], gs.matrix)


def test_ground_space_load_checks_the_key(tmp_path):
    grid = GridSpec.make(2, 2, u=4.0)
    gs = ground_space(build_real(grid), grid.n_qubits, 2, 2)
    gs.save(tmp_path / "keyed.npz", key="real 2x2 u=4")
    gs.save(tmp_path / "plain.npz")
    loaded = GroundSpace.load(tmp_path / "keyed.npz", key="real 2x2 u=4")
    np.testing.assert_array_equal(loaded.vectors, gs.vectors)
    GroundSpace.load(tmp_path / "keyed.npz")  # no key asked for, none checked
    for name in ("keyed.npz", "plain.npz"):
        with pytest.raises(ValueError):
            GroundSpace.load(tmp_path / name, key="real 2x2 u=5")


def test_sector_hamiltonian_fast_apply():
    grid = GridSpec.make(2, 3, u=4.0)
    h, _ = build_kspace(grid)
    fast = SectorHamiltonian(h, grid.n_qubits, 3, 3)
    rng = np.random.default_rng(11)
    amps = np.zeros(1 << grid.n_qubits, dtype=np.complex128)
    amps[fast.states] = rng.normal(size=len(fast.states)) + 1j * rng.normal(size=len(fast.states))
    amps /= np.linalg.norm(amps)
    psi = StateVector(grid.n_qubits, amps)
    slow = apply_pauli_sum(h, psi)
    quick = fast.apply(psi)
    np.testing.assert_allclose(quick.amplitudes, slow.amplitudes, atol=1e-12)
    assert fast.expectation(psi) == pytest.approx(expectation(h, psi), abs=1e-10)


def test_perturbation_trivial_and_sign():
    grid = GridSpec.make(2, 2, u=4.0)
    h0 = kinetic_kspace(grid)
    sea = fermi_sea(grid, 1, 1)
    phi0 = basis_state(sea.occupied_qubits(), grid.n_qubits)
    e0, e1, e2 = rs_perturbation(h0, PauliSum.zero(), phi0)
    assert (e0, e1, e2) == (pytest.approx(-4.0), 0.0, 0.0)

    h_full, _ = build_kspace(grid)
    e0, e1, e2 = rs_perturbation(h0, h_full - h0, phi0)
    assert e0 == pytest.approx(-4.0, abs=1e-12)
    assert e1 == pytest.approx(1.0, abs=1e-12)  # U * sum |phi(r)|^4 = 4/16 * 4
    assert e2 < 0


def test_perturbation_rejects_degenerate_reference():
    grid = GridSpec.make(2, 2, u=4.0)
    sea = fermi_sea(grid, 2, 2)
    assert sea.degeneracy == 4
    phi0 = basis_state(sea.occupied_qubits(), grid.n_qubits)
    h_full, _ = build_kspace(grid)
    h0 = kinetic_kspace(grid)
    with pytest.raises(ValueError):
        rs_perturbation(h0, h_full - h0, phi0)


def test_perturbation_registers_agree():
    # same physics through the diagonal path (mode register) and the dense
    # eigenbasis path (site register)
    u = 0.8
    grid = GridSpec.make(2, 2, u=u)
    h0_k = kinetic_kspace(grid)
    h_k, _ = build_kspace(grid)
    sea = fermi_sea(grid, 1, 1)
    phi_k = basis_state(sea.occupied_qubits(), grid.n_qubits)
    from_k = rs_perturbation(h0_k, h_k - h0_k, phi_k)

    free = GridSpec.make(2, 2)
    h0_r = build_real(free)
    h1_r = build_real(grid) - h0_r
    _, w, order = real_orbital_basis(free)
    phi_r = slater_statevector(w, [order[0]], [order[0]])
    from_r = rs_perturbation(h0_r, h1_r, phi_r)
    np.testing.assert_allclose(from_k, from_r, atol=1e-10)


def test_perturbation_third_order_scaling():
    results = {}
    for u in (0.1, 0.2):
        grid = GridSpec.make(2, 2, u=u)
        h0 = kinetic_kspace(grid)
        h, _ = build_kspace(grid)
        sea = fermi_sea(grid, 1, 1)
        phi0 = basis_state(sea.occupied_qubits(), grid.n_qubits)
        e0, e1, e2 = rs_perturbation(h0, h - h0, phi0)
        exact = sector_diagonalize(h, grid.n_qubits, 1, 1, how_many=1).values[0]
        results[u] = abs(exact - (e0 + e1 + e2))
    assert results[0.2] > 1e-10
    assert results[0.1] <= 0.25 * 1.2 * results[0.2]
