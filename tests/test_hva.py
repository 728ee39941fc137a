"""Layered ansatz: layout, exactness, stationary start, optimization."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from vipsa.core import VipsaConfig
from vipsa.fermions import hopping_pair, jordan_wigner_sum
from vipsa.hamiltonians import (
    SectorHamiltonian,
    build_real,
    fidelity,
    onsite_interaction,
    spin_operators,
)
from vipsa.lattice import DOWN, UP, GridSpec, default_filling, hopping_edges, qubit_index, real_orbital_basis
from vipsa.hva import HvaAnsatz, build_layout, edge_matchings, hva_run
from vipsa.statevector import (
    AnsatzCircuit,
    HoppingRotation,
    SectorPhase,
    diagonal_values,
    sector_run,
)
from builds import site_space
from oracles import adjoint_evaluation, basis_state, dense_pauli_sum
from replay import (
    hva_circuit,
    hva_energy_and_gradient,
    kept_amplitudes,
    refuse_full_register,
    refuse_pauli_path,
    register_expectation,
)

TOL = 1e-12


PARAMS_PER_LAYER = {(2, 2): 3, (2, 3): 5, (2, 4): 4, (3, 3): 7}


@pytest.mark.parametrize("shape", sorted(PARAMS_PER_LAYER))
def test_layout_parameter_counts(shape):
    layout = build_layout(GridSpec.make(*shape), layers=10)
    assert layout.params_per_layer == PARAMS_PER_LAYER[shape]
    assert layout.n_params == 10 * PARAMS_PER_LAYER[shape]


def test_layout_rejects_zero_layers():
    with pytest.raises(ValueError):
        build_layout(GridSpec.make(2, 2), layers=0)


@pytest.mark.parametrize("shape", sorted(PARAMS_PER_LAYER))
def test_matchings_are_vertex_disjoint_and_complete(shape):
    grid = GridSpec.make(*shape)
    horizontal, vertical = hopping_edges(grid)
    layout = build_layout(grid)
    for matchings, edges in ((layout.horizontal, horizontal),
                             (layout.vertical, vertical)):
        seen = []
        for matching in matchings:
            sites = [s for edge in matching for s in edge]
            assert len(sites) == len(set(sites))
            seen.extend(matching)
        assert sorted(seen) == sorted(edges)


def test_edge_matchings_on_a_triangle():
    # a 3-cycle cannot be covered by fewer than 3 matchings
    assert edge_matchings([(0, 1), (1, 2), (2, 0)]) == [[(0, 1)], [(1, 2)], [(2, 0)]]


def matching_generator(matching, n_qubits):
    terms = [term
             for i, j in matching for spin in (UP, DOWN)
             for term in hopping_pair(qubit_index(i, spin), qubit_index(j, spin))]
    return jordan_wigner_sum(terms, n_qubits)


def test_matching_layer_equals_matrix_exponential():
    grid = GridSpec.make(2, 2, u=3.0)
    layout = build_layout(grid, layers=1)
    theta = 0.37
    for matching in layout.horizontal + layout.vertical:
        gates = [HoppingRotation(hopping_pair(qubit_index(i, spin), qubit_index(j, spin)),
                                 theta)
                 for i, j in matching for spin in (UP, DOWN)]
        dim = 2 ** grid.n_qubits
        acted = np.empty((dim, dim), dtype=complex)
        for col in range(dim):
            state = basis_state([q for q in range(grid.n_qubits) if (col >> q) & 1],
                                grid.n_qubits)
            circuit = AnsatzCircuit(state, list(gates))
            acted[:, col] = circuit.run().amplitudes
        generator = dense_pauli_sum(matching_generator(matching, grid.n_qubits),
                                    grid.n_qubits)
        exact = expm(-1j * theta * generator)
        assert np.max(np.abs(acted - exact)) < 1e-10


def slater_reference_energy(grid, n_up, n_down):
    """Wick evaluation of the Slater expectation of the full model."""
    energies, w, order = real_orbital_basis(grid)
    hopping = sum(energies[s] for s in order[:n_up])
    hopping += sum(energies[s] for s in order[:n_down])
    dens_up = (w[:, order[:n_up]] ** 2).sum(axis=1)
    dens_dn = (w[:, order[:n_down]] ** 2).sum(axis=1)
    return hopping + grid.u * float(dens_up @ dens_dn)


@pytest.mark.parametrize("shape,filling", [((2, 2), (2, 2)), ((2, 3), (3, 3))])
def test_zero_parameters_are_stationary(shape, filling):
    grid = GridSpec.make(*shape, u=2.0)
    ansatz = HvaAnsatz(grid, *filling)
    sector = SectorHamiltonian(build_real(grid).pauli, grid.n_qubits, *filling)
    energy, grads = hva_energy_and_gradient(ansatz, np.zeros(ansatz.n_params), sector.apply)
    assert energy == pytest.approx(slater_reference_energy(grid, *filling), abs=1e-10)
    assert np.max(np.abs(grads)) <= 1e-10


@pytest.mark.parametrize("u", [0.0, 1.0, 4.0, 6.5, 1e3])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_the_recorded_zero_point_is_exactly_stationary(shape, u):
    # hva_run starts ADAM at STATIONARY_KICK without looking at the zero
    # point's gradient: H is real, x0 is real and every generator is
    # imaginary, so that gradient is 0 to the bit
    grid = GridSpec.make(*shape, u=u)
    reference = site_space(grid, *default_filling(grid))
    for layers in (1, 3, 10):
        result = hva_run(grid, config=VipsaConfig(max_inner_steps=1), layers=layers,
                         reference=reference)
        assert result.records[0].max_gradient == 0.0


def test_states_are_normalized_and_complex_off_axis():
    grid = GridSpec.make(2, 2, u=2.0)
    ansatz = HvaAnsatz(grid, 2, 2)
    zero_state = hva_circuit(ansatz, np.zeros(ansatz.n_params)).run()
    assert zero_state.max_imag() == 0.0
    params = np.full(ansatz.n_params, 0.2)
    state = hva_circuit(ansatz, params).run()
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    assert state.max_imag() > 1e-3  # interaction phases leave the real axis


def test_angles_reject_wrong_length():
    ansatz = HvaAnsatz(GridSpec.make(2, 2, u=1.0), 2, 2)
    with pytest.raises(ValueError):
        ansatz.angles(np.zeros(ansatz.n_params + 1))


def test_optimization_reaches_ground_state():
    grid = GridSpec.make(2, 2, u=2.0)
    gs = site_space(grid, 2, 2)
    config = VipsaConfig(max_inner_steps=2000, eps2=1e-6)
    result = hva_run(grid, config=config, reference=gs)
    assert len(result.records) <= 2001 + 1
    assert result.final_energy - gs.energy <= 0.1
    assert result.records[0].energy == pytest.approx(
        slater_reference_energy(grid, 2, 2), abs=1e-10)
    assert len(result.history) == len(result.records)
    assert not result.history[0].any()
    assert result.final_fidelity > 0.9


def test_trajectory_conserves_spin():
    grid = GridSpec.make(2, 2, u=4.0)
    config = VipsaConfig(max_inner_steps=40, eps2=1e-6)
    result = hva_run(grid, config=config)
    sz, s2 = spin_operators(grid.n_sites)
    values = []
    for row in result.history[:: max(1, len(result.history) // 8)]:
        state = hva_circuit(result.ansatz, row).run()
        values.append((register_expectation(sz, state), register_expectation(s2, state)))
    base_sz, base_s2 = values[0]
    for got_sz, got_s2 in values[1:]:
        assert got_sz == pytest.approx(base_sz, abs=1e-8)
        assert got_s2 == pytest.approx(base_s2, abs=1e-8)


@lru_cache(maxsize=None)
def hva_problem(nx, ny, u, layers):
    grid = GridSpec.make(nx, ny, u=u)
    filling = default_filling(grid)
    h = build_real(grid).pauli
    sector = SectorHamiltonian(h, grid.n_qubits, *filling)
    return (HvaAnsatz(grid, *filling, layers), sector,
            site_space(grid, *filling))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sector_evaluation_matches_full_register(shape, seed):
    ansatz, sector, gs = hva_problem(*shape, 4.0, 3)
    params = np.random.default_rng(seed).uniform(-1.0, 1.0, ansatz.n_params)
    energy, grads = hva_energy_and_gradient(ansatz, params, sector.apply)

    thetas = ansatz.angles(params)
    x = sector_run(ansatz.x0, ansatz.sector_gates, thetas)
    replayed = kept_amplitudes(hva_circuit(ansatz, params).run(), gs)
    assert abs(fidelity(x, gs) - fidelity(replayed, gs)) <= TOL
    got_energy, per_gate = adjoint_evaluation(
        ansatz.x0, ansatz.sector_gates, thetas, sector.matrix, final=x)
    assert abs(got_energy - energy) <= TOL
    np.testing.assert_allclose(ansatz.fold(per_gate), grads, rtol=0, atol=TOL)


def test_run_records_match_full_register_replay():
    ansatz, sector, gs = hva_problem(2, 3, 4.0, 3)
    result = hva_run(ansatz.grid, config=VipsaConfig(max_inner_steps=12, eps2=1e-9),
                     layers=3, reference=gs)
    assert len(result.records) == len(result.history) > 2
    for record, params in zip(result.records, result.history):
        energy, _ = hva_energy_and_gradient(result.ansatz, params, sector.apply)
        assert abs(record.energy - energy) <= TOL
        replayed = kept_amplitudes(hva_circuit(result.ansatz, params).run(), gs)
        assert abs(record.fidelity - fidelity(replayed, gs)) <= TOL
    final = fidelity(kept_amplitudes(hva_circuit(result.ansatz, result.parameters).run(), gs), gs)
    assert abs(result.final_fidelity - final) <= TOL


@pytest.mark.parametrize("steps", [1, 2, 15])
def test_final_fidelity_is_that_of_the_returned_parameters(steps):
    # taken from the best evaluation's record, with no extra forward pass
    ansatz, _, gs = hva_problem(2, 3, 4.0, 3)
    result = hva_run(ansatz.grid, config=VipsaConfig(max_inner_steps=steps), layers=3,
                     reference=gs)
    returned = result.ansatz
    x = sector_run(returned.x0, returned.sector_gates, returned.angles(result.parameters))
    assert result.final_fidelity == fidelity(x, gs)


def test_run_rejects_reference_over_another_sector():
    grid = GridSpec.make(2, 2, u=4.0)
    other = site_space(grid, 3, 1)
    with pytest.raises(ValueError):
        hva_run(grid, 2, 2, config=VipsaConfig(max_inner_steps=1), layers=1, reference=other)


def test_run_path_stays_off_the_full_register(monkeypatch):
    refuse_full_register(monkeypatch)
    result = hva_run(GridSpec.make(2, 2, u=4.0), config=VipsaConfig(max_inner_steps=5),
                     layers=2)
    assert len(result.records) == 7


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 4)])
@pytest.mark.parametrize("u", [4.0, 0.3, 4.7, -2.9])
def test_interaction_phase_matches_the_pauli_sum(shape, u):
    grid = GridSpec.make(*shape, u=u)
    n_sites = grid.n_sites
    for filling in (default_filling(grid), (n_sites // 2 + 1, n_sites // 2 - 1)):
        ansatz = HvaAnsatz(grid, *filling, layers=1)
        phase, = {gate for gate in ansatz.sector_gates if isinstance(gate, SectorPhase)}
        pauli = diagonal_values(onsite_interaction(grid), grid.n_qubits, ansatz.states)
        if u == 4.0:  # U/4 and its sums are exact
            np.testing.assert_array_equal(phase.values, pauli)
        else:
            np.testing.assert_allclose(phase.values, pauli, rtol=0, atol=1e-12 * abs(u))


def test_run_with_a_reference_builds_no_pauli_strings(monkeypatch):
    # with the Jordan-Wigner map and the Pauli-sum sector matrix made to raise
    # at every name a vipsa module looks them up by, a run handed its
    # reference gives the same records
    grid = GridSpec.make(2, 3, u=4.0)
    reference = site_space(grid, 3, 3)

    def run():
        return hva_run(grid, config=VipsaConfig(max_inner_steps=4), layers=2,
                       reference=reference)

    expected = run()
    refuse_pauli_path(monkeypatch)
    got = run()
    assert got.records == expected.records
    np.testing.assert_array_equal(got.history, expected.history)
