"""Adaptive-loop components: pool, gradients, selection, ADAM, first order."""

from dataclasses import replace

import numpy as np
import pytest

from vipsa.core import (
    VipsaConfig,
    adam_minimize,
    build_pool,
    first_order_oracle,
    pool_gradients,
    select,
    vipsa_run,
)
from vipsa.fermions import jordan_wigner_sum
from vipsa.hamiltonians import (
    SectorHamiltonian,
    build_kspace,
    fidelity,
    ground_space,
    spin_operators,
)
from vipsa.lattice import GridSpec, fermi_sea
from vipsa.statevector import (
    AnsatzCircuit,
    PoolRotation,
    basis_state,
    expectation,
)
from oracles import dense_pauli_sum


def u4(nx, ny):
    return GridSpec.make(nx, ny, u=4.0)


# Golden counts from a standalone enumeration of mode quadruples with
# nonzero amplitude and nonzero energy gap, one orientation per pair.
POOL_SIZES = {(2, 2): 13, (2, 3): 63, (2, 4): 130, (3, 3): 232}


@pytest.mark.parametrize("shape", sorted(POOL_SIZES))
def test_pool_sizes(shape):
    pool = build_pool(u4(*shape))
    assert len(pool) == POOL_SIZES[shape]


@pytest.mark.parametrize("shape", sorted(POOL_SIZES))
def test_pool_structure(shape):
    pool = build_pool(u4(*shape))
    labels = [p.label for p in pool]
    assert len(set(labels)) == len(labels)
    forward = set()
    for p in pool:
        q = p.quadruple
        assert abs(q.energy_gap) > 1e-9
        assert not q.is_diagonal
        assert abs(q.amplitude) > 1e-12
        key = (q.up_to, q.down_to, q.down_from, q.up_from)
        assert q.conjugate_indices() not in forward  # one orientation per pair
        forward.add(key)


def test_pool_zero_coupling_is_empty():
    assert build_pool(GridSpec.make(2, 3, u=0.0)) == []


def test_pool_generators_are_antihermitian():
    grid = u4(2, 2)
    for p in build_pool(grid):
        a = p.generator(grid.n_qubits)
        assert len(a + a.dagger()) == 0


def test_pool_generators_conserve_sz_not_s2():
    grid = u4(2, 2)
    sz, s2 = spin_operators(grid.n_sites)
    dense_sz = dense_pauli_sum(sz, grid.n_qubits)
    dense_s2 = dense_pauli_sum(s2, grid.n_qubits)
    broke_s2 = 0
    for p in build_pool(grid):
        a = dense_pauli_sum(p.generator(grid.n_qubits), grid.n_qubits)
        assert np.max(np.abs(a @ dense_sz - dense_sz @ a)) < 1e-10
        if np.max(np.abs(a @ dense_s2 - dense_s2 @ a)) > 1e-8:
            broke_s2 += 1
    assert broke_s2 > 0  # the pool explores beyond the total-spin symmetry


def sea_state(grid, n_up, n_down):
    sea = fermi_sea(grid, n_up, n_down)
    return basis_state(sea.occupied_qubits(), grid.n_qubits), sea


def test_pool_gradients_match_finite_difference():
    grid = u4(2, 2)
    h, _ = build_kspace(grid)
    pool = build_pool(grid)
    psi, _ = sea_state(grid, 2, 2)
    grads = pool_gradients(psi, h, pool)
    step = 1e-6
    for i in (0, 3, 7, len(pool) - 1):
        circuit = AnsatzCircuit(psi, [PoolRotation(pool[i].term, 0.0)])
        circuit.set_thetas([step])
        e_plus = expectation(h, circuit.run())
        circuit.set_thetas([-step])
        e_minus = expectation(h, circuit.run())
        assert grads[i] == pytest.approx((e_plus - e_minus) / (2 * step), abs=1e-6)


def test_annihilating_operators_have_zero_gradient():
    grid = u4(3, 3)
    h, _ = build_kspace(grid)
    pool = build_pool(grid)
    psi, sea = sea_state(grid, 5, 4)
    occ_up = {m.slot for m in sea.occupied_up}
    occ_dn = {m.slot for m in sea.occupied_down}
    grads = pool_gradients(psi, h, pool)

    checked = 0
    for p, g in zip(pool, grads):
        q = p.quadruple
        # O survives if its sources are occupied and targets free; O† the reverse
        forward = (q.up_from in occ_up and q.down_from in occ_dn
                   and q.up_to not in occ_up and q.down_to not in occ_dn)
        backward = (q.up_to in occ_up and q.down_to in occ_dn
                    and q.up_from not in occ_up and q.down_from not in occ_dn)
        if not forward and not backward:
            assert g == 0.0
            checked += 1
    assert checked > 0


def test_select_threshold_and_order():
    chosen = select(np.array([1.0, 0.5, 0.09]), 0.1, ["a", "b", "c"])
    assert chosen == [0, 1]
    chosen = select(np.array([-0.2, 0.7, 0.7]), 0.5, ["z", "y", "x"])
    assert chosen == [2, 1]  # equal magnitudes fall back to label order
    assert select(np.zeros(4), 0.1, list("abcd")) == []
    assert select(np.array([0.3, -0.9, 0.2]), 1.0, list("abc")) == [1]


def test_select_rejects_bad_ratio():
    with pytest.raises(ValueError):
        select(np.array([1.0]), 0.0, ["a"])
    with pytest.raises(ValueError):
        select(np.array([1.0]), 1.5, ["a"])


def quadratic(center):
    def evaluate(thetas):
        delta = thetas - center
        return float(delta @ delta), 2.0 * delta
    return evaluate


def test_adam_first_step_is_lr_sized():
    config = VipsaConfig(max_inner_steps=1)
    seen = []
    center = np.array([1.0, -2.0, 0.5])

    def spy(thetas):
        seen.append(thetas.copy())
        return quadratic(center)(thetas)

    adam_minimize(np.zeros(3), spy, config)
    first = seen[1] - seen[0]
    # bias correction makes the first update exactly lr * sign(gradient)
    assert np.allclose(first, config.lr * np.sign(center), atol=1e-10)


def test_adam_zero_gradient_converges_immediately():
    result = adam_minimize(np.array([0.7]), lambda t: (1.5, np.zeros(1)), VipsaConfig())
    assert result.converged and result.steps == 0
    assert result.thetas[0] == 0.7 and result.energy == 1.5


def test_adam_reaches_quadratic_minimum():
    config = VipsaConfig(max_inner_steps=2000, eps2=1e-8, convergence_window=20)
    result = adam_minimize(np.zeros(3), quadratic(np.array([0.3, -0.4, 0.1])), config)
    assert result.energy < 1e-6
    assert result.converged


def test_adam_returns_best_visited_point():
    energies = iter([5.0, 3.0, 1.0, 4.0, 4.0, 4.0])

    def bouncy(thetas):
        return next(energies), np.array([1.0])

    config = VipsaConfig(max_inner_steps=5, eps2=0.5, convergence_window=2)
    result = adam_minimize(np.zeros(1), bouncy, config)
    assert result.energy == 1.0  # not the last evaluation


def test_adam_rejects_non_finite_energy():
    with pytest.raises(RuntimeError):
        adam_minimize(np.zeros(1), lambda t: (float("nan"), np.ones(1)), VipsaConfig())


def test_adam_is_deterministic():
    config = VipsaConfig(max_inner_steps=50, eps2=1e-9)
    runs = [adam_minimize(np.zeros(2), quadratic(np.array([0.2, -0.7])), config,
                          keep_history=True) for _ in range(2)]
    assert np.array_equal(runs[0].history, runs[1].history)
    assert np.array_equal(runs[0].energies, runs[1].energies)


def test_config_validation():
    with pytest.raises(ValueError):
        VipsaConfig(r=0.0)
    with pytest.raises(ValueError):
        VipsaConfig(eps1=-1.0)
    with pytest.raises(ValueError):
        VipsaConfig(convergence_window=0)


def test_run_without_coupling_stops_at_sea():
    grid = GridSpec.make(2, 3, u=0.0)
    result = vipsa_run(grid)
    assert result.status == "converged"
    assert len(result.records) == 1
    record = result.records[0]
    assert record.epoch == 0 and record.max_gradient == 0.0
    assert record.selected == () and record.n_params == 0
    sea = fermi_sea(grid, 3, 3)
    assert result.final_energy == pytest.approx(sea.energy, abs=1e-12)
    assert record.fidelity == pytest.approx(1.0, abs=1e-10)


def test_run_energies_descend():
    grid = u4(2, 2)
    result = vipsa_run(grid, config=VipsaConfig(max_epochs=4))
    energies = [r.energy for r in result.records]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    assert result.records[0].selected  # interacting problem selects something
    assert result.pool_size == POOL_SIZES[(2, 2)]


def test_run_records_match_full_register_replay():
    # a run cut after k epochs repeats the first k records, and its returned
    # circuit, replayed on the full register, gives the k-th record's numbers
    grid = GridSpec.make(2, 3, u=4.0)
    h, _ = build_kspace(grid)
    config = VipsaConfig(max_epochs=3, max_inner_steps=40)
    full = vipsa_run(grid, config=config)
    for epochs in range(1, len(full.records) + 1):
        run = vipsa_run(grid, config=replace(config, max_epochs=epochs), reference=full.ground)
        assert run.records == full.records[:epochs]
        psi = run.circuit.run()
        assert abs(expectation(h, psi) - run.records[-1].energy) <= 1e-12
        assert abs(fidelity(psi, run.ground) - run.records[-1].fidelity) <= 1e-12
        assert psi.max_imag() <= 1e-12


def test_run_rejects_reference_from_another_sector():
    grid = u4(2, 2)
    other = ground_space(build_kspace(grid)[0], grid.n_qubits, 1, 2)
    with pytest.raises(ValueError):
        vipsa_run(grid, 2, 2, reference=other)


def test_run_first_epoch_selection_is_clean():
    grid = u4(2, 2)
    result = vipsa_run(grid, config=VipsaConfig(max_epochs=1))
    pool = {p.label: p for p in build_pool(grid)}
    psi, sea = sea_state(grid, 2, 2)
    occ_up = {m.slot for m in sea.occupied_up}
    occ_dn = {m.slot for m in sea.occupied_down}
    for label in result.records[0].selected:
        q = pool[label].quadruple
        assert abs(q.energy_gap) > 1e-9
        # at least one orientation moves occupied modes into free ones
        forward = (q.up_from in occ_up and q.down_from in occ_dn
                   and q.up_to not in occ_up and q.down_to not in occ_dn)
        backward = (q.up_to in occ_up and q.down_to in occ_dn
                    and q.up_from not in occ_up and q.down_from not in occ_dn)
        assert forward or backward


def test_first_order_without_coupling_is_identity():
    grid = GridSpec.make(2, 3, u=0.0)
    result = first_order_oracle(grid, 3, 3)
    assert len(result.thetas) == 0
    psi, _ = sea_state(grid, 3, 3)
    assert abs(result.reference.dot(psi)) == pytest.approx(1.0, abs=1e-12)
    assert abs(result.sequential.dot(psi)) == pytest.approx(1.0, abs=1e-12)


def test_first_order_states_agree_to_second_order():
    norms = {}
    for u in (0.1, 0.05):
        result = first_order_oracle(GridSpec.make(2, 4, u=u), 4, 4)
        diff = result.sequential.amplitudes - result.reference.amplitudes
        norms[u] = np.linalg.norm(diff)
    ratio = norms[0.1] / norms[0.05]
    assert 3.2 <= ratio <= 4.8


def test_first_order_rejects_strong_coupling():
    with pytest.raises(ValueError):
        first_order_oracle(GridSpec.make(2, 2, u=400.0), 2, 2)


def test_first_order_angles_match_amplitudes():
    grid = GridSpec.make(2, 2, u=0.3)
    result = first_order_oracle(grid, 2, 2)
    pool = build_pool(grid)
    assert len(result.thetas) == len(pool)
    for theta, p in zip(result.thetas, pool):
        assert np.sin(theta) == pytest.approx(-p.amplitude / p.eps, abs=1e-12)
