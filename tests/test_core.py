"""Adaptive-loop components: pool, gradients, selection, ADAM, first order."""

import importlib
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import vipsa
from vipsa.core import (
    ADAM_LR,
    PoolTables,
    VipsaConfig,
    adam_minimize,
    build_pool,
    first_order_oracle,
    pool_class,
    pool_gradients,
    rs_perturbation,
    sector_pool_gradients,
    select,
    vipsa_run,
)
from vipsa.fermions import jordan_wigner
from vipsa.hamiltonians import (
    GroundSpace,
    build_kspace,
    fidelity,
    ground_space,
    interaction_quadruples,
    kinetic_kspace,
    sector_basis,
    sector_matrix,
    spin_operators,
)
from vipsa.lattice import DEGENERACY_TOL, GridSpec, default_filling, fermi_sea
from vipsa.statevector import (
    AnsatzCircuit,
    PoolRotation,
    apply_pauli_sum,
    basis_state,
    expectation,
    sector_orbit,
)
from oracles import dense_pauli_sum
from replay import adaptive_circuit, refuse_full_register


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


@pytest.mark.parametrize("shape", sorted(POOL_SIZES))
def test_pool_classes_partition_the_table(shape):
    grid = u4(*shape)
    table = interaction_quadruples(grid)
    classes = [pool_class(q) for q in table]
    assert set(classes) <= {"diagonal", "one-sided", "zero-gap", "pool"}
    assert classes.count("pool") == 2 * len(build_pool(grid))
    pooled = {p.quadruple for p in build_pool(grid)}
    assert all(pool_class(q) == "pool" for q in pooled)
    for q, cls in zip(table, classes):
        if cls == "diagonal":
            assert q.is_diagonal
        elif cls == "zero-gap":
            assert abs(q.energy_gap) <= 1e-9


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


def sea_vector(grid, n_up, n_down):
    """The Fermi sea over the sorted sector basis, with that basis."""
    states = sector_basis(grid.n_qubits, n_up, n_down)
    sea = fermi_sea(grid, n_up, n_down)
    return (states == sum(1 << q for q in sea.occupied_qubits())).astype(float), states, sea


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_pool_tables_load_bit_identical(tmp_path, shape):
    grid = u4(*shape)
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    pool = build_pool(grid)
    built = PoolTables.build(grid, states)
    built.save(tmp_path / "pool.npys", key="pool tables")
    loaded = PoolTables.load(tmp_path / "pool.npys", key="pool tables")
    assert built.labels == loaded.labels == tuple(p.label for p in pool)
    np.testing.assert_array_equal(loaded.states, states)
    reference = [sector_orbit(p.term, states) for p in pool]
    for tables in (built, loaded):
        orbits = tables.orbits()
        assert len(orbits) == len(reference)
        for orbit, expected in zip(orbits, reference):
            assert orbit.phase == expected.phase
            for got, want in zip(orbit[:3], expected[:3]):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def decreasing_offsets(t):
    offsets = t.offsets.copy()
    offsets[1] = offsets[2] + 1
    return {"offsets": offsets}


TABLE_DAMAGE = {
    "label-dropped": (lambda t: {"labels": t.labels[:-1]}, "offsets do not fit"),
    "offsets-shifted": (lambda t: {"offsets": t.offsets + 1}, "start at 0"),
    "offsets-decreasing": (decreasing_offsets, "never decrease"),
    "sign-short": (lambda t: {"sign": t.sign[:-1]}, "flat arrays"),
    "dst-past-end": (lambda t: {"dst": np.where(t.dst == t.dst.max(), len(t.states), t.dst)},
                     "leave the"),
    "src-negative": (lambda t: {"src": np.where(t.src == t.src.min(), -1, t.src)}, "leave the"),
    "sign-scaled": (lambda t: {"sign": 2.0 * t.sign}, "signs"),
}


@pytest.mark.parametrize("damage", sorted(TABLE_DAMAGE))
def test_pool_tables_must_fit_together(tmp_path, damage):
    grid = u4(2, 2)
    tables = PoolTables.build(grid, sector_basis(grid.n_qubits, 2, 2))
    change, message = TABLE_DAMAGE[damage]
    with pytest.raises(ValueError, match=message):
        replace(tables, **change(tables))


def test_pool_tables_load_checks_the_key(tmp_path):
    grid = u4(2, 2)
    PoolTables.build(grid, sector_basis(grid.n_qubits, 2, 2)).save(tmp_path / "pool.npys",
                                                                   key="2x2")
    PoolTables.load(tmp_path / "pool.npys")  # no key asked for, none checked
    with pytest.raises(ValueError, match="key"):
        PoolTables.load(tmp_path / "pool.npys", key="2x3")


def test_run_rejects_pool_tables_of_another_sector():
    grid = u4(2, 2)
    other = PoolTables.build(grid, sector_basis(grid.n_qubits, 1, 2))
    with pytest.raises(ValueError, match="pool tables"):
        vipsa_run(grid, 2, 2, pool=other)


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
    x, states, sea = sea_vector(grid, 5, 4)
    occ_up = {m.slot for m in sea.occupied_up}
    occ_dn = {m.slot for m in sea.occupied_down}
    grads = sector_pool_gradients(x, sector_matrix(h, states, grid.n_qubits),
                                  [sector_orbit(p.term, states) for p in pool])

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
    # bias correction makes the first update exactly ADAM_LR * sign(gradient)
    assert np.allclose(first, ADAM_LR * np.sign(center), atol=1e-10)


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

    def run():
        history = []

        def recording(thetas):
            history.append(thetas.copy())
            return quadratic(np.array([0.2, -0.7]))(thetas)

        return adam_minimize(np.zeros(2), recording, config), history

    (first, first_history), (second, second_history) = run(), run()
    assert np.array_equal(first_history, second_history)
    assert np.array_equal(first.energies, second.energies)


def test_config_validation():
    with pytest.raises(ValueError):
        VipsaConfig(r=0.0)
    with pytest.raises(ValueError):
        VipsaConfig(eps1=-1.0)
    with pytest.raises(ValueError):
        VipsaConfig(convergence_window=0)


@pytest.mark.parametrize("name", ["eps1", "eps2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError, match=name):
        VipsaConfig(**{name: value})


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
        psi = adaptive_circuit(run).run()
        assert abs(expectation(h, psi) - run.records[-1].energy) <= 1e-12
        assert abs(fidelity(psi, run.ground) - run.records[-1].fidelity) <= 1e-12
        assert psi.max_imag() <= 1e-12


def test_run_path_stays_off_the_full_register(monkeypatch):
    # the adaptive loop and both perturbation oracles, with every 2^n kernel
    # made to raise, give the same results as without the guard
    grid = u4(2, 2)
    config = VipsaConfig(max_epochs=2, max_inner_steps=20)
    weak = GridSpec.make(2, 2, u=0.3)

    def results():
        run = vipsa_run(grid, config=config)
        first = first_order_oracle(weak, 2, 2)
        return (run.records, run.gates, run.thetas, first.reference, first.sequential,
                rs_perturbation(weak, 1, 1))

    expected = results()
    refuse_full_register(monkeypatch)
    got = results()
    assert got[:2] == expected[:2]
    for a, b in zip(got[2:5], expected[2:5]):
        np.testing.assert_array_equal(a, b)
    assert got[5] == expected[5]


def test_run_rejects_reference_from_another_sector():
    grid = u4(2, 2)
    other = ground_space(build_kspace(grid)[0], grid.n_qubits, 1, 2)
    with pytest.raises(ValueError):
        vipsa_run(grid, 2, 2, reference=other)


def test_run_rejects_a_complex_reference_matrix():
    # the run's states and generators are real, so a complex sector
    # Hamiltonian is refused rather than silently cut to its real part
    grid = u4(2, 2)
    gs = ground_space(build_kspace(grid)[0], grid.n_qubits, 2, 2)
    complex_gs = GroundSpace(gs.n_qubits, gs.n_up, gs.n_down, gs.energy, gs.vectors,
                             gs.states, gs.matrix.astype(np.complex128))
    with pytest.raises(ValueError, match="complex"):
        vipsa_run(grid, 2, 2, reference=complex_gs)


def test_every_export_is_the_object_its_module_defines():
    assert len(set(vipsa.__all__)) == len(vipsa.__all__)
    for name in vipsa.__all__:
        exported = getattr(vipsa, name)
        module = importlib.import_module(exported.__module__)
        assert module.__name__.startswith("vipsa."), name
        assert exported.__name__ == name and getattr(module, name) is exported, name


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
    x, states, _ = sea_vector(grid, 3, 3)
    np.testing.assert_array_equal(result.states, states)
    assert abs(np.vdot(result.reference, x)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(result.sequential, x)) == pytest.approx(1.0, abs=1e-12)


def test_first_order_states_agree_to_second_order():
    norms = {}
    for u in (0.1, 0.05):
        result = first_order_oracle(GridSpec.make(2, 4, u=u), 4, 4)
        diff = result.sequential - result.reference
        norms[u] = np.linalg.norm(diff)
    ratio = norms[0.1] / norms[0.05]
    assert 3.2 <= ratio <= 4.8


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_first_order_states_match_full_register(shape):
    # the sector states equal the full-register construction: the first-order
    # correction by Pauli-sum application, the sequential state by replaying
    # the pool rotations
    grid = GridSpec.make(*shape, u=0.3)
    result = first_order_oracle(grid)
    phi0, _ = sea_state(grid, *default_filling(grid))
    accumulated = phi0.amplitudes.copy()
    for q in interaction_quadruples(grid):
        if q.is_diagonal or abs(q.energy_gap) <= DEGENERACY_TOL:
            continue
        image = apply_pauli_sum(jordan_wigner(q.ladder_term(), grid.n_qubits), phi0)
        accumulated -= (q.amplitude / q.energy_gap) * image.amplitudes
    accumulated /= np.linalg.norm(accumulated)
    sequential = AnsatzCircuit(phi0, [PoolRotation(p.term, t) for p, t in
                                      zip(build_pool(grid), result.thetas)]).run()
    for full, sector in ((accumulated, result.reference), (sequential.amplitudes, result.sequential)):
        np.testing.assert_allclose(full[result.states], sector, rtol=0, atol=1e-12)
        assert np.linalg.norm(full) == pytest.approx(np.linalg.norm(sector), abs=1e-12)


def test_oracles_build_no_pauli_strings(monkeypatch):
    # with the Jordan-Wigner map and the Pauli-sum sector matrix made to raise
    # at every name a vipsa module looks them up by, both weak-coupling
    # oracles still give the same results
    grid = GridSpec.make(2, 4, u=0.1)

    def results():
        first = first_order_oracle(grid, 4, 4)
        return first.reference, first.sequential, rs_perturbation(grid, 4, 4)

    expected = results()

    def refuse(*args, **kwargs):
        raise AssertionError("Pauli-string path reached from a weak-coupling oracle")

    for info in pkgutil.iter_modules(vipsa.__path__):
        module = importlib.import_module(f"vipsa.{info.name}")
        for name in ("jordan_wigner", "sector_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    got = results()
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])
    assert got[2] == expected[2]


def pauli_sum_expansion(shape, n_up, n_down, u):
    """The first-order reference and (E0, E1, E2) built as before the
    scattering-table oracles: from the sector matrices of the kinetic term
    and of the interaction, both assembled from Pauli sums."""
    grid = GridSpec.make(*shape, u=u)
    x0, states, _ = sea_vector(grid, n_up, n_down)
    h, _ = build_kspace(grid)
    h0 = kinetic_kspace(grid)
    levels = sector_matrix(h0, states, grid.n_qubits).diagonal()
    image = sector_matrix(h - h0, states, grid.n_qubits) @ x0
    e0 = levels @ x0
    excited = np.abs(levels - e0) > DEGENERACY_TOL
    reference = x0.copy()
    reference[excited] += image[excited] / (e0 - levels[excited])
    reference /= np.linalg.norm(reference)
    e2 = np.sum(image[excited] ** 2 / (e0 - levels[excited]))
    return reference, (e0, x0 @ image, e2)


@pytest.mark.parametrize("u", [0.1, 0.3])
@pytest.mark.parametrize("shape, sector, series", [
    ((2, 2), (1, 1), True),
    ((2, 4), (4, 4), True),
    ((2, 3), (3, 3), False),
    ((3, 3), (5, 4), False),
])
def test_oracles_match_pauli_sum_construction(shape, sector, series, u):
    reference, expansion = pauli_sum_expansion(shape, *sector, u)
    result = first_order_oracle(GridSpec.make(*shape, u=u), *sector)
    np.testing.assert_allclose(result.reference, reference, rtol=0, atol=1e-12)
    if series:
        np.testing.assert_allclose(rs_perturbation(GridSpec.make(*shape, u=u), *sector),
                                   expansion, rtol=0, atol=1e-12)


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
