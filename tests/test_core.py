"""Adaptive-loop components: pool, gradients, selection, ADAM, first order."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

import vipsa
from vipsa import core
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
    select,
    vipsa_run,
)
from vipsa.fermions import jordan_wigner
from vipsa.hamiltonians import (
    build_kspace,
    fidelity,
    ground_space,
    interaction_quadruples,
    kinetic_kspace,
    sector_basis,
    sector_matrix,
    spin_operators,
)
from vipsa.lattice import (
    DEGENERACY_TOL,
    GridSpec,
    default_filling,
    fermi_sea,
    momentum_labels,
    point_group,
)
from vipsa.statevector import (
    AnsatzCircuit,
    PoolRotation,
    sector_orbit,
    sector_run,
)
from builds import sea_block, sea_block_space, site_space
from oracles import (
    adjoint_evaluation,
    basis_state,
    dense_pauli_sum,
    eager_adam_optimize,
    pool_generator,
    whole_sector_run_operands,
)
from replay import (
    adaptive_circuit,
    kept_amplitudes,
    refuse_full_register,
    refuse_pauli_path,
    register_apply,
    register_expectation,
    register_screen_operands,
)


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
    labels = [q.label for q in pool]
    assert len(set(labels)) == len(labels)
    forward = set()
    for q in pool:
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
    pooled = set(build_pool(grid))
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
    for q in build_pool(grid):
        a = pool_generator(q, grid.n_qubits)
        assert len(a + a.dagger()) == 0


def test_pool_generators_conserve_sz_not_s2():
    grid = u4(2, 2)
    sz, s2 = spin_operators(grid.n_sites)
    dense_sz = dense_pauli_sum(sz, grid.n_qubits)
    dense_s2 = dense_pauli_sum(s2, grid.n_qubits)
    broke_s2 = 0
    for q in build_pool(grid):
        a = dense_pauli_sum(pool_generator(q, grid.n_qubits), grid.n_qubits)
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
    assert built.labels == loaded.labels == tuple(q.label for q in pool)
    np.testing.assert_array_equal(loaded.states, states)
    reference = [sector_orbit(q.ladder_term(), states) for q in pool]
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
    grads = pool_gradients(psi.amplitudes.real, *register_screen_operands(grid, h))
    step = 1e-6
    for i in (0, 3, 7, len(pool) - 1):
        circuit = AnsatzCircuit(psi, [PoolRotation(pool[i].ladder_term(), 0.0)])
        circuit.set_thetas([step])
        e_plus = register_expectation(h, circuit.run())
        circuit.set_thetas([-step])
        e_minus = register_expectation(h, circuit.run())
        assert grads[i] == pytest.approx((e_plus - e_minus) / (2 * step), abs=1e-6)


def test_annihilating_operators_have_zero_gradient():
    grid = u4(3, 3)
    h, _ = build_kspace(grid)
    pool = build_pool(grid)
    x, states, sea = sea_vector(grid, 5, 4)
    occ_up = {m.slot for m in sea.occupied_up}
    occ_dn = {m.slot for m in sea.occupied_down}
    grads = pool_gradients(x, sector_matrix(h, states, grid.n_qubits),
                           [sector_orbit(q.ladder_term(), states) for q in pool])

    checked = 0
    for q, g in zip(pool, grads):
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
        return float(delta @ delta), lambda: 2.0 * delta
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
    result = adam_minimize(np.array([0.7]), lambda t: (1.5, lambda: np.zeros(1)), VipsaConfig())
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
        return next(energies), lambda: np.array([1.0])

    config = VipsaConfig(max_inner_steps=5, eps2=0.5, convergence_window=2)
    result = adam_minimize(np.zeros(1), bouncy, config)
    assert result.energy == 1.0  # not the last evaluation


def test_adam_rejects_non_finite_energy():
    with pytest.raises(ValueError, match="non-finite energy nan at the starting point"):
        adam_minimize(np.zeros(1), lambda t: (float("nan"), lambda: np.ones(1)), VipsaConfig())


@pytest.mark.parametrize("bad, where", [(0, "the starting point"), (1, "inner step 1")])
def test_adam_rejects_non_finite_gradient(bad, where):
    calls = []

    def evaluate(thetas):
        calls.append(None)
        return 1.0 / len(calls), lambda: np.array([np.nan if len(calls) > bad else 1.0])

    with pytest.raises(ValueError, match=f"non-finite gradient at {where}"):
        adam_minimize(np.zeros(1), evaluate, VipsaConfig(max_inner_steps=5))


def test_adam_rejects_a_gradient_whose_square_overflows(recwarn):
    # 1e200 is finite, but ADAM's second moment takes its square
    with pytest.raises(ValueError, match="non-finite second moment of the gradient at inner step 1"):
        adam_minimize(np.zeros(2), lambda t: (1.0, lambda: np.array([1.0, 1e200])), VipsaConfig())
    assert not recwarn.list


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


def counted(evaluate):
    """evaluate, and a count of the energies it returned and of the
    gradients taken from them."""
    counts = {"energies": 0, "gradients": 0}

    def counting(thetas):
        energy, gradient = evaluate(thetas)
        counts["energies"] += 1

        def take():
            counts["gradients"] += 1
            return gradient()

        return energy, take

    return counting, counts


@pytest.mark.parametrize("config, energies, converged", [
    (VipsaConfig(max_inner_steps=3), 4, False),  # the budget ends the pass
    (VipsaConfig(max_inner_steps=50, eps2=10.0, convergence_window=2), 3, True),  # the window
])
def test_adam_takes_no_gradient_at_the_closing_evaluation(config, energies, converged):
    # one gradient at the start and one after each step but the last
    evaluate, counts = counted(quadratic(np.array([1.0, -2.0, 0.5])))
    result = adam_minimize(np.zeros(3), evaluate, config)
    assert (result.steps, result.converged) == (energies - 1, converged)
    assert counts == {"energies": energies, "gradients": energies - 1}


def test_adam_takes_one_gradient_at_a_stationary_start():
    evaluate, counts = counted(quadratic(np.zeros(2)))
    result = adam_minimize(np.zeros(2), evaluate, VipsaConfig())
    assert result.converged and result.steps == 0
    assert counts == {"energies": 1, "gradients": 1}


# ADAM passes ended by the budget and by the window, whose best point is the
# closing evaluation (its state is kept) or an earlier one (the run computes
# it), and runs that end on the gradient test, whose terminal record reads
# the kept state
ENDINGS = [((2, 2), {"max_epochs": 3, "max_inner_steps": 6}),
           ((2, 2), {"max_epochs": 4, "eps1": 0.5, "max_inner_steps": 20}),
           ((2, 2), {"max_epochs": 4, "eps2": 0.05, "convergence_window": 2}),
           ((2, 3), {"max_epochs": 2, "max_inner_steps": 8}),
           ((2, 3), {"max_epochs": 3, "eps1": 0.3, "eps2": 1e-3, "convergence_window": 3,
                     "max_inner_steps": 60})]


@pytest.mark.parametrize("shape, settings", ENDINGS)
def test_lazy_gradients_and_the_kept_state_change_no_bit(monkeypatch, shape, settings):
    # the run against one whose ADAM passes sweep a gradient at every
    # evaluation and hand back no state
    grid = GridSpec.make(*shape, u=4.0)
    config = VipsaConfig(**settings)
    reference = sea_block_space(grid, *default_filling(grid))
    lazy = vipsa_run(grid, config=config, reference=reference)
    monkeypatch.setattr(core, "adam_optimize", eager_adam_optimize)
    eager = vipsa_run(grid, config=config, reference=reference)
    assert lazy.records == eager.records and lazy.status == eager.status
    assert lazy.gates == eager.gates
    assert lazy.thetas.tobytes() == eager.thetas.tobytes()
    assert np.array(lazy.step_energies).tobytes() == np.array(eager.step_energies).tobytes()


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
        assert abs(register_expectation(h, psi) - run.records[-1].energy) <= 1e-12
        assert abs(fidelity(kept_amplitudes(psi, run.ground), run.ground)
                   - run.records[-1].fidelity) <= 1e-12
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


def test_library_run_solves_the_reference_a_cli_run_caches(tmp_path):
    # a run without reference= solves the ground space per point-group class
    # and keeps the sea's block, as `vipsa run` does: the same file, byte for
    # byte, and labelled blocks
    from vipsa.cli import cached_ground_space

    grid = GridSpec.make(2, 3, u=4.0)
    run = vipsa_run(grid, config=VipsaConfig(max_epochs=1))
    cli = cached_ground_space(grid, 3, 3, "k", None)
    run.ground.save(tmp_path / "library.npys")
    cli.save(tmp_path / "cli.npys")
    assert (tmp_path / "library.npys").read_bytes() == (tmp_path / "cli.npys").read_bytes()
    assert run.ground.blocks.tolist() == [0]


def test_run_rejects_reference_from_another_sector():
    grid = u4(2, 2)
    other = ground_space(build_kspace(grid)[0], point_group(grid), 1, 2, keep=True)
    with pytest.raises(ValueError):
        vipsa_run(grid, 2, 2, reference=other)


def test_run_rejects_a_complex_reference_matrix():
    # the run's states and generators are real, so a complex sector
    # Hamiltonian is refused rather than silently cut to its real part: a
    # space of either register that keeps one cannot be made, nor loaded
    grid = u4(2, 2)
    gs = ground_space(build_kspace(grid)[0], point_group(grid), 2, 2, keep=True)
    with pytest.raises(ValueError, match="complex"):
        vipsa_run(grid, 2, 2, reference=replace(gs, matrix=gs.matrix.astype(np.complex128)))
    site = site_space(grid, 2, 2)
    with pytest.raises(ValueError, match="complex"):
        replace(site, matrix=site.matrix.astype(np.complex128))


def test_run_refuses_a_coupling_the_mode_register_cannot_resolve():
    # a ground file written before the bound, passed in as the reference,
    # is refused too
    reference = sea_block_space(u4(2, 2), 2, 2)
    with pytest.raises(ValueError, match="above 1e\\+06, the largest coupling"):
        vipsa_run(GridSpec.make(2, 2, u=-1e12), 2, 2, reference=reference)


def test_runs_reject_a_reference_without_its_matrix():
    # a space solved per point-group class holds no whole-sector matrix,
    # and a run has no other source for its H
    from vipsa.hva import hva_run

    grid = u4(2, 2)
    blocks = ground_space(build_kspace(grid)[0], point_group(grid), 2, 2)
    with pytest.raises(ValueError, match="no sector matrix"):
        vipsa_run(grid, 2, 2, reference=blocks)
    with pytest.raises(ValueError, match="no sector matrix"):
        hva_run(grid, 2, 2, layers=1, reference=blocks)


def test_runs_refuse_a_matrix_of_another_block():
    # on 2x3 (3,3) the sea lies in the block of label 4: a space that keeps
    # the ground block's matrix (label 0) in its place fits neither an
    # adaptive run, whose states live in the sea's block, nor a layered one,
    # which needs the whole sector; nor does the site register's whole-sector
    # matrix fit the former
    from vipsa.hva import hva_run

    grid = u4(2, 3)
    states = sector_basis(grid.n_qubits, 3, 3)
    rows = np.flatnonzero(momentum_labels(grid, states) == 0)
    assert sea_block(grid, 3, 3)[0] == 4
    other = replace(sea_block_space(grid, 3, 3), matrix_rows=rows,
                    matrix=sector_matrix(build_kspace(grid)[0], states[rows], grid.n_qubits))
    whole = site_space(grid, 3, 3)
    for reference in (other, whole):
        with pytest.raises(ValueError, match="Fermi sea's momentum block"):
            vipsa_run(grid, 3, 3, reference=reference)
    with pytest.raises(ValueError, match="no sector matrix of the whole sector"):
        hva_run(grid, 3, 3, layers=1, reference=other)


def test_run_refuses_pool_tables_over_another_basis():
    # on 2x3 (3,3) the run's states live on the sea's block, label 4: tables
    # over the whole sector, as runs once took them, or over the ground's
    # block, label 0, are refused
    grid = u4(2, 3)
    states = sector_basis(grid.n_qubits, 3, 3)
    reference = ground_space(build_kspace(grid)[0], point_group(grid), 3, 3, keep=True)
    for basis in (states, states[momentum_labels(grid, states) == 0]):
        with pytest.raises(ValueError, match="pool tables are not over the Fermi sea's"):
            vipsa_run(grid, 3, 3, reference=reference, pool=PoolTables.build(grid, basis))


def test_run_refuses_a_kept_matrix_of_another_shape():
    # the kept matrix is H over the block's own 66 rows: P H P over the
    # whole 400-state sector, as spaces kept it before, is refused, and so is
    # the block's matrix cut one row short; the space itself refuses a
    # matrix that does not fit its block's rows, before the run starts
    grid = u4(2, 3)
    reference = ground_space(build_kspace(grid)[0], point_group(grid), 3, 3, keep=True)
    _, php, _ = whole_sector_run_operands(grid, reference)
    assert reference.matrix.shape == (66, 66) and php.shape == (400, 400)
    for matrix in (php, reference.matrix[:-1, :-1].tocsr()):
        with pytest.raises(ValueError, match="does not fit 66 ascending rows"):
            vipsa_run(grid, 3, 3, reference=replace(reference, matrix=matrix))


@pytest.mark.parametrize("u", [4.0, 6.0])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_block_path_matches_the_whole_sector_path(shape, u):
    # the screen at the sea and after a fixed 52-gate circuit (seeded random
    # gates and angles), that circuit's energy and gradients, and its
    # fidelity: on the sea's block as a run takes them, and over the whole
    # sector with P H P as runs took them before, agree to 1e-12, and select
    # picks the same labels in the same order from either screen
    grid = GridSpec.make(*shape, u=u)
    n_up, n_down = default_filling(grid)
    reference = sea_block_space(grid, n_up, n_down)
    x0_whole, php, whole_pool = whole_sector_run_operands(grid, reference)
    label, block = sea_block(grid, n_up, n_down)
    rows = reference.matrix_rows
    assert np.array_equal(rows, np.flatnonzero(momentum_labels(grid, reference.states) == label))
    assert np.array_equal(reference.states[rows], block)
    block_pool = PoolTables.build(grid, block)
    assert block_pool.labels == whole_pool.labels
    labels = list(block_pool.labels)
    rng = np.random.default_rng(23)
    gates = rng.integers(len(labels), size=52)
    thetas = rng.uniform(-0.4, 0.4, size=52)

    paths = []
    for x0, h, pool in ((x0_whole, php, whole_pool),
                        (x0_whole[rows], reference.matrix, block_pool)):
        orbits = pool.orbits()
        circuit = [orbits[i] for i in gates]
        x = sector_run(x0, circuit, thetas)
        paths.append({"screens": [pool_gradients(x0, h, orbits), pool_gradients(x, h, orbits)],
                      "sweep": adjoint_evaluation(x0, circuit, thetas, h),
                      "x": x})
    whole, on_block = paths
    for got, want in zip(on_block["screens"], whole["screens"]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert select(got, 0.1, labels) == select(want, 0.1, labels)
    assert on_block["sweep"][0] == pytest.approx(whole["sweep"][0], abs=1e-12)
    np.testing.assert_allclose(on_block["sweep"][1], whole["sweep"][1], rtol=0, atol=1e-12)
    outside = np.ones(len(reference.states), dtype=bool)
    outside[rows] = False
    assert not whole["x"][outside].any()
    assert (fidelity(on_block["x"], reference)
            == pytest.approx(np.sum((reference.vectors.T @ whole["x"]) ** 2), abs=1e-12))


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
    pool = {q.label: q for q in build_pool(grid)}
    psi, sea = sea_state(grid, 2, 2)
    occ_up = {m.slot for m in sea.occupied_up}
    occ_dn = {m.slot for m in sea.occupied_down}
    for label in result.records[0].selected:
        q = pool[label]
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
        image = register_apply(jordan_wigner(q.ladder_term(), grid.n_qubits), grid.n_qubits)(phi0)
        accumulated -= (q.amplitude / q.energy_gap) * image.amplitudes
    accumulated /= np.linalg.norm(accumulated)
    sequential = AnsatzCircuit(phi0, [PoolRotation(q.ladder_term(), t) for q, t in
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
    refuse_pauli_path(monkeypatch)
    got = results()
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])
    assert got[2] == expected[2]


def test_warm_adaptive_run_builds_no_pauli_strings(monkeypatch):
    # a run handed its reference and its pool tables, as a warm `vipsa run`
    # loads them, gives the same records and gates with the Jordan-Wigner
    # map and the Pauli-sum sector matrix made to raise
    grid = GridSpec.make(2, 2, u=4.0)
    reference = ground_space(build_kspace(grid)[0], point_group(grid), 2, 2, keep=True)
    pool = PoolTables.build(grid, sea_block(grid, 2, 2)[1])

    def run():
        return vipsa_run(grid, 2, 2, VipsaConfig(max_epochs=2, max_inner_steps=4),
                         reference=reference, pool=pool)

    expected = run()
    refuse_pauli_path(monkeypatch)
    got = run()
    assert got.records == expected.records and got.gates == expected.gates
    np.testing.assert_array_equal(got.thetas, expected.thetas)


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
    for theta, q in zip(result.thetas, pool):
        assert np.sin(theta) == pytest.approx(-q.amplitude / q.energy_gap, abs=1e-12)
