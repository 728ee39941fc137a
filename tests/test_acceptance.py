"""Acceptance checks: one test per shipped guarantee, with printed evidence.

Each test asserts its stated tolerance and then prints one
`criterion N: PASS` line with the measured numbers, so

    pytest tests/test_acceptance.py -v -s

reads as a checklist.  Expensive shared objects (the 3x3 ground spaces and
the 2x2 adaptive runs) live in module-scoped fixtures.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
import scipy.sparse.linalg

from vipsa.core import (
    VipsaConfig,
    build_pool,
    first_order_oracle,
    sector_pool_gradients,
    select,
    vipsa_run,
)
from vipsa.fermions import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    hopping_pair,
    jordan_wigner,
    jordan_wigner_sum,
)
from vipsa.hamiltonians import (
    build_kspace,
    build_real,
    fidelity,
    ground_space,
    hamiltonian_pair,
    kinetic_kspace,
    real_sector_matrix,
    rs_perturbation,
    sector_basis,
    sector_diagonalize,
    spin_operators,
)
from vipsa.hva import HvaAnsatz, hva_run
from vipsa.lattice import DEGENERACY_TOL, GridSpec, default_filling, fermi_sea
from vipsa.statevector import (
    AnsatzCircuit,
    apply_pool_unitary,
    basis_state,
    circuit_gradient,
    expectation,
    sector_expectation_and_gradient,
    sector_orbit,
)

from oracles import dense_ladder_term, dense_pauli_string, dense_pauli_sum
from replay import adaptive_circuit, hva_circuit
from test_statevector import (
    finite_difference_gradient,
    random_hermitian_sum,
    random_mixed_circuit,
    random_state,
)

SHAPES = ((2, 2), (2, 3), (2, 4), (3, 3))
U_VALUES = (2.0, 4.0, 6.0)


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def ground_3x3():
    """Mode-register ground spaces of the 3x3 grid, one per interaction value."""
    spaces = {}
    for u in U_VALUES:
        grid = GridSpec.make(3, 3, u=u)
        h_k, _ = build_kspace(grid)
        spaces[u] = ground_space(h_k, grid.n_qubits, 5, 4)
    return spaces


@pytest.fixture(scope="module")
def runs_2x2():
    """Adaptive runs on the 2x2 grid, shared by the recovery, spin and
    realness checks."""
    config = VipsaConfig(max_epochs=8)
    return {u: vipsa_run(GridSpec.make(2, 2, u=u), config=config) for u in U_VALUES}


def test_criterion_1_jordan_wigner_images():
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 7))
        factors = tuple((int(rng.integers(n)), (CREATE, ANNIHILATE)[rng.integers(2)])
                        for _ in range(4))
        term = LadderTerm(complex(rng.normal(), rng.normal()), factors)
        image = dense_pauli_sum(jordan_wigner(term, n), n)
        direct = dense_ladder_term(term, n)
        worst = max(worst, float(np.abs(image - direct).max()))
    assert worst <= 1e-12, f"ladder-product image deviates by {worst}"

    # hopping image: (XX + YY)/2 dressed with the Z chain between the qubits
    hop_worst = 0.0
    for n, i, j in ((4, 0, 3), (6, 1, 4), (6, 0, 5), (5, 2, 3)):
        image = dense_pauli_sum(jordan_wigner_sum(hopping_pair(i, j), n), n)
        chain = tuple((q, "Z") for q in range(i + 1, j))
        manual = 0.5 * (dense_pauli_string(((i, "X"), *chain, (j, "X")), n)
                        + dense_pauli_string(((i, "Y"), *chain, (j, "Y")), n))
        hop_worst = max(hop_worst, float(np.abs(image - manual).max()))
    assert hop_worst <= 1e-12, f"hopping image deviates by {hop_worst}"
    report(1, f"40 random 4-factor terms max dev {worst:.2e}, "
              f"hopping vs (XX+YY)/2 Z-chain max dev {hop_worst:.2e} (tol 1e-12)")


def test_criterion_2_pool_rotations_match_expm():
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 9))
        a, b, c, d = (int(q) for q in rng.choice(n, size=4, replace=False))
        term = LadderTerm(1.0, ((a, CREATE), (b, CREATE),
                                (c, ANNIHILATE), (d, ANNIHILATE)))
        dense = dense_ladder_term(term, n)
        generator = dense - dense.conj().T
        psi = random_state(n, rng)
        for theta in (0.3, 1.2):
            expected = scipy.linalg.expm(theta * generator) @ psi.amplitudes
            got = apply_pool_unitary(term, theta, psi)
            worst = max(worst, float(np.abs(got.amplitudes - expected).max()))
        frozen = apply_pool_unitary(term, 0.0, psi)
        assert float(np.abs(frozen.amplitudes - psi.amplitudes).max()) == 0.0
    assert worst <= 1e-10, f"rotation deviates from expm by {worst}"
    report(2, f"50 rotations at theta in {{0.3, 1.2}} max dev from expm "
              f"{worst:.2e} (tol 1e-10); theta=0 leaves the state untouched")


def test_criterion_3_register_spectra_agree():
    worst = 0.0
    details = []
    for nx, ny in SHAPES:
        grid_dev = 0.0
        for u in U_VALUES:
            grid = GridSpec.make(nx, ny, u=u)
            pair = hamiltonian_pair(grid)
            n_up, n_down = default_filling(grid)
            k_eig = sector_diagonalize(pair.k_space, grid.n_qubits, n_up, n_down)
            r_eig = sector_diagonalize(pair.real_space, grid.n_qubits, n_up, n_down)
            grid_dev = max(grid_dev, float(np.abs(k_eig.values - r_eig.values).max()))
        worst = max(worst, grid_dev)
        details.append(f"{nx}x{ny} {grid_dev:.1e}")
    assert worst <= 1e-9, f"register spectra disagree by {worst}"
    report(3, "lowest eigenvalues, mode vs site register, worst over u in "
              "{2,4,6}: " + ", ".join(details) + " (tol 1e-9)")


def test_criterion_4_degeneracies_and_fidelity_sum(ground_3x3):
    seas = {}
    for shape in SHAPES:
        grid = GridSpec.make(*shape)
        seas[shape] = fermi_sea(grid, *default_filling(grid))
    assert seas[(2, 2)].degeneracy == 4
    assert seas[(2, 4)].degeneracy == 1
    assert seas[(3, 3)].degeneracy == 4

    for u, gs in ground_3x3.items():
        assert gs.degeneracy == 4, f"3x3 u={u:g} ground degeneracy {gs.degeneracy}"

    # the fidelity must be the plain sum of the four ground-state overlaps
    gs = ground_3x3[6.0]
    psi = basis_state(seas[(3, 3)].occupied_qubits(), gs.n_qubits)
    overlaps = []
    for col in range(gs.vectors.shape[1]):
        full = np.zeros(1 << gs.n_qubits, dtype=np.complex128)
        full[gs.states] = gs.vectors[:, col]
        overlaps.append(abs(np.vdot(full, psi.amplitudes)) ** 2)
    assert len(overlaps) == 4
    total = fidelity(psi, gs)
    assert abs(total - sum(overlaps)) <= 1e-12
    report(4, f"sea degeneracies 2x2={seas[(2, 2)].degeneracy} "
              f"2x3={seas[(2, 3)].degeneracy} (as configured) "
              f"2x4={seas[(2, 4)].degeneracy} 3x3={seas[(3, 3)].degeneracy}; "
              f"3x3 interacting ground degeneracy 4 at every u; fidelity "
              f"{total:.6f} equals the 4-term overlap sum "
              f"(dev {abs(total - sum(overlaps)):.1e})")


def test_ground_vectors_each_live_on_one_block(ground_3x3):
    gs = ground_3x3[6.0]
    labels = scipy.sparse.csgraph.connected_components(gs.matrix, directed=False)[1]
    owners = [np.unique(labels[column != 0]) for column in gs.vectors.T]
    assert all(len(owner) == 1 for owner in owners)
    assert len({int(owner[0]) for owner in owners}) == 4  # one member in each of 4 blocks
    np.testing.assert_allclose(gs.vectors.T @ gs.vectors, np.eye(4), rtol=0, atol=1e-12)

    # the sea's fidelity is the one a single whole-sector solve gives
    whole_vals, whole_vecs = scipy.sparse.linalg.eigsh(
        gs.matrix, k=12, which="SA", tol=0,
        v0=np.random.default_rng(0).standard_normal(len(gs.states)))
    whole = whole_vecs[:, whole_vals <= whole_vals.min() + 1e-8]
    assert whole.shape[1] == 4 and whole_vals.min() == pytest.approx(gs.energy, abs=1e-10)
    sea = sum(1 << q for q in fermi_sea(GridSpec.make(3, 3), 5, 4).occupied_qubits())
    x = (gs.states == sea).astype(float)
    assert gs.sector_fidelity(x) == pytest.approx(np.sum((whole.T @ x) ** 2), abs=1e-12)


def test_criterion_5_ground_state_recovery(runs_2x2, ground_3x3):
    details = []
    for u, run in runs_2x2.items():
        hits = [r.epoch for r in run.records
                if abs(r.energy - run.ground.energy) <= 1e-2 and r.fidelity >= 0.99]
        assert hits, f"2x2 u={u:g} never reached 1e-2 / 0.99 " \
                     f"in {len(run.records)} epochs"
        details.append(f"2x2 u={u:g} hit at epoch {hits[0]}")

    run = vipsa_run(GridSpec.make(2, 4, u=2.0), config=VipsaConfig(max_epochs=4))
    hits = [r.epoch for r in run.records
            if abs(r.energy - run.ground.energy) <= 5e-2 and r.fidelity >= 0.95]
    assert hits, "2x4 u=2 never reached 5e-2 / 0.95"
    details.append(f"2x4 u=2 hit at epoch {hits[0]}")

    # 3x3 at u=6 is only required to make steady progress
    config = VipsaConfig(max_epochs=3, max_inner_steps=60)
    run = vipsa_run(GridSpec.make(3, 3, u=6.0), config=config,
                    reference=ground_3x3[6.0])
    energies = [r.energy for r in run.records]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:])), energies
    assert run.records[-1].fidelity > run.records[0].fidelity
    details.append(f"3x3 u=6 energy {energies[0]:.4f} -> {energies[-1]:.4f}, "
                   f"fidelity {run.records[0].fidelity:.3f} -> "
                   f"{run.records[-1].fidelity:.3f}")
    report(5, "; ".join(details) + " (epoch budget 30)")


def test_criterion_6_first_selection_is_sound():
    config = VipsaConfig()
    details = []
    for nx, ny in SHAPES:
        grid = GridSpec.make(nx, ny, u=4.0)
        n_up, n_down = default_filling(grid)
        sea = fermi_sea(grid, n_up, n_down)
        states = sector_basis(grid.n_qubits, n_up, n_down)
        x = (states == sum(1 << q for q in sea.occupied_qubits())).astype(float)
        h_k, _ = build_kspace(grid)
        pool = build_pool(grid)
        grads = sector_pool_gradients(x, real_sector_matrix(h_k, states, grid.n_qubits),
                                      [sector_orbit(p.term, states) for p in pool])
        chosen = select(grads, config.r, [p.label for p in pool])
        assert chosen

        occ_up = {m.slot for m in sea.occupied_up}
        occ_down = {m.slot for m in sea.occupied_down}

        def survives(q):
            # pool quadruples have four distinct orbitals, so plain
            # membership decides whether either orientation acts
            forward = (q.up_from in occ_up and q.down_from in occ_down
                       and q.up_to not in occ_up and q.down_to not in occ_down)
            backward = (q.up_to in occ_up and q.down_to in occ_down
                        and q.up_from not in occ_up and q.down_from not in occ_down)
            return forward or backward

        for i in chosen:
            q = pool[i].quadruple
            assert abs(q.energy_gap) > DEGENERACY_TOL, \
                f"{pool[i].label} has a vanishing gap"
            assert survives(q), f"{pool[i].label} annihilates the Fermi sea"
        dead = [i for i in range(len(pool)) if not survives(pool[i].quadruple)]
        for i in dead:
            assert grads[i] == 0.0, f"{pool[i].label} gradient {grads[i]}"
        details.append(f"{nx}x{ny} selected {len(chosen)}, "
                       f"{len(dead)} annihilating operators all at 0.0")
    report(6, "; ".join(details))


def test_criterion_7_weak_coupling_agreement():
    # the sequential-vs-reference residual must shrink quadratically with u
    norms = {}
    for u in (0.05, 0.1):
        result = first_order_oracle(GridSpec.make(2, 4, u=u))
        norms[u] = float(np.linalg.norm(result.sequential - result.reference))
    ratio = norms[0.1] / norms[0.05]
    assert 3.2 <= ratio <= 4.8, f"residual ratio {ratio}"

    # one adaptive epoch lands on the second-order energy; its distance to
    # E0+E1+E2 must drop by the quadratic factor (20% slack) when u halves
    config = VipsaConfig(max_epochs=1, eps2=1e-9, max_inner_steps=3000)
    diffs = {}
    for u in (0.1, 0.2):
        grid = GridSpec.make(2, 4, u=u)
        h, _ = build_kspace(grid)
        h0 = kinetic_kspace(grid)
        h1 = h + (-1.0) * h0
        sea = fermi_sea(grid, 4, 4)
        phi0 = basis_state(sea.occupied_qubits(), grid.n_qubits)
        e0, e1, e2 = rs_perturbation(h0, h1, phi0)
        run = vipsa_run(grid, config=config)
        diffs[u] = abs(run.records[0].energy - (e0 + e1 + e2))
    assert diffs[0.1] <= 0.25 * 1.2 * diffs[0.2], f"epoch-1 gaps {diffs}"
    report(7, f"residual ratio {ratio:.2f} in [3.2, 4.8]; epoch-1 energy vs "
              f"E0+E1+E2: {diffs[0.1]:.2e} at u=0.1 vs {diffs[0.2]:.2e} at "
              f"u=0.2, quadratic bound holds")


def test_criterion_8_hva_zero_start_is_stationary():
    details = []
    for nx, ny in SHAPES:
        grid = GridSpec.make(nx, ny, u=4.0)
        n_up, n_down = default_filling(grid)
        ansatz = HvaAnsatz(grid, n_up, n_down, layers=10)
        h = real_sector_matrix(build_real(grid), ansatz.states, grid.n_qubits)
        _, per_gate = sector_expectation_and_gradient(
            ansatz.x0, ansatz.sector_gates, ansatz.angles(np.zeros(ansatz.n_params)), h)
        grads = ansatz.fold(per_gate)
        top = float(np.abs(grads).max())
        assert top <= 1e-10, f"{nx}x{ny}: max |g| = {top}"
        details.append(f"{nx}x{ny} max |g| {top:.1e}")
    report(8, "; ".join(details) + " (tol 1e-10)")


def test_criterion_9_spin_conservation(runs_2x2):
    # layered trajectory: both <S_z> and <S^2> frozen along the optimization
    grid = GridSpec.make(2, 2, u=4.0)
    s_z, s_squared = spin_operators(grid.n_sites)
    hva = hva_run(grid, config=VipsaConfig(max_inner_steps=40))
    sz_vals, s2_vals = [], []
    for params in hva.history:
        psi = hva_circuit(hva.ansatz, params).run()
        sz_vals.append(expectation(s_z, psi))
        s2_vals.append(expectation(s_squared, psi))
    hva_sz = max(sz_vals) - min(sz_vals)
    hva_s2 = max(s2_vals) - min(s2_vals)
    assert hva_sz <= 1e-8 and hva_s2 <= 1e-8

    # adaptive circuits: <S_z> frozen across every gate prefix
    sz_spread = 0.0
    for run in runs_2x2.values():
        circuit = adaptive_circuit(run)
        values = [expectation(s_z,
                              AnsatzCircuit(circuit.initial, circuit.gates[:k]).run())
                  for k in range(len(circuit.gates) + 1)]
        sz_spread = max(sz_spread, max(values) - min(values))
    assert sz_spread <= 1e-8

    # the pool may leave the S^2 eigenspace: at least one generator has a
    # nonvanishing commutator with S^2
    pool = build_pool(grid)
    s2_dense = dense_pauli_sum(s_squared, grid.n_qubits)
    breaking = 0
    for p in pool:
        g = dense_pauli_sum(p.generator(grid.n_qubits), grid.n_qubits)
        if np.abs(g @ s2_dense - s2_dense @ g).max() > 1e-8:
            breaking += 1
    assert breaking > 0
    report(9, f"layered spread S_z {hva_sz:.1e}, S^2 {hva_s2:.1e}; adaptive "
              f"prefix spread S_z {sz_spread:.1e} (tol 1e-8); "
              f"{breaking}/{len(pool)} pool generators do not commute with S^2")


def test_criterion_10_adaptive_states_stay_real(runs_2x2):
    worst = 0.0
    prefixes = 0
    for run in runs_2x2.values():
        circuit = adaptive_circuit(run)
        for k in range(len(circuit.gates) + 1):
            psi = AnsatzCircuit(circuit.initial, circuit.gates[:k]).run()
            worst = max(worst, psi.max_imag())
            prefixes += 1
    assert worst <= 1e-12, f"imaginary amplitude {worst}"
    report(10, f"largest imaginary amplitude over {prefixes} gate prefixes "
               f"of the 2x2 runs: {worst:.2e} (tol 1e-12)")


def test_criterion_11_adjoint_gradient_accuracy():
    rng = np.random.default_rng(411)
    worst = 0.0
    for n in (8, 10, 12):
        circuit = random_mixed_circuit(n, 20, rng)
        h = random_hermitian_sum(n, 6, rng)
        adjoint = circuit_gradient(circuit, h)
        fd = finite_difference_gradient(circuit, h, step=1e-5)
        scale = np.maximum(1.0, np.abs(adjoint))
        worst = max(worst, float((np.abs(adjoint - fd) / scale).max()))
    assert worst <= 1e-5, f"adjoint vs finite differences: {worst}"
    report(11, f"3 mixed circuits (8, 10, 12 qubits, 20 gates each): max "
               f"relative deviation {worst:.2e} (tol 1e-5)")
