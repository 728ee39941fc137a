"""Statevector kernels against dense-matrix and finite-difference oracles."""

import numpy as np
import pytest
import scipy.linalg

from vipsa.fermions import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    PauliSum,
    hopping_pair,
    jordan_wigner,
    jordan_wigner_sum,
    number_term,
)
from vipsa.lattice import GridSpec, UP, DOWN, qubit_index, real_orbital_basis
from vipsa.statevector import (
    AnsatzCircuit,
    DiagonalPhase,
    HoppingRotation,
    PoolRotation,
    StateVector,
    expectation_and_gradient,
    orbit_overlap,
    register_orbit,
    sector_basis,
    slater_amplitudes,
)

from oracles import basis_state, dense_create, dense_ladder_term, dense_pauli_sum
from replay import register_apply, register_expectation


def sector_weights(psi: StateVector) -> dict[tuple[int, int], float]:
    """Probability weight per (n_up, n_down) occupation sector."""
    idx = np.arange(1 << psi.n_qubits, dtype=np.uint32)
    up_mask = np.uint32(sum(1 << q for q in range(0, psi.n_qubits, 2)))
    down_mask = np.uint32(sum(1 << q for q in range(1, psi.n_qubits, 2)))
    n_up = np.bitwise_count(idx & up_mask)
    n_down = np.bitwise_count(idx & down_mask)
    prob = np.abs(psi.amplitudes) ** 2
    weights: dict[tuple[int, int], float] = {}
    for nu in range(psi.n_qubits // 2 + 1):
        sel_u = n_up == nu
        for nd in range(psi.n_qubits // 2 + 1):
            w = float(prob[sel_u & (n_down == nd)].sum())
            if w > 1e-14:
                weights[(nu, nd)] = w
    return weights


def random_state(n, rng, real=False):
    v = rng.normal(size=1 << n)
    if not real:
        v = v + 1j * rng.normal(size=1 << n)
    v = v / np.linalg.norm(v)
    return StateVector(n, v.astype(np.complex128))


def random_quadruple(n, rng):
    a, b, c, d = (int(q) for q in rng.choice(n, size=4, replace=False))
    return LadderTerm(1.0, ((a, CREATE), (b, CREATE), (c, ANNIHILATE), (d, ANNIHILATE)))


def test_basis_state():
    psi = basis_state(set(), 4)
    assert psi.amplitudes[0] == 1.0 and psi.norm() == 1.0
    psi = basis_state({0, 1}, 4)
    assert psi.amplitudes[0b0011] == 1.0
    with pytest.raises(ValueError):
        basis_state({4}, 4)


def test_apply_pauli_sum_basics():
    # a Pauli sum applied on the register, as the gradient tests apply H
    z0 = PauliSum.from_terms([(1.0, ((0, "Z"),))])
    psi = basis_state(set(), 3)
    out = register_apply(z0, 3)(psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes)
    x0 = register_apply(PauliSum.from_terms([(1.0, ((0, "X"),))]), 3)
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    twice = x0(x0(psi))
    np.testing.assert_allclose(twice.amplitudes, psi.amplitudes, atol=1e-14)


def test_apply_pauli_sum_against_dense():
    rng = np.random.default_rng(5)
    n = 6
    for _ in range(20):
        terms = []
        for _ in range(4):
            support = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            letters = tuple(sorted((int(q), "XYZ"[rng.integers(3)]) for q in support))
            terms.append((complex(rng.normal(), rng.normal()), letters))
        h = PauliSum.from_terms(terms)
        psi = random_state(n, rng)
        applied = register_apply(h, n)(psi).amplitudes
        oracle = dense_pauli_sum(h, n) @ psi.amplitudes
        np.testing.assert_allclose(applied, oracle, atol=1e-12)


def test_expectation_examples():
    # diagonal operator on a basis state: sum of occupied "mode energies"
    energies = [-2.0, 0.0, 0.5]
    h0 = PauliSum.zero()
    for q, e in enumerate(energies):
        h0 = h0 + jordan_wigner(number_term(q, e), 3)
    psi = basis_state({0, 2}, 3)
    assert register_expectation(h0, psi) == pytest.approx(-1.5)

    # Hubbard U-term on one doubly occupied site
    u = 4.0
    n_up = jordan_wigner(number_term(0), 2)
    n_dn = jordan_wigner(number_term(1), 2)
    hubbard = u * (n_up * n_dn)
    assert register_expectation(hubbard, basis_state({0, 1}, 2)) == pytest.approx(u)
    assert register_expectation(hubbard, basis_state({0}, 2)) == pytest.approx(0.0)


def test_expectation_against_dense_and_hermiticity():
    rng = np.random.default_rng(9)
    n = 5
    for _ in range(10):
        terms = []
        for _ in range(3):
            support = rng.choice(n, size=2, replace=False)
            letters = tuple(sorted((int(q), "XYZ"[rng.integers(3)]) for q in support))
            terms.append((complex(rng.normal()), letters))
        h = PauliSum.from_terms(terms)
        psi = random_state(n, rng)
        oracle = np.vdot(psi.amplitudes, dense_pauli_sum(h, n) @ psi.amplitudes).real
        assert register_expectation(h, psi) == pytest.approx(oracle, abs=1e-10)
    with pytest.raises(ValueError):
        register_expectation(PauliSum.from_terms([(1j, ((0, "Z"),))]), random_state(2, rng))


def test_pool_unitary_identity_and_projector_support():
    rng = np.random.default_rng(2)
    n = 8
    o = random_quadruple(n, rng)
    psi = random_state(n, rng)
    out = PoolRotation(o, 0.0).apply(psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    # a state annihilated by both O and O† is untouched for any angle
    qubits = [q for q, _ in o.factors]
    empty = basis_state(set(), n)  # no particles: O and O† both kill it? O has annihilators
    out = PoolRotation(o, 1.1).apply(empty)
    np.testing.assert_allclose(out.amplitudes, empty.amplitudes, atol=1e-14)
    # occupy only one of the annihilator qubits: still outside both supports
    partial = basis_state({qubits[2]}, n)
    out = PoolRotation(o, 0.7).apply(partial)
    np.testing.assert_allclose(out.amplitudes, partial.amplitudes, atol=1e-14)


def test_pool_unitary_against_expm():
    rng = np.random.default_rng(21)
    n = 8
    for _ in range(12):
        o = random_quadruple(n, rng)
        a_dense = dense_ladder_term(o, n)
        a_dense = a_dense - a_dense.conj().T
        psi = random_state(n, rng)
        for theta in (0.3, 1.2):
            lib = PoolRotation(o, theta).apply(psi)
            oracle = scipy.linalg.expm(theta * a_dense) @ psi.amplitudes
            np.testing.assert_allclose(lib.amplitudes, oracle, atol=1e-10)
            assert lib.norm() == pytest.approx(1.0, abs=1e-10)


def test_pool_unitary_reality_orthogonality_sector():
    rng = np.random.default_rng(31)
    n = 8
    o = random_quadruple(n, rng)
    psi, phi = random_state(n, rng, real=True), random_state(n, rng, real=True)
    u_psi = PoolRotation(o, 0.9).apply(psi)
    u_phi = PoolRotation(o, 0.9).apply(phi)
    assert u_psi.max_imag() == 0.0
    assert u_psi.dot(u_phi) == pytest.approx(psi.dot(phi), abs=1e-10)

    sea = basis_state({0, 2, 3}, n)
    rotated = PoolRotation(
        LadderTerm(1.0, ((4, CREATE), (5, CREATE), (3, ANNIHILATE), (2, ANNIHILATE))),
        0.8).apply(sea)
    # 4,5 have opposite parity from 2,3? qubits here are abstract; sector moves
    # within total weight only
    weights = sector_weights(rotated)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_pool_generator_and_overlap():
    rng = np.random.default_rng(41)
    n = 6
    o = random_quadruple(n, rng)
    psi, phi = random_state(n, rng), random_state(n, rng)
    a_dense = dense_ladder_term(o, n)
    a_dense = a_dense - a_dense.conj().T
    lib = PoolRotation(o).generator_apply(psi)
    np.testing.assert_allclose(lib.amplitudes, a_dense @ psi.amplitudes, atol=1e-12)
    overlap = orbit_overlap(register_orbit(o, n), phi.amplitudes, psi.amplitudes)
    assert overlap == pytest.approx(np.vdot(phi.amplitudes, a_dense @ psi.amplitudes), abs=1e-12)


def test_pool_operator_validation():
    with pytest.raises(ValueError):
        PoolRotation(LadderTerm(1.0, ((0, CREATE), (1, CREATE), (1, ANNIHILATE), (0, ANNIHILATE))))
    with pytest.raises(ValueError):
        PoolRotation(LadderTerm(1.0, ((0, CREATE), (1, ANNIHILATE), (2, CREATE), (3, ANNIHILATE))))
    with pytest.raises(ValueError):
        PoolRotation(LadderTerm(2.0, ((0, CREATE), (1, CREATE), (2, ANNIHILATE), (3, ANNIHILATE))))


def test_hopping_unitary_against_expm():
    rng = np.random.default_rng(17)
    n = 6
    for i, j in [(0, 1), (0, 4), (2, 5)]:
        pair = hopping_pair(i, j)
        h_dense = sum(dense_ladder_term(t, n) for t in pair)
        psi = random_state(n, rng)
        for theta in (0.0, 0.45, 2 * np.pi):
            lib = HoppingRotation(pair, theta).apply(psi)
            oracle = scipy.linalg.expm(-1j * theta * h_dense) @ psi.amplitudes
            np.testing.assert_allclose(lib.amplitudes, oracle, atol=1e-10)
        two_pi = HoppingRotation(pair, 2 * np.pi).apply(psi)
        np.testing.assert_allclose(two_pi.amplitudes, psi.amplitudes, atol=1e-10)


def test_hopping_pair_validation():
    with pytest.raises(ValueError):
        HoppingRotation([LadderTerm(1.0, ((0, CREATE), (1, ANNIHILATE)))])
    bad = [LadderTerm(1.0, ((0, CREATE), (1, ANNIHILATE))),
           LadderTerm(1.0, ((0, CREATE), (1, ANNIHILATE)))]
    with pytest.raises(ValueError):
        HoppingRotation(bad)


def test_diagonal_phase():
    rng = np.random.default_rng(23)
    n = 5
    d = PauliSum.from_terms([
        (0.7, ((0, "Z"), (3, "Z"))),
        (-0.2, ((1, "Z"),)),
        (0.4, ()),
    ])
    psi = random_state(n, rng)
    theta = 0.6
    lib = DiagonalPhase(d, theta).apply(psi)
    oracle = scipy.linalg.expm(-1j * theta * dense_pauli_sum(d, n)) @ psi.amplitudes
    np.testing.assert_allclose(lib.amplitudes, oracle, atol=1e-10)
    with pytest.raises(ValueError):
        DiagonalPhase(PauliSum.from_terms([(1.0, ((0, "X"),))]), 0.1)


def slater_register_state(w, occ_up, occ_down) -> StateVector:
    """slater_amplitudes of the (n_up, n_down) sector scattered onto the
    full register."""
    n = 2 * len(w)
    states = sector_basis(n, len(occ_up), len(occ_down))
    psi = StateVector.zero(n)
    psi.amplitudes[states] = slater_amplitudes(w, occ_up, occ_down, states)
    return psi


def test_slater_identity_transform():
    psi = slater_register_state(np.eye(4), [0, 2], [1])
    ref = basis_state({0, 4, 3}, 8)  # up orbitals 0,2 -> qubits 0,4; down 1 -> qubit 3
    np.testing.assert_allclose(psi.amplitudes, ref.amplitudes, atol=1e-14)


def test_slater_fermi_sea_energy():
    # Slater state of the lowest real orbitals has the Fermi-sea energy.
    grid = GridSpec.make(2, 3)
    energies, w, order = real_orbital_basis(grid)
    n_up, n_down = 3, 3
    occ_up, occ_down = order[:n_up], order[:n_down]
    psi = slater_register_state(w, occ_up, occ_down)
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    h0 = PauliSum.zero()
    hm = -grid.t * np.ones(1)  # hopping amplitude
    from vipsa.lattice import hopping_edges
    horizontal, vertical = hopping_edges(grid)
    for i, j in horizontal + vertical:
        for spin in (UP, DOWN):
            h0 = h0 + jordan_wigner_sum(
                hopping_pair(qubit_index(i, spin), qubit_index(j, spin), -grid.t),
                grid.n_qubits)
    expected = sum(sorted(energies)[:n_up]) + sum(sorted(energies)[:n_down])
    assert register_expectation(h0, psi) == pytest.approx(expected, abs=1e-10)

    weights = sector_weights(psi)
    assert set(weights) == {(n_up, n_down)}


@pytest.mark.parametrize("occ_up,occ_down", [([0, 2], [1]), ([1], [0, 2]), ([], [2]), ([], []),
                                             ([2, 0, 1], []), ([2, 1], [1, 0]), ([0, 1, 2], [2])])
def test_slater_amplitudes_match_dense_creation(occ_up, occ_down):
    # b†_c = sum_r w[r, c] c†_r for each occupied spin-orbital c, applied in
    # ascending qubit order to the vacuum, with dense Jordan-Wigner matrices;
    # for a real and a complex unitary w
    rng = np.random.default_rng(7)
    n = 6
    cols = sorted([2 * m for m in occ_up] + [2 * m + 1 for m in occ_down])
    states = sector_basis(n, len(occ_up), len(occ_down))
    for imaginary in (0.0, 1j):
        w, _ = np.linalg.qr(rng.normal(size=(3, 3)) + imaginary * rng.normal(size=(3, 3)))
        state = basis_state(set(), n).amplitudes
        for c in reversed(cols):
            spin, orbital = c % 2, c // 2
            state = sum(w[site, orbital] * dense_create(2 * site + spin, n)
                        for site in range(3)) @ state
        np.testing.assert_allclose(slater_amplitudes(w, occ_up, occ_down, states),
                                   state[states], rtol=0, atol=1e-12)
        np.testing.assert_allclose(slater_register_state(w, occ_up, occ_down).amplitudes, state,
                                   rtol=0, atol=1e-12)


def test_slater_validation():
    with pytest.raises(ValueError):
        slater_amplitudes(np.eye(3) * 1.01, [0], [0], sector_basis(6, 1, 1))
    with pytest.raises(ValueError):
        slater_amplitudes(np.eye(3), [0, 0], [1], sector_basis(6, 2, 1))
    with pytest.raises(ValueError, match="particle counts"):
        slater_amplitudes(np.eye(3), [0], [1], sector_basis(6, 2, 0))  # same total, wrong spins


def random_mixed_circuit(n, n_gates, rng, real_init=False):
    init = random_state(n, rng, real=real_init)
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(3)
        if kind == 0:
            gates.append(PoolRotation(random_quadruple(n, rng), rng.normal() * 0.4))
        elif kind == 1:
            i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(HoppingRotation(hopping_pair(i, j), rng.normal() * 0.4))
        else:
            q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
            d = PauliSum.from_terms([(float(rng.normal()), ((min(q1, q2), "Z"), (max(q1, q2), "Z"))),
                                     (float(rng.normal()), ((q1, "Z"),))])
            gates.append(DiagonalPhase(d, rng.normal() * 0.4))
    return AnsatzCircuit(init, gates)


def random_hermitian_sum(n, n_terms, rng):
    terms = []
    for _ in range(n_terms):
        support = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        letters = tuple(sorted((int(q), "XYZ"[rng.integers(3)]) for q in support))
        terms.append((float(rng.normal()), letters))
    return PauliSum.from_terms(terms)


def finite_difference_gradient(circuit, h, step=1e-5):
    base = circuit.thetas()
    grads = np.zeros(len(base))
    for i in range(len(base)):
        for sign in (+1, -1):
            shifted = base.copy()
            shifted[i] += sign * step
            circuit.set_thetas(shifted)
            grads[i] += sign * register_expectation(h, circuit.run())
    circuit.set_thetas(base)
    return grads / (2 * step)


def test_circuit_gradient_against_finite_differences():
    rng = np.random.default_rng(77)
    n = 8
    for _ in range(3):
        circuit = random_mixed_circuit(n, 10, rng)
        h = random_hermitian_sum(n, 5, rng)
        _, adjoint = expectation_and_gradient(circuit, register_apply(h, n))
        fd = finite_difference_gradient(circuit, h)
        scale = max(1.0, np.abs(fd).max())
        np.testing.assert_allclose(adjoint, fd, atol=1e-5 * scale)


def test_circuit_gradient_matches_commutator_at_zero():
    # single PoolRotation at theta=0: gradient is <psi|[h, A]|psi>
    rng = np.random.default_rng(88)
    n = 6
    o = random_quadruple(n, rng)
    psi = basis_state({0, 1, 2}, n)
    h = random_hermitian_sum(n, 6, rng)
    circuit = AnsatzCircuit(psi, [PoolRotation(o, 0.0)])
    _, grad = expectation_and_gradient(circuit, register_apply(h, n))
    h_dense = dense_pauli_sum(h, n)
    a_dense = dense_ladder_term(o, n)
    a_dense = a_dense - a_dense.conj().T
    comm = h_dense @ a_dense - a_dense @ h_dense
    expected = np.vdot(psi.amplitudes, comm @ psi.amplitudes).real
    assert grad[0] == pytest.approx(expected, abs=1e-10)


def test_gradient_energy_consistency():
    rng = np.random.default_rng(99)
    n = 6
    circuit = random_mixed_circuit(n, 6, rng)
    h = random_hermitian_sum(n, 4, rng)
    energy, _ = expectation_and_gradient(circuit, register_apply(h, n))
    psi = circuit.run()
    dense = np.vdot(psi.amplitudes, dense_pauli_sum(h, n) @ psi.amplitudes).real
    assert energy == pytest.approx(dense, abs=1e-12)


def test_set_thetas_validation():
    rng = np.random.default_rng(1)
    circuit = random_mixed_circuit(4, 2, rng)
    with pytest.raises(ValueError):
        circuit.set_thetas([0.1])
    with pytest.raises(ValueError):
        circuit.set_thetas([0.1, np.inf])
