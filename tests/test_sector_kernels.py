"""Sector-coordinate kernels against dense matrix exponentials and against
the full-register gate classes.

The gate classes run the full register through the same orbit kernels, as
the sector of every bitstring, so the sector-against-register checks below
test the sector's positions, not the rotation itself.  The expm checks
build their generators from Kronecker products in `oracles`, sharing no
code with the kernels."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vipsa import statevector
from vipsa.core import build_pool, pool_gradients
from vipsa.fermions import ANNIHILATE, CREATE, LadderTerm, PauliSum, hopping_pair
from vipsa.hamiltonians import (
    SectorHamiltonian,
    build_kspace,
    build_real,
    onsite_interaction,
    sector_basis,
    sector_matrix,
)
from vipsa.hva import HvaAnsatz
from vipsa.lattice import DOWN, UP, GridSpec, default_filling, hopping_edges, qubit_index
from vipsa.statevector import (
    AnsatzCircuit,
    DiagonalPhase,
    HoppingRotation,
    PoolRotation,
    Orbit,
    SectorPhase,
    StateVector,
    _check_orbit,
    _ladder_orbits,
    _positions,
    apply_generator,
    diagonal_values,
    expectation_and_gradient,
    orbit_overlap,
    register_orbit,
    rotate_orbit,
    rotate_sector,
    sector_hopping_orbit,
    sector_orbit,
    sector_overlap,
    sector_run,
)

from oracles import (
    adjoint_evaluation,
    dense_ladder_term,
    dense_pauli_sum,
    per_gate_sweep,
    run_every_gate,
    two_array_rotation,
)
from replay import register_apply, register_screen_operands

TOL = 1e-12


@st.composite
def sector_problems(draw):
    """A sector of 4-6 orbital pairs and a quadruple that conserves it."""
    n_pairs = draw(st.integers(4, 6))
    n_qubits = 2 * n_pairs
    n_up = draw(st.integers(0, n_pairs))
    n_down = draw(st.integers(0, n_pairs))
    a, b, c, d = draw(st.permutations(range(n_qubits)))[:4]
    # qubit parity is the spin, so equal spin sums keep (n_up, n_down)
    assume(a % 2 + b % 2 == c % 2 + d % 2)
    term = LadderTerm(1.0, ((a, CREATE), (b, CREATE), (c, ANNIHILATE), (d, ANNIHILATE)))
    return n_qubits, sector_basis(n_qubits, n_up, n_down), term


@st.composite
def hopping_problems(draw):
    """A sector of 4-6 orbital pairs and a same-spin hopping pair."""
    n_pairs = draw(st.integers(4, 6))
    n_qubits = 2 * n_pairs
    spin = draw(st.integers(0, 1))
    i, j = draw(st.permutations(range(n_pairs)))[:2]
    states = sector_basis(n_qubits, draw(st.integers(0, n_pairs)), draw(st.integers(0, n_pairs)))
    return n_qubits, states, hopping_pair(2 * i + spin, 2 * j + spin)


@st.composite
def ladder_products(draw):
    """An ordered product of 2 or 4 ladder factors on 4 or 6 orbitals, which
    may repeat an orbital, and a sector of that register."""
    n_pairs = draw(st.integers(2, 3))
    n_qubits = 2 * n_pairs
    factor = st.tuples(st.integers(0, n_qubits - 1), st.sampled_from((CREATE, ANNIHILATE)))
    size = draw(st.sampled_from((2, 4)))
    factors = tuple(draw(st.lists(factor, min_size=size, max_size=size)))
    states = sector_basis(n_qubits, draw(st.integers(0, n_pairs)), draw(st.integers(0, n_pairs)))
    return n_qubits, states, factors


def random_sector_vector(states, seed, complex_=False):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=len(states))
    if complex_:
        v = v + 1j * rng.normal(size=len(states))
    return v / np.linalg.norm(v)


def full_register(x, states, n_qubits):
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[states] = x
    return StateVector(n_qubits, amps)


seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-np.pi, np.pi)


@settings(max_examples=100, deadline=None)
@given(ladder_products())
def test_ladder_orbits_match_dense_product(problem):
    n_qubits, states, factors = problem
    dense = dense_ladder_term(LadderTerm(1.0, factors), n_qubits)[:, states]
    try:
        src, dst, sign = _ladder_orbits(factors, states)
    except ValueError:
        # an orbital meets the same kind twice in a row: the product is zero
        assert not dense.any()
        return
    expected = np.zeros_like(dense)
    expected[dst, src] = sign
    np.testing.assert_array_equal(dense, expected)


def per_operator_orbit(factors, states):
    """The orbit table as the separate pool and hopping builders made it: an
    occupancy mask per factor kind, then the Jordan-Wigner parity of each
    factor in the order they act."""
    qubits = [q for q, _ in factors]
    bit = lambda q: (states >> q) & 1
    if len(factors) == 4:
        a, b, c, d = qubits
        mask = (bit(d) == 1) & (bit(c) == 1) & (bit(b) == 0) & (bit(a) == 0)
    else:
        i, j = qubits
        mask = (bit(j) == 1) & (bit(i) == 0)
    state = states[mask]
    parity = np.zeros(len(state), dtype=np.int8)
    for q in reversed(qubits):
        parity += (np.bitwise_count(state & np.uint32((1 << q) - 1)) & 1).astype(np.int8)
        state ^= np.uint32(1 << q)
    return np.flatnonzero(mask), _positions(states, state, "operator"), np.where(parity & 1, -1.0, 1.0)


@lru_cache(maxsize=None)
def kernel_tables():
    """(orbit table, the operator's factors, its sector's bitstrings) of
    every 3x3 (5,4) pool operator and every 2x4 (4,4) hopping pair."""
    grid = GridSpec.make(3, 3, u=6.0)
    states = sector_basis(grid.n_qubits, 5, 4)
    tables = [(sector_orbit(q.ladder_term(), states), q.ladder_term().factors, states)
              for q in build_pool(grid)]
    grid = GridSpec.make(2, 4, u=4.0)
    states = sector_basis(grid.n_qubits, 4, 4)
    horizontal, vertical = hopping_edges(grid)
    for i, j in horizontal + vertical:
        for spin in (UP, DOWN):
            pair = hopping_pair(qubit_index(i, spin), qubit_index(j, spin))
            tables.append((sector_hopping_orbit(pair, states), pair[0].factors, states))
    return tables


def test_tables_match_the_per_operator_builders():
    # every 3x3 (5,4) pool table and every 2x4 (4,4) hopping table is
    # bit-identical to the tables of the builders _ladder_orbits replaced
    tables = kernel_tables()
    assert len(tables) == 232 + 2 * 12
    for orbit, factors, states in tables:
        for got, want in zip(orbit[:3], per_operator_orbit(factors, states)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, complex_=st.booleans(), complex_signs=st.booleans(),
       theta=st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi / 2]) | angles)
def test_rotation_matches_the_two_array_formula(seed, complex_, complex_signs, theta):
    # one coefficient array, added where the two-array form subtracted its
    # negative, gives the same values on every table, with float or complex
    # signs, real vectors made complex only where a sign or phase is
    vectors = {}  # one per sector
    for orbit, _, states in kernel_tables():
        if complex_signs:
            orbit = orbit._replace(sign=orbit.sign.astype(np.complex128))
        if len(states) not in vectors:
            vectors[len(states)] = random_sector_vector(states, seed, complex_)
        x = vectors[len(states)]
        x = x.astype(np.result_type(x, orbit.sign, orbit.phase))
        expected = x.copy()
        rotate_orbit(x, orbit, theta)
        two_array_rotation(expected, orbit, theta)
        np.testing.assert_array_equal(x, expected)


@st.composite
def dense_generators(draw):
    """A pool generator O - O† or a hopping generator -i(c†_i c_j + c†_j c_i)
    on 6 or 8 qubits, over one sector or over every bitstring: its orbit
    table and the dense block of the same generator from Kronecker products."""
    n_pairs = draw(st.integers(3, 4))
    n_qubits = 2 * n_pairs
    whole = draw(st.booleans())
    states = (np.arange(1 << n_qubits, dtype=np.uint32) if whole else
              sector_basis(n_qubits, draw(st.integers(0, n_pairs)), draw(st.integers(0, n_pairs))))
    if draw(st.booleans()):
        a, b, c, d = draw(st.permutations(range(n_qubits)))[:4]
        assume(a % 2 + b % 2 == c % 2 + d % 2)
        term = LadderTerm(1.0, ((a, CREATE), (b, CREATE), (c, ANNIHILATE), (d, ANNIHILATE)))
        orbit = register_orbit(term, n_qubits) if whole else sector_orbit(term, states)
        dense = dense_ladder_term(term, n_qubits)
        generator = dense - dense.conj().T
    else:
        spin = draw(st.integers(0, 1))
        i, j = draw(st.permutations(range(n_pairs)))[:2]
        pair = hopping_pair(2 * i + spin, 2 * j + spin)
        orbit = (register_orbit(tuple(pair), n_qubits) if whole
                 else sector_hopping_orbit(pair, states))
        generator = -1j * sum(dense_ladder_term(t, n_qubits) for t in pair)
    return states, orbit, generator[np.ix_(states, states)]


@settings(max_examples=60, deadline=None)
@given(dense_generators(), seeds, angles)
def test_orbit_kernels_match_expm(problem, seed, theta):
    # rotate_orbit at phase 1 and -i, orbit_overlap and apply_generator
    states, orbit, generator = problem
    x = random_sector_vector(states, seed, complex_=True)
    phi = random_sector_vector(states, seed + 1, complex_=True)
    np.testing.assert_allclose(apply_generator(orbit, x), generator @ x, rtol=0, atol=TOL)
    assert abs(orbit_overlap(orbit, phi, x) - np.vdot(phi, generator @ x)) <= TOL
    rotated = x.copy()
    rotate_orbit(rotated, orbit, theta)
    expected = scipy.linalg.expm(theta * generator) @ x
    np.testing.assert_allclose(rotated, expected, rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 4), st.booleans(), seeds, angles)
def test_sector_phase_matches_expm(n_pairs, whole, seed, theta):
    # a constant, a one-qubit and two two-qubit Z strings, as in onsite_interaction
    n_qubits = 2 * n_pairs
    rng = np.random.default_rng(seed)
    d = PauliSum.from_terms([
        (rng.normal(), tuple((int(q), "Z") for q in sorted(rng.choice(n_qubits, k, replace=False))))
        for k in (0, 1, 2, 2)])
    states = (np.arange(1 << n_qubits, dtype=np.uint32) if whole else
              sector_basis(n_qubits, n_pairs // 2, n_pairs - 1))
    gate = SectorPhase(diagonal_values(d, n_qubits, states))
    generator = -1j * dense_pauli_sum(d, n_qubits)[np.ix_(states, states)]
    x = random_sector_vector(states, seed, complex_=True)
    phi = random_sector_vector(states, seed + 1, complex_=True)
    np.testing.assert_allclose(apply_generator(gate, x), generator @ x, rtol=0, atol=TOL)
    assert abs(sector_overlap(gate, phi, x) - np.vdot(phi, generator @ x)) <= TOL
    expected = scipy.linalg.expm(theta * generator) @ x
    rotate_sector(x, gate, theta)
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(sector_problems(), seeds, angles)
def test_sector_rotation_matches_full_register(problem, seed, theta):
    n_qubits, states, term = problem
    x = random_sector_vector(states, seed)
    expected = PoolRotation(term, theta).apply(full_register(x, states, n_qubits))

    rotated = x.copy()
    orbit = sector_orbit(term, states)
    rotate_orbit(rotated, orbit, theta)
    np.testing.assert_allclose(rotated, expected.amplitudes[states].real, rtol=0, atol=TOL)
    assert abs(np.linalg.norm(rotated) - 1.0) <= TOL
    # nothing leaks out of the sector on the full register either
    assert abs(np.linalg.norm(expected.amplitudes[states]) - 1.0) <= TOL

    rotate_orbit(rotated, orbit, -theta)
    np.testing.assert_allclose(rotated, x, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(sector_problems(), seeds)
def test_orbit_overlap_matches_full_register(problem, seed):
    n_qubits, states, term = problem
    phi = random_sector_vector(states, seed)
    psi = random_sector_vector(states, seed + 1)
    image = PoolRotation(term).generator_apply(full_register(psi, states, n_qubits))
    expected = full_register(phi, states, n_qubits).dot(image)
    got = orbit_overlap(sector_orbit(term, states), phi, psi)
    assert abs(got - expected.real) <= TOL
    assert expected.imag == 0.0


@settings(max_examples=60, deadline=None)
@given(hopping_problems(), seeds, angles)
def test_hopping_orbit_rotation_matches_full_register(problem, seed, theta):
    n_qubits, states, pair = problem
    x = random_sector_vector(states, seed, complex_=True)
    expected = HoppingRotation(pair, theta).apply(full_register(x, states, n_qubits))

    rotated = x.copy()
    orbit = sector_hopping_orbit(pair, states)
    rotate_orbit(rotated, orbit, theta)
    np.testing.assert_allclose(rotated, expected.amplitudes[states], rtol=0, atol=TOL)
    assert abs(np.linalg.norm(rotated) - 1.0) <= TOL
    rotate_orbit(rotated, orbit, -theta)
    np.testing.assert_allclose(rotated, x, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(hopping_problems(), seeds)
def test_hopping_orbit_overlap_matches_full_register(problem, seed):
    n_qubits, states, pair = problem
    phi = random_sector_vector(states, seed, complex_=True)
    psi = random_sector_vector(states, seed + 1, complex_=True)
    image = HoppingRotation(pair).generator_apply(full_register(psi, states, n_qubits))
    expected = full_register(phi, states, n_qubits).dot(image)
    got = orbit_overlap(sector_hopping_orbit(pair, states), phi, psi)
    assert abs(got - expected) <= TOL


@settings(max_examples=40, deadline=None)
@given(sector_problems(), seeds, angles)
def test_pool_orbit_on_complex_vectors_matches_full_register(problem, seed, theta):
    n_qubits, states, term = problem
    x = random_sector_vector(states, seed, complex_=True)
    phi = random_sector_vector(states, seed + 1, complex_=True)
    orbit = sector_orbit(term, states)
    expected = PoolRotation(term, theta).apply(full_register(x, states, n_qubits))
    image = PoolRotation(term).generator_apply(full_register(x, states, n_qubits))
    overlap = full_register(phi, states, n_qubits).dot(image)
    assert abs(orbit_overlap(orbit, phi, x) - overlap) <= TOL
    rotate_orbit(x, orbit, theta)
    np.testing.assert_allclose(x, expected.amplitudes[states], rtol=0, atol=TOL)


@pytest.mark.parametrize("shape", ((2, 2), (2, 3)))
@settings(max_examples=10, deadline=None)
@given(seed=seeds, theta=angles)
def test_sector_phase_matches_full_register(shape, seed, theta):
    grid = GridSpec.make(*shape, u=3.0)
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    d = onsite_interaction(grid)
    x = random_sector_vector(states, seed, complex_=True)
    phi = random_sector_vector(states, seed + 1, complex_=True)
    gate = SectorPhase(diagonal_values(d, grid.n_qubits, states))
    full = full_register(x, states, grid.n_qubits)
    overlap = full_register(phi, states, grid.n_qubits).dot(DiagonalPhase(d).generator_apply(full))
    assert abs(sector_overlap(gate, phi, x) - overlap) <= TOL
    rotate_sector(x, gate, theta)
    expected = DiagonalPhase(d, theta).apply(full)
    np.testing.assert_allclose(x, expected.amplitudes[states], rtol=0, atol=TOL)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), seeds, angles)
def test_phase_levels_match_the_exponential_of_every_value(dim, n_levels, seed, theta):
    # the level table exponentiates each distinct value once, and gathers
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n_levels)[rng.integers(n_levels, size=dim)]
    gate = SectorPhase(values)
    np.testing.assert_array_equal(gate.levels[gate.level_of], values)
    assert len(gate.levels) == len(np.unique(values))
    x = random_sector_vector(values, seed, complex_=True)
    # in place, as the kernel multiplies: numpy's in-place and out-of-place
    # complex products can differ in the last bit on short arrays
    expected = x.copy()
    expected *= np.exp(theta * gate.phase * values)
    rotate_sector(x, gate, theta)
    np.testing.assert_array_equal(x, expected)


def test_orbit_check_rejects_tables_that_are_not_disjoint_pairs():
    src, dst, sign = np.array([0, 2]), np.array([1, 3]), np.array([1.0, -1.0])
    _check_orbit(Orbit(src, dst, sign, -1j))
    _check_orbit(Orbit(src[:0], dst[:0], sign[:0], -1j))
    with pytest.raises(ValueError, match="repeats a position"):
        _check_orbit(Orbit(src, np.array([1, 1]), sign, -1j))
    with pytest.raises(ValueError, match="repeats a position"):
        _check_orbit(Orbit(src, np.array([1, 2]), sign, -1j))
    with pytest.raises(ValueError, match="signs"):
        _check_orbit(Orbit(src, dst, np.array([1.0, 2.0]), -1j))
    with pytest.raises(ValueError, match="phase"):
        _check_orbit(Orbit(src, dst, sign, 2.0))
    # a phase off the real and imaginary axes has no one-array rotation:
    # the check refuses it, and so does the kernel, for an unchecked table
    tilted = Orbit(src, dst, sign, complex(np.exp(0.3j)))
    with pytest.raises(ValueError, match="phase"):
        _check_orbit(tilted)
    with pytest.raises(ValueError, match="real or imaginary"):
        rotate_orbit(np.ones(4, dtype=complex), tilted, 0.5)


def sweep_matches_per_gate(x0, gates, thetas, h):
    """The fused sweep and the per-gate oracle agree to the bit, with and
    without a precomputed final state, and so do sector_run and a run that
    rotates every gate, at angle 0 too."""
    assert np.array_equal(sector_run(x0, gates, thetas), run_every_gate(x0, gates, thetas))
    energy, grads = adjoint_evaluation(x0, gates, thetas, h)
    want_energy, want_grads = per_gate_sweep(x0, gates, thetas, h)
    assert energy == want_energy
    np.testing.assert_array_equal(grads, want_grads)
    final, want_final = sector_run(x0, gates, thetas), sector_run(x0, gates, thetas)
    energy, grads = adjoint_evaluation(x0, gates, thetas, h, final=final)
    want_energy, want_grads = per_gate_sweep(x0, gates, thetas, h, final=want_final)
    assert energy == want_energy
    np.testing.assert_array_equal(grads, want_grads)
    # both sweeps leave the buffer at the state after the first gate
    np.testing.assert_array_equal(final, want_final)


def test_real_phases_keep_the_sweep_real():
    grid, _, sector, pool, orbits = grid_problem(2, 2, 4.0)
    x0 = random_sector_vector(sector.states, 5)
    thetas = np.linspace(-0.5, 0.5, len(orbits))
    assert sector_run(x0, orbits, thetas).dtype == np.float64
    energy, grads = adjoint_evaluation(x0, orbits, thetas, sector.matrix.real)
    assert isinstance(energy, float) and grads.dtype == np.float64

    hop = sector_hopping_orbit(hopping_pair(0, 2), sector.states)
    assert sector_run(x0, orbits + [hop], np.append(thetas, 0.3)).dtype == np.complex128


def test_orbit_rejects_operator_leaving_the_sector():
    states = sector_basis(8, 2, 2)
    # two down electrons become two up electrons
    term = LadderTerm(1.0, ((0, CREATE), (2, CREATE), (1, ANNIHILATE), (3, ANNIHILATE)))
    with pytest.raises(ValueError):
        sector_orbit(term, states)
    with pytest.raises(ValueError):
        sector_hopping_orbit(hopping_pair(0, 1), states)  # up electron hops to a down orbital


@lru_cache(maxsize=None)
def grid_problem(nx, ny, u):
    grid = GridSpec.make(nx, ny, u=u)
    h, _ = build_kspace(grid)
    sector = SectorHamiltonian(h, grid.n_qubits, *default_filling(grid))
    pool = build_pool(grid)
    orbits = [sector_orbit(q.ladder_term(), sector.states) for q in pool]
    return grid, h, sector, pool, orbits


@lru_cache(maxsize=None)
def register_operands(nx, ny, u):
    grid, h, *_ = grid_problem(nx, ny, u)
    return register_screen_operands(grid, h)


SHAPES = ((2, 2), (2, 3))


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_sector_screen_matches_pool_gradients(shape, seed):
    grid, _, sector, _, orbits = grid_problem(*shape, 4.0)
    x = random_sector_vector(sector.states, seed)
    expected = pool_gradients(full_register(x, sector.states, grid.n_qubits).amplitudes.real,
                              *register_operands(*shape, 4.0))
    got = pool_gradients(x, sector.matrix.real, orbits)
    np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, n_gates=st.integers(1, 12))
def test_sector_adjoint_matches_circuit_gradient(shape, seed, n_gates):
    grid, h, sector, pool, orbits = grid_problem(*shape, 4.0)
    rng = np.random.default_rng(seed)
    x0 = random_sector_vector(sector.states, seed)
    gates = rng.integers(len(pool), size=n_gates)
    thetas = rng.uniform(-np.pi, np.pi, size=n_gates)
    circuit = AnsatzCircuit(full_register(x0, sector.states, grid.n_qubits),
                            [PoolRotation(pool[i].ladder_term(), t) for i, t in zip(gates, thetas)])

    energy, grads = adjoint_evaluation(
        x0, [orbits[i] for i in gates], thetas, sector.matrix.real)
    assert abs(energy - sector.expectation(circuit.run())) <= TOL
    _, expected = expectation_and_gradient(circuit, register_apply(h, grid.n_qubits))
    np.testing.assert_allclose(grads, expected, rtol=0, atol=TOL)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, n_gates=st.integers(1, 30))
def test_fused_sweep_matches_per_gate_sweep_on_pool_circuits(shape, seed, n_gates):
    _, _, sector, pool, orbits = grid_problem(*shape, 4.0)
    rng = np.random.default_rng(seed)
    x0 = random_sector_vector(sector.states, seed)
    gates = [orbits[i] for i in rng.integers(len(pool), size=n_gates)]
    thetas = rng.uniform(-np.pi, np.pi, size=n_gates)
    sweep_matches_per_gate(x0, gates, thetas, sector.matrix.real)


@lru_cache(maxsize=None)
def hva_gates(nx, ny, layers):
    grid = GridSpec.make(nx, ny, u=3.0)
    ansatz = HvaAnsatz(grid, *default_filling(grid), layers)
    return ansatz, sector_matrix(build_real(grid), ansatz.states, grid.n_qubits)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, layers=st.integers(1, 3), shuffle=st.booleans())
def test_fused_sweep_matches_per_gate_sweep_on_hva_gates(shape, seed, layers, shuffle):
    # complex hopping tables and the interaction phase, in layer order or
    # drawn at random so phases also sit first and last
    ansatz, h = hva_gates(*shape, layers)
    rng = np.random.default_rng(seed)
    gates = ansatz.sector_gates
    if shuffle:
        gates = [gates[i] for i in rng.integers(len(gates), size=len(gates))]
    thetas = rng.uniform(-np.pi, np.pi, size=len(gates))
    sweep_matches_per_gate(ansatz.x0, gates, thetas, h)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_gates_at_angle_zero_change_no_value(shape, zero):
    # a gate at exactly 0 is skipped, first and last gates included: real
    # pool tables, then complex hopping tables and the interaction phase
    _, _, sector, pool, orbits = grid_problem(*shape, 4.0)
    rng = np.random.default_rng(11)
    gates = [orbits[i] for i in rng.integers(len(pool), size=20)]
    thetas = rng.uniform(-np.pi, np.pi, size=20)
    thetas[[0, 3, 4, 11, 19]] = zero
    sweep_matches_per_gate(random_sector_vector(sector.states, 11), gates, thetas,
                           sector.matrix.real)
    ansatz, h = hva_gates(*shape, 2)
    thetas = rng.uniform(-np.pi, np.pi, size=len(ansatz.sector_gates))
    thetas[::3] = zero
    thetas[-1] = zero
    sweep_matches_per_gate(ansatz.x0, ansatz.sector_gates, thetas, h)


def count_overlaps(monkeypatch) -> list[str]:
    """Names of the overlap kernels called from here on, one per call."""
    calls = []
    for name in ("_pair_overlap", "sector_overlap"):
        def counted(*args, _name=name, _kernel=getattr(statevector, name)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(statevector, name, counted)
    return calls


def test_gates_at_angle_zero_do_no_rotation(monkeypatch):
    # at the all-zero point neither the run nor the sweep builds a rotation,
    # every gate still gets its gradient, and the sweep takes one overlap per
    # generator: 25 for the 260 gates of a 10-layer 2x4 circuit
    ansatz, hva_h = hva_gates(2, 2, 1)
    layered, layered_h = hva_gates(2, 4, 10)
    _, _, sector, _, orbits = grid_problem(2, 2, 4.0)
    cases = [(ansatz.x0, ansatz.sector_gates, hva_h),
             (layered.x0, layered.sector_gates, layered_h),
             (random_sector_vector(sector.states, 3), orbits, sector.matrix.real)]
    want = [per_gate_sweep(x0, gates, np.zeros(len(gates)), h) for x0, gates, h in cases]
    assert len(layered.sector_gates) == 260
    assert len({id(gate) for gate in layered.sector_gates}) == 25

    def refuse(*args):
        raise AssertionError("a gate at angle 0 was rotated")

    for name in ("_rotation", "_phase_factors"):
        monkeypatch.setattr(statevector, name, refuse)
    overlaps = count_overlaps(monkeypatch)
    for (x0, gates, h), (want_energy, want_grads) in zip(cases, want):
        zeros = np.zeros(len(gates))
        assert np.array_equal(sector_run(x0, gates, zeros), x0)
        overlaps.clear()
        energy, grads = adjoint_evaluation(x0, gates, zeros, h)
        assert len(overlaps) == len({id(gate) for gate in gates})
        assert energy == want_energy
        np.testing.assert_array_equal(grads, want_grads)


@pytest.mark.parametrize("between, n_overlaps", [(0.7, 4), (0.0, 3)])
def test_a_rotation_between_two_copies_of_a_generator_takes_both_overlaps(
        monkeypatch, between, n_overlaps):
    # a hopping gate at angle 0, then another gate, then the same hopping
    # gate again: its first overlap serves the second copy only if the
    # gate between them did not rotate x and b
    ansatz, h = hva_gates(2, 2, 1)
    phase, hop, other = ansatz.sector_gates[:3]
    gates = [phase, hop, other, hop]
    thetas = np.array([0.4, 0.0, between, 0.0])
    want_energy, want_grads = per_gate_sweep(ansatz.x0, gates, thetas, h)
    overlaps = count_overlaps(monkeypatch)
    energy, grads = adjoint_evaluation(ansatz.x0, gates, thetas, h)
    assert len(overlaps) == n_overlaps
    assert energy == want_energy
    np.testing.assert_array_equal(grads, want_grads)
