"""Sector-coordinate pool kernels against the full-register reference kernels."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vipsa.core import build_pool, pool_gradients, sector_pool_gradients
from vipsa.fermions import ANNIHILATE, CREATE, LadderTerm
from vipsa.hamiltonians import SectorHamiltonian, build_kspace, sector_basis
from vipsa.lattice import GridSpec, default_filling
from vipsa.statevector import (
    AnsatzCircuit,
    PoolRotation,
    StateVector,
    apply_pool_unitary,
    circuit_gradient,
    orbit_overlap,
    pool_generator_overlap,
    rotate_orbit,
    sector_expectation_and_gradient,
    sector_orbit,
)

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


def random_sector_vector(states, seed):
    v = np.random.default_rng(seed).normal(size=len(states))
    return v / np.linalg.norm(v)


def full_register(x, states, n_qubits):
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[states] = x
    return StateVector(n_qubits, amps)


seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-np.pi, np.pi)


@settings(max_examples=60, deadline=None)
@given(sector_problems(), seeds, angles)
def test_sector_rotation_matches_full_register(problem, seed, theta):
    n_qubits, states, term = problem
    x = random_sector_vector(states, seed)
    expected = apply_pool_unitary(term, theta, full_register(x, states, n_qubits))

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
    expected = pool_generator_overlap(term, full_register(phi, states, n_qubits),
                                      full_register(psi, states, n_qubits))
    got = orbit_overlap(sector_orbit(term, states), phi, psi)
    assert abs(got - expected.real) <= TOL
    assert expected.imag == 0.0


def test_orbit_rejects_operator_leaving_the_sector():
    states = sector_basis(8, 2, 2)
    # two down electrons become two up electrons
    term = LadderTerm(1.0, ((0, CREATE), (2, CREATE), (1, ANNIHILATE), (3, ANNIHILATE)))
    with pytest.raises(ValueError):
        sector_orbit(term, states)


@lru_cache(maxsize=None)
def grid_problem(nx, ny, u):
    grid = GridSpec.make(nx, ny, u=u)
    h, _ = build_kspace(grid)
    sector = SectorHamiltonian(h, grid.n_qubits, *default_filling(grid))
    pool = build_pool(grid)
    orbits = [sector_orbit(p.term, sector.states) for p in pool]
    return grid, h, sector, pool, orbits


SHAPES = ((2, 2), (2, 3))


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_sector_screen_matches_pool_gradients(shape, seed):
    grid, _, sector, pool, orbits = grid_problem(*shape, 4.0)
    x = random_sector_vector(sector.states, seed)
    expected = pool_gradients(full_register(x, sector.states, grid.n_qubits), sector, pool)
    got = sector_pool_gradients(x, sector.matrix.real, orbits)
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
                            [PoolRotation(pool[i].term, t) for i, t in zip(gates, thetas)])

    energy, grads = sector_expectation_and_gradient(
        x0, [orbits[i] for i in gates], thetas, sector.matrix.real)
    assert abs(energy - sector.expectation(circuit.run())) <= TOL
    np.testing.assert_allclose(grads, circuit_gradient(circuit, h), rtol=0, atol=TOL)
