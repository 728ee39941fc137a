"""Full-register replays of sector-resident runs and ansätze.

The library keeps every state over the sorted (n_up, n_down) sector basis.
These helpers rebuild the same circuits as gate objects on the 2^n register,
so tests can check results against the reference kernels: the adaptive
circuit from the pool labels and angles a RunResult records, the layered
circuit from an HvaAnsatz's layout and parameter map.  The register's basis
states are `oracles.basis_state`, and `register_apply` applies a Pauli sum
there through `oracles.per_string_sector_matrix` over every bitstring, which
`register_expectation` takes an energy with; the library keeps neither.  `kept_amplitudes` and `register_screen_operands`
hand such a state to the library's one fidelity and one screen, over a
ground space's kept rows and over every bitstring of the register.
`refuse_full_register` does the opposite: it makes every 2^n kernel raise,
so a test can show that a sector path never reaches one;
`refuse_pauli_path` does the same for the Jordan-Wigner map and the
Pauli-sum sector matrix.
"""

import importlib
import pkgutil

import numpy as np

import vipsa
from vipsa import core, hamiltonians, hva, statevector
from vipsa.core import build_pool
from vipsa.fermions import hopping_pair
from vipsa.hamiltonians import onsite_interaction, sector_matrix
from vipsa.lattice import DOWN, UP, fermi_sea, qubit_index
from vipsa.statevector import (
    AnsatzCircuit,
    DiagonalPhase,
    HoppingRotation,
    PoolRotation,
    StateVector,
    expectation_and_gradient,
    register_orbit,
)

from oracles import basis_state, per_string_sector_matrix


def adaptive_circuit(run) -> AnsatzCircuit:
    """The run's rotations at their final angles, applied to the Fermi sea."""
    terms = {q.label: q.ladder_term() for q in build_pool(run.grid)}
    sea = fermi_sea(run.grid, run.n_up, run.n_down)
    return AnsatzCircuit(basis_state(sea.occupied_qubits(), run.grid.n_qubits),
                         [PoolRotation(terms[label], theta)
                          for label, theta in zip(run.gates, run.thetas)])


def hva_circuit(ansatz, params) -> AnsatzCircuit:
    """The layered ansatz at a parameter vector: per layer a half interaction
    step, the vertical then the horizontal matchings, and the second half
    step, applied to the Slater amplitudes scattered onto the register."""
    grid, layout = ansatz.grid, ansatz.layout
    interaction = onsite_interaction(grid)
    gates = []
    for _ in range(layout.layers):
        gates.append(DiagonalPhase(interaction))
        for matching in layout.vertical + layout.horizontal:
            for i, j in matching:
                for spin in (UP, DOWN):
                    pair = hopping_pair(qubit_index(i, spin), qubit_index(j, spin))
                    gates.append(HoppingRotation(pair))
        gates.append(DiagonalPhase(interaction))
    initial = StateVector.zero(grid.n_qubits)
    initial.amplitudes[ansatz.states] = ansatz.x0
    circuit = AnsatzCircuit(initial, gates)
    circuit.set_thetas(ansatz.angles(params))
    return circuit


def hva_energy_and_gradient(ansatz, params, apply_h):
    """Energy and parameter gradient of the layered ansatz on the full register."""
    energy, per_gate = expectation_and_gradient(hva_circuit(ansatz, params), apply_h)
    return energy, ansatz.fold(per_gate)


def register_apply(h, n_qubits: int):
    """psi -> h|psi> on the n-qubit register: h over every bitstring, as the
    per-string oracle builds it, so also for a non-Hermitian h."""
    matrix = per_string_sector_matrix(h, np.arange(1 << n_qubits, dtype=np.uint32), n_qubits)
    return lambda psi: StateVector(n_qubits, matrix @ psi.amplitudes)


def register_expectation(h, psi) -> float:
    """<psi|h|psi> of a full-register state, with h applied by register_apply;
    h must be Hermitian."""
    if not h.is_hermitian():
        raise ValueError("register_expectation requires a Hermitian Pauli sum")
    return psi.dot(register_apply(h, psi.n_qubits)(psi)).real


def kept_amplitudes(psi, gs) -> np.ndarray:
    """A full-register state's amplitudes on the ground space's kept rows,
    gs.states[gs.matrix_rows] (every sector state when it keeps none), as
    hamiltonians.fidelity takes them; the state must have no weight anywhere
    else."""
    kept = gs.states if gs.matrix_rows is None else gs.states[gs.matrix_rows]
    elsewhere = psi.amplitudes.copy()
    elsewhere[kept] = 0.0
    assert not elsewhere.any(), "state has weight off the ground space's kept rows"
    return psi.amplitudes[kept]


def register_screen_operands(grid, h):
    """h over every bitstring of the register, and the pool's orbit tables
    there: core.pool_gradients screens a full-register state with them."""
    states = np.arange(1 << grid.n_qubits, dtype=np.uint32)
    return (sector_matrix(h, states, grid.n_qubits),
            [register_orbit(q.ladder_term(), grid.n_qubits) for q in build_pool(grid)])


FULL_REGISTER_KERNELS = ("register_orbit",)


REFUSED_MODULES = (core, hamiltonians, hva, statevector)


def refuse_full_register(monkeypatch) -> None:
    """Make every 2^n kernel raise, at each name a vipsa module looks it up by."""

    def refuse(*args, **kwargs):
        raise AssertionError("full-register kernel reached from a sector path")

    for module in REFUSED_MODULES:
        for name in FULL_REGISTER_KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for cls in (statevector.PoolRotation, statevector.HoppingRotation, statevector.DiagonalPhase):
        monkeypatch.setattr(cls, "apply", refuse)
        monkeypatch.setattr(cls, "generator_apply", refuse)
    monkeypatch.setattr(hamiltonians.SectorHamiltonian, "apply", refuse)


PAULI_PATH = ("jordan_wigner", "jordan_wigner_images", "sector_matrix")


def refuse_pauli_path(monkeypatch) -> None:
    """Make the Jordan-Wigner map, batched or per term, and the Pauli-sum
    sector matrix raise, at every name a vipsa module looks them up by."""

    def refuse(*args, **kwargs):
        raise AssertionError("Pauli-string path reached")

    for info in pkgutil.iter_modules(vipsa.__path__):
        module = importlib.import_module(f"vipsa.{info.name}")
        for name in PAULI_PATH:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
