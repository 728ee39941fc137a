"""Layered hopping/interaction ansatz in the site register.

Each layer applies a half interaction step, the vertical matchings, the
horizontal matchings, then the second half interaction step.  Edges of the
same matching never share a site, so every matching exponential factorizes
exactly into two-qubit-pair rotations; one parameter drives each matching and
one drives the interaction of each layer.  The reference point is the Slater
determinant of the lowest real hopping orbitals, which makes the all-zero
parameter point an exact stationary state of the optimization.

The run works on one complex vector over the (n_up, n_down) sector, with the
hopping gates as orbit tables and the interaction as its values on the
sector bitstrings, U times the count of doubly occupied sites.
"""

from dataclasses import dataclass

import numpy as np

from .core import AdamResult, EpochRecord, VipsaConfig, adam_minimize
from .fermions import hopping_pair
from .hamiltonians import (
    GroundSpace,
    build_real,
    fidelity,  # noqa: F401 - off the run path; benchmarks/tracing.py hooks it here
    ground_space,
    sector_basis,
)
from .lattice import DOWN, UP, GridSpec, default_filling, hopping_edges, qubit_index, real_orbital_basis
from .statevector import (
    SectorPhase,
    expectation_and_gradient,  # noqa: F401 - off the run path; benchmarks/tracing.py hooks it here
    sector_expectation_and_gradient,
    sector_hopping_orbit,
    sector_run,
    slater_amplitudes,
)

Edge = tuple[int, int]

# The all-zero point is exactly stationary: the reference state is real, every
# generator is real, so each gradient component is the real part of a purely
# imaginary number.  Optimizers normally leave it anyway because rounding noise
# feeds ADAM's normalized step; this fixed offset plays that role without
# making the trajectory machine-dependent.
STATIONARY_KICK = 1e-2
STATIONARY_TOL = 1e-12


def edge_matchings(edges: list[Edge]) -> list[list[Edge]]:
    """Greedy partition into vertex-disjoint groups, in given edge order."""
    matchings: list[list[Edge]] = []
    used: list[set[int]] = []
    for edge in edges:
        i, j = edge
        for sites, group in zip(used, matchings):
            if i not in sites and j not in sites:
                group.append(edge)
                sites.update(edge)
                break
        else:
            matchings.append([edge])
            used.append({i, j})
    return matchings


@dataclass(frozen=True)
class HvaLayout:
    """Structure of the layered ansatz for one grid."""

    grid: GridSpec
    layers: int
    horizontal: tuple[tuple[Edge, ...], ...]
    vertical: tuple[tuple[Edge, ...], ...]

    @property
    def params_per_layer(self) -> int:
        return 1 + len(self.horizontal) + len(self.vertical)

    @property
    def n_params(self) -> int:
        return self.layers * self.params_per_layer


def build_layout(grid: GridSpec, layers: int = 10) -> HvaLayout:
    if layers < 1:
        raise ValueError(f"layers must be at least 1, got {layers}")
    horizontal, vertical = hopping_edges(grid)
    return HvaLayout(
        grid, layers,
        tuple(tuple(m) for m in edge_matchings(horizontal)),
        tuple(tuple(m) for m in edge_matchings(vertical)),
    )


class HvaAnsatz:
    """Gate expansion of a layout over the (n_up, n_down) sector, plus the
    shared-parameter bookkeeping.

    Gate angles are derived from the reduced parameter vector: hopping gates
    take -t * theta of their matching, and each of the two interaction gates
    per layer takes theta_U / 2 on the full U sum.  Gradients are folded back
    through the same map.  Each gate in `sector_gates` is an orbit table or a
    diagonal phase over `states`, acting on the Slater amplitudes `x0` there.
    """

    def __init__(self, grid: GridSpec, n_up: int, n_down: int, layers: int = 10):
        self.layout = build_layout(grid, layers)
        self.grid = grid
        _, w, order = real_orbital_basis(grid)
        self.states = sector_basis(grid.n_qubits, n_up, n_down)
        self.x0 = slater_amplitudes(w, order[:n_up], order[:n_down], self.states)
        # U per doubly occupied site: up qubit 2i and down qubit 2i + 1 both set
        doubles = np.bitwise_count(self.states & (self.states >> 1) & np.uint32(0x55555555))
        phase = SectorPhase(grid.u * doubles)
        orbits = {}  # one table per hopping pair, shared by every layer

        self.sector_gates = []
        self._map: list[tuple[int, float]] = []  # (parameter index, scale) per gate

        def add_interaction(param: int):
            self.sector_gates.append(phase)
            self._map.append((param, 0.5))

        def add_matching(param: int, matching: tuple[Edge, ...]):
            for i, j in matching:
                for spin in (UP, DOWN):
                    qubits = qubit_index(i, spin), qubit_index(j, spin)
                    if qubits not in orbits:
                        orbits[qubits] = sector_hopping_orbit(hopping_pair(*qubits), self.states)
                    self.sector_gates.append(orbits[qubits])
                    self._map.append((param, -grid.t))

        per_layer = self.layout.params_per_layer
        for layer in range(self.layout.layers):
            base = layer * per_layer
            add_interaction(base)
            offset = 1
            for matching in self.layout.vertical:
                add_matching(base + offset, matching)
                offset += 1
            for matching in self.layout.horizontal:
                add_matching(base + offset, matching)
                offset += 1
            add_interaction(base)

    @property
    def n_params(self) -> int:
        return self.layout.n_params

    def angles(self, params: np.ndarray) -> np.ndarray:
        """Gate angles of a parameter vector."""
        if len(params) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(params)}")
        return np.array([scale * params[idx] for idx, scale in self._map])

    def fold(self, per_gate: np.ndarray) -> np.ndarray:
        """Per-gate gradients summed back onto the parameters."""
        grads = np.zeros(self.n_params)
        for gate_grad, (idx, scale) in zip(per_gate, self._map):
            grads[idx] += scale * gate_grad
        return grads

    def sector_state(self, params: np.ndarray) -> np.ndarray:
        """The ansatz state over `states`."""
        return sector_run(self.x0, self.sector_gates, self.angles(params))


@dataclass
class HvaResult:
    grid: GridSpec
    n_up: int
    n_down: int
    layout: HvaLayout
    records: list[EpochRecord]  # one per evaluation, as a one-step epoch
    status: str  # "converged" | "exhausted"
    final_energy: float
    final_fidelity: float
    ground: GroundSpace
    parameters: np.ndarray
    history: np.ndarray  # parameter vector per evaluation, aligned with records
    ansatz: HvaAnsatz

    @property
    def step_energies(self) -> list[tuple[int, int, float]]:
        """(epoch, step, energy) per evaluation, all in epoch 0."""
        return [(0, r.epoch, r.energy) for r in self.records]


def hva_run(grid: GridSpec, n_up: int | None = None, n_down: int | None = None,
            config: VipsaConfig | None = None, layers: int = 10,
            reference: GroundSpace | None = None) -> HvaResult:
    """Optimize all layer parameters from zero against the site-register model.

    The exact all-zero point is evaluated and recorded first; since it is
    stationary, the optimization proper starts from STATIONARY_KICK on every
    parameter.  Each evaluation is recorded as a one-step EpochRecord, along
    with the parameter vector itself so any intermediate state can be
    reconstructed exactly.  Every evaluation runs on the sector vector.
    The sector Hamiltonian comes from the reference ground space, diagonalized
    on the spot unless passed in.
    """
    config = config or VipsaConfig()
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    if reference is None:
        reference = ground_space(build_real(grid), grid.n_qubits, n_up, n_down)
    if not np.array_equal(reference.states, sector_basis(grid.n_qubits, n_up, n_down)):
        raise ValueError("reference ground space is not over the run's sector basis")
    ansatz = HvaAnsatz(grid, n_up, n_down, layers)

    records: list[EpochRecord] = []
    history: list[np.ndarray] = []  # the parameter vector of each record

    def evaluate(params):
        thetas = ansatz.angles(params)
        final = sector_run(ansatz.x0, ansatz.sector_gates, thetas)
        fid = reference.sector_fidelity(final)  # before the gradient sweep reuses the buffer
        energy, per_gate = sector_expectation_and_gradient(
            ansatz.x0, ansatz.sector_gates, thetas, reference.matrix, final=final)
        grads = ansatz.fold(per_gate)
        records.append(EpochRecord(len(records), float(np.abs(grads).max()), (),
                                   ansatz.n_params, 1, energy, fid))
        history.append(params.copy())
        return energy, grads

    start = np.zeros(ansatz.n_params)
    _, grads0 = evaluate(start)
    if np.abs(grads0).max() <= STATIONARY_TOL:
        start = np.full(ansatz.n_params, STATIONARY_KICK)
    outcome: AdamResult = adam_minimize(start, evaluate, config)
    status = "converged" if outcome.converged else "exhausted"
    # adam returns the first minimum of outcome.energies, and its evaluations
    # are recorded after the zero point's, so that record holds the fidelity
    final_fid = records[1 + int(np.argmin(outcome.energies))].fidelity
    return HvaResult(grid, n_up, n_down, ansatz.layout, records, status,
                     outcome.energy, final_fid, reference, outcome.thetas,
                     np.array(history), ansatz)
