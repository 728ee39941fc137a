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
    SiteHamiltonian,
    build_real,  # noqa: F401 - off the run path; benchmarks/tracing.py hooks it here
    double_occupancy,
    fidelity,
    ground_space,
    sector_basis,
)
from .lattice import (
    DOWN,
    UP,
    GridSpec,
    default_filling,
    hopping_edges,
    qubit_index,
    real_orbital_basis,
    translations,
)
from .statevector import (
    SectorPhase,
    expectation_and_gradient,  # noqa: F401 - off the run path; benchmarks/tracing.py hooks it here
    sector_adjoint_sweep,
    sector_expectation,
    sector_hopping_orbit,
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

# Most gates a layered circuit may hold: HvaAnsatz keeps about 24 bytes per
# gate, 53 at an evaluation's peak (tracemalloc on 2x2), so about 55 MB;
# build_layout refuses more before anything is built.
HVA_GATE_BUDGET = 1 << 20


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
    # two interaction gates per layer, and one gate per edge and spin
    gates = layers * 2 * (1 + len(horizontal) + len(vertical))
    if gates > HVA_GATE_BUDGET:
        raise ValueError(f"layers = {layers} gives {gates} gates on {grid.label()}, more than "
                         f"the {HVA_GATE_BUDGET} a layered circuit may hold")
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
    through the same map.  Each gate in `sector_gates` is an orbit table, with
    complex128 signs, or a diagonal phase over `states`, acting on the
    Slater amplitudes `x0` there.  Every layer repeats the same gate
    objects.
    """

    def __init__(self, grid: GridSpec, n_up: int, n_down: int, layers: int = 10):
        self.layout = build_layout(grid, layers)
        self.grid = grid
        _, w, order = real_orbital_basis(grid)
        self.states = sector_basis(grid.n_qubits, n_up, n_down)
        self.x0 = slater_amplitudes(w, order[:n_up], order[:n_down], self.states)
        phase = SectorPhase(grid.u * double_occupancy(self.states))

        # (gate, its parameter's offset in the layer, scale) of one layer;
        # every layer repeats these gates on its own parameters
        layer = [(phase, 0, 0.5)]
        for offset, matching in enumerate(self.layout.vertical + self.layout.horizontal, 1):
            for i, j in matching:
                for spin in (UP, DOWN):
                    qubits = qubit_index(i, spin), qubit_index(j, spin)
                    orbit = sector_hopping_orbit(hopping_pair(*qubits), self.states)
                    # complex signs, as the vector they rotate, so no product casts them
                    orbit = orbit._replace(sign=orbit.sign.astype(np.complex128))
                    layer.append((orbit, offset, -grid.t))
        gates, offsets, scales = zip(*layer, layer[0])
        layers = self.layout.layers
        self.sector_gates = list(gates) * layers
        # parameter index and scale of each gate, in circuit order
        self._index = np.add.outer(np.arange(layers) * self.layout.params_per_layer,
                                   offsets).ravel()
        self._scale = np.tile(scales, layers)

    @property
    def n_params(self) -> int:
        return self.layout.n_params

    def angles(self, params: np.ndarray) -> np.ndarray:
        """Gate angles of a parameter vector."""
        if len(params) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(params)}")
        return self._scale * np.asarray(params)[self._index]

    def fold(self, per_gate: np.ndarray) -> np.ndarray:
        """Per-gate gradients summed back onto the parameters."""
        # bincount adds each parameter's terms in gate order
        return np.bincount(self._index, self._scale * per_gate, minlength=self.n_params)


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
    The sector Hamiltonian comes from the reference ground space, solved on
    the spot in the site register's momentum blocks unless passed in; one
    without a whole-sector matrix is a ValueError.
    """
    config = config or VipsaConfig()
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    if reference is None:
        reference = ground_space(SiteHamiltonian(grid), translations(grid), n_up, n_down, keep=True)
    if (reference.n_qubits, reference.n_up, reference.n_down) != (grid.n_qubits, n_up, n_down):
        raise ValueError("reference ground space is not over the run's sector basis")
    if reference.matrix is None or len(reference.matrix_rows) != len(reference.states):
        raise ValueError("reference ground space holds no sector matrix of the whole sector")
    ansatz = HvaAnsatz(grid, n_up, n_down, layers)

    records: list[EpochRecord] = []
    history: list[np.ndarray] = []  # the parameter vector of each record

    def evaluate(params):
        # the gradient is taken at every evaluation, even the one that ends
        # the pass, because every record stores its max|g|; adam_minimize
        # refuses a non-finite energy or gradient, so numpy need not warn
        # of the overflow that makes one
        thetas = ansatz.angles(params)
        with np.errstate(over="ignore", invalid="ignore"):
            energy, x, b = sector_expectation(ansatz.x0, ansatz.sector_gates, thetas,
                                              reference.matrix)
            fid = fidelity(x, reference)  # before the gradient sweep rotates x back
            grads = ansatz.fold(sector_adjoint_sweep(ansatz.sector_gates, thetas, x, b))
        records.append(EpochRecord(len(records), float(np.abs(grads).max()), (),
                                   ansatz.n_params, 1, energy, fid))
        history.append(params.copy())
        return energy, lambda: grads

    start = np.zeros(ansatz.n_params)
    _, gradient0 = evaluate(start)
    if np.abs(gradient0()).max() <= STATIONARY_TOL:
        start = np.full(ansatz.n_params, STATIONARY_KICK)
    outcome: AdamResult = adam_minimize(start, evaluate, config)
    status = "converged" if outcome.converged else "exhausted"
    # adam returns the first minimum of outcome.energies, and its evaluations
    # are recorded after the zero point's, so that record holds the fidelity
    final_fid = records[1 + int(np.argmin(outcome.energies))].fidelity
    return HvaResult(grid, n_up, n_down, ansatz.layout, records, status,
                     outcome.energy, final_fid, reference, outcome.thetas,
                     np.array(history), ansatz)
