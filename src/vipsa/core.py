"""Adaptive growth of the mode-register ansatz.

The circuit starts from the Fermi sea and grows by epochs: screen the pool
by energy gradient, keep everything within a ratio r of the best, append
those rotations at angle 0, then re-optimize every parameter with ADAM until
the energy stops moving.  The pool itself comes straight from the scattering
quadruples of the interaction, keeping only moves with a nonzero kinetic
energy gap.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fermions import LadderTerm, PauliSum, jordan_wigner
from .hamiltonians import (
    AMPLITUDE_DROP_TOL,
    GroundSpace,
    InteractionQuadruple,
    SectorHamiltonian,
    build_kspace,
    fidelity,
    ground_space,
    interaction_quadruples,
)
from .lattice import DEGENERACY_TOL, GridSpec, default_filling, fermi_sea
from .statevector import (
    AnsatzCircuit,
    PoolRotation,
    StateVector,
    apply_pauli_sum,
    basis_state,
    expectation_and_gradient,  # noqa: F401 - off the run path; benchmarks/tracing.py hooks it here
    orbit_overlap,
    pool_generator_overlap,
    sector_expectation_and_gradient,
    sector_orbit,
    sector_run,
)


@dataclass(frozen=True)
class PoolOperator:
    """One candidate rotation generator A = O - O† with its bookkeeping."""

    quadruple: InteractionQuadruple
    term: LadderTerm
    label: str

    @property
    def eps(self) -> float:
        return self.quadruple.energy_gap

    @property
    def amplitude(self) -> float:
        return self.quadruple.amplitude

    def generator(self, n_qubits: int) -> PauliSum:
        """JW image of O - O†, for dense symmetry checks."""
        image = jordan_wigner(self.term, n_qubits)
        return image - image.dagger()


def _pool_label(q: InteractionQuadruple) -> str:
    return f"A{q.up_to},{q.down_to}|{q.down_from},{q.up_from}"


def build_pool(grid: GridSpec) -> list[PoolOperator]:
    """Pool of scattering rotations: nonzero gap, four distinct orbitals.

    Of each conjugate pair only the lexicographically smaller orientation is
    kept; its rotation already covers both directions.  Order is canonical
    (sorted by index tuple) so downstream gate sequences are reproducible.
    """
    pool = []
    for q in interaction_quadruples(grid):
        if abs(q.amplitude) <= AMPLITUDE_DROP_TOL:
            continue
        if abs(q.energy_gap) <= DEGENERACY_TOL:
            continue
        forward = (q.up_to, q.down_to, q.down_from, q.up_from)
        if forward >= q.conjugate_indices():
            continue
        if q.up_to == q.up_from or q.down_to == q.down_from:
            # same-mode moves have fewer than four distinct orbitals
            continue
        pool.append(PoolOperator(q, q.ladder_term(), _pool_label(q)))
    pool.sort(key=lambda p: (p.quadruple.up_to, p.quadruple.down_to,
                             p.quadruple.down_from, p.quadruple.up_from))
    return pool


def _apply_operator(h, psi: StateVector) -> StateVector:
    """Accept either a PauliSum or anything with .apply (sector matrices)."""
    if isinstance(h, PauliSum):
        return apply_pauli_sum(h, psi)
    return h.apply(psi)


def pool_gradients(psi: StateVector, h, pool: list[PoolOperator]) -> np.ndarray:
    """g_i = <psi|[h, A_i]|psi>, via one h application shared by all operators.

    For Hermitian h and anti-Hermitian A the commutator expectation reduces
    exactly to 2 Re <h psi|A psi>, so each operator costs only two gathers.
    """
    image = _apply_operator(h, psi)
    return np.array([2.0 * pool_generator_overlap(p.term, image, psi).real
                     for p in pool])


def sector_pool_gradients(x: np.ndarray, h, orbits) -> np.ndarray:
    """pool_gradients for a real sector vector x, real sector matrix h and
    the pool's orbit tables over the same basis."""
    image = h @ x
    return np.array([2.0 * orbit_overlap(orbit, image, x) for orbit in orbits])


def select(gradients: np.ndarray, r: float, labels: list[str]) -> list[int]:
    """Indices with |g| >= r * max|g|, strongest first, ties broken by label."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"selection ratio must be in (0, 1], got {r}")
    if len(gradients) != len(labels):
        raise ValueError("one label per gradient required")
    if len(gradients) == 0:
        return []
    magnitudes = np.abs(np.asarray(gradients, dtype=float))
    top = magnitudes.max()
    if top == 0.0:
        return []
    chosen = [i for i in range(len(magnitudes)) if magnitudes[i] >= r * top]
    chosen.sort(key=lambda i: (-magnitudes[i], labels[i]))
    return chosen


@dataclass(frozen=True)
class VipsaConfig:
    """Loop controls; defaults follow the benchmark settings."""

    r: float = 0.1
    eps1: float = 1e-2
    eps2: float = 1e-2
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    stabilizer: float = 1e-8
    max_epochs: int = 30
    max_inner_steps: int = 2000
    convergence_window: int = 10

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        for name in ("eps1", "eps2", "lr", "stabilizer"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, low in (("beta1", 0.0), ("beta2", 0.0)):
            if not low <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        for name in ("max_epochs", "max_inner_steps", "convergence_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class AdamResult:
    thetas: np.ndarray
    energy: float
    energies: np.ndarray  # one entry per evaluation, starting at the input point
    steps: int
    converged: bool
    history: np.ndarray | None = None  # parameter vector per evaluation, if kept


def adam_minimize(thetas: np.ndarray, evaluate, config: VipsaConfig,
                  keep_history: bool = False) -> AdamResult:
    """ADAM with bias correction over an arbitrary parameter vector.

    `evaluate(thetas)` returns (energy, gradient).  Converged means the energy
    moved less than eps2 between evaluations for convergence_window consecutive
    steps; an exactly stationary starting point converges immediately.  The
    best visited point is returned, so a pass can never raise the energy.
    """
    thetas = np.array(thetas, dtype=float)
    energy, grads = evaluate(thetas)
    if not math.isfinite(energy):
        raise RuntimeError(f"non-finite energy {energy} at the starting point")
    history = [thetas.copy()] if keep_history else None
    if len(thetas) == 0 or np.abs(grads).max() == 0.0:
        return AdamResult(thetas, energy, np.array([energy]), 0, True,
                          np.array(history) if keep_history else None)

    best_energy, best_thetas = energy, thetas.copy()
    energies = [energy]
    m = np.zeros_like(thetas)
    v = np.zeros_like(thetas)
    steps, streak, converged = 0, 0, False
    for step in range(1, config.max_inner_steps + 1):
        m = config.beta1 * m + (1.0 - config.beta1) * grads
        v = config.beta2 * v + (1.0 - config.beta2) * grads ** 2
        m_hat = m / (1.0 - config.beta1 ** step)
        v_hat = v / (1.0 - config.beta2 ** step)
        thetas = thetas - config.lr * m_hat / (np.sqrt(v_hat) + config.stabilizer)
        previous = energy
        energy, grads = evaluate(thetas)
        if not math.isfinite(energy):
            raise RuntimeError(f"non-finite energy {energy} at inner step {step}")
        energies.append(energy)
        if keep_history:
            history.append(thetas.copy())
        steps = step
        if energy < best_energy:
            best_energy, best_thetas = energy, thetas.copy()
        streak = streak + 1 if abs(energy - previous) < config.eps2 else 0
        if streak >= config.convergence_window:
            converged = True
            break
    return AdamResult(best_thetas, best_energy, np.array(energies), steps, converged,
                      np.array(history) if keep_history else None)


def adam_optimize(x0: np.ndarray, orbits, thetas: np.ndarray, h,
                  config: VipsaConfig) -> AdamResult:
    """Re-optimize every angle of the sector circuit `orbits`, starting at thetas."""
    return adam_minimize(
        thetas, lambda t: sector_expectation_and_gradient(x0, orbits, t, h), config)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    max_gradient: float
    selected: tuple[str, ...]
    n_params: int
    inner_steps: int
    energy: float
    fidelity: float

    @property
    def n_selected(self) -> int:
        return len(self.selected)


EPOCH_CSV_COLUMNS = ("epoch", "max_gradient", "n_selected", "n_params",
                     "inner_steps", "energy", "fidelity")


def epoch_csv_row(record: EpochRecord) -> list:
    return [record.epoch, record.max_gradient, record.n_selected, record.n_params,
            record.inner_steps, record.energy, record.fidelity]


@dataclass
class RunResult:
    grid: GridSpec
    n_up: int
    n_down: int
    pool_size: int
    records: list[EpochRecord]
    status: str  # "converged" if the gradient test ended the loop, else "exhausted"
    final_energy: float
    ground: GroundSpace
    circuit: AnsatzCircuit
    step_energies: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def final_fidelity(self) -> float:
        if self.records:
            return self.records[-1].fidelity
        return fidelity(self.circuit.run(), self.ground)


def vipsa_run(grid: GridSpec, n_up: int | None = None, n_down: int | None = None,
              config: VipsaConfig | None = None,
              reference: GroundSpace | None = None,
              progress=None) -> RunResult:
    """Full adaptive loop in the mode register of one grid.

    The reference ground space (for fidelities) is diagonalized on the spot
    unless a precomputed one is passed in.  `progress`, if given, is called
    with each finished EpochRecord.  When the pool gradient drops below eps1
    a terminal record with an empty selection is emitted, so a trace always
    shows the state the loop stopped in.

    The loop works on one real vector over the (n_up, n_down) sector basis,
    with every pool generator as an orbit table into it.  The returned
    circuit holds the same rotations at their final angles on the full
    register, for replay against the reference kernels.
    """
    config = config or VipsaConfig()
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    h_k, _ = build_kspace(grid)
    pool = build_pool(grid)
    labels = [p.label for p in pool]
    sector = SectorHamiltonian(h_k, grid.n_qubits, n_up, n_down)
    if reference is None:
        reference = ground_space(h_k, grid.n_qubits, n_up, n_down)
    if not np.array_equal(reference.states, sector.states):
        raise ValueError("reference ground space is not over the run's sector basis")
    # states and generators are real, so the imaginary part of h, which is
    # antisymmetric, adds nothing to <x|h|x> or to <h x|A x>
    h = sector.matrix.real
    orbits = [sector_orbit(p.term, sector.states) for p in pool]
    sea = fermi_sea(grid, n_up, n_down)
    initial = basis_state(sea.occupied_qubits(), grid.n_qubits)
    x0 = initial.amplitudes[sector.states].real.copy()
    gates: list[int] = []  # pool index of each rotation, in circuit order
    thetas = np.zeros(0)
    x = x0

    records: list[EpochRecord] = []
    step_energies: list[tuple[int, int, float]] = []
    status = "exhausted"
    for epoch in range(config.max_epochs):
        grads = sector_pool_gradients(x, h, orbits)
        max_gradient = float(np.abs(grads).max()) if len(grads) else 0.0
        if max_gradient < config.eps1:
            status = "converged"
            terminal = EpochRecord(
                epoch=epoch,
                max_gradient=max_gradient,
                selected=(),
                n_params=len(gates),
                inner_steps=0,
                energy=float(x @ (h @ x)),
                fidelity=reference.sector_fidelity(x),
            )
            records.append(terminal)
            if progress is not None:
                progress(terminal)
            break
        chosen = select(grads, config.r, labels)
        gates.extend(chosen)
        circuit_orbits = [orbits[i] for i in gates]
        outcome = adam_optimize(x0, circuit_orbits, np.append(thetas, np.zeros(len(chosen))),
                                h, config)
        thetas = outcome.thetas
        x = sector_run(x0, circuit_orbits, thetas)
        record = EpochRecord(
            epoch=epoch,
            max_gradient=max_gradient,
            selected=tuple(labels[i] for i in chosen),
            n_params=len(gates),
            inner_steps=outcome.steps,
            energy=outcome.energy,
            fidelity=reference.sector_fidelity(x),
        )
        records.append(record)
        step_energies.extend((epoch, s, e) for s, e in enumerate(outcome.energies))
        if progress is not None:
            progress(record)

    circuit = AnsatzCircuit(initial, [PoolRotation(pool[i].term, theta)
                                      for i, theta in zip(gates, thetas)])
    return RunResult(grid, n_up, n_down, len(pool), records, status,
                     records[-1].energy, reference, circuit, step_energies)


@dataclass(frozen=True)
class FirstOrderResult:
    thetas: np.ndarray          # one angle per pool operator, canonical order
    reference: StateVector      # normalized (1 - sum V O / gap)|sea>
    sequential: StateVector     # the assigned rotations applied in pool order


def first_order_oracle(grid: GridSpec, n_up: int | None = None,
                       n_down: int | None = None) -> FirstOrderResult:
    """Weak-coupling angle assignment sin(theta) = -V/gap and its target.

    The reference state applies the first-order correction as plain linear
    algebra over the full orientation table; the sequential state instead
    runs the pool rotations at the assigned angles.  The two agree to second
    order in the interaction strength.
    """
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    sea = fermi_sea(grid, n_up, n_down)
    phi0 = basis_state(sea.occupied_qubits(), grid.n_qubits)

    accumulated = phi0.amplitudes.copy()
    for q in interaction_quadruples(grid):
        if q.is_diagonal or abs(q.energy_gap) <= DEGENERACY_TOL:
            continue
        image = apply_pauli_sum(jordan_wigner(q.ladder_term(), grid.n_qubits), phi0)
        accumulated -= (q.amplitude / q.energy_gap) * image.amplitudes
    accumulated /= np.linalg.norm(accumulated)
    reference = StateVector(grid.n_qubits, accumulated)

    pool = build_pool(grid)
    thetas = np.zeros(len(pool))
    for i, p in enumerate(pool):
        ratio = -p.amplitude / p.eps
        if abs(ratio) > 1.0:
            raise ValueError(f"|V/gap| = {abs(ratio):.3f} > 1 for {p.label}; "
                             "the angle assignment needs weak coupling")
        thetas[i] = math.asin(ratio)
    circuit = AnsatzCircuit(phi0, [PoolRotation(p.term, t) for p, t in zip(pool, thetas)])
    return FirstOrderResult(thetas, reference, circuit.run())
