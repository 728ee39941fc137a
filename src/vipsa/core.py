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

from . import cache
from .hamiltonians import (
    UNLABELLED,
    GroundSpace,
    InteractionQuadruple,
    build_kspace,
    check_mode_coupling,
    fidelity,
    ground_space,
    interaction_quadruples,
    sector_basis,
)
from .lattice import (
    DEGENERACY_TOL,
    DOWN,
    UP,
    GridSpec,
    default_filling,
    enumerate_modes,
    fermi_sea,
    point_group,
)
from .statevector import (
    Orbit,
    _ladder_orbits,
    _positions,
    expectation_and_gradient,  # noqa: F401 - off the run path; benchmarks/tracing.py hooks it here
    orbit_overlap,
    sector_adjoint_sweep,
    sector_expectation,
    sector_orbit,
    sector_run,
)


def pool_class(q: InteractionQuadruple) -> str:
    """Where a quadruple stands with respect to the pool, checked in this order:
    "diagonal" (a density-density term), "one-sided" (one spin keeps its
    mode, so fewer than four distinct orbitals), "zero-gap" (no kinetic
    energy change) or "pool" (one orientation of a pool operator)."""
    if q.is_diagonal:
        return "diagonal"
    if q.up_to == q.up_from or q.down_to == q.down_from:
        return "one-sided"
    if abs(q.energy_gap) <= DEGENERACY_TOL:
        return "zero-gap"
    return "pool"


def build_pool(grid: GridSpec) -> list[InteractionQuadruple]:
    """Pool of scattering rotations: the quadruples of class "pool", each
    standing for the generator A = O - O† of its ladder term O.

    Of each conjugate pair only the lexicographically smaller orientation is
    kept; its rotation already covers both directions.  Order is canonical
    (sorted by index tuple) so downstream gate sequences are reproducible.
    """
    pool = [q for q in interaction_quadruples(grid)
            if pool_class(q) == "pool"
            and (q.up_to, q.down_to, q.down_from, q.up_from) < q.conjugate_indices()]
    pool.sort(key=lambda q: (q.up_to, q.down_to, q.down_from, q.up_from))
    return pool


@dataclass(frozen=True)
class PoolTables:
    """The pool's rotation generators as orbit tables over one basis.

    `labels` names the operators of build_pool in its canonical order.  The
    table of operator i is src, dst and sign[offsets[i]:offsets[i + 1]] of
    three flat arrays, with src and dst positions into `states`, sorted
    bitstrings that the pool keeps closed: a sector, or one of its momentum
    blocks.  The tables depend only on the grid and those bitstrings, so a
    run can load them (`save`/`load`, like GroundSpace) instead of building
    them again.
    """

    labels: tuple[str, ...]
    states: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        offsets = self.offsets
        if any(array.dtype.kind not in "iu" for array in (self.src, self.dst, offsets)):
            raise ValueError("table positions and offsets must be integers")
        if len(offsets) != len(self.labels) + 1:
            raise ValueError(f"{len(offsets)} table offsets do not fit "
                             f"{len(self.labels)} pool labels")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError("table offsets must start at 0 and never decrease")
        if not len(self.src) == len(self.dst) == len(self.sign) == offsets[-1]:
            raise ValueError(f"tables of {offsets[-1]} entries do not fit flat arrays of "
                             f"{len(self.src)}, {len(self.dst)} and {len(self.sign)}")
        for positions in (self.src, self.dst):
            if len(positions) and (positions.min() < 0 or positions.max() >= len(self.states)):
                raise ValueError(f"table positions leave the {len(self.states)}-state basis")
        # counted, not compared through np.abs, which would copy the array
        units = np.count_nonzero(self.sign == 1.0) + np.count_nonzero(self.sign == -1.0)
        if units != len(self.sign):
            raise ValueError("table signs must be +1 or -1")

    @classmethod
    def build(cls, grid: GridSpec, states: np.ndarray) -> "PoolTables":
        """The orbit tables of build_pool(grid) over sorted bitstrings the pool
        keeps closed."""
        pool = build_pool(grid)
        orbits = [sector_orbit(q.ladder_term(), states) for q in pool]

        def flat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return cls(tuple(q.label for q in pool), states,
                   flat([orbit.src for orbit in orbits], np.intp),
                   flat([orbit.dst for orbit in orbits], np.intp),
                   flat([orbit.sign for orbit in orbits], float),
                   np.cumsum([0] + [len(orbit.src) for orbit in orbits]))

    def orbits(self) -> list[Orbit]:
        """One Orbit per pool operator, as views into the flat arrays."""
        bounds = self.offsets.tolist()
        return [Orbit(self.src[start:end], self.dst[start:end], self.sign[start:end])
                for start, end in zip(bounds, bounds[1:])]

    def save(self, path, key: str | None = None) -> None:
        """Write the fields, and key if given, to path as GroundSpace.save does."""
        cache.write_fields(path, {"labels": np.array(self.labels, dtype=str),
                                  "states": self.states, "src": self.src, "dst": self.dst,
                                  "sign": self.sign, "offsets": self.offsets}, key)

    @classmethod
    def load(cls, path, key: str | None = None) -> "PoolTables":
        """Read saved tables; any file GroundSpace.load would not use, or
        tables that do not fit together, raise ValueError."""
        with cache.reading(path, key) as data:
            return cls(tuple(data["labels"].tolist()), data["states"], data["src"],
                       data["dst"], data["sign"], data["offsets"])


def pool_gradients(x: np.ndarray, h, orbits) -> np.ndarray:
    """g_i = <x|[h, A_i]|x> for a real vector x, a real matrix h and the
    pool's orbit tables, all over one basis: a sector, one of its momentum
    blocks, or every bitstring of the register.

    For Hermitian h and anti-Hermitian A the commutator expectation reduces
    exactly to 2 <h x|A x>, so one h application serves every operator and
    each costs only two gathers.
    """
    image = h @ x
    return np.array([2.0 * orbit_overlap(orbit, image, x) for orbit in orbits])


def select(gradients: np.ndarray, r: float, labels: list[str]) -> list[int]:
    """Indices with |g| >= r * max|g|, strongest first.

    Only exactly equal magnitudes fall back to label order; magnitudes that
    differ by a rounding error keep their magnitude order.
    """
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
    """Loop controls; defaults follow the benchmark settings.  ADAM's step
    size, decay rates and denominator guard are the fixed ADAM_* constants."""

    r: float = 0.1
    eps1: float = 1e-2
    eps2: float = 1e-2
    max_epochs: int = 30
    max_inner_steps: int = 2000
    convergence_window: int = 10

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
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


# ADAM's step size, moment decay rates and denominator guard: Kingma & Ba's
# defaults, fixed because no run needs other values
ADAM_LR = 1e-2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_STABILIZER = 1e-8


def adam_minimize(thetas: np.ndarray, evaluate, config: VipsaConfig) -> AdamResult:
    """ADAM with bias correction over an arbitrary parameter vector.

    `evaluate(thetas)` returns (energy, gradient), where gradient is a
    callable that returns the gradient at thetas.  ADAM calls it at the
    starting point and after each step that another step follows, never at
    the evaluation that ends the pass, whether the step budget or the
    convergence window ends it.  Converged means the energy moved
    less than eps2 between evaluations for convergence_window consecutive
    steps; an exactly stationary starting point converges immediately.  The
    best visited point is returned, so a pass can never raise the energy.
    A non-finite energy, gradient or second moment of the gradient (float64
    overflow at a huge coupling, say) is a ValueError naming it and its
    step.
    """
    def finite(value, name: str, where: str):
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite {name} at {where} (float64 overflow)")
        return value

    thetas = np.array(thetas, dtype=float)
    energy, gradient = evaluate(thetas)
    finite(energy, f"energy {energy}", "the starting point")
    grads = finite(gradient(), "gradient", "the starting point")
    if len(thetas) == 0 or np.abs(grads).max() == 0.0:
        return AdamResult(thetas, energy, np.array([energy]), 0, True)

    best_energy, best_thetas = energy, thetas.copy()
    energies = [energy]
    m = np.zeros_like(thetas)
    v = np.zeros_like(thetas)
    steps, streak, converged = 0, 0, False
    for step in range(1, config.max_inner_steps + 1):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
        with np.errstate(over="ignore"):  # refused just below
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads ** 2
        finite(v, "second moment of the gradient", f"inner step {step}")
        m_hat = m / (1.0 - ADAM_BETA1 ** step)
        v_hat = v / (1.0 - ADAM_BETA2 ** step)
        thetas = thetas - ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_STABILIZER)
        previous = energy
        energy, gradient = evaluate(thetas)
        finite(energy, f"energy {energy}", f"inner step {step}")
        energies.append(energy)
        steps = step
        if energy < best_energy:
            best_energy, best_thetas = energy, thetas.copy()
        streak = streak + 1 if abs(energy - previous) < config.eps2 else 0
        if streak >= config.convergence_window:
            converged = True
            break
        if step < config.max_inner_steps:
            grads = finite(gradient(), "gradient", f"inner step {step}")
    return AdamResult(best_thetas, best_energy, np.array(energies), steps, converged)


def adam_optimize(x0: np.ndarray, orbits, thetas: np.ndarray, h,
                  config: VipsaConfig) -> tuple[AdamResult, np.ndarray | None]:
    """Re-optimize every angle of the sector circuit `orbits`, starting at thetas.

    Returns the AdamResult and, when its best point is the evaluation that
    ended the pass, that evaluation's forward state, which no gradient
    sweep has overwritten; else None in its place.
    """
    closing = {}  # the last evaluation's angles and state, until a sweep overwrites it

    def evaluate(t):
        energy, x, b = sector_expectation(x0, orbits, t, h)
        closing.update(thetas=t, state=x)

        def gradient():
            closing.clear()
            return sector_adjoint_sweep(orbits, t, x, b)

        return energy, gradient

    outcome = adam_minimize(thetas, evaluate, config)
    if closing and np.array_equal(closing["thetas"], outcome.thetas):
        return outcome, closing["state"]
    return outcome, None


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
    # "converged" if the gradient test ended the loop, "empty-pool" if the
    # interaction has off-diagonal moves but none enters the pool, else "exhausted"
    status: str
    final_energy: float
    ground: GroundSpace
    gates: list[str]      # pool label of each rotation, in circuit order
    thetas: np.ndarray    # final angle of each rotation
    step_energies: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def final_fidelity(self) -> float:
        return self.records[-1].fidelity


def vipsa_run(grid: GridSpec, n_up: int | None = None, n_down: int | None = None,
              config: VipsaConfig | None = None,
              reference: GroundSpace | None = None,
              pool: PoolTables | None = None,
              progress=None) -> RunResult:
    """Full adaptive loop in the mode register of one grid, whose coupling
    check_mode_coupling must pass, whatever reference is passed in.

    The reference ground space (for fidelities) is solved on the spot per
    point-group class as `vipsa run` solves it, unless a precomputed one is
    passed in.  Every state the loop builds lives in the Fermi sea's
    momentum block, and its H is the matrix the reference keeps, which must
    be there, real, as the states and generators are, and on the labelled
    block whose rows hold the sea (else a ValueError).  Likewise the pool's
    orbit tables over the block are built unless `pool` passes them in;
    tables over any other bitstrings are a ValueError.  `progress`, if
    given, is called with each finished EpochRecord.  When the pool gradient
    drops below eps1 a terminal record with an empty selection is emitted,
    so a trace always shows the state the loop stopped in.

    The loop works on one real vector over the block's bitstrings, in sector
    order, with every pool generator as an orbit table into it.  An epoch's
    fidelity and the next screen read the state at ADAM's best angles: the
    state adam_optimize hands back, or a fresh sector_run if it hands back
    none.  The result names the rotations by pool label, with their final
    angles.
    """
    check_mode_coupling(grid)
    config = config or VipsaConfig()
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    sea = fermi_sea(grid, n_up, n_down).bitstring()
    if reference is None:
        reference = ground_space(build_kspace(grid)[0], point_group(grid), n_up, n_down, keep=True)
    if (reference.n_qubits, reference.n_up, reference.n_down) != (grid.n_qubits, n_up, n_down):
        raise ValueError("reference ground space is not over the run's sector basis")
    # a labelled space keeps the rows of one momentum block: the sea's if they hold it
    h, rows = reference.matrix, reference.matrix_rows
    block = None if rows is None else reference.states[rows]
    if block is None or UNLABELLED in reference.blocks or sea not in block:
        raise ValueError("reference ground space holds no sector matrix of the Fermi sea's "
                         "momentum block")
    if pool is None:
        pool = PoolTables.build(grid, block)
    if not np.array_equal(pool.states, block):
        raise ValueError("pool tables are not over the Fermi sea's momentum block")
    labels = pool.labels
    orbits = pool.orbits()
    x0 = (block == sea).astype(float)
    gates: list[int] = []  # pool index of each rotation, in circuit order
    thetas = np.zeros(0)
    x = x0

    records: list[EpochRecord] = []
    step_energies: list[tuple[int, int, float]] = []
    status = "exhausted"
    for epoch in range(config.max_epochs):
        grads = pool_gradients(x, h, orbits)
        max_gradient = float(np.abs(grads).max()) if len(grads) else 0.0
        if max_gradient < config.eps1:
            status = "converged"
            if not labels and any(not q.is_diagonal for q in interaction_quadruples(grid)):
                status = "empty-pool"
            chosen, inner_steps, energy = [], 0, float(x @ (h @ x))
        else:
            chosen = select(grads, config.r, labels)
            gates.extend(chosen)
            circuit_orbits = [orbits[i] for i in gates]
            outcome, x = adam_optimize(x0, circuit_orbits,
                                       np.append(thetas, np.zeros(len(chosen))), h, config)
            thetas = outcome.thetas
            if x is None:
                x = sector_run(x0, circuit_orbits, thetas)
            step_energies.extend((epoch, s, e) for s, e in enumerate(outcome.energies))
            inner_steps, energy = outcome.steps, outcome.energy
        record = EpochRecord(
            epoch=epoch,
            max_gradient=max_gradient,
            selected=tuple(labels[i] for i in chosen),
            n_params=len(gates),
            inner_steps=inner_steps,
            energy=energy,
            fidelity=fidelity(x, reference),
        )
        records.append(record)
        if progress is not None:
            progress(record)
        if not chosen:  # the gradient test ended the loop
            break

    return RunResult(grid, n_up, n_down, len(labels), records, status, records[-1].energy,
                     reference, [labels[i] for i in gates], thetas, step_energies)


def _sea_scattering(grid: GridSpec, n_up: int, n_down: int):
    """What both weak-coupling oracles expand the Fermi sea with.

    Returns (states, x0, v_x0, levels) over the sorted (n_up, n_down) sector
    bitstrings: the sea x0, the interaction applied to it, and the kinetic
    level sum_k eps_k (n_k_up + n_k_down) of every bitstring.  V x0 comes from
    sending the sea's one bitstring through each scattering quadruple, so no
    Pauli string and no sector matrix is built.
    """
    states = sector_basis(grid.n_qubits, n_up, n_down)
    x0 = (states == fermi_sea(grid, n_up, n_down).bitstring()).astype(float)
    sea = states[x0 == 1.0]
    v_x0 = np.zeros(len(states))
    for q in interaction_quadruples(grid):
        _, targets, sign = _ladder_orbits(q.ladder_term().factors, sea)
        v_x0[_positions(states, targets, "interaction term")] += q.amplitude * sign
    mode_energy = np.zeros(grid.n_qubits)
    for mode in enumerate_modes(grid):
        mode_energy[[mode.qubit(UP), mode.qubit(DOWN)]] = mode.energy
    occupied = (states[:, None] >> np.arange(grid.n_qubits, dtype=np.uint32)) & 1
    return states, x0, v_x0, occupied @ mode_energy


@dataclass(frozen=True)
class FirstOrderResult:
    thetas: np.ndarray      # one angle per pool operator, canonical order
    states: np.ndarray      # the sorted sector bitstrings both states live on
    reference: np.ndarray   # normalized (1 + R V)|sea>, R the resolvent
    sequential: np.ndarray  # the assigned rotations applied in pool order


def first_order_oracle(grid: GridSpec, n_up: int | None = None,
                       n_down: int | None = None) -> FirstOrderResult:
    """Weak-coupling angle assignment sin(theta) = -V/gap and its target.

    The reference state applies the first-order correction as plain linear
    algebra: V|sea> scaled by the resolvent 1/(E0 - level) of each
    bitstring's kinetic level, which is 0 on the levels degenerate with the
    sea's E0.  The sequential state instead runs the pool rotations at the
    assigned angles.  The two agree to second order in the interaction
    strength.
    """
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    states, x0, v_x0, levels = _sea_scattering(grid, n_up, n_down)
    e0 = levels @ x0
    off = np.abs(levels - e0) > DEGENERACY_TOL
    reference = x0.copy()
    reference[off] += v_x0[off] / (e0 - levels[off])
    reference /= np.linalg.norm(reference)

    pool = build_pool(grid)
    thetas = np.zeros(len(pool))
    for i, q in enumerate(pool):
        ratio = -q.amplitude / q.energy_gap
        if abs(ratio) > 1.0:
            raise ValueError(f"|V/gap| = {abs(ratio):.3f} > 1 for {q.label}; "
                             "the angle assignment needs weak coupling")
        thetas[i] = math.asin(ratio)
    sequential = sector_run(x0, PoolTables.build(grid, states).orbits(), thetas)
    return FirstOrderResult(thetas, states, reference, sequential)


def rs_perturbation(grid: GridSpec, n_up: int | None = None,
                    n_down: int | None = None) -> tuple[float, float, float]:
    """(E0, E1, E2) of the Rayleigh-Schrodinger series around the Fermi sea.

    The mode-register Hamiltonian splits into the diagonal kinetic term and
    the interaction V.  E0 is the sea's kinetic level, E1 = <sea|V|sea> and
    E2 = sum |<s|V|sea>|^2 / (E0 - level(s)) over the sector bitstrings s
    whose level differs from E0.  The sector defaults to default_filling.
    A sea degenerate within its sector is rejected, because the second-order
    sum would need the degenerate theory.
    """
    if n_up is None or n_down is None:
        n_up, n_down = default_filling(grid)
    _, x0, v_x0, levels = _sea_scattering(grid, n_up, n_down)
    e0 = levels @ x0
    off = np.abs(levels - e0) > DEGENERACY_TOL
    if np.count_nonzero(~off) != 1:
        raise ValueError(f"the Fermi sea of sector ({n_up},{n_down}) is degenerate "
                         "within its sector")
    e2 = np.sum(v_x0[off] ** 2 / (e0 - levels[off]))
    return float(e0), float(x0 @ v_x0), float(e2)
