"""Statevector kernels: closed-form gates over sorted bitstrings, Slater
amplitudes, and the adjoint-method energy gradient.

Basis index bit q equals the occupation of qubit q (qubit 0 is the least
significant bit).  Every gate conserves (n_up, n_down), so it acts on a
vector over sorted bitstrings: pool and hopping rotations as orbit tables,
diagonal phases as their values on the bitstrings, Slater determinants by
their amplitudes on them.  The rotations use the closed forms that follow
from A^3 = -A and h^3 = h, so there is no Trotter error, and no matrix is
ever materialized.

Every run and oracle keeps its state on one (n_up, n_down) sector.  The
full 2^n register is one more sorted basis, every bitstring, on which a
position and a bitstring are the same number; the gate classes run it
through the same kernels as the reference that tests check sectors against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fermions import ANNIHILATE, CREATE, LadderTerm, PauliSum


@lru_cache(maxsize=None)
def _indices(n_qubits: int) -> np.ndarray:
    return np.arange(1 << n_qubits, dtype=np.uint32)


def _parity(values: np.ndarray) -> np.ndarray:
    """Whether each value has an odd number of set bits."""
    counts = np.bitwise_count(values)
    counts &= 1
    return counts.view(np.bool_)


class StateVector:
    """Dense amplitudes over 2^n computational basis states."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError("amplitude array does not match the register size")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls(n_qubits, np.zeros(1 << n_qubits, dtype=np.complex128))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def dot(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def max_imag(self) -> float:
        return float(np.abs(self.amplitudes.imag).max())


def _compiled_terms(h: PauliSum, n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h.compiled(), checked to act inside the n_qubits register with finite
    coefficients: (coefficients, flip masks, sign masks) of h's strings in
    sorted order, read-only; string t maps |s> to coefficients[t]
    (-1)^|s & signs[t]| |s ^ flips[t]>."""
    x, z, coeffs = h.masks()
    if ((x | z) >> np.uint64(n_qubits)).any():
        raise ValueError("Pauli sum acts outside the register")
    if not np.isfinite(coeffs).all():
        raise ValueError("Pauli sum has a non-finite coefficient (float64 overflow)")
    return h.compiled()


def _pool_factors(o: LadderTerm):
    """Factors of a pool operator c†_a c†_b c_c c_d on four distinct qubits."""
    kinds = tuple(kind for _, kind in o.factors)
    if len(o.factors) != 4 or kinds != (CREATE, CREATE, ANNIHILATE, ANNIHILATE):
        raise ValueError("pool operator must be c† c† c c")
    qubits = tuple(q for q, _ in o.factors)
    if len(set(qubits)) != 4:
        raise ValueError(f"pool operator has repeated orbitals {qubits}")
    if complex(o.coeff) != 1.0:
        raise ValueError("pool operator coefficient must be 1")
    return o.factors


def _ladder_orbits(factors, states: np.ndarray):
    """Where the ordered ladder product `factors` sends each basis state.

    factors are (qubit, CREATE | ANNIHILATE) in operator order, as in
    LadderTerm, so the last one acts first.  On each qubit the factors must
    alternate between the two kinds; a qubit may repeat (c†_q c_q).  Returns
    (src, dst, sign): the product maps states[src] to sign * |dst> and every
    other state to zero, with src positions into states and dst bitstrings.
    """
    care = want = 0
    kind_on: dict[int, str] = {}
    for q, kind in reversed(factors):
        if kind_on.get(q) == kind:
            raise ValueError(f"ladder factors do not alternate on qubit {q}")
        if q not in kind_on:
            # the first factor to act on q needs it occupied to annihilate
            care |= 1 << q
            want |= (kind == ANNIHILATE) << q
        kind_on[q] = kind
    src = np.flatnonzero((states & np.uint32(care)) == want)
    dst = states[src]
    parity = np.zeros(len(src), dtype=np.uint8)
    for q, _ in reversed(factors):
        parity += np.bitwise_count(dst & np.uint32((1 << q) - 1))
        dst ^= np.uint32(1 << q)
    return src, dst, np.where(parity & 1, -1.0, 1.0)


def _hopping_factors(pair):
    """Factors of c†_i c_j, the first term of the hopping pair
    c†_i c_j + c†_j c_i."""
    terms = list(pair)
    if len(terms) != 2:
        raise ValueError("hopping generator must be a Hermitian pair of terms")
    first, second = terms
    if (len(first.factors) != 2 or len(second.factors) != 2
            or first.factors[0][1] != CREATE or first.factors[1][1] != ANNIHILATE
            or second.factors[0][1] != CREATE or second.factors[1][1] != ANNIHILATE):
        raise ValueError("hopping generator must be c†_i c_j + c†_j c_i")
    i, j = first.factors[0][0], first.factors[1][0]
    if (second.factors[0][0], second.factors[1][0]) != (j, i) or i == j:
        raise ValueError("hopping generator must be c†_i c_j + c†_j c_i")
    if complex(first.coeff) != 1.0 or complex(second.coeff) != 1.0:
        raise ValueError("hopping generator coefficients must be 1")
    return first.factors


def _check_orbit(orbit: Orbit) -> None:
    """G^3 = -G exactly, so that h = iG has h^3 = h: the table's positions
    are pairwise distinct across src and dst, every sign is +-1, and the
    phase is 1, -1, i or -i.  Then G is a sum of disjoint 2x2 blocks with
    G^2 = -1 on each, which is what the closed-form rotation assumes, and
    its backward coefficients are +-its forward ones (see _rotation)."""
    src, dst, sign, phase = orbit
    positions = np.concatenate((src, dst))
    if positions.size and np.bincount(positions).max() > 1:
        raise ValueError("orbit table repeats a position")
    if not np.all(np.abs(sign) == 1.0):
        raise ValueError("orbit table signs must be +-1")
    if phase not in (1, -1, 1j, -1j):
        raise ValueError("orbit table phase must be 1, -1, i or -i")


def diagonal_values(d: PauliSum, n_qubits: int, states: np.ndarray | None = None) -> np.ndarray:
    """Diagonal of a Z/identity Pauli sum over the given basis states, by
    default all 2^n of them."""
    if not d.is_diagonal():
        raise ValueError("expected a diagonal (Z-only) Pauli sum")
    idx = _indices(n_qubits) if states is None else states
    values = np.zeros(len(idx), dtype=np.complex128)
    coeffs, _, signs = _compiled_terms(d, n_qubits)
    for coeff, zm in zip(coeffs, signs):
        values += np.where(_parity(idx & zm), -coeff, coeff)
    if np.abs(values.imag).max() > 1e-12:
        raise ValueError("diagonal Pauli sum is not Hermitian")
    return values.real


def slater_amplitudes(w: np.ndarray, occ_up, occ_down, states: np.ndarray) -> np.ndarray:
    """Slater determinant of the given orbitals over sorted sector bitstrings.

    w columns are single-particle orbitals over sites; spin-orbital
    (site, spin) sits on qubit 2*site + spin.  The amplitude on a bitstring
    is the determinant of its rows and the occupied columns of the
    spin-expanded transform, which is block diagonal in spin.  So it is the
    up block's determinant times the down block's, times the sign of
    reordering the interleaved rows, and the columns, up before down.  Each
    block's determinants are taken once per distinct occupation of that
    spin, in one batched det call; every bitstring must hold len(occ_up)
    up and len(occ_down) down particles.
    """
    w = np.asarray(w)
    n_sites = w.shape[0]
    if w.shape != (n_sites, n_sites):
        raise ValueError("transform matrix must be square")
    if np.linalg.norm(w.conj().T @ w - np.eye(n_sites)) > 1e-10:
        raise ValueError("transform matrix is not unitary")
    occ_up, occ_down = sorted(occ_up), sorted(occ_down)
    if len(set(occ_up)) != len(occ_up) or len(set(occ_down)) != len(occ_down):
        raise ValueError("occupied orbital lists must not repeat")

    even = np.uint32(sum(1 << (2 * site) for site in range(n_sites)))
    ups, downs = states & even, (states >> 1) & even
    if (np.any(ups | (downs << 1) != states) or np.any(np.bitwise_count(ups) != len(occ_up))
            or np.any(np.bitwise_count(downs) != len(occ_down))):
        raise ValueError("basis states do not hold the occupied orbitals' particle counts")

    def block(occupations, occupied):
        # det of w on each distinct set of occupied sites, spread to the states
        distinct, which = np.unique(occupations, return_inverse=True)
        sites = (distinct[:, None] >> np.arange(0, 2 * n_sites, 2, dtype=np.uint32)) & 1
        rows = np.nonzero(sites)[1].reshape(len(distinct), len(occupied))
        return np.linalg.det(w[rows][:, :, occupied])[which]

    # moving the up rows ahead of the down rows passes each up particle over
    # every down particle on a lower site, and the columns likewise
    passes = sum(1 for m in occ_up for n in occ_down if n < m)
    for site in range(1, n_sites):
        lower = np.bitwise_count(downs & np.uint32((1 << (2 * site)) - 1))
        passes = passes + ((ups >> np.uint32(2 * site)) & 1) * lower
    sign = np.where(np.asarray(passes) & 1, -1.0, 1.0)
    return sign * block(ups, occ_up) * block(downs, occ_down)


# --- sector coordinates ------------------------------------------------------
#
# Every gate here conserves (n_up, n_down), so a state over the sorted sector
# bitstrings of `sector_basis` stays there.  A rotation generator is pairs of
# positions into them, and a diagonal phase its values on them.  The same
# kernels serve the full register, whose sorted basis is every bitstring.


# Most states sector_basis builds a basis for.  3x4's largest sector, (6,6),
# has 853 776; 4x4's (8,8) has 165 636 900, whose basis alone is 660 MB and
# whose sector matrix could never be held.
SECTOR_STATE_BUDGET = 1 << 22


@lru_cache(maxsize=None)
def sector_basis(n_qubits: int, n_up: int, n_down: int) -> np.ndarray:
    """Sorted bitstrings with n_up even-qubit and n_down odd-qubit particles,
    as uint32, so at most 32 qubits.  Each sector is built once per process
    and shared as one read-only array.  A sector of more than
    SECTOR_STATE_BUDGET states is a ValueError, raised before anything is
    allocated."""
    if n_qubits % 2:
        raise ValueError("register must pair up/down qubits")
    if n_qubits > 32:
        raise ValueError(f"{n_qubits} qubits exceed the 32-qubit limit of sector bitstrings")
    n_sites = n_qubits // 2
    if not (0 <= n_up <= n_sites and 0 <= n_down <= n_sites):
        raise ValueError(f"sector (n_up, n_down) = ({n_up},{n_down}) does not fit "
                         f"{n_sites} orbitals")
    size = math.comb(n_sites, n_up) * math.comb(n_sites, n_down)
    if size > SECTOR_STATE_BUDGET:
        raise ValueError(f"sector ({n_up},{n_down}) has {size} states, more than the "
                         f"{SECTOR_STATE_BUDGET} a basis is built for")
    ups = np.array([sum(1 << (2 * i) for i in combo)
                    for combo in itertools.combinations(range(n_sites), n_up)], dtype=np.uint32)
    downs = np.array([sum(1 << (2 * i + 1) for i in combo)
                      for combo in itertools.combinations(range(n_sites), n_down)],
                     dtype=np.uint32)
    states = np.bitwise_or.outer(ups, downs).ravel()
    states.sort()
    states.flags.writeable = False
    return states


class Orbit(NamedTuple):
    """Anti-Hermitian generator G over a sorted sector basis, as positions into it.

    G|states[src]> = phase*sign|states[dst]> and
    G|states[dst]> = -conj(phase)*sign|states[src]>, so G^2 = -1 on the
    orbits.  phase is 1 for a pool generator O - O† and -i for a hopping
    generator -i(c†_i c_j + c†_j c_i).  The builders give float64 signs; a
    table that only rotates complex vectors may hold them as complex128,
    which saves each product with a vector a cast and gives the same bits.
    """

    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray
    phase: complex = 1.0


class SectorPhase:
    """Generator -i*d of exp(-i*theta*d) for a diagonal d, by its values on
    the sector bitstrings.

    The values also stand as their distinct `levels` and each bitstring's
    index into them, so a rotation exponentiates one number per level (the
    interaction has one per count of doubly occupied sites), not one per
    bitstring.
    """

    __slots__ = ("values", "levels", "level_of")
    phase = -1j

    def __init__(self, values: np.ndarray):
        self.values = values
        self.levels, self.level_of = np.unique(values, return_inverse=True)


def _positions(states: np.ndarray, targets: np.ndarray, what: str) -> np.ndarray:
    positions = np.searchsorted(states, targets)
    if not np.array_equal(states[np.minimum(positions, len(states) - 1)], targets):
        raise ValueError(f"{what} leaves the sector")
    return positions


def sector_orbit(o: LadderTerm, states: np.ndarray) -> Orbit:
    """Orbit table of the pool generator O - O† over sorted sector bitstrings."""
    src, targets, sign = _ladder_orbits(_pool_factors(o), states)
    return Orbit(src, _positions(states, targets, "pool operator"), sign)


def sector_hopping_orbit(pair, states: np.ndarray) -> Orbit:
    """Orbit table of the hopping generator -i(c†_i c_j + c†_j c_i) over
    sorted sector bitstrings."""
    src, targets, sign = _ladder_orbits(_hopping_factors(pair), states)
    orbit = Orbit(src, _positions(states, targets, "hopping generator"), sign, -1j)
    _check_orbit(orbit)
    return orbit


@lru_cache(maxsize=None)
def register_orbit(generator, n_qubits: int) -> Orbit:
    """Orbit table of a pool operator O (a LadderTerm) or of a hopping pair
    over every bitstring of the register, where positions are bitstrings."""
    states = _indices(n_qubits)
    if isinstance(generator, LadderTerm):
        return sector_orbit(generator, states)
    return sector_hopping_orbit(generator, states)


def _rotation(orbit: Orbit, theta: float):
    """(c, forward, add) of exp(theta*G) on the orbit table.

    G^2 is minus the projector onto the 2-state orbits G connects (for a
    pool generator A = O - O†, A^2 = -(OO† + O†O)), so the exponential is a
    plane rotation on every orbit: c = cos(theta) on both ends, and across
    them forward = sin(theta)*phase*sign from src to dst and backward =
    sin(theta)*conj(phase)*sign from dst to src.  The phase is real or
    imaginary, so backward is forward (add False) or -forward (add True),
    and one coefficient array, in the sign table's dtype unless the phase
    is complex, serves both ends.  Under a real phase and real signs it
    stays real, so a real vector stays real.  Any other phase is a
    ValueError, as _check_orbit refuses it.
    """
    _, _, sign, phase = orbit
    conjugate = phase.conjugate()
    add = phase != conjugate
    if add and phase != -conjugate:
        raise ValueError("orbit table phase must be real or imaginary")
    return math.cos(theta), math.sin(theta) * phase * sign, add


def _rotate_pairs(x: np.ndarray, orbit: Orbit, v_src, v_dst, rotation) -> None:
    """Write the rotation of the gathered slices v_src = x[src], v_dst =
    x[dst] back into x: x[dst] = c*v_dst + forward*v_src and x[src] =
    c*v_src - backward*v_dst, taken as c*v_src + forward*v_dst where
    backward = -forward, with the sums taken in place.  Negation commutes
    with rounding, so that sum differs from the subtraction at most in the
    sign of an exact zero."""
    c, forward, add = rotation
    rotated = c * v_dst
    rotated += forward * v_src
    x[orbit.dst] = rotated
    rotated = c * v_src
    if add:
        rotated += forward * v_dst
    else:
        rotated -= forward * v_dst
    x[orbit.src] = rotated


def _pair_overlap(orbit: Orbit, phi_src, phi_dst, psi_src, psi_dst):
    """<phi|G|psi> from the gathered slices of both vectors."""
    _, _, sign, phase = orbit
    return (phase * np.vdot(phi_dst, sign * psi_src)
            - phase.conjugate() * np.vdot(phi_src, sign * psi_dst))


def rotate_orbit(x: np.ndarray, orbit: Orbit, theta: float) -> None:
    """exp(theta*G) applied in place to a vector over the orbit table's basis."""
    _rotate_pairs(x, orbit, x[orbit.src], x[orbit.dst], _rotation(orbit, theta))


def orbit_overlap(orbit: Orbit, phi: np.ndarray, psi: np.ndarray):
    """<phi|G|psi> for sector vectors; real for real vectors and a real phase."""
    src, dst = orbit.src, orbit.dst
    return _pair_overlap(orbit, phi[src], phi[dst], psi[src], psi[dst])


def _phase_factors(gate: SectorPhase, theta: float) -> np.ndarray:
    """exp(theta*G) of a diagonal phase, one exponential per level."""
    return np.exp(theta * gate.phase * gate.levels)[gate.level_of]


def apply_generator(gate: Orbit | SectorPhase, x: np.ndarray) -> np.ndarray:
    """G x, out of place, for an orbit table or a diagonal phase."""
    if isinstance(gate, SectorPhase):
        return gate.phase * gate.values * x
    src, dst, sign, phase = gate
    out = np.zeros(len(x), dtype=np.result_type(x, phase))
    out[dst] = phase * sign * x[src]
    out[src] = -phase.conjugate() * sign * x[dst]
    return out


def rotate_sector(x: np.ndarray, gate: Orbit | SectorPhase, theta: float) -> None:
    """exp(theta*G) applied in place, for an orbit table or a diagonal phase.

    At theta exactly 0 (or -0.0) x is left as it is: the rotation would
    only change the sign of an exact zero amplitude."""
    if theta == 0.0:
        return
    if isinstance(gate, SectorPhase):
        x *= _phase_factors(gate, theta)
    else:
        rotate_orbit(x, gate, theta)


def sector_overlap(gate: Orbit | SectorPhase, phi: np.ndarray, psi: np.ndarray):
    """<phi|G|psi>, for an orbit table or a diagonal phase."""
    if isinstance(gate, SectorPhase):
        return gate.phase * np.vdot(phi, gate.values * psi)
    return orbit_overlap(gate, phi, psi)


def sector_run(x0: np.ndarray, gates, thetas) -> np.ndarray:
    """The gates exp(thetas[k] * G_k), in order, applied to a copy of x0.

    The copy is complex only if x0 or a generator's phase is.  A gate at
    angle 0 is skipped, as rotate_sector skips it.
    """
    x = x0.astype(np.result_type(x0, *{gate.phase for gate in gates}))
    for gate, theta in zip(gates, thetas):
        rotate_sector(x, gate, theta)
    return x


# --- ansatz circuits -------------------------------------------------------


# Each gate class names its generator over every bitstring of the register
# (`sector_gate`) and runs it through the sector kernels.


def _rotated(gate, psi: StateVector, inverse: bool) -> StateVector:
    """A gate object's exp(+-theta*G)|psi>, on a copy of the amplitudes."""
    theta = -gate.theta if inverse else gate.theta
    rotated = sector_run(psi.amplitudes, [gate.sector_gate(psi.n_qubits)], [theta])
    return StateVector(psi.n_qubits, rotated)


def _generated(gate, psi: StateVector) -> StateVector:
    """A gate object's G|psi>."""
    image = apply_generator(gate.sector_gate(psi.n_qubits), psi.amplitudes)
    return StateVector(psi.n_qubits, image)


class PoolRotation:
    """exp(theta * (O - O†)) for a quadruple operator O."""

    def __init__(self, o: LadderTerm, theta: float = 0.0):
        _pool_factors(o)  # validate eagerly
        self.o = o
        self.theta = float(theta)

    def sector_gate(self, n_qubits: int) -> Orbit:
        return register_orbit(self.o, n_qubits)

    def apply(self, psi: StateVector, inverse: bool = False) -> StateVector:
        return _rotated(self, psi, inverse)

    def generator_apply(self, psi: StateVector) -> StateVector:
        return _generated(self, psi)


class HoppingRotation:
    """exp(-i*theta*(c†_i c_j + c†_j c_i))."""

    def __init__(self, pair, theta: float = 0.0):
        _hopping_factors(pair)
        self.pair = tuple(pair)
        self.theta = float(theta)

    def sector_gate(self, n_qubits: int) -> Orbit:
        return register_orbit(self.pair, n_qubits)

    def apply(self, psi: StateVector, inverse: bool = False) -> StateVector:
        return _rotated(self, psi, inverse)

    def generator_apply(self, psi: StateVector) -> StateVector:
        return _generated(self, psi)


class DiagonalPhase:
    """exp(-i*theta*d) for a diagonal Pauli sum d."""

    def __init__(self, d: PauliSum, theta: float = 0.0):
        if not d.is_diagonal():
            raise ValueError("DiagonalPhase needs a diagonal Pauli sum")
        self.d = d
        self.theta = float(theta)
        self._phase: SectorPhase | None = None

    def sector_gate(self, n_qubits: int) -> SectorPhase:
        if self._phase is None or len(self._phase.values) != (1 << n_qubits):
            self._phase = SectorPhase(diagonal_values(self.d, n_qubits))
        return self._phase

    def apply(self, psi: StateVector, inverse: bool = False) -> StateVector:
        return _rotated(self, psi, inverse)

    def generator_apply(self, psi: StateVector) -> StateVector:
        return _generated(self, psi)


@dataclass
class AnsatzCircuit:
    """Ordered gate list applied to a fixed initial state."""

    initial: StateVector
    gates: list = field(default_factory=list)

    def run(self) -> StateVector:
        psi = self.initial.copy()
        for gate in self.gates:
            psi = gate.apply(psi)
        return psi

    def set_thetas(self, thetas) -> None:
        if len(thetas) != len(self.gates):
            raise ValueError("one angle per gate required")
        for gate, theta in zip(self.gates, thetas):
            if not np.isfinite(theta):
                raise ValueError("gate angles must be finite")
            gate.theta = float(theta)

    def thetas(self) -> np.ndarray:
        return np.array([gate.theta for gate in self.gates])


def expectation_and_gradient(circuit: AnsatzCircuit, apply_h, final: StateVector | None = None):
    """Energy and per-gate angle gradient in one forward plus one reverse sweep.

    apply_h maps a StateVector to h|psi> (any linear Hermitian action).
    Uses dU/dtheta = G U: at each gate, the gradient is 2 Re <b|G|psi_k>
    with psi_k the state after the gate and b the back-propagated h|psi>.
    """
    psi = circuit.run() if final is None else final.copy()
    b = apply_h(psi)
    energy = float(np.real(psi.dot(b)))
    grads = np.zeros(len(circuit.gates))
    for pos in range(len(circuit.gates) - 1, -1, -1):
        gate = circuit.gates[pos]
        g_psi = gate.generator_apply(psi)
        grads[pos] = 2.0 * np.real(b.dot(g_psi))
        if pos:
            psi = gate.apply(psi, inverse=True)
            b = gate.apply(b, inverse=True)
    return energy, grads


def sector_expectation(x0: np.ndarray, gates, thetas, h):
    """The sector circuit's energy and buffers: (energy, x, b), with x =
    sector_run(x0, gates, thetas) and b = h @ x for a Hermitian h over the
    gates' basis; sector_adjoint_sweep takes x and b."""
    x = sector_run(x0, gates, thetas)
    b = h @ x
    return float(np.vdot(x, b).real), x, b


def sector_adjoint_sweep(gates, thetas, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reverse sweep of expectation_and_gradient on a sector vector: the
    per-gate gradient from the state x after the last gate and b = h @ x,
    which it rotates back in place to the state after the first gate.

    Each gate's work is fused: an orbit gate gathers the src and dst slices
    of both vectors once, takes its overlap from them and rotates both back
    with one coefficient array; a phase gate builds its factors once for
    both.  A gate at angle 0 is only overlapped, not rotated, and a
    generator (the same gate object) met again before any gate has rotated
    x and b since its overlap was taken reuses that overlap.  The
    arithmetic is that of sector_overlap followed by two rotate_sector
    calls, so the results are the same to the bit.
    """
    grads = np.zeros(len(gates))
    unrotated = {}  # gradient by id(gate), of gates overlapped since the last rotation
    for pos in range(len(gates) - 1, -1, -1):
        gate, theta = gates[pos], thetas[pos]
        rotate = pos > 0 and theta != 0.0
        if not rotate and id(gate) in unrotated:
            grads[pos] = unrotated[id(gate)]
            continue
        if isinstance(gate, SectorPhase):
            grads[pos] = 2.0 * sector_overlap(gate, b, x).real
            if rotate:
                factors = _phase_factors(gate, -theta)
                x *= factors
                b *= factors
        else:
            src, dst = gate.src, gate.dst
            x_src, x_dst, b_src, b_dst = x[src], x[dst], b[src], b[dst]
            grads[pos] = 2.0 * _pair_overlap(gate, b_src, b_dst, x_src, x_dst).real
            if rotate:
                rotation = _rotation(gate, -theta)
                _rotate_pairs(x, gate, x_src, x_dst, rotation)
                _rotate_pairs(b, gate, b_src, b_dst, rotation)
        if rotate:
            unrotated.clear()
        else:
            unrotated[id(gate)] = grads[pos]
    return grads
