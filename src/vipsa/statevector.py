"""Dense statevector kernels: matrix-free Pauli sums, closed-form gates,
Slater preparation, and adjoint-method circuit gradients.

Basis index bit q equals the occupation of qubit q (qubit 0 is the least
significant bit).  All gate applications are O(2^n) array passes with no
matrix ever materialized; the pool and hopping rotations use the closed
forms that follow from A^3 = -A and h^3 = h, so there is no Trotter error.

The pool rotations also have sector-coordinate kernels that act in place on
a real vector over one (n_up, n_down) sector; the adaptive loop runs on
those, and the 2^n register serves as their reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fermions import ANNIHILATE, CREATE, LadderTerm, PauliSum, letters_to_masks

_I4 = complex(0, 1) ** np.arange(4)


@lru_cache(maxsize=None)
def _indices(n_qubits: int) -> np.ndarray:
    return np.arange(1 << n_qubits, dtype=np.uint32)


def _parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & 1).astype(np.int8)


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


def basis_state(occupied_qubits, n_qubits: int) -> StateVector:
    """Computational basis state with 1-bits on the given qubits."""
    index = 0
    for q in occupied_qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} outside register of {n_qubits}")
        index |= 1 << q
    psi = StateVector.zero(n_qubits)
    psi.amplitudes[index] = 1.0
    return psi


def _compiled_terms(h: PauliSum, n_qubits: int):
    compiled = []
    for coeff, letters in h:
        xm, ym, zm = letters_to_masks(letters)
        if (xm | ym | zm) >> n_qubits:
            raise ValueError("Pauli sum acts outside the register")
        compiled.append((coeff * _I4[sum(1 for _, p in letters if p == "Y") % 4],
                         np.uint32(xm | ym), np.uint32(ym | zm)))
    return compiled


def apply_pauli_sum(h: PauliSum, psi: StateVector) -> StateVector:
    """h|psi> by one gather pass per Pauli string."""
    idx = _indices(psi.n_qubits)
    amps = psi.amplitudes
    out = np.zeros_like(amps)
    for coeff, flip, yz in _compiled_terms(h, psi.n_qubits):
        signed = np.where(_parity(idx & yz), -coeff, coeff) * amps
        if flip:
            out += signed[idx ^ flip]
        else:
            out += signed
    return StateVector(psi.n_qubits, out)


def expectation(h: PauliSum, psi: StateVector) -> float:
    """<psi|h|psi> for Hermitian h."""
    if not h.is_hermitian():
        raise ValueError("expectation requires a Hermitian Pauli sum")
    value = psi.dot(apply_pauli_sum(h, psi))
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def _quadruple_qubits(o: LadderTerm) -> tuple[int, int, int, int]:
    kinds = tuple(kind for _, kind in o.factors)
    if len(o.factors) != 4 or kinds != (CREATE, CREATE, ANNIHILATE, ANNIHILATE):
        raise ValueError("pool operator must be c† c† c c")
    qubits = tuple(q for q, _ in o.factors)
    if len(set(qubits)) != 4:
        raise ValueError(f"pool operator has repeated orbitals {qubits}")
    if complex(o.coeff) != 1.0:
        raise ValueError("pool operator coefficient must be 1")
    return qubits


def _quadruple_orbits(a: int, b: int, c: int, d: int, states: np.ndarray):
    """Orbits of O = c†_a c†_b c_c c_d starting in the given basis states.

    Returns (mask, dst, sign) with O|s> = sign(s)|dst(s)> for s in
    states[mask] and zero on the other states; O† maps dst back to s with
    the same sign.
    """
    bit = lambda q: (states >> q) & 1
    mask = (bit(d) == 1) & (bit(c) == 1) & (bit(b) == 0) & (bit(a) == 0)
    state = states[mask]
    parity = np.zeros(len(state), dtype=np.int8)
    for q in (d, c, b, a):
        parity += _parity(state & np.uint32((1 << q) - 1))
        state ^= np.uint32(1 << q)
    return mask, state, np.where(parity & 1, -1.0, 1.0)


@lru_cache(maxsize=None)
def _quadruple_arrays(a: int, b: int, c: int, d: int, n_qubits: int):
    """Support and sign of O = c†_a c†_b c_c c_d on the full register.

    Returns (src, dst, sign) with O|s> = sign(s)|s^flip> for s in src and
    zero elsewhere; O† maps dst back to src with the same sign.
    """
    idx = _indices(n_qubits)
    mask, dst, sign = _quadruple_orbits(a, b, c, d, idx)
    return idx[mask], dst, sign


def apply_pool_generator(o: LadderTerm, psi: StateVector) -> StateVector:
    """(O - O†)|psi> as a single signed bit-flip pass."""
    src, dst, sign = _quadruple_arrays(*_quadruple_qubits(o), psi.n_qubits)
    amps = psi.amplitudes
    out = np.zeros_like(amps)
    out[dst] = sign * amps[src]
    out[src] = -sign * amps[dst]
    return StateVector(psi.n_qubits, out)


def pool_generator_overlap(o: LadderTerm, phi: StateVector, psi: StateVector) -> complex:
    """<phi|(O - O†)|psi> without materializing the intermediate state."""
    src, dst, sign = _quadruple_arrays(*_quadruple_qubits(o), phi.n_qubits)
    amps_phi, amps_psi = phi.amplitudes, psi.amplitudes
    return complex(np.vdot(amps_phi[dst], sign * amps_psi[src])
                   - np.vdot(amps_phi[src], sign * amps_psi[dst]))


def apply_pool_unitary(o: LadderTerm, theta: float, psi: StateVector) -> StateVector:
    """exp(theta*(O - O†)) |psi> in closed form.

    With A = O - O†, A^2 = -(OO† + O†O) is minus the projector onto the
    2-state orbits A connects, so the exponential is a plane rotation on
    every orbit: cos(theta) on both ends, sin(theta) across.
    """
    src, dst, sign = _quadruple_arrays(*_quadruple_qubits(o), psi.n_qubits)
    out = psi.amplitudes.copy()
    v_src = out[src].copy()
    v_dst = out[dst].copy()
    s, c = math.sin(theta), math.cos(theta)
    out[dst] = c * v_dst + s * sign * v_src
    out[src] = c * v_src - s * sign * v_dst
    return StateVector(psi.n_qubits, out)


# --- sector coordinates ------------------------------------------------------
#
# Pool rotations conserve (n_up, n_down), so a state over the sorted sector
# bitstrings of `sector_basis` stays there, and a generator is just pairs of
# positions into them.


class Orbit(NamedTuple):
    """A = O - O† over a sorted sector basis, as positions into it.

    A|states[src]> = sign |states[dst]> and A|states[dst]> = -sign |states[src]>.
    """

    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray


def sector_orbit(o: LadderTerm, states: np.ndarray) -> Orbit:
    """Orbit table of the pool generator O - O† over sorted sector bitstrings."""
    mask, targets, sign = _quadruple_orbits(*_quadruple_qubits(o), states)
    dst = np.searchsorted(states, targets)
    if not np.array_equal(states[np.minimum(dst, len(states) - 1)], targets):
        raise ValueError("pool operator leaves the sector")
    return Orbit(np.flatnonzero(mask), dst, sign)


def rotate_orbit(x: np.ndarray, orbit: Orbit, theta: float) -> None:
    """exp(theta*A) applied in place to a sector vector; the closed form of
    apply_pool_unitary restricted to the sector."""
    src, dst, sign = orbit
    v_src, v_dst = x[src], x[dst]
    s, c = math.sin(theta), math.cos(theta)
    x[dst] = c * v_dst + s * sign * v_src
    x[src] = c * v_src - s * sign * v_dst


def orbit_overlap(orbit: Orbit, phi: np.ndarray, psi: np.ndarray) -> float:
    """<phi|A|psi> for real sector vectors."""
    src, dst, sign = orbit
    return float(np.dot(phi[dst], sign * psi[src]) - np.dot(phi[src], sign * psi[dst]))


def sector_run(x0: np.ndarray, orbits, thetas) -> np.ndarray:
    """The rotations exp(thetas[k] * A_k), in order, applied to a copy of x0."""
    x = x0.copy()
    for orbit, theta in zip(orbits, thetas):
        rotate_orbit(x, orbit, theta)
    return x


def _hopping_qubits(pair) -> tuple[int, int]:
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
    return i, j


@lru_cache(maxsize=None)
def _hopping_arrays(i: int, j: int, n_qubits: int):
    """Support and sign of h = c†_i c_j + c†_j c_i; h maps src <-> dst.

    h^3 = h (eigenvalues {-1, 0, 1}) is checked numerically on two random
    vectors when the arrays are first built.
    """
    idx = _indices(n_qubits)
    mask = (((idx >> j) & 1) == 1) & (((idx >> i) & 1) == 0)
    src = idx[mask]
    parity = _parity(src & np.uint32((1 << j) - 1))
    parity += _parity((src ^ np.uint32(1 << j)) & np.uint32((1 << i) - 1))
    sign = np.where(parity & 1, -1.0, 1.0)
    dst = src ^ np.uint32((1 << i) | (1 << j))

    def apply_h(amps):
        out = np.zeros_like(amps)
        out[dst] = sign * amps[src]
        out[src] = sign * amps[dst]
        return out

    rng = np.random.default_rng(1234)
    for _ in range(2):
        v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
        if np.linalg.norm(apply_h(apply_h(apply_h(v))) - apply_h(v)) > 1e-10 * np.linalg.norm(v):
            raise ValueError("hopping generator fails the h^3 = h check")

    return src, dst, sign


def apply_hopping_generator(pair, psi: StateVector) -> StateVector:
    src, dst, sign = _hopping_arrays(*_hopping_qubits(pair), psi.n_qubits)
    amps = psi.amplitudes
    out = np.zeros_like(amps)
    out[dst] = sign * amps[src]
    out[src] = sign * amps[dst]
    return StateVector(psi.n_qubits, out)


def apply_hopping_unitary(pair, theta: float, psi: StateVector) -> StateVector:
    """exp(-i*theta*h)|psi> with h = c†_i c_j + c†_j c_i, closed form via h^3 = h."""
    src, dst, sign = _hopping_arrays(*_hopping_qubits(pair), psi.n_qubits)
    out = psi.amplitudes.copy()
    v_src = out[src].copy()
    v_dst = out[dst].copy()
    s, c = math.sin(theta), math.cos(theta)
    out[dst] = c * v_dst - 1j * s * sign * v_src
    out[src] = c * v_src - 1j * s * sign * v_dst
    return StateVector(psi.n_qubits, out)


def diagonal_values(d: PauliSum, n_qubits: int) -> np.ndarray:
    """Diagonal of a Z/identity Pauli sum over all basis states."""
    if not d.is_diagonal():
        raise ValueError("expected a diagonal (Z-only) Pauli sum")
    idx = _indices(n_qubits)
    values = np.zeros(1 << n_qubits, dtype=np.complex128)
    for coeff, letters in d:
        _, _, zm = letters_to_masks(letters)
        if zm >> n_qubits:
            raise ValueError("Pauli sum acts outside the register")
        values += np.where(_parity(idx & np.uint32(zm)), -coeff, coeff)
    if np.abs(values.imag).max() > 1e-12:
        raise ValueError("diagonal Pauli sum is not Hermitian")
    return values.real


def apply_diagonal_phase(d: PauliSum, theta: float, psi: StateVector) -> StateVector:
    """exp(-i*theta*d)|psi> for diagonal d, one fused amplitude-wise pass."""
    phases = np.exp(-1j * theta * diagonal_values(d, psi.n_qubits))
    return StateVector(psi.n_qubits, phases * psi.amplitudes)


def slater_statevector(w: np.ndarray, occ_up, occ_down) -> StateVector:
    """Slater determinant of the given orbitals in the qubit register.

    w columns are single-particle orbitals over sites; spin-orbital
    (site, spin) sits on qubit 2*site + spin.  The amplitude on every
    fixed-occupation bitstring is the determinant of the corresponding
    rows/columns of the spin-expanded transform, evaluated in one batched
    det call over the (n_up, n_down) sector.
    """
    w = np.asarray(w)
    n_sites = w.shape[0]
    if w.shape != (n_sites, n_sites):
        raise ValueError("transform matrix must be square")
    if np.linalg.norm(w.conj().T @ w - np.eye(n_sites)) > 1e-10:
        raise ValueError("transform matrix is not unitary")
    occ_up, occ_down = list(occ_up), list(occ_down)
    if len(set(occ_up)) != len(occ_up) or len(set(occ_down)) != len(occ_down):
        raise ValueError("occupied orbital lists must not repeat")

    n_qubits = 2 * n_sites
    # spin-expanded transform: up orbitals on even qubits, down on odd
    w_big = np.zeros((n_qubits, n_qubits), dtype=w.dtype)
    w_big[0::2, 0::2] = w
    w_big[1::2, 1::2] = w
    cols = sorted([2 * m for m in occ_up] + [2 * m + 1 for m in occ_down])

    up_sets = list(itertools.combinations(range(n_sites), len(occ_up)))
    down_sets = list(itertools.combinations(range(n_sites), len(occ_down)))
    rows, indices = [], []
    for ups in up_sets:
        up_qubits = [2 * s for s in ups]
        up_mask = sum(1 << q for q in up_qubits)
        for downs in down_sets:
            down_qubits = [2 * s + 1 for s in downs]
            rows.append(sorted(up_qubits + down_qubits))
            indices.append(up_mask + sum(1 << q for q in down_qubits))

    psi = StateVector.zero(n_qubits)
    if not cols:
        psi.amplitudes[0] = 1.0
        return psi
    row_array = np.asarray(rows)  # (n_states, k)
    blocks = w_big[row_array][:, :, cols]  # (n_states, k, k)
    dets = np.linalg.det(blocks)
    psi.amplitudes[np.asarray(indices)] = dets
    return psi


# --- ansatz circuits -------------------------------------------------------


class PoolRotation:
    """exp(theta * (O - O†)) for a quadruple operator O."""

    kind = "PoolRotation"

    def __init__(self, o: LadderTerm, theta: float = 0.0):
        _quadruple_qubits(o)  # validate eagerly
        self.o = o
        self.theta = float(theta)

    def apply(self, psi: StateVector, inverse: bool = False) -> StateVector:
        return apply_pool_unitary(self.o, -self.theta if inverse else self.theta, psi)

    def generator_apply(self, psi: StateVector) -> StateVector:
        return apply_pool_generator(self.o, psi)


class HoppingRotation:
    """exp(-i*theta*(c†_i c_j + c†_j c_i))."""

    kind = "HoppingRotation"

    def __init__(self, pair, theta: float = 0.0):
        _hopping_qubits(pair)
        self.pair = tuple(pair)
        self.theta = float(theta)

    def apply(self, psi: StateVector, inverse: bool = False) -> StateVector:
        return apply_hopping_unitary(self.pair, -self.theta if inverse else self.theta, psi)

    def generator_apply(self, psi: StateVector) -> StateVector:
        out = apply_hopping_generator(self.pair, psi)
        out.amplitudes *= -1j
        return out


class DiagonalPhase:
    """exp(-i*theta*d) for a diagonal Pauli sum d."""

    kind = "DiagonalPhase"

    def __init__(self, d: PauliSum, theta: float = 0.0):
        if not d.is_diagonal():
            raise ValueError("DiagonalPhase needs a diagonal Pauli sum")
        self.d = d
        self.theta = float(theta)
        self._diag: np.ndarray | None = None

    def _values(self, n_qubits: int) -> np.ndarray:
        if self._diag is None or len(self._diag) != (1 << n_qubits):
            self._diag = diagonal_values(self.d, n_qubits)
        return self._diag

    def apply(self, psi: StateVector, inverse: bool = False) -> StateVector:
        theta = -self.theta if inverse else self.theta
        phases = np.exp(-1j * theta * self._values(psi.n_qubits))
        return StateVector(psi.n_qubits, phases * psi.amplitudes)

    def generator_apply(self, psi: StateVector) -> StateVector:
        return StateVector(psi.n_qubits,
                           -1j * self._values(psi.n_qubits) * psi.amplitudes)


Gate = PoolRotation | HoppingRotation | DiagonalPhase


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


def circuit_gradient(circuit: AnsatzCircuit, h: PauliSum) -> np.ndarray:
    """Exact d<h>/dtheta for every gate angle (adjoint method)."""
    if not h.is_hermitian():
        raise ValueError("circuit_gradient requires a Hermitian Pauli sum")
    _, grads = expectation_and_gradient(circuit, lambda psi: apply_pauli_sum(h, psi))
    return grads


def sector_expectation_and_gradient(x0: np.ndarray, orbits, thetas, h):
    """expectation_and_gradient for pool rotations on a real sector vector.

    x0 is the initial state and h a real symmetric matrix, both over the same
    sector basis as the orbits.  The forward state and the back-propagated
    h|psi> are rotated in place, so one evaluation allocates two vectors of
    sector length.
    """
    x = sector_run(x0, orbits, thetas)
    b = h @ x
    energy = float(x @ b)
    grads = np.zeros(len(orbits))
    for pos in range(len(orbits) - 1, -1, -1):
        grads[pos] = 2.0 * orbit_overlap(orbits[pos], b, x)
        if pos:
            rotate_orbit(x, orbits[pos], -thetas[pos])
            rotate_orbit(b, orbits[pos], -thetas[pos])
    return energy, grads


def sector_weights(psi: StateVector) -> dict[tuple[int, int], float]:
    """Probability weight per (n_up, n_down) occupation sector."""
    idx = _indices(psi.n_qubits)
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
