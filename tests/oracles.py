"""Dense matrix oracles assembled from explicit 2x2 blocks.

Everything here is built with plain Kronecker products and textbook
definitions, independent of the library's Pauli/Jordan-Wigner machinery,
so library results can be checked against a second derivation.

Basis convention matches the package: basis index s has bit q equal to
the occupation of qubit q (qubit 0 is the least significant bit).

`per_gate_sweep` is the exception: it is the adjoint sweep written gate by
gate through the library's own single-gate kernels, the reference the fused
sweep must match to the bit.
"""

from __future__ import annotations

import numpy as np

from vipsa.statevector import rotate_sector, sector_overlap, sector_run

I2 = np.eye(2, dtype=complex)
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# bit 1 = occupied, so the annihilator is |0><1|
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
RAISE = LOWER.conj().T


def kron_at(ops: dict[int, np.ndarray], n_qubits: int) -> np.ndarray:
    """Tensor product with the given single-qubit blocks, identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for q in range(n_qubits - 1, -1, -1):
        out = np.kron(out, ops.get(q, I2))
    return out


def dense_pauli_string(letters, n_qubits: int) -> np.ndarray:
    return kron_at({q: PAULI[p] for q, p in letters}, n_qubits)


def dense_pauli_sum(pauli_sum, n_qubits: int) -> np.ndarray:
    dim = 2 ** n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, letters in pauli_sum:
        out += coeff * dense_pauli_string(letters, n_qubits)
    return out


def dense_annihilate(q: int, n_qubits: int) -> np.ndarray:
    """c_q with the Jordan-Wigner parity string over qubits below q."""
    ops = {k: PAULI["Z"] for k in range(q)}
    ops[q] = LOWER
    return kron_at(ops, n_qubits)


def dense_create(q: int, n_qubits: int) -> np.ndarray:
    ops = {k: PAULI["Z"] for k in range(q)}
    ops[q] = RAISE
    return kron_at(ops, n_qubits)


def dense_ladder_term(term, n_qubits: int) -> np.ndarray:
    """Dense matrix of a LadderTerm, factors multiplied left to right."""
    out = np.eye(2 ** n_qubits, dtype=complex) * term.coeff
    for q, kind in term.factors:
        factor = dense_create(q, n_qubits) if kind == "+" else dense_annihilate(q, n_qubits)
        out = out @ factor
    return out


def dense_sector_block(pauli_sum, states, n_qubits: int) -> np.ndarray:
    """<r|h|c> for r, c over the given sorted basis states.

    A Pauli string maps |c> to a single basis state, with amplitude the
    product of the single-qubit entries <r_q|P_q|c_q>, so the block is
    filled column by column without forming a 2^n matrix.
    """
    states = np.asarray(states, dtype=np.int64)
    if np.any(states >> n_qubits):
        raise ValueError("basis state outside the register")
    dim = len(states)
    out = np.zeros((dim, dim), dtype=complex)
    columns = np.arange(dim)
    for coeff, letters in pauli_sum:
        rows = states.copy()
        value = np.full(dim, coeff, dtype=complex)
        for q, p in letters:
            bit = (states >> q) & 1
            flipped = bit ^ 1 if p in "XY" else bit
            value *= PAULI[p][flipped, bit]
            rows ^= (flipped ^ bit) << q
        position = np.minimum(np.searchsorted(states, rows), dim - 1)
        inside = states[position] == rows
        np.add.at(out, (position[inside], columns[inside]), value[inside])
    return out


def per_gate_sweep(x0, gates, thetas, h, final=None):
    """sector_expectation_and_gradient as one overlap and two separate
    rotations per gate: each call gathers its own slices and builds its own
    coefficients."""
    x = sector_run(x0, gates, thetas) if final is None else final
    b = h @ x
    energy = float(np.vdot(x, b).real)
    grads = np.zeros(len(gates))
    for pos in range(len(gates) - 1, -1, -1):
        grads[pos] = 2.0 * sector_overlap(gates[pos], b, x).real
        if pos:
            rotate_sector(x, gates[pos], -thetas[pos])
            rotate_sector(b, gates[pos], -thetas[pos])
    return energy, grads
