"""Dense matrix oracles assembled from explicit 2x2 blocks.

Everything here is built with plain Kronecker products and textbook
definitions, independent of the library's Pauli/Jordan-Wigner machinery,
so library results can be checked against a second derivation.

Basis convention matches the package: basis index s has bit q equal to
the occupation of qubit q (qubit 0 is the least significant bit).
`basis_state` is the one-hot register state and `hopping_matrix` the grid's
single-particle hopping matrix; the library keeps neither.

`per_gate_sweep` is the exception: it is the adjoint sweep written gate by
gate through the library's own single-gate kernels, rotating every gate as
`run_every_gate` does, the reference the fused sweep must match to the bit.
`two_array_rotation` pins those kernels in turn: it is the orbit rotation
as it was first written, with float64 signs and separate forward and
backward coefficient arrays, which `rotate_orbit` must match value for value.
`eager_adam_optimize` is likewise the library's ADAM pass as it ran before
gradients were taken on demand.  So are the letter-tuple Pauli product, the
staged letter-tuple Jordan-Wigner expansion, the per-term (x, z)-keyed
expansion with the dict-built Pauli sums and Hamiltonian builders on it,
the letter-tuple compile and the per-string sector matrix at the end: they
are the earlier implementations of the mask-array kernels in
`vipsa.fermions` and `vipsa.hamiltonians`, which must match them bit for
bit.  `as_real_if_possible` is the earlier rule by which the per-string
matrix was made real; `sector_matrix` folds it into its own assembly.
`loop_interaction_quadruples` is the quadruple table built one (a, b, c, d)
index tuple at a time, in numpy scalars, the reference whose every field
`interaction_quadruples` must match to the bit.
`lowest_sector_values` solves the library's sector matrix block by block
with plain eigh and eigsh calls, the whole-sector reference for the
ground-space solver's values and multiplet.  `rows_of_block` cuts P H P, H
on one momentum block with every other row empty, out of the whole-sector
matrix, with plain array masks; `whole_sector_run_operands` uses it to
rebuild what an adaptive run worked on before it moved onto its block's own
bitstrings.
`pool_generator` is the one helper built on the library's Jordan-Wigner
map: it gives the Pauli sum that the dense checks of the pool generators
start from.
"""

from __future__ import annotations

import itertools

import numpy as np

import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

import math

from vipsa.core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_LR,
    ADAM_STABILIZER,
    AdamResult,
    PoolTables,
)
from vipsa.fermions import (
    ANNIHILATE,
    COEFF_DROP_TOL,
    CREATE,
    LadderTerm,
    _letters,
    hopping_pair,
    jordan_wigner,
    letters_to_masks,
    number_term,
)
from vipsa.hamiltonians import (
    AMPLITUDE_DROP_TOL,
    GROUND_DEGENERACY_TOL,
    InteractionQuadruple,
    _axis_overlap,
    interaction_quadruples,
    sector_basis,
    sector_matrix,
)
from vipsa.lattice import (
    DOWN,
    UP,
    axis_energies,
    enumerate_modes,
    fermi_sea,
    hopping_edges,
    qubit_index,
)
from vipsa.statevector import (
    SectorPhase,
    StateVector,
    _phase_factors,
    rotate_orbit,
    sector_adjoint_sweep,
    sector_expectation,
    sector_overlap,
)

from builds import whole_sector_matrix

I2 = np.eye(2, dtype=complex)
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# bit 1 = occupied, so the annihilator is |0><1|
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
RAISE = LOWER.conj().T


def basis_state(occupied_qubits, n_qubits: int) -> StateVector:
    """The register's computational basis state with 1-bits on the given qubits."""
    if any(not 0 <= q < n_qubits for q in occupied_qubits):
        raise ValueError(f"occupied qubits must lie in [0, {n_qubits})")
    psi = StateVector.zero(n_qubits)
    psi.amplitudes[sum(1 << q for q in set(occupied_qubits))] = 1.0
    return psi


def hopping_matrix(grid) -> np.ndarray:
    """Real-space single-particle hopping matrix (n_sites x n_sites): -t on
    every bond of the grid."""
    h = np.zeros((grid.n_sites, grid.n_sites))
    horizontal, vertical = hopping_edges(grid)
    for i, j in horizontal + vertical:
        h[i, j] = h[j, i] = -grid.t
    return h


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


def pool_generator(q, n_qubits: int):
    """The Pauli sum of the pool rotation generator O - O† of quadruple q,
    O its ladder term, through the library's Jordan-Wigner map."""
    image = jordan_wigner(q.ladder_term(), n_qubits)
    return image - image.dagger()


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


def lowest_sector_values(h, n_qubits: int, n_up: int, n_down: int, how_many: int,
                         dense_up_to: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """(values, multiplet): the lowest how_many eigenvalues of h on the
    (n_up, n_down) sector, ascending, and an orthonormal basis of its lowest
    multiplet, one column per state within GROUND_DEGENERACY_TOL of the
    lowest value, over the sorted sector bitstrings; multiplet @
    multiplet.conj().T is the multiplet's projector.  Each connected block
    of the sector matrix is solved on its own: whole by a dense eigh up to
    dense_up_to states (or when too small for eigsh), else for its lowest
    how_many pairs by eigsh converged to machine precision (tol=0) from a
    fixed start vector, asked for twice as many while every pair found lies
    in the block's own lowest multiplet."""
    states = sector_basis(n_qubits, n_up, n_down)
    matrix = sector_matrix(h, states, n_qubits)
    n_blocks, labels = scipy.sparse.csgraph.connected_components(matrix, directed=False)
    values, lowest = [], []  # lowest: (rows, values, vectors) of each block's lowest multiplet
    for block in range(n_blocks):
        rows = np.flatnonzero(labels == block)
        sub = matrix[rows][:, rows]
        if len(rows) <= max(dense_up_to, how_many + 1):
            vals, vecs = np.linalg.eigh(sub.toarray())
        else:
            k = how_many
            while True:
                vals, vecs = scipy.sparse.linalg.eigsh(
                    sub, k=k, which="SA", tol=0,
                    v0=np.random.default_rng(0).standard_normal(len(rows)))
                if (vals > vals.min() + GROUND_DEGENERACY_TOL).any() or 2 * k >= len(rows):
                    break
                k *= 2
        ground = vals <= vals.min() + GROUND_DEGENERACY_TOL
        values.append(np.sort(vals)[:how_many])
        lowest.append((rows, vals[ground], vecs[:, ground]))
    floor = min(vals.min() for _, vals, _ in lowest)
    columns = []
    for rows, vals, vecs in lowest:
        kept = vals <= floor + GROUND_DEGENERACY_TOL
        column = np.zeros((len(states), np.count_nonzero(kept)), dtype=vecs.dtype)
        column[rows] = vecs[:, kept]
        columns.append(column)
    return np.sort(np.concatenate(values))[:how_many], np.concatenate(columns, axis=1)


def rotate_every_gate(x, gate, theta) -> None:
    """rotate_sector without its skip: a gate at angle 0 rotates too."""
    if isinstance(gate, SectorPhase):
        x *= _phase_factors(gate, theta)
    else:
        rotate_orbit(x, gate, theta)


def two_array_rotation(x, orbit, theta) -> None:
    """exp(theta*G) in place, as rotate_orbit computed it with two
    coefficient arrays: float64 signs, forward = s*phase*sign from src to
    dst, backward = s*conj(phase)*sign from dst to src, and the backward
    term subtracted."""
    src, dst, sign, phase = orbit
    sign = np.real(sign).astype(np.float64)
    s, c = math.sin(theta), math.cos(theta)
    forward = s * phase * sign
    backward = s * phase.conjugate() * sign
    v_src, v_dst = x[src], x[dst]
    rotated = c * v_dst
    rotated += forward * v_src
    x[dst] = rotated
    rotated = c * v_src
    rotated -= backward * v_dst
    x[src] = rotated


def run_every_gate(x0, gates, thetas):
    """sector_run with every gate rotated, at angle 0 too."""
    x = x0.astype(np.result_type(x0, *{gate.phase for gate in gates}))
    for gate, theta in zip(gates, thetas):
        rotate_every_gate(x, gate, theta)
    return x


def adjoint_evaluation(x0, gates, thetas, h, final=None):
    """(energy, per-gate gradient): sector_expectation, then
    sector_adjoint_sweep on its buffers, as one ADAM evaluation runs them.
    A final state, if given, stands in for the forward run, and the sweep
    rotates it back in place."""
    if final is None:
        energy, x, b = sector_expectation(x0, gates, thetas, h)
    else:  # with no gates, sector_expectation evaluates a copy of final
        (energy, _, b), x = sector_expectation(final, [], [], h), final
    return energy, sector_adjoint_sweep(gates, thetas, x, b)


def per_gate_sweep(x0, gates, thetas, h, final=None):
    """adjoint_evaluation as one overlap and two separate rotations per
    gate, at angle 0 too: each call gathers its own slices and builds its
    own coefficients."""
    x = run_every_gate(x0, gates, thetas) if final is None else final
    b = h @ x
    energy = float(np.vdot(x, b).real)
    grads = np.zeros(len(gates))
    for pos in range(len(gates) - 1, -1, -1):
        grads[pos] = 2.0 * sector_overlap(gates[pos], b, x).real
        if pos:
            rotate_every_gate(x, gates[pos], -thetas[pos])
            rotate_every_gate(b, gates[pos], -thetas[pos])
    return energy, grads


def eager_adam_optimize(x0, orbits, thetas, h, config):
    """core.adam_optimize as the pass ran with a gradient at every
    evaluation: the evaluation that ends the pass sweeps its gradient too,
    and no state is handed back, so the run computes it again."""
    def evaluate(t):
        return adjoint_evaluation(x0, orbits, t, h)

    thetas = np.array(thetas, dtype=float)
    energy, grads = evaluate(thetas)
    if not math.isfinite(energy):
        raise RuntimeError(f"non-finite energy {energy} at the starting point")
    if len(thetas) == 0 or np.abs(grads).max() == 0.0:
        return AdamResult(thetas, energy, np.array([energy]), 0, True), None

    best_energy, best_thetas = energy, thetas.copy()
    energies = [energy]
    m = np.zeros_like(thetas)
    v = np.zeros_like(thetas)
    steps, streak, converged = 0, 0, False
    for step in range(1, config.max_inner_steps + 1):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads ** 2
        m_hat = m / (1.0 - ADAM_BETA1 ** step)
        v_hat = v / (1.0 - ADAM_BETA2 ** step)
        thetas = thetas - ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_STABILIZER)
        previous = energy
        energy, grads = evaluate(thetas)
        if not math.isfinite(energy):
            raise RuntimeError(f"non-finite energy {energy} at inner step {step}")
        energies.append(energy)
        steps = step
        if energy < best_energy:
            best_energy, best_thetas = energy, thetas.copy()
        streak = streak + 1 if abs(energy - previous) < config.eps2 else 0
        if streak >= config.convergence_window:
            converged = True
            break
    return AdamResult(best_thetas, best_energy, np.array(energies), steps, converged), None


# ---------------------------------------------------------------------------
# letter-tuple Pauli algebra and the per-string sector matrix

# single-qubit products (left * right) -> (phase, letter or None for identity)
_PAULI_PRODUCT = {
    ("X", "X"): (1, None), ("Y", "Y"): (1, None), ("Z", "Z"): (1, None),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def letter_product(a, b):
    """Product of two Pauli letter maps, returning (phase, letters), by a
    merge over ascending qubits and the single-qubit table."""
    phase = 1 + 0j
    out = []
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i][0] < b[j][0]):
            out.append(a[i]); i += 1
        elif i >= len(a) or b[j][0] < a[i][0]:
            out.append(b[j]); j += 1
        else:
            q = a[i][0]
            p, letter = _PAULI_PRODUCT[(a[i][1], b[j][1])]
            phase *= p
            if letter is not None:
                out.append((q, letter))
            i += 1; j += 1
    return phase, tuple(out)


def _canonical(acc: dict) -> dict:
    """What PauliSum keeps of a letters -> coefficient map."""
    return {letters: complex(coeff) for letters, coeff in acc.items()
            if abs(coeff) >= COEFF_DROP_TOL}


def letter_sum_product(a: dict, b: dict) -> dict:
    """The terms of PauliSum a * b, given and returned as letters -> coefficient."""
    acc = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            phase, letters = letter_product(la, lb)
            acc[letters] = acc.get(letters, 0.0) + ca * cb * phase
    return _canonical(acc)


def _letter_jw_factor(q: int, kind: str) -> dict:
    chain = tuple((k, "Z") for k in range(q))
    sign = -1j if kind == CREATE else 1j
    acc = {}
    for coeff, letters in [(0.5, chain + ((q, "X"),)), (0.5 * sign, chain + ((q, "Y"),))]:
        acc[letters] = acc.get(letters, 0.0) + coeff
    return _canonical(acc)


def staged_jordan_wigner(term, n_qubits: int) -> dict:
    """The terms of jordan_wigner(term, n_qubits), letters -> coefficient, by
    multiplying letter-tuple sums factor by factor from the identity."""
    for q, _ in term.factors:
        if q >= n_qubits:
            raise ValueError(f"orbital index {q} out of range for {n_qubits} qubits")
    result = _canonical({(): term.coeff})
    for q, kind in term.factors:
        result = letter_sum_product(result, _letter_jw_factor(q, kind))
    return result


# ---------------------------------------------------------------------------
# per-term Jordan-Wigner expansion, dict-built Pauli sums and builders, and
# the letter-tuple compile: the earlier vipsa.fermions and vipsa.hamiltonians
# code, which kept each Pauli sum as a dict in first-appearance order


_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def mask_product(xa: int, za: int, xb: int, zb: int) -> tuple[complex, int, int]:
    """P_a P_b = phase P_c for one pair of strings given as masks, returning
    (phase, x_c, z_c), by Python integer popcounts."""
    x, z = xa ^ xb, za ^ zb
    power = ((xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
             - (x & z).bit_count())
    return _PHASES[power & 3], x, z


def mask_sum_product(a: dict, b: dict) -> dict:
    """a * b over (x, z)-keyed terms, in first-appearance order with a's
    terms outermost.  Each coefficient accumulates as acc + ca * cb * phase
    from 0.0, and those below COEFF_DROP_TOL are dropped at the end."""
    acc = {}
    for (xa, za), ca in a.items():
        for (xb, zb), cb in b.items():
            phase, x, z = mask_product(xa, za, xb, zb)
            acc[x, z] = acc.get((x, z), 0.0) + ca * cb * phase
    return {key: value for key, value in acc.items() if abs(value) >= COEFF_DROP_TOL}


def per_term_jordan_wigner(term, n_qubits: int) -> dict:
    """The image of one ladder term as (x, z) -> coefficient: its factors'
    images multiplied from the left by mask_sum_product, each the Z chain
    below q times X_q, then Y_q."""
    for q, _ in term.factors:
        if q >= n_qubits:
            raise ValueError(f"orbital index {q} out of range for {n_qubits} qubits")
    terms = {(0, 0): complex(term.coeff)} if abs(term.coeff) >= COEFF_DROP_TOL else {}
    for q, kind in term.factors:
        chain = (1 << q) - 1
        y_coeff = complex(0.0, -0.5) if kind == CREATE else complex(0.0, 0.5)
        terms = mask_sum_product(terms, {(1 << q, chain): complex(0.5),
                                         (1 << q, chain | 1 << q): y_coeff})
    return terms


def dict_jordan_wigner(term, n_qubits: int) -> dict:
    """per_term_jordan_wigner keyed by letter maps, in the same order."""
    return {_letters(x, z): value for (x, z), value in per_term_jordan_wigner(term, n_qubits).items()}


def sorted_terms(terms: dict) -> list:
    """(coefficient, letters) in letter-map order, as a Pauli sum iterates."""
    return [(terms[letters], letters) for letters in sorted(terms)]


def dict_from_terms(pairs) -> dict:
    """What PauliSum.from_terms keeps of (coefficient, letters) pairs, summed
    per letter map from 0.0 in first-appearance order."""
    acc = {}
    for coeff, letters in pairs:
        acc[letters] = acc.get(letters, 0.0) + coeff
    return _canonical(acc)


def dict_add(a: dict, b: dict) -> dict:
    """a + b: a's coefficients as they are, b's added in its order."""
    acc = dict(a)
    for letters, coeff in b.items():
        acc[letters] = acc.get(letters, 0.0) + coeff
    return _canonical(acc)


def dict_scaled(scalar, terms: dict) -> dict:
    return _canonical({letters: complex(scalar) * coeff for letters, coeff in terms.items()})


def dict_kinetic_kspace(grid) -> dict:
    pairs = []
    for mode in enumerate_modes(grid):
        for spin in (UP, DOWN):
            pairs += sorted_terms(dict_jordan_wigner(number_term(mode.qubit(spin), mode.energy),
                                                     grid.n_qubits))
    return dict_from_terms(pairs)


def dict_build_kspace(grid) -> dict:
    pairs = sorted_terms(dict_kinetic_kspace(grid))
    for quad in interaction_quadruples(grid):
        pairs += sorted_terms(dict_jordan_wigner(quad.ladder_term().scaled(quad.amplitude),
                                                 grid.n_qubits))
    return dict_from_terms(pairs)


def dict_onsite_interaction(grid) -> dict:
    pairs = []
    if grid.u != 0.0:
        for site in range(grid.n_sites):
            n_up = dict_jordan_wigner(number_term(qubit_index(site, UP)), grid.n_qubits)
            n_down = dict_jordan_wigner(number_term(qubit_index(site, DOWN)), grid.n_qubits)
            pairs += sorted_terms(dict_scaled(grid.u, letter_sum_product(n_up, n_down)))
    return dict_from_terms(pairs)


def dict_build_real(grid) -> dict:
    pairs = []
    horizontal, vertical = hopping_edges(grid)
    for i, j in horizontal + vertical:
        for spin in (UP, DOWN):
            for term in hopping_pair(qubit_index(i, spin), qubit_index(j, spin), -grid.t):
                pairs += sorted_terms(dict_jordan_wigner(term, grid.n_qubits))
    return dict_from_terms(pairs + sorted_terms(dict_onsite_interaction(grid)))


def dict_spin_operators(n_sites: int) -> tuple[dict, dict]:
    """(S_z, S^2), raising operator summed term by term and S^2 by products
    over the dicts' own orders."""
    n_qubits = 2 * n_sites
    pairs, raising = [], {}
    for orbital in range(n_sites):
        up, down = qubit_index(orbital, UP), qubit_index(orbital, DOWN)
        pairs += sorted_terms(dict_jordan_wigner(number_term(up, 0.5), n_qubits))
        pairs += sorted_terms(dict_jordan_wigner(number_term(down, -0.5), n_qubits))
        raising = dict_add(raising, dict_jordan_wigner(
            LadderTerm(1.0, ((up, CREATE), (down, ANNIHILATE))), n_qubits))
    s_z = dict_from_terms(pairs)
    lowering = _canonical({letters: coeff.conjugate() for letters, coeff in raising.items()})
    flips = dict_add(letter_sum_product(raising, lowering), letter_sum_product(lowering, raising))
    return s_z, dict_add(letter_sum_product(s_z, s_z), dict_scaled(0.5, flips))


_I4 = complex(0, 1) ** np.arange(4)


def letter_compiled_terms(terms, n_qubits: int):
    """(coefficients, flip masks, sign masks) of (coefficient, letters)
    terms in the order given, each string's masks read off its letter map
    and its Y letters' i^|Y| folded into its coefficient."""
    coeffs, flips, signs = [], [], []
    for coeff, letters in terms:
        xm, ym, zm = letters_to_masks(letters)
        if (xm | ym | zm) >> n_qubits:
            raise ValueError("Pauli sum acts outside the register")
        coeffs.append(coeff * _I4[ym.bit_count() % 4])
        flips.append(xm | ym)
        signs.append(ym | zm)
    return (np.array(coeffs, dtype=np.complex128), np.array(flips, dtype=np.uint32),
            np.array(signs, dtype=np.uint32))


def _parity(values):
    return (np.bitwise_count(values) & 1).astype(np.int8)


def per_string_sector_matrix(h, states, n_qubits: int):
    """sector_matrix(h, states, n_qubits) with one complex pass per Pauli
    string, each added into its flip group's amplitude, and a basis lookup
    for every state of every off-diagonal group."""
    groups = {}
    scale = 1.0
    for coeff, flip, yz in zip(*letter_compiled_terms(h, n_qubits)):
        groups.setdefault(int(flip), []).append((coeff, yz))
        scale = max(scale, abs(coeff))
    dim = len(states)
    if not groups:
        return scipy.sparse.csr_matrix((dim, dim), dtype=np.complex128)
    source = np.arange(dim)
    rows, cols, data = [], [], []
    for flip, entries in groups.items():
        amp = np.zeros(dim, dtype=np.complex128)
        for coeff, yz in entries:
            amp += np.where(_parity(states & yz), -coeff, coeff)
        if flip == 0:
            keep = amp != 0
            rows.append(source[keep])
            cols.append(source[keep])
            data.append(amp[keep])
            continue
        targets = states ^ np.uint32(flip)
        idx = np.searchsorted(states, targets)
        idx_c = np.minimum(idx, dim - 1)
        found = states[idx_c] == targets
        stray = np.abs(amp[~found])
        if stray.size and stray.max() > AMPLITUDE_DROP_TOL * scale:
            raise ValueError("operator couples states outside the sector")
        keep = found & (amp != 0)
        rows.append(idx_c[keep])
        cols.append(source[keep])
        data.append(amp[keep])
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim), dtype=np.complex128)
    return matrix.tocsr()


def loop_interaction_quadruples(grid) -> tuple[InteractionQuadruple, ...]:
    """interaction_quadruples(grid), one index tuple at a time."""
    if grid.u == 0.0:
        return ()
    fx = _axis_overlap(grid.nx, grid.bc_x)
    fy = _axis_overlap(grid.ny, grid.bc_y)
    ex = axis_energies(grid.nx, grid.bc_x, grid.t)
    ey = axis_energies(grid.ny, grid.bc_y, grid.t)
    quads = []
    for a, b, c, d in itertools.product(range(grid.n_sites), repeat=4):
        ax, ay = a % grid.nx, a // grid.nx
        bx, by = b % grid.nx, b // grid.nx
        cx, cy = c % grid.nx, c // grid.nx
        dx, dy = d % grid.nx, d // grid.nx
        v = grid.u * fx[ax, bx, cx, dx] * fy[ay, by, cy, dy]
        if abs(v) <= AMPLITUDE_DROP_TOL * abs(grid.u):
            continue
        if abs(complex(v).imag) > 1e-12 * abs(v):
            raise ValueError(f"interaction amplitude not real: {v}")
        gap = (ex[ax] + ey[ay]) + (ex[bx] + ey[by]) - (ex[cx] + ey[cy]) - (ex[dx] + ey[dy])
        quads.append(InteractionQuadruple(a, b, c, d, float(complex(v).real), float(gap)))
    return tuple(quads)


def as_real_if_possible(matrix):
    """The real part of a CSR matrix, with contiguous float64 data of its own,
    if its imaginary part is at most 1e-12 times max(1, the largest |entry|),
    else the matrix itself."""
    if matrix.nnz == 0 or (np.abs(matrix.data.imag).max()
                           <= 1e-12 * max(1.0, np.abs(matrix.data).max())):
        return scipy.sparse.csr_matrix((matrix.data.real.copy(), matrix.indices, matrix.indptr),
                                       shape=matrix.shape)
    return matrix


def rows_of_block(matrix, inside: np.ndarray):
    """P H P from the whole-sector CSR H, with P the projector onto the
    states where the boolean mask `inside` holds: H's own arrays with every
    row outside the mask emptied.  Rows inside keep every entry, so they
    must not reach outside the mask (H never mixes two momentum blocks)."""
    lengths = np.diff(matrix.indptr)
    kept = np.repeat(inside, lengths)
    assert inside[matrix.indices[kept]].all(), "a block row reaches outside its block"
    indptr = np.zeros(len(lengths) + 1, dtype=matrix.indptr.dtype)
    indptr[1:] = np.cumsum(np.where(inside, lengths, 0))
    return scipy.sparse.csr_matrix((matrix.data[kept], matrix.indices[kept], indptr),
                                   shape=matrix.shape)


def whole_sector_run_operands(grid, reference):
    """(x0, h, pool) of an adaptive run as it was built over the whole
    sector: the Fermi sea over reference.states, P H P for the block of
    reference.matrix_rows (rows_of_block of the whole-sector matrix), and
    the pool's orbit tables over every sector bitstring."""
    states = reference.states
    sea = fermi_sea(grid, reference.n_up, reference.n_down).bitstring()
    whole = whole_sector_matrix(grid, reference.n_up, reference.n_down)
    inside = np.zeros(len(states), dtype=bool)
    inside[reference.matrix_rows] = True
    return ((states == sea).astype(float), rows_of_block(whole, inside),
            PoolTables.build(grid, states))
