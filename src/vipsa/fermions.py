"""Second-quantized terms, Pauli strings, and the Jordan-Wigner map.

Occupation convention: basis-state bit 1 means occupied, so the number
operator maps to (I - Z)/2 and a Fermi sea is prepared by X gates on the
occupied orbitals' qubits.  Jordan-Wigner parity strings run over qubits
below the acted-on qubit:

    c†_q -> (prod_{k<q} Z_k) (X_q - i Y_q)/2
    c_q  -> (prod_{k<q} Z_k) (X_q + i Y_q)/2

Pauli sums are kept as arrays of string masks and coefficients from the
Jordan-Wigner map to the sector matrix; letter maps are built only where a
caller asks for them (PauliSum.terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

CREATE = "+"
ANNIHILATE = "-"

# letters: sparse Pauli map as a tuple of (qubit, "X"|"Y"|"Z"), ascending qubit
Letters = tuple[tuple[int, str], ...]

COEFF_DROP_TOL = 1e-12

# A Pauli string as bit masks (x, z): X on the qubits of x only, Z on those
# of z only, Y on both.  With Y = iXZ the string is i^|x&z| X^x Z^z, so a
# product's phase is a power of i read off popcounts (see _mask_products).
Masks = tuple[int, int]
# Strings as arrays: x masks, z masks (uint64) and complex128 coefficients.
MaskArrays = tuple[np.ndarray, np.ndarray, np.ndarray]

_PHASE_ARRAY = np.array((1 + 0j, 1j, -1 + 0j, -1j))
_LETTER = (None, "X", "Z", "Y")  # by (x bit) + 2 * (z bit)
# rank of a qubit's letter in letter-map order (X < Y < Z), by (x bit) + 2 * (z bit)
_LETTER_RANK = np.array([0, 1, 3, 2], dtype=np.uint16)
_I4 = complex(0, 1) ** np.arange(4)


@dataclass(frozen=True)
class LadderTerm:
    """coefficient times an ordered product of ladder factors.

    factors are (orbital qubit index, CREATE | ANNIHILATE), listed in
    operator order: factors[0] is the leftmost factor, i.e. the last one
    applied to a ket.
    """

    coeff: complex
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        for q, kind in self.factors:
            if kind not in (CREATE, ANNIHILATE):
                raise ValueError(f"bad ladder factor kind {kind!r}")
            if q < 0:
                raise ValueError(f"negative orbital index {q}")

    def dagger(self) -> "LadderTerm":
        flipped = tuple((q, ANNIHILATE if kind == CREATE else CREATE)
                        for q, kind in reversed(self.factors))
        return LadderTerm(complex(self.coeff).conjugate(), flipped)

    def scaled(self, factor: complex) -> "LadderTerm":
        return LadderTerm(self.coeff * factor, self.factors)


def _mask_products(xa, za, xb, zb) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_a P_b = phase P_c over arrays of strings given as masks, pair by
    pair, returning (phase, x_c, z_c).

    Moving Z^za past X^xb costs (-1)^|za & xb|, and i^|x&z| converts each
    side between its string and X^x Z^z.  The popcounts are uint8 and wrap
    modulo 256, which keeps the power of i modulo 4."""
    x, z = xa ^ xb, za ^ zb
    count = np.bitwise_count
    power = count(xa & za) + count(xb & zb) + 2 * count(za & xb) - count(x & z)
    return _PHASE_ARRAY[power & 3], x, z


def _masks(letters: Letters) -> Masks:
    xm, ym, zm = letters_to_masks(letters)
    return xm | ym, ym | zm


@lru_cache(maxsize=1 << 14)  # a Hamiltonian's strings recur across its ladder terms
def _letters(x: int, z: int) -> Letters:
    """Letter map of the string with masks (x, z), ascending qubit."""
    out = []
    bits = x | z
    while bits:
        low = bits & -bits
        out.append((low.bit_length() - 1, _LETTER[bool(x & low) + 2 * bool(z & low)]))
        bits ^= low
    return tuple(out)


def _times(a, b) -> np.ndarray:
    """a * b elementwise by the formula of Python's complex product, each
    real product rounded on its own (numpy's complex multiply may fuse them
    into one rounding)."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _size(coeffs: np.ndarray) -> np.ndarray:
    """|c| of each coefficient as Python's abs gives it (np.abs on complex
    numbers may differ in the last bit)."""
    return np.hypot(coeffs.real, coeffs.imag)


def _merged(keys: tuple[np.ndarray, ...], coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries with equal keys (equal in every array of keys) merged as a
    dict accumulation merges them: (the index of each key's first entry,
    ascending; the key's summed coefficient).  Each sum runs over its
    entries in order from +0.0, the real and imaginary parts apart, as
    complex addition does."""
    if not len(coeffs):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.complex128)
    order = np.lexsort(keys[::-1])  # stable: a key's entries stay in entry order
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    sums = np.empty(np.count_nonzero(new), dtype=np.complex128)
    sums.real = np.bincount(inverse, weights=coeffs.real, minlength=len(sums))
    sums.imag = np.bincount(inverse, weights=coeffs.imag, minlength=len(sums))
    first = order[new]
    appearance = np.argsort(first)
    return first[appearance], sums[appearance]


def _letter_order(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The permutation that sorts strings by their letter maps.  Each string
    becomes the row of its letters' codes 4 q + rank (rank 1, 2, 3 for X, Y,
    Z), ascending, padded with zeros, so that comparing rows compares the
    letter maps as tuples, a prefix first."""
    width = int((x | z).max(initial=0)).bit_length()
    qubits = np.arange(width, dtype=np.uint64)
    rank = _LETTER_RANK[((x[:, None] >> qubits) & 1) + 2 * ((z[:, None] >> qubits) & 1)]
    absent = np.iinfo(np.uint16).max
    codes = np.where(rank > 0, 4 * qubits.astype(np.uint16) + rank, absent)
    codes.sort(axis=1)
    codes[codes == absent] = 0
    return np.lexsort(codes.T[::-1]) if width else np.arange(len(x))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def letters_to_masks(letters: Letters) -> tuple[int, int, int]:
    """Bit masks (x, y, z) of the qubits carrying each letter."""
    xm = ym = zm = 0
    for q, letter in letters:
        if letter == "X":
            xm |= 1 << q
        elif letter == "Y":
            ym |= 1 << q
        else:
            zm |= 1 << q
    return xm, ym, zm


def _compile(x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> MaskArrays:
    """The arrays PauliSum.compiled keeps; a string beyond qubit 31, which a
    uint32 mask cannot hold, is a ValueError."""
    if ((x | z) >> np.uint64(32)).any():
        raise ValueError("Pauli sum acts beyond a 32-qubit register")
    return _read_only(_times(coeffs, _I4[np.bitwise_count(x & z) & 3]),
                      x.astype(np.uint32), z.astype(np.uint32))


def _letter_arrays(pairs: list[tuple[complex, Letters]]) -> MaskArrays:
    masks = [_masks(letters) for _, letters in pairs]
    return (np.array([x for x, _ in masks], dtype=np.uint64),
            np.array([z for _, z in masks], dtype=np.uint64),
            np.array([coeff for coeff, _ in pairs], dtype=np.complex128))


class PauliSum:
    """Canonicalized linear combination of Pauli strings.

    The strings are held as mask arrays (see masks) in the order of their
    letter maps, no two alike; terms with |coefficient| below 1e-12 are
    dropped.  Instances are immutable values, and their arrays read-only.
    Every sum of coefficients (from_terms, merged, +, *) adds in the order
    the terms come, from +0.0.
    """

    __slots__ = ("_x", "_z", "_coeffs", "_compiled")

    def __init__(self, terms: dict[Letters, complex] | None = None):
        """The sum of the given letter maps, one per string, at their
        coefficients, which are not summed with anything."""
        self._set(*_letter_arrays([(coeff, letters) for letters, coeff in (terms or {}).items()]))

    def _set(self, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> None:
        kept = _size(coeffs) >= COEFF_DROP_TOL
        x, z, coeffs = x[kept], z[kept], coeffs[kept]
        order = _letter_order(x, z)
        self._x, self._z, self._coeffs = _read_only(x[order], z[order], coeffs[order])
        self._compiled = None

    @classmethod
    def _of(cls, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """The sum of the distinct strings (x, z) at these coefficients."""
        out = cls.__new__(cls)
        out._set(x, z, coeffs)
        return out

    @classmethod
    def zero(cls) -> "PauliSum":
        return cls()

    @classmethod
    def merged(cls, *parts: MaskArrays) -> "PauliSum":
        """The sum of the strings of the (x, z, coefficients) parts, read in
        order; equal strings are summed in the order they come."""
        x, z, coeffs = (np.concatenate(arrays) for arrays in zip(*parts, _letter_arrays([])))
        first, sums = _merged((x, z), coeffs)
        return cls._of(x[first], z[first], sums)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[complex, Letters]]) -> "PauliSum":
        return cls.merged(_letter_arrays(list(terms)))

    def masks(self) -> MaskArrays:
        """The strings' x masks, z masks and coefficients, in letter-map order."""
        return self._x, self._z, self._coeffs

    def compiled(self) -> MaskArrays:
        """(coefficients, flip masks, sign masks) of the strings in letter-map
        order, as uint32 masks: string t maps |s> to coefficients[t]
        (-1)^|s & signs[t]| |s ^ flips[t]>, its Y letters' i^|x & z| folded
        into its coefficient.  Made once per sum, and read-only."""
        if self._compiled is None:
            self._compiled = _compile(*self.masks())
        return self._compiled

    def terms(self) -> list[tuple[complex, Letters]]:
        """Terms sorted by letter map, for deterministic iteration."""
        return [(coeff, _letters(x, z)) for x, z, coeff
                in zip(self._x.tolist(), self._z.tolist(), self._coeffs.tolist())]

    def __iter__(self) -> Iterator[tuple[complex, Letters]]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliSum) and all(
            np.array_equal(a, b) for a, b in zip(self.masks(), other.masks()))

    def _by_masks(self) -> dict[Masks, complex]:
        return dict(zip(zip(self._x.tolist(), self._z.tolist()), self._coeffs.tolist()))

    def allclose(self, other: "PauliSum", tol: float = 1e-10) -> bool:
        mine, theirs = self._by_masks(), other._by_masks()
        return all(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) <= tol
                   for k in mine.keys() | theirs.keys())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum.merged(self.masks(), other.masks())

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            # every pair of strings, self's outermost
            xa, za, ca = (np.repeat(a, len(other)) for a in self.masks())
            xb, zb, cb = (np.tile(b, len(self)) for b in other.masks())
            phase, x, z = _mask_products(xa, za, xb, zb)
            return PauliSum.merged((x, z, _times(_times(ca, cb), phase)))
        return PauliSum._of(self._x, self._z, _times(complex(other), self._coeffs))

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return self * scalar

    def dagger(self) -> "PauliSum":
        # Pauli strings are Hermitian, so only coefficients conjugate.
        return PauliSum._of(self._x, self._z, self._coeffs.conj())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Every coefficient real within tol times max(1, the largest |coefficient|),
        since rounding leaves imaginary residue in proportion to the sum's scale."""
        bound = tol * max(1.0, float(_size(self._coeffs).max(initial=0.0)))
        return bool((np.abs(self._coeffs.imag) <= bound).all())

    def is_diagonal(self) -> bool:
        return not self._x.any()

    def __repr__(self) -> str:
        return f"PauliSum({len(self)} terms)"


# the Y coefficient of c†_q and c_q, (X_q -/+ i Y_q)/2; X's is 1/2
_JW_Y_COEFF = {CREATE: complex(0.0, -0.5), ANNIHILATE: complex(0.0, 0.5)}


def jordan_wigner_images(terms: Iterable[LadderTerm], n_qubits: int) -> MaskArrays:
    """Exact Pauli expansions of ladder-operator products, all at once: the
    (x, z, coefficients) of each term's image, the terms in order and each
    term's strings together.  The terms are not summed with each other (see
    PauliSum.merged).

    A term's image is the product of its factors' images from the left,
    each factor the Z chain below its qubit q times X_q, then times Y_q.
    After every factor a term's strings are merged in first-appearance
    order, earlier strings outermost, and those below COEFF_DROP_TOL dropped.
    """
    terms = list(terms)
    for term in terms:
        for q, _ in term.factors:
            if q >= n_qubits:
                raise ValueError(f"orbital index {q} out of range for {n_qubits} qubits")
    depths = np.array([len(term.factors) for term in terms], dtype=np.intp)
    parts = [(np.zeros(0, dtype=np.intp), *_letter_arrays([]))]
    # terms of equal length expand together, factor position by position
    for depth in np.unique(depths).tolist():
        members = np.flatnonzero(depths == depth)
        parts.append(_expand([terms[i] for i in members.tolist()], members, depth))
    owners, x, z, coeffs = (np.concatenate(arrays) for arrays in zip(*parts))
    order = np.argsort(owners, kind="stable")
    return x[order], z[order], coeffs[order]


def _expand(terms: list[LadderTerm], owners: np.ndarray, depth: int):
    """(owner, x, z, coefficient) of each string of the images of terms with
    depth factors each, owner naming its term by owners' entry."""
    qubits = np.array([[q for q, _ in term.factors] for term in terms],
                      dtype=np.uint64).reshape(len(terms), depth)
    y_coeffs = np.array([[_JW_Y_COEFF[kind] for _, kind in term.factors] for term in terms],
                        dtype=np.complex128).reshape(len(terms), depth)
    coeffs = np.array([term.coeff for term in terms], dtype=np.complex128)
    term = np.flatnonzero(_size(coeffs) >= COEFF_DROP_TOL)
    x = z = np.zeros(len(term), dtype=np.uint64)
    coeffs = coeffs[term]
    for position in range(depth):
        bit = np.uint64(1) << qubits[term, position]
        # every string times X_q, then times Y_q
        term, x, z, coeffs = (np.repeat(a, 2) for a in (term, x, z, coeffs))
        factor_z = np.repeat(bit - np.uint64(1), 2)
        factor_z[1::2] |= bit
        factor_coeffs = np.full(len(term), 0.5, dtype=np.complex128)
        factor_coeffs[1::2] = y_coeffs[term[1::2], position]
        phase, x, z = _mask_products(x, z, np.repeat(bit, 2), factor_z)
        first, coeffs = _merged((term, x, z), _times(_times(coeffs, factor_coeffs), phase))
        kept = _size(coeffs) >= COEFF_DROP_TOL
        term, x, z, coeffs = term[first[kept]], x[first[kept]], z[first[kept]], coeffs[kept]
    return owners[term], x, z, coeffs


def jordan_wigner(term: LadderTerm, n_qubits: int) -> PauliSum:
    """Exact Pauli expansion of one ladder-operator product (see
    jordan_wigner_images)."""
    return PauliSum.merged(jordan_wigner_images([term], n_qubits))


def jordan_wigner_sum(terms: Iterable[LadderTerm], n_qubits: int) -> PauliSum:
    """The sum of the terms' images, summed as PauliSum.from_terms sums."""
    return PauliSum.merged(jordan_wigner_images(terms, n_qubits))


def hopping_pair(i: int, j: int, coeff: complex = 1.0) -> list[LadderTerm]:
    """c†_i c_j + c†_j c_i, the Hermitian hopping pair on two orbitals."""
    return [LadderTerm(coeff, ((i, CREATE), (j, ANNIHILATE))),
            LadderTerm(complex(coeff).conjugate(), ((j, CREATE), (i, ANNIHILATE)))]


def number_term(q: int, coeff: complex = 1.0) -> LadderTerm:
    return LadderTerm(coeff, ((q, CREATE), (q, ANNIHILATE)))
