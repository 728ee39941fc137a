"""Second-quantized terms, Pauli strings, and the Jordan-Wigner map.

Occupation convention: basis-state bit 1 means occupied, so the number
operator maps to (I - Z)/2 and a Fermi sea is prepared by X gates on the
occupied orbitals' qubits.  Jordan-Wigner parity strings run over qubits
below the acted-on qubit:

    c†_q -> (prod_{k<q} Z_k) (X_q - i Y_q)/2
    c_q  -> (prod_{k<q} Z_k) (X_q + i Y_q)/2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

CREATE = "+"
ANNIHILATE = "-"

# letters: sparse Pauli map as a tuple of (qubit, "X"|"Y"|"Z"), ascending qubit
Letters = tuple[tuple[int, str], ...]

COEFF_DROP_TOL = 1e-12

# A Pauli string as bit masks (x, z): X on the qubits of x only, Z on those
# of z only, Y on both.  With Y = iXZ the string is i^|x&z| X^x Z^z, so a
# product's phase is a power of i read off popcounts (see _mask_product).
Masks = tuple[int, int]

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_LETTER = (None, "X", "Z", "Y")  # by (x bit) + 2 * (z bit)


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


def _mask_product(xa: int, za: int, xb: int, zb: int) -> tuple[complex, int, int]:
    """P_a P_b = phase P_c for strings given as masks, returning (phase, x_c, z_c).

    Moving Z^za past X^xb costs (-1)^|za & xb|, and i^|x&z| converts each
    side between its string and X^x Z^z.
    """
    x, z = xa ^ xb, za ^ zb
    power = ((xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
             - (x & z).bit_count())
    return _PHASES[power & 3], x, z


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


def _product(a: dict[Masks, complex], b: dict[Masks, complex]) -> dict[Masks, complex]:
    """a * b over mask-keyed terms, in first-appearance order with a's terms
    outermost.  Each coefficient accumulates as acc + ca * cb * phase from
    0.0, and those below COEFF_DROP_TOL are dropped at the end.  Starting
    from 0.0 turns every zero part into +0.0, so no coefficient depends on
    the signs of the zeros in a phase."""
    acc: dict[Masks, complex] = {}
    for (xa, za), ca in a.items():
        for (xb, zb), cb in b.items():
            phase, x, z = _mask_product(xa, za, xb, zb)
            acc[x, z] = acc.get((x, z), 0.0) + ca * cb * phase
    return {key: value for key, value in acc.items() if abs(value) >= COEFF_DROP_TOL}


def multiply_letters(a: Letters, b: Letters) -> tuple[complex, Letters]:
    """Product of two Pauli letter maps, returning (phase, letters)."""
    phase, x, z = _mask_product(*_masks(a), *_masks(b))
    return phase, _letters(x, z)


def commutes(a: Letters, b: Letters) -> bool:
    """True iff the strings anticommute on an even number of positions."""
    clashes = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            i += 1
        elif b[j][0] < a[i][0]:
            j += 1
        else:
            if a[i][1] != b[j][1]:
                clashes += 1
            i += 1; j += 1
    return clashes % 2 == 0


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


class PauliSum:
    """Canonicalized linear combination of Pauli strings.

    No two stored terms share a letter map; terms with |coefficient| below
    1e-12 are dropped.  Instances are treated as immutable values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Letters, complex] | None = None):
        canon: dict[Letters, complex] = {}
        for letters, coeff in (terms or {}).items():
            if abs(coeff) >= COEFF_DROP_TOL:
                canon[letters] = complex(coeff)
        self._terms = canon

    @classmethod
    def zero(cls) -> "PauliSum":
        return cls()

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[complex, Letters]]) -> "PauliSum":
        acc: dict[Letters, complex] = {}
        for coeff, letters in terms:
            acc[letters] = acc.get(letters, 0.0) + coeff
        return cls(acc)

    def terms(self) -> list[tuple[complex, Letters]]:
        """Terms sorted by letter map, for deterministic iteration."""
        return [(self._terms[k], k) for k in sorted(self._terms)]

    def __iter__(self) -> Iterator[tuple[complex, Letters]]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliSum) and self._terms == other._terms

    def allclose(self, other: "PauliSum", tol: float = 1e-10) -> bool:
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol
                   for k in keys)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        acc = dict(self._terms)
        for letters, coeff in other._terms.items():
            acc[letters] = acc.get(letters, 0.0) + coeff
        return PauliSum(acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            product = _product({_masks(k): v for k, v in self._terms.items()},
                               {_masks(k): v for k, v in other._terms.items()})
            return PauliSum({_letters(x, z): v for (x, z), v in product.items()})
        return PauliSum({k: complex(other) * v for k, v in self._terms.items()})

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return self * scalar

    def dagger(self) -> "PauliSum":
        # Pauli strings are Hermitian, so only coefficients conjugate.
        return PauliSum({k: v.conjugate() for k, v in self._terms.items()})

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Every coefficient real within tol times max(1, the largest |coefficient|),
        since rounding leaves imaginary residue in proportion to the sum's scale."""
        bound = tol * max(1.0, max(map(abs, self._terms.values()), default=0.0))
        return all(abs(v.imag) <= bound for v in self._terms.values())

    def is_diagonal(self) -> bool:
        return all(all(letter == "Z" for _, letter in k) for k in self._terms)

    def __repr__(self) -> str:
        return f"PauliSum({len(self._terms)} terms)"


# the X and Y coefficients of c†_q and c_q: (X_q -/+ i Y_q)/2
_JW_COEFFS = {CREATE: (complex(0.5), complex(0.0, -0.5)),
              ANNIHILATE: (complex(0.5), complex(0.0, 0.5))}


def _jw_factor(q: int, kind: str) -> dict[Masks, complex]:
    """Image of one ladder factor: the Z chain below q, then X_q before Y_q."""
    chain = (1 << q) - 1
    x_coeff, y_coeff = _JW_COEFFS[kind]
    return {(1 << q, chain): x_coeff, (1 << q, chain | 1 << q): y_coeff}


def jordan_wigner(term: LadderTerm, n_qubits: int) -> PauliSum:
    """Exact Pauli expansion of one ladder-operator product.

    The product runs factor by factor from the left, on mask-keyed terms,
    with the drop below COEFF_DROP_TOL after every factor; letter maps are
    built once, from the final masks.
    """
    for q, _ in term.factors:
        if q >= n_qubits:
            raise ValueError(f"orbital index {q} out of range for {n_qubits} qubits")
    terms = {(0, 0): complex(term.coeff)} if abs(term.coeff) >= COEFF_DROP_TOL else {}
    for q, kind in term.factors:
        terms = _product(terms, _jw_factor(q, kind))
    return PauliSum({_letters(x, z): v for (x, z), v in terms.items()})


def jordan_wigner_sum(terms: Iterable[LadderTerm], n_qubits: int) -> PauliSum:
    result = PauliSum.zero()
    for term in terms:
        result = result + jordan_wigner(term, n_qubits)
    return result


def hopping_pair(i: int, j: int, coeff: complex = 1.0) -> list[LadderTerm]:
    """c†_i c_j + c†_j c_i, the Hermitian hopping pair on two orbitals."""
    return [LadderTerm(coeff, ((i, CREATE), (j, ANNIHILATE))),
            LadderTerm(complex(coeff).conjugate(), ((j, CREATE), (i, ANNIHILATE)))]


def number_term(q: int, coeff: complex = 1.0) -> LadderTerm:
    return LadderTerm(coeff, ((q, CREATE), (q, ANNIHILATE)))
