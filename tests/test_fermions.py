"""Jordan-Wigner images, Pauli algebra, and serialization round-trips."""

import numpy as np
import pytest

from vipsa.fermions import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    PauliSum,
    hopping_pair,
    jordan_wigner,
    jordan_wigner_sum,
    letters_to_masks,
    number_term,
)

from oracles import dense_ladder_term, dense_pauli_sum, letter_product


def test_jw_hopping_adjacent():
    image = jordan_wigner_sum(hopping_pair(0, 1), 2)
    expected = PauliSum.from_terms([(0.5, ((0, "X"), (1, "X"))),
                                    (0.5, ((0, "Y"), (1, "Y")))])
    assert image.allclose(expected, tol=1e-14)


def test_jw_hopping_with_z_chain():
    image = jordan_wigner_sum(hopping_pair(0, 3), 4)
    chain = ((1, "Z"), (2, "Z"))
    expected = PauliSum.from_terms([
        (0.5, ((0, "X"),) + chain + ((3, "X"),)),
        (0.5, ((0, "Y"),) + chain + ((3, "Y"),)),
    ])
    assert image.allclose(expected, tol=1e-14)


def test_jw_number_operator():
    image = jordan_wigner(number_term(2), 3)
    expected = PauliSum.from_terms([(0.5, ()), (-0.5, ((2, "Z"),))])
    assert image.allclose(expected, tol=1e-14)


def test_jw_index_out_of_range():
    with pytest.raises(ValueError):
        jordan_wigner(number_term(3), 3)


def test_jw_roundtrip_against_dense_oracle():
    # Random 4-factor terms on up to 6 qubits, repeats allowed.
    rng = np.random.default_rng(7)
    n = 6
    for _ in range(200):
        factors = tuple((int(rng.integers(0, n)),
                         CREATE if rng.integers(2) else ANNIHILATE)
                        for _ in range(4))
        coeff = complex(rng.normal(), rng.normal())
        term = LadderTerm(coeff, factors)
        lib = dense_pauli_sum(jordan_wigner(term, n), n)
        oracle = dense_ladder_term(term, n)
        np.testing.assert_allclose(lib, oracle, atol=1e-12)


def test_jw_dagger_consistency():
    term = LadderTerm(0.3 - 0.2j, ((4, CREATE), (1, CREATE), (3, ANNIHILATE), (0, ANNIHILATE)))
    a = dense_pauli_sum(jordan_wigner(term.dagger(), 5), 5)
    b = dense_pauli_sum(jordan_wigner(term, 5).dagger(), 5)
    np.testing.assert_allclose(a, b.conj().T.conj().T, atol=1e-12)
    np.testing.assert_allclose(a, dense_ladder_term(term, 5).conj().T, atol=1e-12)


def test_repeated_creation_is_zero():
    assert len(jordan_wigner(LadderTerm(1.0, ((2, CREATE), (2, CREATE))), 3)) == 0
    assert len(jordan_wigner(LadderTerm(1.0, ((1, ANNIHILATE), (1, ANNIHILATE))), 3)) == 0
    # separated duplicates anticommute through the factor in between
    term = LadderTerm(1.0, ((0, CREATE), (2, CREATE), (0, CREATE)))
    assert len(jordan_wigner(term, 3)) == 0


def test_pool_generator_shape():
    # A = O - O† for four distinct orbitals: eight strings of magnitude 1/8,
    # mutually commuting, real antisymmetric as a matrix.
    rng = np.random.default_rng(11)
    n = 8
    for _ in range(20):
        a, b, c, d = (int(q) for q in rng.choice(n, size=4, replace=False))
        o = LadderTerm(1.0, ((a, CREATE), (b, CREATE), (c, ANNIHILATE), (d, ANNIHILATE)))
        gen = jordan_wigner(o, n) - jordan_wigner(o.dagger(), n)
        assert len(gen) == 8
        terms = gen.terms()
        for coeff, letters in terms:
            assert abs(coeff) == pytest.approx(0.125, abs=1e-14)
            weight = sum(1 for _, letter in letters if letter in "XY")
            assert weight == 4
        for i in range(8):
            for j in range(i + 1, 8):
                a, b = terms[i][1], terms[j][1]
                assert letter_product(a, b)[0] == letter_product(b, a)[0]  # commute
        dense = dense_pauli_sum(gen, n)
        assert np.abs(dense.imag).max() < 1e-14
        np.testing.assert_allclose(dense.real, -dense.real.T, atol=1e-14)


def test_commutes_examples():
    # strings commute iff their PauliSum commutator vanishes
    def commutes(a, b):
        pa, pb = PauliSum.from_terms([(1.0, a)]), PauliSum.from_terms([(1.0, b)])
        return len(pa * pb - pb * pa) == 0

    xx = ((0, "X"), (1, "X"))
    yy = ((0, "Y"), (1, "Y"))
    assert commutes(xx, yy)
    assert not commutes(((0, "X"),), ((0, "Y"),))
    assert commutes(xx, xx)
    assert commutes((), yy)


def test_multiply_letters_phases():
    def product(a, b):
        (term,) = (PauliSum.from_terms([(1.0, a)]) * PauliSum.from_terms([(1.0, b)])).terms()
        return term

    phase, letters = product(((0, "X"),), ((0, "Y"),))
    assert phase == 1j and letters == ((0, "Z"),)
    phase, letters = product(((0, "Y"),), ((0, "X"),))
    assert phase == -1j
    phase, letters = product(((0, "X"), (2, "Z")), ((1, "Y"),))
    assert phase == 1 and letters == ((0, "X"), (1, "Y"), (2, "Z"))


def test_sum_algebra():
    p = PauliSum.from_terms([(0.5, ((0, "X"), (1, "X")))])
    assert len(p + (-1.0) * p) == 0
    herm = jordan_wigner_sum(hopping_pair(0, 1), 2)
    assert herm.dagger().allclose(herm, tol=1e-14)
    assert herm.is_hermitian()
    quarter = PauliSum.from_terms([(0.25, ((0, "Z"),))])
    assert (quarter + quarter).allclose(
        PauliSum.from_terms([(0.5, ((0, "Z"),))]), tol=1e-14)
    drop = PauliSum.from_terms([(1e-13, ((0, "Z"),))])
    assert len(drop) == 0


def test_hermiticity_tolerance_scales_with_the_largest_coefficient():
    # rounding residue of 1e-13 relative passes, 1e-9 relative does not
    big = 1e6
    assert PauliSum.from_terms([(big, ((0, "Z"),)), (1e-7j, ((1, "Z"),))]).is_hermitian()
    assert not PauliSum.from_terms([(big, ((0, "Z"),)),
                                    (1e-9j * big, ((1, "Z"),))]).is_hermitian()
    # below unit scale the bound stays absolute
    assert not PauliSum.from_terms([(0.5, ((0, "Z"),)), (1e-9j, ((1, "Z"),))]).is_hermitian()


def test_sum_product_against_dense():
    rng = np.random.default_rng(3)
    n = 4

    def random_sum():
        terms = []
        for _ in range(3):
            letters = tuple(sorted((int(q), "XYZ"[rng.integers(3)])
                                   for q in rng.choice(n, size=2, replace=False)))
            terms.append((complex(rng.normal(), rng.normal()), letters))
        return PauliSum.from_terms(terms)

    for _ in range(20):
        a, b = random_sum(), random_sum()
        np.testing.assert_allclose(
            dense_pauli_sum(a * b, n),
            dense_pauli_sum(a, n) @ dense_pauli_sum(b, n),
            atol=1e-12)


def test_masks():
    xm, ym, zm = letters_to_masks(((0, "X"), (2, "Y"), (5, "Z")))
    assert (xm, ym, zm) == (1, 4, 32)
