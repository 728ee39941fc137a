"""The mask-based Pauli product, Jordan-Wigner expansion and sector matrix
against the letter-tuple and per-string implementations in `oracles.py`.

The mask kernels keep every floating-point operation of those
implementations in the same order, so the checks here are exact: the same
keys in the same insertion order with the same bits, and the same CSR bytes.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from vipsa import hamiltonians
from vipsa.fermions import (
    ANNIHILATE,
    COEFF_DROP_TOL,
    CREATE,
    LadderTerm,
    PauliSum,
    hopping_pair,
    jordan_wigner,
    jordan_wigner_sum,
    multiply_letters,
    number_term,
)
from vipsa.hamiltonians import (
    AMPLITUDE_DROP_TOL,
    build_kspace,
    build_real,
    ground_space,
    sector_matrix,
    spin_operators,
)
from vipsa.core import sea_block
from vipsa.lattice import GridSpec, default_filling, point_group
from vipsa.statevector import sector_basis

from builds import kspace_hamiltonian
from oracles import (
    as_real_if_possible,
    letter_product,
    letter_sum_product,
    per_string_sector_matrix,
    staged_jordan_wigner,
)

N_QUBITS = 6


def bits(terms: dict) -> list:
    """Keys in insertion order, each with the exact bits of its coefficient."""
    return [(letters, coeff.real.hex(), coeff.imag.hex()) for letters, coeff in terms.items()]


# a coefficient part: zeros of either sign, ordinary values, and values about
# COEFF_DROP_TOL times the 2^k by which k factors of 1/2 shrink it, so some
# stage of the expansion lands on each side of the drop
part = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.builds(lambda k, f: COEFF_DROP_TOL * 2.0 ** k * f,
              st.integers(-1, 8), st.floats(-1.5, 1.5, allow_nan=False)),
)
coefficient = st.builds(complex, part, part)
ladder_factor = st.tuples(st.integers(0, N_QUBITS - 1), st.sampled_from([CREATE, ANNIHILATE]))
letter_map = st.dictionaries(st.integers(0, N_QUBITS - 1), st.sampled_from("XYZ"),
                             max_size=N_QUBITS).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=300, deadline=None)
@given(coeff=coefficient, factors=st.lists(ladder_factor, min_size=1, max_size=6))
def test_jordan_wigner_matches_the_staged_letter_expansion(coeff, factors):
    term = LadderTerm(coeff, tuple(factors))
    assert bits(jordan_wigner(term, N_QUBITS)._terms) == bits(staged_jordan_wigner(term, N_QUBITS))


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.tuples(coefficient, letter_map), max_size=5),
       b=st.lists(st.tuples(coefficient, letter_map), max_size=5))
def test_pauli_sum_product_matches_the_letter_product(a, b):
    left, right = PauliSum.from_terms(a), PauliSum.from_terms(b)
    assert bits((left * right)._terms) == bits(letter_sum_product(left._terms, right._terms))


@settings(max_examples=200, deadline=None)
@given(a=letter_map, b=letter_map)
def test_multiply_letters_matches_the_single_qubit_table(a, b):
    phase, letters = multiply_letters(a, b)
    expected_phase, expected_letters = letter_product(a, b)
    assert phase == expected_phase and letters == expected_letters


def test_spin_operators_match_the_letter_expansion():
    # S^2 is the one shipped operator built from PauliSum products
    n_sites = 4
    n_qubits = 2 * n_sites
    s_z, raising = {}, {}
    for orbital in range(n_sites):
        up, down = 2 * orbital, 2 * orbital + 1
        for letters, coeff in [*staged_jordan_wigner(number_term(up, 0.5), n_qubits).items(),
                               *staged_jordan_wigner(number_term(down, -0.5), n_qubits).items()]:
            s_z[letters] = s_z.get(letters, 0.0) + coeff
        image = staged_jordan_wigner(LadderTerm(1.0, ((up, CREATE), (down, ANNIHILATE))), n_qubits)
        for letters, coeff in image.items():
            raising[letters] = raising.get(letters, 0.0) + coeff
    s_z, raising = PauliSum(s_z), PauliSum(raising)
    lowering = raising.dagger()
    got_z, got_squared = spin_operators(n_sites)
    assert bits(got_z._terms) == bits(s_z._terms)
    squared = PauliSum(letter_sum_product(s_z._terms, s_z._terms)) + 0.5 * (
        PauliSum(letter_sum_product(raising._terms, lowering._terms))
        + PauliSum(letter_sum_product(lowering._terms, raising._terms)))
    assert bits(got_squared._terms) == bits(squared._terms)


def assert_same_csr(got, expected):
    assert got.shape == expected.shape and got.format == expected.format == "csr"
    assert got.has_sorted_indices == expected.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def oracle_matrix(h, states, n_qubits: int):
    """The per-string matrix, made real where its imaginary part is negligible."""
    return as_real_if_possible(per_string_sector_matrix(h, states, n_qubits))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 4)])
@pytest.mark.parametrize("u", [0.0, 0.37, 4.0, 6.0, -2.9])
@pytest.mark.parametrize("register", ["k", "real"])
def test_sector_matrix_matches_the_per_string_oracle(shape, u, register):
    grid = GridSpec.make(*shape, u=u)
    h = build_kspace(grid)[0] if register == "k" else build_real(grid)
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    got = sector_matrix(h, states, grid.n_qubits)
    assert got.data.dtype == np.float64
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert_same_csr(got, oracle_matrix(h, states, grid.n_qubits))


def test_3x3_blocks_match_the_per_string_oracle():
    # the blocks a cold 3x3 U=6 (5,4) fill builds: each point-group class's
    # representative, and the Fermi sea's block, which is none of them
    grid = GridSpec.make(3, 3, u=6.0)
    h = kspace_hamiltonian(grid)
    states = sector_basis(grid.n_qubits, 5, 4)
    group = point_group(grid)
    labels = group.labels(states)
    representatives = [members[0][0] for members in group.classes(states, labels)]
    sea_label, sea_states = sea_block(grid, 5, 4)
    assert sea_label not in representatives
    for states in [states[labels == label] for label in representatives] + [sea_states]:
        assert len(states) == 1764
        assert_same_csr(sector_matrix(h, states, grid.n_qubits),
                        oracle_matrix(h, states, grid.n_qubits))


# every boundary pair of 2x3, 2x4 and 3x3 (a periodic axis needs length 3
# or more); with both axes open the mode register stores rounding residues
# of about 1e-17, which must come out the same
BOUNDARY_GRIDS = [pytest.param(GridSpec.make(nx, ny, u=u, bc_x=bc_x, bc_y=bc_y),
                               id=f"{nx}x{ny}-{bc_x}-{bc_y}")
                  for (nx, ny), u in [((2, 3), 4.0), ((2, 4), 0.37), ((3, 3), -2.9)]
                  for bc_x in ("open", "periodic") for bc_y in ("open", "periodic")
                  if (bc_x == "open" or nx > 2) and (bc_y == "open" or ny > 2)]


@pytest.mark.parametrize("register", ["k", "real"])
@pytest.mark.parametrize("grid", BOUNDARY_GRIDS)
def test_every_boundary_pair_matches_the_per_string_oracle(grid, register):
    # the 3x3 mode register on the sea's block, every other case on its
    # whole default sector
    n_up, n_down = default_filling(grid)
    if register == "k":
        h = kspace_hamiltonian(grid)
        states = (sea_block(grid, n_up, n_down)[1] if grid.n_sites == 9
                  else sector_basis(grid.n_qubits, n_up, n_down))
    else:
        h = build_real(grid)
        states = sector_basis(grid.n_qubits, n_up, n_down)
    got = sector_matrix(h, states, grid.n_qubits)
    assert_same_csr(got, oracle_matrix(h, states, grid.n_qubits))
    if register == "k" and grid.bc_x == grid.bc_y == "open":
        assert np.abs(got.data).min() < AMPLITUDE_DROP_TOL


def build_or_error(build, h, states, n_qubits):
    """(matrix, None) from the build, or (None, message) when it raises ValueError."""
    try:
        return build(h, states, n_qubits), None
    except ValueError as err:
        return None, str(err)


# random Pauli sums on four sites, whose sectors hold up to 36 states, so
# that most flip tables are no longer than the basis
SUM_QUBITS = 8
same_spin_pair = st.builds(lambda spin, sites: (2 * sites[0] + spin, 2 * sites[1] + spin),
                           st.integers(0, 1), st.permutations(range(SUM_QUBITS // 2)))
pauli_part = st.one_of(
    # a hopping pair: its flip group's strings share one sign mask off the flip
    st.builds(lambda pair, c: jordan_wigner_sum(hopping_pair(*pair, c), SUM_QUBITS),
              same_spin_pair, coefficient),
    # a density-correlated hopping n_k c†_i c_j + h.c.: strings with and
    # without Z_k in one flip group, so two sign masks off the flip
    st.builds(lambda pair, k, c: jordan_wigner_sum(
        [LadderTerm(term.coeff, ((k, CREATE), (k, ANNIHILATE), *term.factors))
         for term in hopping_pair(*pair, c)], SUM_QUBITS),
        same_spin_pair, st.integers(0, SUM_QUBITS - 1), coefficient),
    # a scattering c†_{a↑} c†_{b↓} c_{c↓} c_{d↑} and its partner with the
    # roles swapped, at two coefficients: 16 strings in one flip group with
    # one sign mask off the flip, whose coefficients are sums of both, so on
    # the whole register some table entries depend on the order the strings
    # are added in
    st.builds(lambda up, down, c1, c2: jordan_wigner_sum(
        [LadderTerm(c1, ((2 * up[0], CREATE), (2 * down[0] + 1, CREATE),
                         (2 * down[1] + 1, ANNIHILATE), (2 * up[1], ANNIHILATE))),
         LadderTerm(c2, ((2 * up[1], CREATE), (2 * down[1] + 1, CREATE),
                         (2 * down[0] + 1, ANNIHILATE), (2 * up[0], ANNIHILATE)))], SUM_QUBITS),
        st.permutations(range(SUM_QUBITS // 2)), st.permutations(range(SUM_QUBITS // 2)),
        coefficient, coefficient),
    st.builds(lambda q, c: jordan_wigner(number_term(q, c), SUM_QUBITS),
              st.integers(0, SUM_QUBITS - 1), coefficient),
    # any string, which mostly leaves the sector, at any size
    st.builds(lambda letters, c: PauliSum.from_terms([(c, tuple(sorted(letters.items())))]),
              st.dictionaries(st.integers(0, SUM_QUBITS - 1), st.sampled_from("XYZ")),
              coefficient),
)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(pauli_part, min_size=1, max_size=6),
       sector=st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 4))),
       data=st.data())
def test_random_pauli_sums_match_the_per_string_oracle(parts, sector, data):
    # complex coefficients, flip groups with one and with several sign masks
    # off the flip, and strings that leave the basis, on a sector or the
    # whole register (None) with up to three of its states dropped: the same
    # CSR bytes or the same ValueError
    h = sum(parts, PauliSum.zero())
    states = (np.arange(1 << SUM_QUBITS, dtype=np.uint32) if sector is None
              else sector_basis(SUM_QUBITS, *sector))
    dropped = data.draw(st.sets(st.integers(0, len(states) - 1), max_size=3))
    states = np.delete(states, sorted(dropped))
    got, got_error = build_or_error(sector_matrix, h, states, SUM_QUBITS)
    want, want_error = build_or_error(oracle_matrix, h, states, SUM_QUBITS)
    assert got_error == want_error
    if got_error is None:
        # a purely imaginary entry made real leaves the oracle a stored 0.0,
        # which sector_matrix drops
        want.eliminate_zeros()
        assert_same_csr(got, want)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 4)])
def test_spin_squared_sector_matrix_matches_the_per_string_oracle(shape):
    grid = GridSpec.make(*shape)
    h = spin_operators(grid.n_sites)[1]
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    assert_same_csr(sector_matrix(h, states, grid.n_qubits),
                    oracle_matrix(h, states, grid.n_qubits))


def test_complex_sector_matrix_on_a_full_register_matches_the_oracle():
    # complex hoppings between every pair of qubits keep the coefficients
    # complex and conserve only the total particle number: on the full
    # register no lookup misses, on the three-particle states none may leave
    rng = np.random.default_rng(5)
    n_qubits = 6
    terms = [number_term(q, float(rng.normal())) for q in range(n_qubits)]
    for i in range(n_qubits):
        for j in range(i + 1, n_qubits):
            terms += hopping_pair(i, j, complex(rng.normal(), rng.normal()))
    h = jordan_wigner_sum(terms, n_qubits)
    everything = np.arange(1 << n_qubits, dtype=np.uint32)
    for states in (everything, everything[np.bitwise_count(everything) == 3]):
        got = sector_matrix(h, states, n_qubits)
        assert np.abs(got.data.imag).max() > 0.1
        assert_same_csr(got, oracle_matrix(h, states, n_qubits))


@pytest.mark.parametrize("imaginary, complex_entries", [(1.0, True), (1e-8, True), (1e-10, False)])
def test_complex_entries_keep_a_complex_matrix(imaginary, complex_entries):
    # an imaginary hopping t c†_0 c_2 + conj(t) c†_2 c_0 between the two up
    # orbitals of a 2x2 site register at U = 1e3, whose largest entry lies
    # between 1e3 and 4e3: an imaginary part of 1e-10 is below the 1e-12
    # relative cut, and one of 1e-8 is above it
    grid = GridSpec.make(2, 2, u=1e3)
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    h = build_real(grid) + jordan_wigner_sum(hopping_pair(0, 2, imaginary * 1j), grid.n_qubits)
    got = sector_matrix(h, states, grid.n_qubits)
    assert got.data.dtype == (np.complex128 if complex_entries else np.float64)
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert_same_csr(got, oracle_matrix(h, states, grid.n_qubits))


def test_an_empty_sum_gives_a_real_zero_matrix():
    states = sector_basis(4, 1, 1)
    got = sector_matrix(PauliSum.zero(), states, 4)
    assert got.shape == (len(states), len(states)) and got.nnz == 0
    assert got.data.dtype == np.float64
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert_same_csr(got, oracle_matrix(PauliSum.zero(), states, 4))


def test_an_operator_leaving_the_sector_on_some_states_raises():
    # X0 X2 keeps n_up only where exactly one of the two up orbitals is occupied;
    # elsewhere its amplitude leaves the sector
    grid = GridSpec.make(2, 2, u=1e3)
    states = sector_basis(grid.n_qubits, 2, 2)
    h = build_real(grid)
    tolerance = AMPLITUDE_DROP_TOL * 1e3  # the identity's n_sites U/4 is the largest coefficient
    for size, leaves in [(10 * tolerance, True), (0.1 * tolerance, False)]:
        leaky = h + PauliSum.from_terms([(size, ((0, "X"), (2, "X")))])
        assert len(leaky) == len(h) + 1
        if leaves:
            for build in (sector_matrix, per_string_sector_matrix):
                with pytest.raises(ValueError, match="outside the sector"):
                    build(leaky, states, grid.n_qubits)
        else:
            assert_same_csr(sector_matrix(leaky, states, grid.n_qubits),
                            oracle_matrix(leaky, states, grid.n_qubits))


def test_an_overflowing_sector_matrix_raises_without_a_warning():
    # at U = 1e308 the 2x2 coefficients are finite, but their sums are not
    grid = GridSpec.make(2, 2, u=1e308)
    states = sector_basis(grid.n_qubits, *default_filling(grid))
    for h in (build_kspace(grid)[0], build_real(grid)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="non-finite"):
                sector_matrix(h, states, grid.n_qubits)
        assert not caught


def test_a_non_finite_table_entry_raises_only_where_a_state_selects_it():
    # 1e308 (X0 X2 + Y0 Y2) is the hopping 2e308 (c†0 c2 + c†2 c0): its
    # table entries for one of the two up orbitals occupied overflow, those
    # for both or neither cancel to zero; four states make the table no
    # longer than the basis
    h = PauliSum.from_terms([(1e308, ((0, "X"), (2, "X"))), (1e308, ((0, "Y"), (2, "Y")))])
    both_or_neither = np.array([0b000000, 0b000010, 0b000101, 0b000111], dtype=np.uint32)
    one = np.array([0b000001, 0b000011, 0b000100, 0b000110], dtype=np.uint32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = sector_matrix(h, both_or_neither, N_QUBITS)
        with pytest.raises(ValueError, match="non-finite entry"):
            sector_matrix(h, one, N_QUBITS)
    assert not caught
    assert got.nnz == 0
    assert_same_csr(got, oracle_matrix(h, both_or_neither, N_QUBITS))


def test_a_non_finite_coefficient_is_rejected_without_a_warning():
    h = PauliSum.from_terms([(math.inf, ((0, "Z"),)), (1.0, ((1, "Z"),))])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="non-finite"):
            sector_matrix(h, sector_basis(4, 1, 1), 4)
    assert not caught


def test_an_overflowing_spectrum_raises():
    # every entry is finite, but [[a, a], [a, a]] has the eigenvalue 2a
    a = 1e308
    h = jordan_wigner_sum([number_term(0, a), number_term(2, a), *hopping_pair(0, 2, a)], 4)
    matrix = sector_matrix(h, sector_basis(4, 1, 0), 4).toarray()
    assert np.isfinite(matrix).all() and np.all(matrix == a)
    with pytest.raises(ValueError, match="spectrum is not finite"):
        ground_space(h, 4, 1, 0)
    # a block without off-diagonal entries is read off its diagonal, which
    # sector_matrix never leaves infinite, so the solver is called directly
    with pytest.raises(ValueError, match="spectrum is not finite"):
        hamiltonians._block_ground(scipy.sparse.csr_matrix(np.diag([math.inf, a])))
