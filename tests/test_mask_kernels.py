"""The mask-array Pauli sums, batched Jordan-Wigner expansion, Hamiltonian
builders and sector matrix against the letter-tuple, per-term, dict-built
and per-string implementations in `oracles.py`.

The mask kernels keep every floating-point operation of those
implementations in the same order, so the checks here are exact: the same
strings in the same order with the same bits, the same compiled arrays and
the same CSR bytes.
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
    jordan_wigner_images,
    jordan_wigner_sum,
    letters_to_masks,
    number_term,
)
from vipsa.hamiltonians import (
    AMPLITUDE_DROP_TOL,
    build_kspace,
    build_real,
    kinetic_kspace,
    onsite_interaction,
    sector_matrix,
    spin_operators,
)
from vipsa.lattice import GridSpec, default_filling, point_group
from vipsa.statevector import _compiled_terms, sector_basis

from builds import kspace_hamiltonian, sea_block
from oracles import (
    as_real_if_possible,
    dict_build_kspace,
    dict_build_real,
    dict_from_terms,
    dict_jordan_wigner,
    dict_kinetic_kspace,
    dict_onsite_interaction,
    dict_spin_operators,
    letter_compiled_terms,
    letter_product,
    letter_sum_product,
    mask_product,
    per_string_sector_matrix,
    per_term_jordan_wigner,
    sorted_terms,
    staged_jordan_wigner,
)

N_QUBITS = 6


def bits(terms) -> list:
    """(coefficient, letters) terms in their order, each with the exact bits
    of its coefficient."""
    return [(letters, coeff.real.hex(), coeff.imag.hex()) for coeff, letters in terms]


def assert_same_sum(got: PauliSum, want: dict, n_qubits: int) -> None:
    """A Pauli sum against a dict-built one: the same letter maps with the
    same bits, and the same compiled arrays as the letter-tuple compile."""
    assert bits(got.terms()) == bits(sorted_terms(want))
    compiled = _compiled_terms(got, n_qubits)
    for a, b in zip(compiled, letter_compiled_terms(sorted_terms(want), n_qubits)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
ladder_term = st.builds(lambda coeff, factors: LadderTerm(coeff, tuple(factors)),
                        coefficient, st.lists(ladder_factor, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(coeff=coefficient, factors=st.lists(ladder_factor, min_size=1, max_size=6))
def test_jordan_wigner_matches_the_staged_letter_expansion(coeff, factors):
    term = LadderTerm(coeff, tuple(factors))
    assert bits(jordan_wigner(term, N_QUBITS).terms()) == bits(
        sorted_terms(staged_jordan_wigner(term, N_QUBITS)))


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(ladder_term, max_size=6), data=st.data())
def test_batched_jordan_wigner_matches_the_per_term_expansion(terms, data):
    # 1-4 factors on six qubits, so qubits repeat (c†_q c†_q vanishes);
    # complex coefficients, some near the drop; and some terms again at the
    # opposite sign, so that their strings cancel in the sum
    if terms:
        terms = terms + [term.scaled(-1.0)
                         for term in data.draw(st.lists(st.sampled_from(terms), max_size=2))]
    x, z, coeffs = (a.tolist() for a in jordan_wigner_images(terms, N_QUBITS))
    assert [((a, b), c.real.hex(), c.imag.hex()) for a, b, c in zip(x, z, coeffs)] == [
        (key, value.real.hex(), value.imag.hex()) for term in terms
        for key, value in per_term_jordan_wigner(term, N_QUBITS).items()]
    assert_same_sum(jordan_wigner_sum(terms, N_QUBITS),
                    dict_from_terms(pair for term in terms
                                    for pair in sorted_terms(dict_jordan_wigner(term, N_QUBITS))),
                    N_QUBITS)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.tuples(coefficient, letter_map), max_size=5),
       b=st.lists(st.tuples(coefficient, letter_map), max_size=5))
def test_pauli_sum_product_matches_the_letter_product(a, b):
    left, right = PauliSum.from_terms(a), PauliSum.from_terms(b)
    assert bits((left * right).terms()) == bits(sorted_terms(letter_sum_product(
        {letters: coeff for coeff, letters in left.terms()},
        {letters: coeff for coeff, letters in right.terms()})))


def string_masks(letters) -> tuple[int, int]:
    xm, ym, zm = letters_to_masks(letters)
    return xm | ym, ym | zm


@settings(max_examples=200, deadline=None)
@given(a=letter_map, b=letter_map)
def test_multiply_letters_matches_the_single_qubit_table(a, b):
    # mask_product is mask_sum_product's reference; check it against the table
    phase, x, z = mask_product(*string_masks(a), *string_masks(b))
    expected_phase, expected_letters = letter_product(a, b)
    assert phase == expected_phase and (x, z) == string_masks(expected_letters)


def test_spin_operators_match_the_letter_expansion():
    # S^2 sums PauliSum products; the registers of 2x2 to 3x3
    for n_sites in (2, 4, 6, 9):
        got_z, got_squared = spin_operators(n_sites)
        want_z, want_squared = dict_spin_operators(n_sites)
        assert_same_sum(got_z, want_z, 2 * n_sites)
        assert_same_sum(got_squared, want_squared, 2 * n_sites)


# 2x2 to 3x3 grids at every pair of boundary conditions they accept
BUILDER_GRIDS = [GridSpec(nx, ny, bc_x, bc_y, 1.0, u)
                 for nx, ny in [(2, 2), (2, 3), (3, 2), (3, 3)]
                 for bc_x in ("open", "periodic") for bc_y in ("open", "periodic")
                 for u in (4.0, -2.9)
                 if (nx > 2 or bc_x == "open") and (ny > 2 or bc_y == "open")]


@pytest.mark.parametrize("grid", BUILDER_GRIDS,
                         ids=lambda g: f"{g.nx}x{g.ny}-{g.bc_x}-{g.bc_y}-{g.u:g}")
def test_builders_match_the_dict_built_sums(grid):
    # both registers: the mask-array builders against the per-term expansion
    # summed in dicts, to the bit and to the compiled bytes
    for got, want in [(kinetic_kspace(grid), dict_kinetic_kspace(grid)),
                      (build_kspace(grid)[0], dict_build_kspace(grid)),
                      (onsite_interaction(grid), dict_onsite_interaction(grid)),
                      (build_real(grid), dict_build_real(grid))]:
        assert_same_sum(got, want, grid.n_qubits)


def test_the_drop_measures_a_coefficient_as_pythons_abs_does():
    # |c| is 1e-12 to the last bit by Python's abs (a hypot), and on some
    # machines numpy's complex abs rounds it below; the sum keeps it, as
    # the dict-built sums do
    c = complex(6.066357757671798e-13, 7.949798963240213e-13)
    assert abs(c) >= COEFF_DROP_TOL
    term = number_term(0, 2 * c)  # c (I - Z)
    for got, want in [(PauliSum.from_terms([(c, ((0, "Z"),))]), dict_from_terms([(c, ((0, "Z"),))])),
                      (jordan_wigner(term, 1), dict_jordan_wigner(term, 1))]:
        assert len(want) == len(got) > 0
        assert_same_sum(got, want, 1)


def test_the_shared_hamiltonian_is_read_only():
    h = kspace_hamiltonian(GridSpec.make(3, 3, u=6.0))
    for array in (*h.masks(), *_compiled_terms(h, 18)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


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
    matrix = sector_matrix(h, sector_basis(4, 1, 0), 4)
    assert np.isfinite(matrix.toarray()).all() and np.all(matrix.toarray() == a)
    with pytest.raises(ValueError, match="spectrum is not finite"):
        hamiltonians._block_ground(matrix)
    # a block without off-diagonal entries is read off its diagonal, which
    # sector_matrix never leaves infinite, so the solver is called directly
    with pytest.raises(ValueError, match="spectrum is not finite"):
        hamiltonians._block_ground(scipy.sparse.csr_matrix(np.diag([math.inf, a])))
