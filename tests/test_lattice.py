"""Mode enumeration, dispersions, and Fermi-sea degeneracies."""

import numpy as np
import pytest

from vipsa import lattice
from vipsa.lattice import (
    DOWN,
    GridSpec,
    UP,
    enumerate_modes,
    fermi_sea,
    hopping_edges,
    label_classes,
    label_momenta,
    momentum_labels,
    point_group,
    qubit_index,
    real_orbital_basis,
    translations,
)
from vipsa.statevector import sector_basis

from oracles import hopping_matrix


def grids():
    return [GridSpec.make(2, 2), GridSpec.make(2, 3), GridSpec.make(2, 4),
            GridSpec.make(3, 3)]


def test_default_boundaries():
    assert GridSpec.make(2, 2).bc_x == "open"
    assert GridSpec.make(2, 2).bc_y == "open"
    g = GridSpec.make(2, 3)
    assert (g.bc_x, g.bc_y) == ("open", "periodic")
    g = GridSpec.make(3, 3)
    assert (g.bc_x, g.bc_y) == ("periodic", "periodic")


def test_boundary_override_and_validation():
    g = GridSpec.make(3, 3, bc_x="open")
    assert g.bc_x == "open" and g.bc_y == "periodic"
    with pytest.raises(ValueError):
        GridSpec.make(2, 2, bc_x="twisted")
    with pytest.raises(ValueError):
        GridSpec.make(1, 4)


@pytest.mark.parametrize("coupling", ["t", "u"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_couplings_are_rejected(coupling, value):
    with pytest.raises(ValueError, match=f"{coupling} must be finite"):
        GridSpec.make(2, 2, **{coupling: value})


def test_mode_energies_match_hand_values():
    # Per-axis energies -2t*cos(k); open axes use standing-wave momenta.
    cases = {
        (2, 2): [-2, 0, 0, 2],
        (2, 3): [-3, -1, 0, 0, 2, 2],
        (2, 4): [-3, -1, -1, -1, 1, 1, 1, 3],
        (3, 3): [-4, -1, -1, -1, -1, 2, 2, 2, 2],
    }
    for (nx, ny), expected in cases.items():
        modes = enumerate_modes(GridSpec.make(nx, ny))
        np.testing.assert_allclose([m.energy for m in modes], expected, atol=1e-12)


def test_2x4_named_mode():
    # Mode (kx=pi/3, ky=0) of the open-x/periodic-y 2x4 grid has energy -3.
    modes = enumerate_modes(GridSpec.make(2, 4))
    lowest = modes[0]
    assert lowest.mx == 0 and lowest.my == 0
    assert lowest.kx == pytest.approx(np.pi / 3)
    assert lowest.ky == pytest.approx(0.0)
    assert lowest.energy == pytest.approx(-3.0)


def test_dispersion_equals_hopping_spectrum():
    # The mode energies must be exactly the real-space hopping eigenvalues.
    for grid in grids():
        modes = enumerate_modes(grid)
        spectrum = np.linalg.eigvalsh(hopping_matrix(grid))
        np.testing.assert_allclose(sorted(m.energy for m in modes), spectrum, atol=1e-9)


def test_mode_sort_tiebreak():
    modes = enumerate_modes(GridSpec.make(3, 3))
    shell = [m for m in modes if abs(m.energy + 1.0) < 1e-9]
    assert [(m.my, m.mx) for m in shell] == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_qubit_indexing():
    assert qubit_index(0, UP) == 0
    assert qubit_index(0, DOWN) == 1
    assert qubit_index(5, UP) == 10
    modes = enumerate_modes(GridSpec.make(2, 3))
    for m in modes:
        assert m.qubit(UP) == 2 * (m.mx + 2 * m.my)
        assert m.qubit(DOWN) == m.qubit(UP) + 1


def test_fermi_sea_degeneracies():
    expected = {(2, 2): 4, (2, 3): 4, (2, 4): 1, (3, 3): 4}
    for grid in grids():
        n_up, n_down = lattice.default_filling(grid)
        sea = fermi_sea(grid, n_up, n_down)
        assert sea.degeneracy == expected[(grid.nx, grid.ny)], grid.label()


def test_fermi_sea_energy_and_occupation():
    sea = fermi_sea(GridSpec.make(2, 4), 4, 4)
    assert sea.energy == pytest.approx(-12.0)
    assert sea.n_up == 4 and sea.n_down == 4
    assert len(sea.occupied_qubits()) == 8

    sea = fermi_sea(GridSpec.make(3, 3), 5, 4)
    assert sea.energy == pytest.approx((-4 - 1 - 1 - 1 - 1) + (-4 - 1 - 1 - 1))
    # spin-asymmetric filling occupies one more up qubit than down
    ups = [q for q in sea.occupied_qubits() if q % 2 == 0]
    assert len(ups) == 5


def test_fermi_sea_validation():
    with pytest.raises(ValueError):
        fermi_sea(GridSpec.make(2, 2), 5, 0)


def test_empty_filling_degeneracy():
    # up species empty (factor 1); down fills -2 plus one of the two 0 modes
    sea = fermi_sea(GridSpec.make(2, 2), 0, 2)
    assert sea.degeneracy == 2
    assert sea.n_up == 0
    assert fermi_sea(GridSpec.make(2, 2), 0, 0).degeneracy == 1


def test_hopping_edges_counts():
    h, v = hopping_edges(GridSpec.make(2, 2))
    assert len(h) == 2 and len(v) == 2
    h, v = hopping_edges(GridSpec.make(2, 4))
    assert len(h) == 4 and len(v) == 8  # periodic rings of length 4 per column
    h, v = hopping_edges(GridSpec.make(3, 3))
    assert len(h) == 9 and len(v) == 9
    # no bond listed twice in any direction
    for grid in grids():
        h, v = hopping_edges(grid)
        seen = {frozenset(e) for e in h + v}
        assert len(seen) == len(h) + len(v)


def test_length_two_periodic_axis_not_double_counted():
    # the wrap of a length-2 axis is its one bond again, which the site
    # register would count once and the momentum register twice
    for bc_x, bc_y in (("periodic", "open"), ("open", "periodic")):
        with pytest.raises(ValueError, match="length 3 or more"):
            GridSpec(2, 2, bc_x, bc_y)
    with pytest.raises(ValueError, match="periodic x axis"):
        GridSpec.make(2, 3, u=4.0, bc_x="periodic")


def test_real_orbital_basis_diagonalizes_hopping():
    for grid in grids():
        energies, w, order = real_orbital_basis(grid)
        assert np.iscomplexobj(w) is False
        np.testing.assert_allclose(w.T @ w, np.eye(grid.n_sites), atol=1e-12)
        d = w.T @ hopping_matrix(grid) @ w
        np.testing.assert_allclose(d, np.diag(energies), atol=1e-9)
        # fill order visits energies in ascending order
        ordered = energies[order]
        assert all(ordered[i] <= ordered[i + 1] + 1e-12 for i in range(len(ordered) - 1))
        # and matches the Bloch-mode energy multiset
        modes = enumerate_modes(grid)
        np.testing.assert_allclose(sorted(energies), sorted(m.energy for m in modes),
                                   atol=1e-9)


def test_momentum_labels_sum_the_occupied_mode_numbers():
    grid = GridSpec.make(2, 3)  # open x (mod 2), periodic y (mod 3)
    slot = lambda mx, my: mx + grid.nx * my
    up = lambda mx, my: 1 << qubit_index(slot(mx, my), UP)
    down = lambda mx, my: 1 << qubit_index(slot(mx, my), DOWN)
    cases = {0: (0, 0), up(1, 0): (1, 0), down(0, 2): (0, 2),
             up(1, 2) | down(1, 2): (0, 1),  # 1 + 1 mod 2, 2 + 2 mod 3
             up(0, 1) | up(1, 2) | down(1, 1): (0, 1)}
    labels = momentum_labels(grid, np.array(list(cases), dtype=np.uint32))
    assert [label_momenta(grid, label) for label in labels] == list(cases.values())
    assert labels.tolist() == [lx + 2 * ly for lx, ly in cases.values()]
    # an open x axis of 3: lx is still a parity, but the label is packed
    # like a mode slot, lx + 3*ly
    grid = GridSpec(3, 3, "open", "periodic")
    cases = {up(2, 0): (0, 0), up(1, 0): (1, 0), down(1, 2): (1, 2),
             up(1, 1) | down(2, 2) | up(1, 2): (0, 2)}  # 1 + 2 + 1 mod 2, 1 + 2 + 2 mod 3
    labels = momentum_labels(grid, np.array(list(cases), dtype=np.uint32))
    assert [label_momenta(grid, label) for label in labels] == list(cases.values())
    assert labels.tolist() == [lx + 3 * ly for lx, ly in cases.values()]


def inversion_sign(state: int, image: tuple[int, ...]) -> tuple[int, float]:
    """The image of one bitstring and its reordering sign, by sorting the
    moved creation operators one swap at a time."""
    order = [2 * image[q // 2] + q % 2 for q in range(2 * len(image)) if state >> q & 1]
    swaps = 0
    for i in range(len(order)):
        for j in range(len(order) - 1 - i):
            if order[j] > order[j + 1]:
                order[j], order[j + 1] = order[j + 1], order[j]
                swaps += 1
    return sum(1 << q for q in order), (-1.0) ** swaps


@pytest.mark.parametrize("shape, n_elements", [((2, 2), 2), ((2, 3), 2), ((2, 4), 2),
                                               ((3, 3), 8), ((3, 4), 4)])
def test_point_group_elements_are_signed_permutations(shape, n_elements):
    grid = GridSpec.make(*shape)
    group = point_group(grid)
    assert len(group) == n_elements
    assert group[0].image == tuple(range(grid.n_sites))  # the identity first
    states = sector_basis(grid.n_qubits, 2, 3)
    picked = states[np.random.default_rng(1).choice(len(states), min(len(states), 40),
                                                     replace=False)]
    for element in group:
        assert sorted(element.image) == list(range(grid.n_sites))
        images, signs = element.apply(picked)
        expected = [inversion_sign(int(state), element.image) for state in picked]
        assert images.tolist() == [image for image, _ in expected]
        assert signs.tolist() == [sign for _, sign in expected]
        # the image of a whole sector is the sector again
        assert np.array_equal(np.sort(element.apply(states)[0]), states)


@pytest.mark.parametrize("grid", [
    GridSpec.make(2, 2), GridSpec.make(2, 3), GridSpec.make(3, 2), GridSpec.make(2, 4),
    GridSpec.make(3, 3), GridSpec.make(3, 4), GridSpec(3, 3, "open", "periodic"),
    GridSpec(3, 3, "open", "open"), GridSpec(3, 4, "open", "periodic"),
], ids=lambda grid: f"{grid.label()}-{grid.bc_x}-{grid.bc_y}")
def test_elements_map_momentum_labels_as_they_map_slots(grid):
    # labels are packed like mode slots, so an element's image of a label
    # is the label of its images; with an open x axis of 3 or more, a label
    # packed as lx + 2*ly would break this
    states = sector_basis(grid.n_qubits, 2, 2)
    labels = momentum_labels(grid, states)
    for element in point_group(grid):
        assert np.array_equal(momentum_labels(grid, element.apply(states)[0]),
                              np.array(element.image)[labels])


@pytest.mark.parametrize("shape, sector, classes", [
    ((2, 2), (2, 2), [[0], [1, 2], [3]]),  # x <-> y
    ((2, 3), (3, 3), [[0], [1], [2, 4], [3, 5]]),  # ky -> -ky
    ((2, 4), (4, 4), [[0], [1], [2, 6], [3, 7], [4], [5]]),
    ((3, 3), (5, 4), [[0], [1, 2, 3, 6], [4, 5, 7, 8]]),
])
def test_point_group_classes(shape, sector, classes):
    grid = GridSpec.make(*shape)
    group = point_group(grid)
    states = sector_basis(grid.n_qubits, *sector)
    labels = momentum_labels(grid, states)
    found = label_classes(np.unique(labels).tolist(), group)
    assert [[label for label, _ in members] for members in found] == classes
    for members in found:
        rep = members[0][0]
        assert members[0][1] is group[0]
        block = states[labels == rep]
        for label, element in members:
            # each element carries the representative block onto its member's
            images = np.sort(element.apply(block)[0])
            assert np.array_equal(images, states[labels == label])


def translated(group, shift, vector, states) -> np.ndarray:
    """U_a of a vector over the sorted sector bitstrings states."""
    images, signs = group.translation(shift).apply(states)
    out = np.zeros_like(vector)
    out[np.searchsorted(states, images)] = signs * vector
    return out


def projected(group, label, vector, states) -> np.ndarray:
    """P_K vector = (1/N_T) sum_a e^{-iK.a} U_a vector, from the definition."""
    terms = [character * translated(group, shift, vector, states)
             for character, shift in zip(group.characters(label), group.shifts)]
    return sum(terms) / len(terms)


@pytest.mark.parametrize("nx, ny, bc_x, bc_y, n_shifts, classes", [
    (2, 2, "open", "open", 1, [[0]]),
    (2, 3, "open", "periodic", 3, [[0], [2, 4]]),
    (3, 2, "periodic", "open", 3, [[0], [1, 2]]),
    (2, 4, "open", "periodic", 4, [[0], [2, 6], [4]]),
    (3, 3, "open", "periodic", 3, [[0], [3, 6]]),
    (3, 3, "periodic", "periodic", 9, [[0], [1, 2, 3, 6], [4, 5, 7, 8]]),
])
def test_translation_blocks_and_their_classes(nx, ny, bc_x, bc_y, n_shifts, classes):
    grid = GridSpec(nx, ny, bc_x, bc_y)
    group = translations(grid)
    assert len(group.shifts) == n_shifts and group.shifts[0] == (0, 0)
    elements = point_group(grid)
    found = label_classes(group.labels, elements)
    assert [[label for label, _ in members] for members in found] == classes
    states = sector_basis(grid.n_qubits, 2, 1)
    vector = np.random.default_rng(3).standard_normal(len(states))
    labels = [label for members in found for label, _ in members]
    blocks = {label: projected(group, label, vector, states) for label in labels}
    # the projectors split the sector: they sum to one and are idempotent
    np.testing.assert_allclose(sum(blocks.values()), vector, rtol=0, atol=1e-12)
    for label, block in blocks.items():
        np.testing.assert_allclose(projected(group, label, block, states), block,
                                   rtol=0, atol=1e-12)
    for members in found:
        assert members[0][1] is elements[0]
        for label, element in members:
            # each element carries the representative's block onto its member's
            images, signs = element.apply(states)
            moved = np.zeros_like(blocks[members[0][0]])
            moved[np.searchsorted(states, images)] = signs * blocks[members[0][0]]
            np.testing.assert_allclose(moved, projected(group, label, moved, states),
                                       rtol=0, atol=1e-12)


def test_real_momenta_have_exactly_real_characters():
    group = translations(GridSpec.make(2, 4))  # ky in 0..3; K = 0 and ky = 2 are real
    assert group.characters(0).tolist() == [1, 1, 1, 1]
    assert group.characters(4).tolist() == [1, -1, 1, -1]
    np.testing.assert_allclose(group.characters(2), [1, -1j, -1, 1j], rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape, sector", [((3, 3), (2, 1)), ((2, 4), (2, 2)), ((3, 3), (3, 0))])
def test_orbit_representatives_and_their_signs(shape, sector):
    grid = GridSpec.make(*shape)
    group = translations(grid)
    states = sector_basis(grid.n_qubits, *sector)
    reps, owner, signs = group.orbits(states)
    assert np.all(np.diff(reps) > 0)
    for position, state in enumerate(states.tolist()):
        translates = [inversion_sign(state, group.translation(shift).image)
                      for shift in group.shifts]
        smallest = min(image for image, _ in translates)
        assert states[reps[owner[position]]] == smallest
        assert signs[:, position].tolist() == [sign if image == smallest else 0
                                               for image, sign in translates]
