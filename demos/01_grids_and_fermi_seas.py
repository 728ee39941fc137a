"""Tour of the lattice layer: grids, boundary rules, modes and Fermi seas.

The single-particle problem fixes everything the variational layers build
on: the mode energies decide the reference filling, and shell degeneracies
at the Fermi level decide how many ground states the sea must compete with.

    python3 demos/01_grids_and_fermi_seas.py
"""

from vipsa import GridSpec, default_filling, fermi_sea
from vipsa.lattice import enumerate_modes

SHAPES = ((2, 2), (2, 3), (2, 4), (3, 3))


def main():
    print("Boundary rule: length-2 axes are open chains (a periodic one is")
    print("refused), longer axes default to periodic, so no bond counts twice.\n")
    for nx, ny in SHAPES:
        grid = GridSpec.make(nx, ny)
        print(f"  {grid.label()}: x {grid.bc_x}, y {grid.bc_y}, "
              f"{grid.n_sites} sites, {grid.n_qubits} qubits")

    # the 2x3 dispersion, mode by mode
    grid = GridSpec.make(2, 3, u=2.0)
    print(f"\nSingle-particle modes of the {grid.label()} grid (t = {grid.t:g}):")
    print(f"  {'slot':>4} {'(mx, my)':>9} {'kx':>7} {'ky':>7} {'energy':>9}")
    for m in enumerate_modes(grid):
        print(f"  {m.slot:>4} {f'({m.mx}, {m.my})':>9} "
              f"{m.kx:>7.3f} {m.ky:>7.3f} {m.energy:>9.4f}")

    print("\nFermi seas at the configured fillings:")
    for nx, ny in SHAPES:
        grid = GridSpec.make(nx, ny)
        n_up, n_down = default_filling(grid)
        sea = fermi_sea(grid, n_up, n_down)
        up = [m.slot for m in sea.occupied_up]
        print(f"  {grid.label()} at ({n_up}, {n_down}): energy {sea.energy:>9.4f}, "
              f"degeneracy {sea.degeneracy}, occupied up-slots {up}")

    print("\nA degeneracy above 1 means the last shell is only partially")
    print("filled; the run reports fidelity against the whole multiplet.")


if __name__ == "__main__":
    main()
