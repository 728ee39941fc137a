"""How the rotation pool is distilled from the interaction.

In the mode register the on-site repulsion becomes a table of momentum
conserving scattering moves.  Most entries never make it into the pool:
density-density moves are diagonal, same-mode moves collapse to fewer than
four distinct orbitals, degenerate moves have no energy gap to divide by,
and each surviving pair of conjugate orientations is represented once.

    python3 demos/02_operator_pool.py
"""

from collections import Counter

from vipsa import GridSpec, build_pool, interaction_quadruples, spin_operators
from vipsa.core import pool_class
from vipsa.fermions import jordan_wigner


def main():
    print("Quadruple table and pool size per grid:")
    for shape in ((2, 2), (2, 3), (2, 4), (3, 3)):
        grid = GridSpec.make(*shape, u=4.0)
        quads = interaction_quadruples(grid)
        counts = Counter(pool_class(q) for q in quads)
        pool = build_pool(grid)
        print(f"  {grid.label()}: {len(quads)} table entries -> "
              f"{counts['diagonal']} diagonal, {counts['one-sided']} one-sided, "
              f"{counts['zero-gap']} zero-gap, {counts['pool']} kept "
              f"= 2 x {len(pool)} pool rotations")

    # the full 2x2 pool, small enough to print
    grid = GridSpec.make(2, 2, u=4.0)
    print(f"\nThe {grid.label()} pool at u = {grid.u:g} "
          "(label, amplitude, energy gap):")
    for q in build_pool(grid):
        print(f"  {q.label:<12} V = {q.amplitude:+.4f}   eps = {q.energy_gap:+.4f}")

    # structural checks on the generators, in the Pauli algebra itself
    pool = build_pool(grid)
    s_z, s_squared = spin_operators(grid.n_sites)
    broke_s2 = 0
    for q in pool:
        image = jordan_wigner(q.ladder_term(), grid.n_qubits)
        g = image - image.dagger()                           # O - O†
        assert len(g + g.dagger()) == 0                      # anti-Hermitian
        assert len(g * s_z - s_z * g) == 0
        if len(g * s_squared - s_squared * g) > 0:
            broke_s2 += 1
    print("\nEvery generator is anti-Hermitian and commutes with S_z;")
    print(f"{broke_s2} of {len(pool)} do not commute with S^2, so the"
          " adaptive state may leave the spin sector of the reference.")


if __name__ == "__main__":
    main()
