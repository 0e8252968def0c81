"""The discrete side: an integer torus map restricted to an N x N lattice.

Because the matrix has integer entries, it permutes the N^2 rational points
(p1/N, p2/N) exactly — no rounding is involved on the lattice itself.  This
script builds those permutations, shows that powers of the map correspond to
powers of the permutation, and prints orbit periods, which vary wildly with N.
"""
from torusdyn import (
    LatticeConfig,
    ToralMatrix,
    build_permutation,
    classify,
    matrix_power_entries,
    orbit_period,
)

CAT = ToralMatrix(2, 1, 1, 1)


def main() -> None:
    data = classify(CAT)
    print(f"map {CAT.entries}, family {data.family.value}\n")

    cfg = LatticeConfig(5)
    f = build_permutation(CAT, cfg)
    print("action on the 5 x 5 lattice (cell -> image cell):")
    for p1 in range(5):
        row = []
        for p2 in range(5):
            q = int(f[cfg.index(p1, p2)])
            row.append(f"({p1},{p2})->({q // 5},{q % 5})")
        print("  " + "  ".join(row))
    print()

    # group law: permutation of T^3 equals the table of T gathered on itself twice
    cubed = ToralMatrix(*matrix_power_entries(CAT, 3))
    assert build_permutation(cubed, cfg).tolist() == f[f[f]].tolist()
    print("permutation(T^3) == permutation(T)^3 on the lattice: verified\n")

    print("orbit period of the permutation vs lattice size:")
    print("  N      period   period/N")
    for size in (3, 5, 8, 10, 16, 25, 32, 50, 64, 100, 128):
        period = orbit_period(CAT, LatticeConfig(size))
        print(f"  {size:<6d} {period:<8d} {period / size:.3f}")
    print()
    print("The period is never more than 3N here, yet the continuous map is")
    print("chaotic — all the long-run complexity hides in how cells interleave.")


if __name__ == "__main__":
    main()
