"""Square lattices on the torus and the exact discrete dynamics on them.

The N x N lattice consists of the points p/N with p in (Z/NZ)^2.  An
integer unimodular matrix T restricts to a bijection of the lattice,
U(p) = T p mod N, computed here in exact integer arithmetic, and that
bijection is realized as a read-only index table for fast vectorized use.
Since det T = 1, the table is a bijection by construction; tests check it
against a Python-integer oracle, and nothing re-checks it at run time.  Its
period is the order of T mod N, found without the table.
Rounding a torus point to the lattice follows
p_i = floor(N x_i + 1/2) mod N, so every lattice point owns the half-open
1/N-cell centered on it, and torus distance is the Euclidean distance
minimized over unit shifts in each coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .maps import ToralMatrix, _matrix_power, _order, _step

__all__ = [
    "DEFAULT_CAPACITY",
    "CapacityExceededError",
    "LatticeConfig",
    "torus_distance_arrays",
    "round_coordinates",
    "matrix_power_mod",
    "build_permutation",
    "orbit_period",
]

# Default cap on N^2 table entries: 2**24 points (N = 4096) keeps the
# permutation and orbit-code arrays in the hundreds of megabytes.
DEFAULT_CAPACITY = 1 << 24


class CapacityExceededError(RuntimeError):
    """The requested lattice needs more table entries than the configured cap."""


@dataclass(frozen=True)
class LatticeConfig:
    """An N x N lattice; `size` is N, `points` is the total count N^2."""

    size: int

    def __post_init__(self) -> None:
        if isinstance(self.size, bool) or not isinstance(self.size, Integral):
            raise TypeError(f"lattice size must be an integer, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))
        if self.size < 2:
            raise ValueError(f"lattice size must be >= 2, got {self.size}")

    @property
    def points(self) -> int:
        return self.size * self.size

    def index(self, p1: int, p2: int) -> int:
        """Row-major flat index of a lattice point."""
        return p1 * self.size + p2


def torus_distance_arrays(
    ax1: np.ndarray, ax2: np.ndarray, bx1: np.ndarray, bx2: np.ndarray
) -> np.ndarray:
    """Torus distance of coordinate arrays already in [0, 1).

    The minimizing unit shift per coordinate folds each difference into
    [-1/2, 1/2], so the distance is at most sqrt(2)/2.
    """
    d1 = np.abs(ax1 - bx1)
    d1 = np.minimum(d1, 1.0 - d1)
    d2 = np.abs(ax2 - bx2)
    d2 = np.minimum(d2, 1.0 - d2)
    return np.hypot(d1, d2)


def round_coordinates(coords: np.ndarray, size: int) -> np.ndarray:
    """Nearest lattice coordinates, p = floor(N x + 1/2) mod N, for x in [0, 1).

    A coordinate exactly halfway between two lattice points rounds up (and
    wraps to 0 past the seam).  The rounding error of a point in torus
    distance is at most 1/(sqrt(2) N).
    """
    return np.floor(coords * size + 0.5).astype(np.int64) % size


def matrix_power_mod(T: ToralMatrix, n: int, modulus: int) -> tuple[int, int, int, int]:
    """Entries of T**n reduced mod `modulus`, by modular squaring.

    Negative powers use the integer adjugate (valid because det T = 1), so
    the reduction stays exact for any sign of n.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    return _matrix_power(T, n, modulus)


def _index_dtype(points: int):
    return np.int32 if points <= np.iinfo(np.int32).max else np.int64


def build_permutation(
    T: ToralMatrix, cfg: LatticeConfig, capacity: int = DEFAULT_CAPACITY
) -> np.ndarray:
    """Read-only table of the one-step lattice map U(p) = T p mod N.

    `table[ell]` is the row-major index (p1*N + p2) of U(point(ell)), so
    new = old[table] pulls per-point values back by one step, and the table
    gathered on itself a times is the table of U**a.  Raises
    CapacityExceededError when N^2 exceeds `capacity`.
    """
    return _permutation(matrix_power_mod(T, 1, cfg.size), cfg, capacity)


def _permutation(
    entries: tuple[int, int, int, int], cfg: LatticeConfig, capacity: int
) -> np.ndarray:
    """Read-only permutation table of p -> M p mod N, for the entries of M mod N.

    M is a power of a unimodular T, possibly +-I, which ToralMatrix
    rejects.  Exact and free of integer division: M(p1, p2) = M(p1, 0) +
    M(0, p2) mod N, so only the two axes are stepped; their image
    coordinates, each in [0, N), are summed over the N x N grid, less N
    where a sum reaches N.
    """
    points = cfg.points
    if points > capacity:
        raise CapacityExceededError(
            f"lattice has {points} points, above the configured capacity {capacity}"
        )
    n = cfg.size
    dtype = _index_dtype(points)
    axis = np.arange(n, dtype=np.int64)
    row_terms = [t.astype(dtype) for t in _step(entries, axis, 0, n)]
    col_terms = [t.astype(dtype) for t in _step(entries, 0, axis, n)]
    q1, q2 = (np.add.outer(r, c) for r, c in zip(row_terms, col_terms))
    for q in (q1, q2):
        np.subtract(q, n, out=q, where=q >= n)
    q1 *= n
    q1 += q2
    table = q1.ravel()
    table.flags.writeable = False
    return table


def orbit_period(T: ToralMatrix, cfg: LatticeConfig) -> int:
    """Least m >= 1 with U**m = identity: the order of T mod N.

    U**m sends the lattice points (1, 0) and (0, 1) to the columns of
    T**m mod N, so it is the identity exactly when T**m = I (mod N).  That
    order is at most 3N (Dyson and Falk, Amer. Math. Monthly 99, 1992), so
    the powers are stepped one product at a time with no permutation table.
    """
    return _order(T, 3 * cfg.size, cfg.size)
