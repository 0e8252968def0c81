"""Square lattices on the torus and the exact discrete dynamics on them.

The N x N lattice consists of the points p/N with p in (Z/NZ)^2.  An
integer unimodular matrix T restricts to a bijection of the lattice,
U(p) = T p mod N, computed here in exact integer arithmetic, and that
bijection is realized as a permutation table for fast vectorized use.  Its
period is the order of T mod N, found without the table.
Rounding a torus point to the lattice follows
p_i = floor(N x_i + 1/2) mod N, so every lattice point owns the half-open
1/N-cell centered on it, and torus distance is the Euclidean distance
minimized over unit shifts in each coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .maps import ToralMatrix, _matrix_power, _order, _step

__all__ = [
    "DEFAULT_CAPACITY",
    "CapacityExceededError",
    "LatticeConfig",
    "TorusPoint",
    "LatticePoint",
    "torus_distance",
    "torus_distance_arrays",
    "round_to_lattice",
    "round_coordinates",
    "matrix_power_mod",
    "discrete_step",
    "Permutation",
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

    def point(self, index: int) -> "LatticePoint":
        p1, p2 = divmod(index, self.size)
        return LatticePoint(p1, p2)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the 2-torus; coordinates are reduced mod 1 on construction."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x1", float(self.x1) % 1.0)
        object.__setattr__(self, "x2", float(self.x2) % 1.0)


@dataclass(frozen=True)
class LatticePoint:
    """Integer coordinates of a lattice point, each in [0, N)."""

    p1: int
    p2: int

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(f"lattice coordinate {name} must be an integer")
            if value < 0:
                raise ValueError(f"lattice coordinate {name} must be >= 0, got {value}")
            object.__setattr__(self, name, int(value))

    def center(self, cfg: LatticeConfig) -> TorusPoint:
        """The torus point p/N this lattice point represents."""
        return TorusPoint(self.p1 / cfg.size, self.p2 / cfg.size)


def torus_distance(a: TorusPoint, b: TorusPoint) -> float:
    """Euclidean distance on the torus: minimize |a - b + shift| over unit shifts.

    With both coordinates in [0, 1) the minimizing shift per coordinate is
    whichever of {-1, 0, 1} folds the difference into [-1/2, 1/2], so the
    distance is at most sqrt(2)/2.
    """
    d1 = abs(a.x1 - b.x1)
    d1 = min(d1, 1.0 - d1)
    d2 = abs(a.x2 - b.x2)
    d2 = min(d2, 1.0 - d2)
    return math.hypot(d1, d2)


def torus_distance_arrays(
    ax1: np.ndarray, ax2: np.ndarray, bx1: np.ndarray, bx2: np.ndarray
) -> np.ndarray:
    """Vectorized torus distance for coordinate arrays already in [0, 1)."""
    d1 = np.abs(ax1 - bx1)
    d1 = np.minimum(d1, 1.0 - d1)
    d2 = np.abs(ax2 - bx2)
    d2 = np.minimum(d2, 1.0 - d2)
    return np.hypot(d1, d2)


def round_to_lattice(x: TorusPoint, cfg: LatticeConfig) -> LatticePoint:
    """Nearest lattice point, p_i = floor(N x_i + 1/2) mod N.

    The floor keeps the convention explicit: a coordinate exactly halfway
    between two lattice points rounds up (and wraps to 0 past the seam).
    The rounding error in torus distance is at most 1/(sqrt(2) N).
    """
    n = cfg.size
    return LatticePoint(
        int(math.floor(n * x.x1 + 0.5)) % n,
        int(math.floor(n * x.x2 + 0.5)) % n,
    )


def round_coordinates(coords: np.ndarray, size: int) -> np.ndarray:
    """Vectorized rounding of torus coordinates in [0, 1) to integers mod N."""
    return np.floor(coords * size + 0.5).astype(np.int64) % size


def matrix_power_mod(T: ToralMatrix, n: int, modulus: int) -> tuple[int, int, int, int]:
    """Entries of T**n reduced mod `modulus`, by modular squaring.

    Negative powers use the integer adjugate (valid because det T = 1), so
    the reduction stays exact for any sign of n.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    return _matrix_power(T, n, modulus)


def discrete_step(
    T: ToralMatrix, p: LatticePoint, cfg: LatticeConfig, steps: int = 1
) -> LatticePoint:
    """U**steps applied to a lattice point: T**steps p mod N, exactly.

    Negative step counts walk the inverse map.  Commutes with rounding:
    rounding T**j (p/N) to the lattice gives exactly this result because
    T**j p is already integral.
    """
    n = cfg.size
    if not (0 <= p.p1 < n and 0 <= p.p2 < n):
        raise ValueError(f"{p} is outside the {n} x {n} lattice")
    return LatticePoint(*_step(matrix_power_mod(T, steps, n), p.p1, p.p2, n))


def _index_dtype(points: int):
    return np.int32 if points <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True, eq=False)
class Permutation:
    """A permutation of the N^2 lattice indices (row-major ell = p1*N + p2).

    `forward[ell]` is the index of U(point(ell)).  Applied to the entry
    vector of a diagonal observable, `evolve_diagonal` produces the entries
    of the observable conjugated by one step of the lattice dynamics
    (new[ell] = old[U(ell)]), which is how the unitary permutation operator
    acts on diagonals.
    """

    cfg: LatticeConfig
    forward: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.forward)
        if arr.shape != (self.cfg.points,):
            raise ValueError(
                f"permutation table must have shape ({self.cfg.points},), got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("permutation table must hold integers")
        counts = np.bincount(arr, minlength=self.cfg.points)
        if counts.size != self.cfg.points or counts.max() != 1:
            raise ValueError("permutation table is not a bijection of the lattice")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "forward", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.cfg == other.cfg and np.array_equal(self.forward, other.forward)

    def apply(self, indices):
        """Image of flat indices (scalar or array) under the permutation."""
        return self.forward[indices]

    def evolve_diagonal(self, entries: np.ndarray) -> np.ndarray:
        """Entries of a diagonal observable after one conjugation step."""
        entries = np.asarray(entries)
        if entries.shape != (self.cfg.points,):
            raise ValueError(
                f"expected {self.cfg.points} diagonal entries, got shape {entries.shape}"
            )
        return entries[self.forward]

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.forward)
        inv[self.forward] = np.arange(self.cfg.points, dtype=self.forward.dtype)
        return Permutation(self.cfg, inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: result(ell) = self(other(ell))."""
        if self.cfg != other.cfg:
            raise ValueError("cannot compose permutations of different lattices")
        return Permutation(self.cfg, self.forward[other.forward])

    def power(self, n: int) -> "Permutation":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = identity_permutation(self.cfg)
        while n:
            if n & 1:
                result = result.compose(base)
            base = base.compose(base)
            n >>= 1
        return result

    @property
    def is_identity(self) -> bool:
        return bool(
            np.array_equal(self.forward, np.arange(self.cfg.points, dtype=self.forward.dtype))
        )


def identity_permutation(cfg: LatticeConfig) -> Permutation:
    return Permutation(cfg, np.arange(cfg.points, dtype=_index_dtype(cfg.points)))


def build_permutation(
    T: ToralMatrix, cfg: LatticeConfig, capacity: int = DEFAULT_CAPACITY
) -> Permutation:
    """Permutation table of the one-step lattice map U(p) = T p mod N.

    Vectorized and exact: entries are reduced mod N first, so all products
    stay well inside int64.  Raises CapacityExceededError when N^2 exceeds
    `capacity`.
    """
    points = cfg.points
    if points > capacity:
        raise CapacityExceededError(
            f"lattice has {points} points, above the configured capacity {capacity}"
        )
    n = cfg.size
    idx = np.arange(points, dtype=np.int64)
    p1 = idx // n
    p2 = idx - n * p1
    q1, q2 = _step(matrix_power_mod(T, 1, n), p1, p2, n)
    forward = (q1 * n + q2).astype(_index_dtype(points))
    return Permutation(cfg, forward)


def orbit_period(T: ToralMatrix, cfg: LatticeConfig) -> int:
    """Least m >= 1 with U**m = identity: the order of T mod N.

    U**m sends the lattice points (1, 0) and (0, 1) to the columns of
    T**m mod N, so it is the identity exactly when T**m = I (mod N).  That
    order is at most 3N (Dyson and Falk, Amer. Math. Monthly 99, 1992), so
    the powers are stepped one product at a time with no permutation table.
    """
    return _order(T, 3 * cfg.size, cfg.size)
