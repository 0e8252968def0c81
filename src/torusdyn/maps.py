"""Spectral classification of integer unimodular torus maps.

A 2x2 integer matrix T with det T = 1 acts linearly on the plane and, taken
mod 1, invertibly on the 2-torus.  Half the trace decides the character of
the dynamics:

* |tr T| > 2  hyperbolic: real eigenvalues lam, 1/lam with |lam| > 1, so a
  ball is stretched exponentially along the expanding eigendirection;
* |tr T| = 2  parabolic: a single neutral eigendirection, linear shearing;
* |tr T| < 2  elliptic: complex eigenvalues on the unit circle, the matrix
  has finite order (3, 4 or 6) and nothing spreads.

This module computes the derived spectral quantities (expanding eigenvalue,
eigenvector opening angle, largest singular value, shear strength, rotation
angle), the radius of the image of the unit ball under n applications of T,
the growth scale Gamma(n) that controls how long an N x N lattice version
of the map can track the continuous one, and the resulting breaking-time
estimate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Integral
from typing import Optional

import numpy as np

__all__ = [
    "NonUnimodularError",
    "TrivialMatrixError",
    "Family",
    "ToralMatrix",
    "SpectralData",
    "cat_map",
    "unit_shear",
    "quarter_turn",
    "classify",
    "diameter_formula",
    "diameter_bruteforce",
    "scaling_function",
    "breaking_time",
    "matrix_power_entries",
]


class NonUnimodularError(ValueError):
    """The matrix determinant is not +1, so it does not preserve area."""


class TrivialMatrixError(ValueError):
    """The matrix is plus or minus the identity and generates no dynamics."""


class Family(Enum):
    """Dynamical character of an integer unimodular matrix."""

    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class ToralMatrix:
    """Integer 2x2 matrix with determinant one, acting on the torus mod 1.

    Entries are row-major: [[t11, t12], [t21, t22]].  Plus or minus the
    identity is rejected because it moves nothing (up to sign) and every
    derived quantity would be degenerate.
    """

    t11: int
    t12: int
    t21: int
    t22: int

    def __post_init__(self) -> None:
        for name in ("t11", "t12", "t21", "t22"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(f"matrix entry {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        det = self.det
        if det != 1:
            raise NonUnimodularError(f"determinant must be +1, got {det} for {self}")
        if self.t12 == 0 and self.t21 == 0 and self.t11 == self.t22:
            # det == 1 forces t11 == t22 == +-1 here.
            raise TrivialMatrixError(f"{self} is plus or minus the identity")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.t11, self.t12, self.t21, self.t22)

    @property
    def det(self) -> int:
        return self.t11 * self.t22 - self.t12 * self.t21

    @property
    def trace(self) -> int:
        return self.t11 + self.t22

    def inverse(self) -> "ToralMatrix":
        """Exact inverse: for det 1 the inverse is the integer adjugate."""
        return ToralMatrix(self.t22, -self.t12, -self.t21, self.t11)

    def negated(self) -> "ToralMatrix":
        return ToralMatrix(-self.t11, -self.t12, -self.t21, -self.t22)

    def apply(self, x1: float, x2: float) -> tuple[float, float]:
        """Image of a torus point under one application of the map, mod 1."""
        return _step(self.entries, x1, x2, 1.0)

    def as_array(self, dtype=np.int64) -> np.ndarray:
        return np.array([[self.t11, self.t12], [self.t21, self.t22]], dtype=dtype)

    def __str__(self) -> str:
        return f"[[{self.t11},{self.t12}],[{self.t21},{self.t22}]]"


def cat_map() -> ToralMatrix:
    """The standard hyperbolic test matrix [[2,1],[1,1]]."""
    return ToralMatrix(2, 1, 1, 1)


def unit_shear() -> ToralMatrix:
    """The parabolic unit shear [[1,1],[0,1]]."""
    return ToralMatrix(1, 1, 0, 1)


def quarter_turn() -> ToralMatrix:
    """The elliptic quarter rotation [[0,1],[-1,0]] (order four)."""
    return ToralMatrix(0, 1, -1, 0)


def _step(m, x1, x2, modulus=None):
    """(x1, x2) -> m (x1, x2) for a row-major 2x2 matrix m, reduced mod `modulus`.

    The one implementation of the linear step: integer lattice points mod
    N, dyadic numerators mod 2**k, and (with no modulus) exact matrix
    products; the mod-1.0 float step only serves `ToralMatrix.apply`.
    Python integers are exact at any size.  Integer arrays must hold values
    in [0, modulus).  Unsigned arrays with a power-of-two modulus within
    their range (and m in [0, modulus)) wrap, exactly mod 2**k, and are
    masked; otherwise, when the largest possible row sum
    max(|m0| + |m1|, |m2| + |m3|) * (modulus - 1) would pass the dtype's
    range the step raises OverflowError instead of wrapping silently.
    Private, so that bench/tracer.py, which times every public function as
    its own layer, keeps this arithmetic in the caller's layer.
    """
    numpy_operand = isinstance(x1, (np.ndarray, np.generic)) or isinstance(
        x2, (np.ndarray, np.generic)
    )
    if numpy_operand and isinstance(modulus, Integral):
        dtype = np.result_type(x1, x2)
        bits = dtype.itemsize * 8
        if dtype.kind == "u" and 0 < modulus <= 1 << bits and modulus & (modulus - 1) == 0:
            mask = modulus - 1
            return (m[0] * x1 + m[1] * x2) & mask, (m[2] * x1 + m[3] * x2) & mask
        reach = max(abs(m[0]) + abs(m[1]), abs(m[2]) + abs(m[3])) * (modulus - 1)
        if dtype.kind in "iu" and reach > np.iinfo(dtype).max:
            raise OverflowError(
                f"lattice step mod {modulus} could reach {reach}, beyond {dtype} arrays"
            )
    if modulus is None:
        return m[0] * x1 + m[1] * x2, m[2] * x1 + m[3] * x2
    return (m[0] * x1 + m[1] * x2) % modulus, (m[2] * x1 + m[3] * x2) % modulus


def _mat_mul(a, b, modulus=None) -> tuple[int, int, int, int]:
    """The product a b of row-major 2x2 entry tuples, column by column."""
    c11, c21 = _step(a, b[0], b[2], modulus)
    c12, c22 = _step(a, b[1], b[3], modulus)
    return (c11, c12, c21, c22)


def _matrix_power(T: ToralMatrix, n: int, modulus=None) -> tuple[int, int, int, int]:
    """Entries of T**n by integer squaring, reduced mod `modulus` if given.

    Negative n uses the integer adjugate (valid because det T = 1), so the
    reduction stays exact for any sign of n.
    """
    if n >= 0:
        base = T.entries
    else:
        base = (T.t22, -T.t12, -T.t21, T.t11)
        n = -n
    unit = 1
    if modulus is not None:
        base = tuple(v % modulus for v in base)
        unit %= modulus
    result = (unit, 0, 0, unit)
    while n:
        if n & 1:
            result = _mat_mul(result, base, modulus)
        base = _mat_mul(base, base, modulus)
        n >>= 1
    return result


def matrix_power_entries(T: ToralMatrix, n: int) -> tuple[int, int, int, int]:
    """Entries of T**n by exact integer squaring; negative n uses the adjugate."""
    return _matrix_power(T, n)


@dataclass(frozen=True)
class SpectralData:
    """Derived spectral quantities of a classified matrix.

    Fields not meaningful for the family are None:

    * semitrace: exact half-trace t; |t| > 1, = 1, < 1 picks the family.
    * eta: largest singular value of T, i.e. the largest eigenvalue of
      sqrt(T' T); this is the one-step maximal stretch of a unit vector.
    * xi: log |lam| for hyperbolic maps (the Lyapunov exponent), else 0.
    * lam: the expanding eigenvalue, |lam| > 1, signed like the trace
      (hyperbolic only).
    * beta: opening angle between expanding and contracting eigendirections,
      in (0, pi), oriented so its sine is positive (hyperbolic only).
    * sin_beta: sin(beta) in the closed form
      (|lam| - 1/|lam|) / (eta - 1/eta) = sqrt(tr^2 - 4) / sqrt(q - 2)
      where q is the sum of squared entries (hyperbolic only).
    * shear: half the off-diagonal entry of the orthogonal triangularization
      [[1, 2J], [0, 1]] of a parabolic map, J = (eta - 1/eta) / 2 > 0.
    * phi: elliptic rotation angle, arccos(semitrace), one of pi/3, pi/2,
      2*pi/3 (elliptic only).
    * period: exact order of an elliptic matrix, one of 3, 4, 6.
    """

    family: Family
    semitrace: Fraction
    eta: float
    xi: float
    lam: Optional[float] = None
    beta: Optional[float] = None
    sin_beta: Optional[float] = None
    shear: Optional[float] = None
    phi: Optional[float] = None
    period: Optional[int] = None


def _eigenvector(T: ToralMatrix, mu: float) -> np.ndarray:
    """A unit eigenvector of T for eigenvalue mu (hyperbolic case).

    Both rows of (T - mu I) are multiples of a common covector; the kernel
    direction can be read off either row, and the better-conditioned one is
    whichever candidate has the larger norm.
    """
    cand_a = np.array([float(T.t12), mu - float(T.t11)])
    cand_b = np.array([mu - float(T.t22), float(T.t21)])
    vec = cand_a if np.dot(cand_a, cand_a) >= np.dot(cand_b, cand_b) else cand_b
    norm = math.hypot(vec[0], vec[1])
    if norm == 0.0:  # cannot happen for a genuinely hyperbolic matrix
        raise ArithmeticError(f"degenerate eigenvector for {T} at eigenvalue {mu}")
    return vec / norm


def _eigen_angle(T: ToralMatrix) -> float:
    """Angle from the expanding to the contracting eigendirection, in (0, pi).

    The sign of the contracting eigenvector is chosen so the (signed) angle
    measured counterclockwise from the expanding one is positive, which
    makes its sine positive as well.
    """
    tr = T.trace
    root = math.sqrt(tr * tr - 4.0)
    mu_plus = (tr + root) / 2.0
    mu_minus = (tr - root) / 2.0
    if abs(mu_plus) >= abs(mu_minus):
        expanding, contracting = mu_plus, mu_minus
    else:
        expanding, contracting = mu_minus, mu_plus
    u = _eigenvector(T, expanding)
    v = _eigenvector(T, contracting)
    cross = u[0] * v[1] - u[1] * v[0]
    if cross < 0.0:
        v = -v
        cross = -cross
    return math.atan2(cross, float(np.dot(u, v)))


def _order(T: ToralMatrix, limit: int, modulus=None) -> int:
    """Least k >= 1 with T**k = I (mod `modulus` when given), by repeated products.

    `limit` is a proven bound on the order, so passing it signals a logic
    error rather than bad input.
    """
    power = one = _matrix_power(T, 1, modulus)
    for k in range(1, limit + 1):
        if power == (1, 0, 0, 1):
            return k
        power = _mat_mul(power, one, modulus)
    raise AssertionError(f"{T} did not reach the identity in {limit} steps")


_ELLIPTIC_ANGLE = {
    -1: 2.0 * math.pi / 3.0,
    0: math.pi / 2.0,
    1: math.pi / 3.0,
}


def classify(T: ToralMatrix) -> SpectralData:
    """Classify a matrix into its family and compute spectral data.

    The largest singular value eta comes from the closed form
    eta^2 = (q + sqrt(q^2 - 4)) / 2 with q the sum of squared entries;
    det T = 1 gives the convenient exact identities
    eta - 1/eta = sqrt(q - 2) and eta + 1/eta = sqrt(q + 2).
    """
    tr = T.trace
    q = T.t11**2 + T.t12**2 + T.t21**2 + T.t22**2
    semitrace = Fraction(tr, 2)
    eta = math.sqrt((q + math.sqrt(float(q * q - 4))) / 2.0)
    if abs(tr) > 2:
        root = math.sqrt(float(tr * tr - 4))
        lam = (tr + root) / 2.0 if tr > 0 else (tr - root) / 2.0
        xi = math.log(abs(lam))
        sin_beta = root / math.sqrt(float(q - 2))
        beta = _eigen_angle(T)
        return SpectralData(
            family=Family.HYPERBOLIC,
            semitrace=semitrace,
            eta=eta,
            xi=xi,
            lam=lam,
            beta=beta,
            sin_beta=sin_beta,
        )
    if abs(tr) == 2:
        shear = math.sqrt(float(q - 2)) / 2.0
        return SpectralData(
            family=Family.PARABOLIC,
            semitrace=semitrace,
            eta=eta,
            xi=0.0,
            shear=shear,
        )
    return SpectralData(
        family=Family.ELLIPTIC,
        semitrace=semitrace,
        eta=eta,
        xi=0.0,
        phi=_ELLIPTIC_ANGLE[tr],
        period=_order(T, 12),  # integer elliptic matrices have order 3, 4 or 6
    )


def diameter_formula(data: SpectralData, n: int) -> float:
    """Radius D(n) of the image of the unit ball under n applications.

    D(n) is the largest singular value of T**n.  Closed forms per family:

    * hyperbolic: sinh(log D) = sinh(n xi) / sin(beta), i.e.
      D = z + sqrt(z^2 + 1) with z = sinh(n xi) / sin(beta);
    * parabolic: D = n J + sqrt(n^2 J^2 + 1) with J the shear strength;
    * elliptic: the sequence is periodic with values in {1, eta}; D = 1
      exactly when T**n is plus or minus the identity, which happens iff
      n is a multiple of 3 (|semitrace| = 1/2) or of 2 (semitrace = 0).

    n = 0 gives 1 (the unit ball itself) in every family.  A D(n) past the
    float range raises OverflowError rather than returning inf.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if data.family is Family.HYPERBOLIC:
        z = math.sinh(n * data.xi) / data.sin_beta
    elif data.family is Family.PARABOLIC:
        z = n * data.shear
    else:
        half = 3 if abs(data.semitrace) == Fraction(1, 2) else 2
        return 1.0 if n % half == 0 else data.eta
    diameter = z + math.sqrt(z * z + 1.0)
    if not math.isfinite(diameter):
        raise OverflowError(f"diameter D({n}) overflows a float")
    return diameter


@functools.lru_cache(maxsize=1)
def _unit_circle(samples: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only cos and sin of the angles 2 pi k / samples, k = 0..samples-1,
    and the largest `np.hypot` of a (cos, sin) pair: the grid's own radius."""
    theta = 2.0 * math.pi * np.arange(samples) / samples
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    cos_t.flags.writeable = False
    sin_t.flags.writeable = False
    return cos_t, sin_t, float(np.hypot(cos_t, sin_t).max())


def diameter_bruteforce(T: ToralMatrix, n: int, samples: int) -> float:
    """Max of |T**n v| over a uniform angular grid of unit vectors.

    The maximum over the grid underestimates the true maximum by a relative
    O((pi/samples)^2), so 1e5 samples is already far below 1e-6.  Refining
    the grid by an integer factor keeps all old sample points, hence the
    estimate is nondecreasing under such refinement.  Matrix entries are
    computed exactly and converted to floats, so results are reliable while
    the entries stay below 2**53.

    The result is the largest `np.hypot(a cos + b sin, c cos + d sin)` over
    the grid, bit for bit, found without taking `hypot` at every point.
    The grid (cos, sin and its own radius) is built once per sample count.
    When T**n is plus or minus the identity or a quarter turn, the two
    components are the grid's cos and sin up to sign and order, which
    `hypot` ignores, so the result is the grid's radius.  Otherwise the
    search runs on the squared norm |T**n v|^2, evaluated as the quadratic
    form of (T**n)' T**n after scaling T**n by the power of two that brings
    its largest entry into [1/2, 1), so no square overflows.  `hypot` is
    then taken only where that square is within a relative 1e-9 of the
    largest.  Rounding moves each square by about 1e-15 of the largest, so
    the grid point with the largest `hypot` always lies in that set.
    """
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
    a, b, c, d = (float(v) for v in matrix_power_entries(T, n))
    cos_t, sin_t, radius = _unit_circle(samples)
    if b == c == 0.0 or a == d == 0.0:  # det 1 then forces +-I or a quarter turn
        return radius
    shift = -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a2, b2, c2, d2 = (math.ldexp(v, shift) for v in (a, b, c, d))
    p, q, r = a2 * a2 + c2 * c2, a2 * b2 + c2 * d2, b2 * b2 + d2 * d2
    # p cos^2 + 2 q cos sin + r sin^2, with sin^2 = 1 - cos^2 up to rounding.
    squares = cos_t * cos_t
    squares *= p - r
    cross = cos_t * sin_t
    cross *= 2.0 * q
    squares += cross
    squares += r
    near = np.flatnonzero(squares >= squares.max() * (1.0 - 1e-9))
    cos_n, sin_n = cos_t[near], sin_t[near]
    return float(np.hypot(a * cos_n + b * sin_n, c * cos_n + d * sin_n).max())


def scaling_function(data: SpectralData, n: int) -> float:
    """Growth scale Gamma(n): n*xi (hyperbolic), log n (parabolic), 0 (elliptic).

    This is the logarithmic growth rate of D(n); the lattice version of the
    map tracks the continuous one roughly while Gamma(n) < log(N)/gamma.
    """
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if data.family is Family.HYPERBOLIC:
        return n * data.xi
    if data.family is Family.PARABOLIC:
        return math.log(n)
    return 0.0


def breaking_time(data: SpectralData, N: int, gamma: float) -> Optional[int]:
    """Largest n >= 1 with Gamma(n) < log(N)/gamma; None when unbounded.

    Elliptic maps have Gamma identically zero, so the correspondence never
    breaks on this scale and None is returned.  Returns 0 when not even a
    single step fits the bound.  The boundary is resolved by exact
    comparison loops rather than one floor() so ties (e.g. N a power whose
    root is hit exactly) land on the strict side.
    """
    if N < 2:
        raise ValueError(f"lattice size must be >= 2, got {N}")
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    bound = math.log(N) / gamma
    if data.family is Family.ELLIPTIC:
        return None
    if data.family is Family.HYPERBOLIC:
        n = int(bound / data.xi) + 2
        while n >= 1 and n * data.xi >= bound:
            n -= 1
        return max(n, 0)
    n = int(math.exp(bound)) + 2
    while n >= 1 and math.log(n) >= bound:
        n -= 1
    return max(n, 0)
