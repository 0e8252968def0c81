"""Coherent-state style coarse-graining of torus observables onto a lattice.

A bounded function f on the torus becomes a diagonal observable on the N x N
lattice by averaging over cells: entry(p) = N^2 * integral of f over the
half-open 1/N-cell centered at p/N.  The map sends the constant one to the
constant one and preserves positivity.

The two-point correspondence kernel K(x, y) is 1 exactly when n discrete
steps carry the cell of x onto the cell of y, else 0.  Three diagnostics
quantify how long the lattice dynamics tracks the continuous map:

* `egorov_defect`: L2 distance between f evolved continuously for j steps
  and the cell-entry observable transported along the lattice orbit, on a
  rational mesh whose images T**j x are exact cell-plus-offset sums at any j;
* `check_dynamical_localization`: with N above an explicit family threshold,
  the kernel vanishes for every sampled pair farther apart than d0 after n
  continuous steps (zero tolerance);
* `check_orbit_shadowing`: the lattice orbit of the rounded point stays
  within an explicit family bound of the continuous orbit for all
  intermediate times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .lattice import LatticeConfig, matrix_power_mod, round_coordinates, torus_distance_arrays
from .maps import (
    Family,
    SpectralData,
    ToralMatrix,
    classify,
    scaling_function,
    _SAMPLE_BLOCK,
    _check_form_factor,
    _step,
)
from .rectangles import TorusRectangle, _axis_weights, _check_disjoint

__all__ = [
    "ThresholdUnmetError",
    "Observable",
    "DiagonalObservable",
    "discretize_aw",
    "kernel_many",
    "egorov_defect",
    "localization_threshold",
    "shadowing_threshold",
    "LocalizationReport",
    "ShadowingReport",
    "check_dynamical_localization",
    "check_orbit_shadowing",
]

# Mesh rows are processed in blocks of roughly this many points so the
# work arrays stay in cache; the block size is fixed, which keeps float
# accumulation order (and hence output bytes) reproducible.
_MESH_BLOCK = 1 << 16


# Drawn points are multiples of 2**-53: their numerators a = x * 2**53 as
# uint64 arrays step exactly mod _DYADIC.
_DYADIC = 1 << 53


class ThresholdUnmetError(ValueError):
    """The lattice is too coarse for the requested guaranteed-tracking check."""


@dataclass(frozen=True)
class Observable:
    """A bounded torus function: vectorized callable plus declared sup bound.

    `fn` maps coordinate arrays (x1, x2) in [0, 1) to values.  When the
    function is an indicator of a finite union of pairwise disjoint rational
    rectangles, pass them as `rectangles`; cell averages are then computed
    by exact interval overlap instead of quadrature.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float
    rectangles: Optional[tuple[TorusRectangle, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not (self.bound >= 0.0) or not math.isfinite(self.bound):
            raise ValueError(f"observable bound must be finite and >= 0, got {self.bound}")
        _check_disjoint(self.rectangles or (), "indicator rectangles")

    @classmethod
    def from_function(
        cls, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], bound: float, name: str = ""
    ) -> "Observable":
        return cls(fn=fn, bound=float(bound), name=name)

    @classmethod
    def indicator(cls, rects: Union[TorusRectangle, tuple], name: str = "") -> "Observable":
        if isinstance(rects, TorusRectangle):
            rects = (rects,)
        rects = tuple(rects)

        def fn(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
            out = np.zeros(np.broadcast(x1, x2).shape)
            for rect in rects:
                out += rect.contains_arrays(x1, x2)
            return out

        return cls(fn=fn, bound=1.0, rectangles=rects, name=name)

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.fn(x1, x2)


@dataclass(frozen=True, eq=False)
class DiagonalObservable:
    """Diagonal lattice observable: one entry per lattice point, row-major."""

    cfg: LatticeConfig
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.entries)
        if arr.shape != (self.cfg.points,):
            raise ValueError(
                f"expected {self.cfg.points} entries, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def _cell_axis_coordinates(n: int, quadrature: int) -> np.ndarray:
    """Midpoint sub-grid coordinates along one axis, grouped by cell.

    Returns an (n, quadrature) array whose row p holds the quadrature
    points of cell p: (p + (i + 1/2)/q - 1/2) / N mod 1.  quadrature = 1
    degenerates to the cell center p/N.
    """
    offsets = ((np.arange(quadrature) + 0.5) / quadrature - 0.5)[None, :]
    return ((np.arange(n)[:, None] + offsets) / n) % 1.0


def _indicator_entries(rects: tuple[TorusRectangle, ...], cfg: LatticeConfig) -> np.ndarray:
    """Exact cell averages of an indicator: N^2 * overlap(cell, rectangles)."""
    entries = np.zeros(cfg.points)
    for rect in rects:
        (nx, ny), den = _axis_weights(
            ((rect.x_start, rect.x_span), (rect.y_start, rect.y_span)), cfg.size
        )
        entries += np.kron((nx / den).astype(float), (ny / den).astype(float))
    return entries


def _read_axis(f: Observable) -> Optional[int]:
    """The one coordinate f reads: 0 for x1, 1 for x2, None for anything else.

    f is called on a 2 x 2 broadcast, x1 as a column and x2 as a row; a
    result of shape (2, 1) reads x1 only and (1, 2) reads x2 only.
    """
    probe = np.array([0.25, 0.75])
    shape = np.shape(f(probe[:, None], probe[None, :]))
    return {(2, 1): 0, (1, 2): 1}.get(shape)


def discretize_aw(f: Observable, cfg: LatticeConfig, quadrature: int = 1) -> DiagonalObservable:
    """Cell averages of f: entry(p) = N^2 * integral of f over cell(p).

    The integral is approximated by the midpoint rule on a quadrature x
    quadrature sub-grid per cell; quadrature = 1 samples the cell center
    exactly.  Indicator observables with declared rectangles bypass
    quadrature entirely and use exact interval overlaps.  The map is
    unital and positive: constants map to constants and f >= 0 gives
    entries >= 0 up to quadrature exactness.
    """
    if quadrature < 1:
        raise ValueError(f"quadrature must be >= 1, got {quadrature}")
    if f.rectangles is not None:
        return DiagonalObservable(cfg, _indicator_entries(f.rectangles, cfg))
    n = cfg.size
    q = quadrature
    coords = _cell_axis_coordinates(n, q)  # (n, q)
    flat = coords.ravel()  # n*q values, cell-major
    axis = _read_axis(f)
    if axis is not None:
        # One coordinate read: average its n*q axis points per cell and
        # spread the line across the other axis.
        line = np.asarray(f(flat[:, None], flat[None, :])).reshape(n, q).mean(axis=1)
        shape = (n, 1) if axis == 0 else (1, n)
        return DiagonalObservable(cfg, np.broadcast_to(line.reshape(shape), (n, n)).ravel())
    entries = np.empty((n, n))
    # Row blocks keep the (n*q)^2 evaluation mesh bounded in memory.
    rows_per_block = max(1, _MESH_BLOCK // (n * q * q))
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        xs = coords[start:stop].ravel()  # (rows*q,)
        vals = np.asarray(f(xs[:, None], flat[None, :]))
        vals = np.broadcast_to(vals, (xs.size, flat.size))  # (rows*q, n*q)
        vals = vals.reshape(stop - start, q, n, q)
        entries[start:stop] = vals.mean(axis=(1, 3))
    return DiagonalObservable(cfg, entries.ravel())


def kernel_many(
    T: ToralMatrix,
    cfg: LatticeConfig,
    n: int,
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
) -> np.ndarray:
    """Two-point correspondence kernel K(x, y) over paired coordinate arrays.

    K is 1 iff U**n carries cell(x) to cell(y): an exact integer comparison
    of U**n(round(x)) with round(y), so for every x exactly one lattice
    cell y has K = 1.  Raises OverflowError when the int64 lattice step
    could overflow (N above about 2**31).
    """
    size = cfg.size
    m = matrix_power_mod(T, n, size)
    u1, u2 = _step(m, round_coordinates(x1, size), round_coordinates(x2, size), size)
    hit = (u1 == round_coordinates(y1, size)) & (u2 == round_coordinates(y2, size))
    return hit.astype(np.int64)


def egorov_defect(
    T: ToralMatrix,
    cfg: LatticeConfig,
    f: Observable,
    steps: int,
    grid: int,
    quadrature: int = 4,
    table: Optional[DiagonalObservable] = None,
) -> float:
    """L2 gap between continuous evolution of f and its lattice transport.

    Computes the L2(torus) norm of
        x -> f(T**steps x) - entry_{U**steps(round(x))}(discretize(f))
    by midpoint quadrature on the G x G mesh, G = grid = g*N.  Mesh points
    are the rationals x = (2g p + e)/(2G): p a cell, e one of the in-cell
    offsets -(g-1), -(g-3), ..., g-1 per axis, so no point is on a cell
    boundary.  Exactly, T**steps x = U**steps(p)/N + delta_e (mod 1) with
    delta_e = (T**steps e mod 2G)/(2G), and U**steps permutes the cells, so
        defect**2 = G**-2 * sum_e sum_q |f(q/N + delta_e) - table[q]|**2,
    which needs only T**steps mod 2G, in integers at any step count.  A
    precomputed cell-average `table` for f amortizes sweeps over steps.

    When f reads one coordinate (x1, say) and the table is exactly constant
    along the other, table[q] = line[q1] and the inner sum collapses to
        N * sum_q1 |f(q1/N + delta_e1) - line[q1]|**2,
    O(N) per mesh offset instead of O(N**2); the constancy check is one
    exact O(N**2) comparison per call, and any other table takes the full
    mesh.
    """
    size = cfg.size
    g, rest = divmod(grid, size)
    if g < 1 or rest:
        raise ValueError(f"grid must be a positive multiple of the lattice size {size}, got {grid}")
    if table is None:
        table = discretize_aw(f, cfg, quadrature)
    elif table.cfg != cfg:
        raise ValueError("precomputed table belongs to a different lattice")
    modulus = 2 * grid
    m = matrix_power_mod(T, steps, modulus)
    cells = 2 * g * np.arange(size)
    entries = table.entries.reshape(size, size)
    # A one-axis f with a table constant along the other axis sums one line.
    axis = _read_axis(f)
    line = None
    if axis is not None:
        line = entries[:, :1] if axis == 0 else entries[:1, :]
        if not (entries == line).all():
            line = None
    total = 0.0
    rows_per_block = max(1, _MESH_BLOCK // size)
    for e1 in range(1 - g, g, 2):
        for e2 in range(1 - g, g, 2):
            d1, d2 = _step(m, e1, e2, modulus)
            x1 = ((cells + d1) % modulus / modulus)[:, None]
            x2 = ((cells + d2) % modulus / modulus)[None, :]
            if line is not None:
                total += size * float(np.sum(np.abs(f(x1, x2) - line) ** 2))
                continue
            for start in range(0, size, rows_per_block):
                stop = min(start + rows_per_block, size)
                diff = f(x1[start:stop], x2) - entries[start:stop]
                total += float(np.sum(np.abs(diff) ** 2))
    return math.sqrt(total / (grid * grid))


def _stretch(data: SpectralData, steps: int, scale: float = 1.0) -> float:
    """scale lam**steps / sin(beta) of a hyperbolic map, inf past the float range."""
    try:
        return scale * math.exp(steps * data.xi) / data.sin_beta
    except OverflowError:
        return math.inf


def _finite(threshold: float, given: str) -> float:
    """The threshold, or ValueError naming what it was `given` once it passes the float range."""
    if not math.isfinite(threshold):
        raise ValueError(f"the family threshold for {given} passes the float range")
    return threshold


def localization_threshold(data: SpectralData, steps: int, d0: float) -> float:
    """Family threshold N_M(n): above it the kernel must vanish beyond d0.

    hyperbolic: max((1 + lam**n/sin(beta)) / (d0 sqrt(2)), sqrt(2) lam**n / sin(beta))
    parabolic:  max(sqrt(2) (nJ + 1) / d0, sqrt(2) (2nJ + 1))
    elliptic:   max((eta + 1) / (d0 sqrt(2)), sqrt(2) eta)
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    if not (0.0 < d0 <= math.sqrt(2.0) / 2.0):
        raise ValueError(f"d0 must lie in (0, sqrt(2)/2], got {d0}")
    root2 = math.sqrt(2.0)
    if data.family is Family.HYPERBOLIC:
        stretch = _stretch(data, steps)
        threshold = max((1.0 + stretch) / (d0 * root2), root2 * stretch)
    elif data.family is Family.PARABOLIC:
        nj = steps * data.shear
        threshold = max(root2 * (nj + 1.0) / d0, root2 * (2.0 * nj + 1.0))
    else:
        threshold = max((data.eta + 1.0) / (d0 * root2), root2 * data.eta)
    return _finite(threshold, f"steps = {steps} and d0 = {d0}")


def shadowing_threshold(data: SpectralData, steps: int) -> float:
    """Family threshold for guaranteed orbit tracking within the stated bound.

    hyperbolic: sqrt(2) lam**n / sin(beta); parabolic: sqrt(2) (2nJ + 1);
    elliptic: sqrt(2) eta.  For N above the threshold, every intermediate
    lattice orbit point stays within threshold/(2N) of the continuous one.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    root2 = math.sqrt(2.0)
    if data.family is Family.HYPERBOLIC:
        return _finite(_stretch(data, steps, root2), f"steps = {steps}")
    if data.family is Family.PARABOLIC:
        return root2 * (2.0 * steps * data.shear + 1.0)
    return root2 * data.eta


@dataclass(frozen=True)
class LocalizationReport:
    """Outcome of a randomized kernel-vanishing check."""

    matrix: tuple[int, int, int, int]
    family: str
    size: int
    steps: int
    gamma: float
    d0: float
    trials: int
    seed: int
    tested_pairs: int
    violations: int
    threshold: float
    premise_satisfied: bool
    growth_scale: float
    growth_bound: float

    def as_dict(self) -> dict:
        return {
            "check": "dynamical_localization",
            "matrix": list(self.matrix),
            "family": self.family,
            "size": self.size,
            "steps": self.steps,
            "gamma": self.gamma,
            "d0": self.d0,
            "trials": self.trials,
            "seed": self.seed,
            "tested_pairs": self.tested_pairs,
            "violations": self.violations,
            "threshold": self.threshold,
            "premise_satisfied": self.premise_satisfied,
            "growth_scale": self.growth_scale,
            "growth_bound": self.growth_bound,
        }


def check_dynamical_localization(
    T: ToralMatrix,
    cfg: LatticeConfig,
    steps: int,
    gamma: float,
    d0: float,
    trials: int,
    seed: int,
) -> LocalizationReport:
    """Sample pairs (x, y), keep those with d(T**n x, y) >= d0, count kernel hits.

    When N exceeds the family threshold N_M(n) the count must be zero: the
    lattice image of x's cell cannot reach the cell of any y that far away.
    Below the threshold, hits are possible and quantify the loss of
    localization.  T**n x is exact: T**n mod 2**53 applied to the 53-bit
    numerators of the drawn x.  Deterministic for a fixed seed.  The pairs
    are drawn at once and checked in blocks of `_SAMPLE_BLOCK`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_form_factor(gamma)
    data = classify(T)
    threshold = localization_threshold(data, steps, d0)
    rng = np.random.default_rng(seed)
    xs = rng.random((trials, 2))
    ys = rng.random((trials, 2))
    leap = matrix_power_mod(T, steps, _DYADIC)
    tested = violations = 0
    for start in range(0, trials, _SAMPLE_BLOCK):
        x, y = xs[start:start + _SAMPLE_BLOCK], ys[start:start + _SAMPLE_BLOCK]
        a1, a2 = np.ascontiguousarray((x * 2.0**53).astype(np.uint64).T)
        tx1, tx2 = _step(leap, a1, a2, _DYADIC)
        far = torus_distance_arrays(tx1 / _DYADIC, tx2 / _DYADIC, y[:, 0], y[:, 1]) >= d0
        hits = kernel_many(T, cfg, steps, x[:, 0], x[:, 1], y[:, 0], y[:, 1]) == 1
        tested += int(far.sum())
        violations += int(np.count_nonzero(hits & far))
    scaling = scaling_function(data, steps) if steps >= 1 else 0.0
    growth_bound = math.log(cfg.size) / gamma
    return LocalizationReport(
        matrix=T.entries,
        family=data.family.value,
        size=cfg.size,
        steps=steps,
        gamma=gamma,
        d0=d0,
        trials=trials,
        seed=seed,
        tested_pairs=tested,
        violations=violations,
        threshold=threshold,
        premise_satisfied=cfg.size > threshold,
        growth_scale=scaling,
        growth_bound=growth_bound,
    )


@dataclass(frozen=True)
class ShadowingReport:
    """Outcome of a randomized orbit-tracking check."""

    matrix: tuple[int, int, int, int]
    family: str
    size: int
    steps: int
    trials: int
    seed: int
    threshold: float
    bound: float
    max_distance: float
    max_ratio: float

    def as_dict(self) -> dict:
        return {
            "check": "orbit_shadowing",
            "matrix": list(self.matrix),
            "family": self.family,
            "size": self.size,
            "steps": self.steps,
            "trials": self.trials,
            "seed": self.seed,
            "threshold": self.threshold,
            "bound": self.bound,
            "max_distance": self.max_distance,
            "max_ratio": self.max_ratio,
        }


def check_orbit_shadowing(
    T: ToralMatrix, cfg: LatticeConfig, steps: int, trials: int, seed: int
) -> ShadowingReport:
    """Track sampled orbits for all p <= steps and report the worst ratio.

    The distance between the continuous orbit of x and the lattice orbit of
    its rounding, divided by the guaranteed bound threshold/(2N), must stay
    at or below 1.  The continuous orbit is exact: T mod 2**53 stepped on
    the 53-bit numerators of the drawn x.  Requires N strictly above the
    family threshold, else ThresholdUnmetError.  The points are drawn at
    once and tracked in blocks of `_SAMPLE_BLOCK`; an elliptic map is
    tracked for at most its order less one steps, which repeat every later
    distance.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    data = classify(T)
    threshold = shadowing_threshold(data, steps)
    size = cfg.size
    if size <= threshold:
        raise ThresholdUnmetError(
            f"lattice size {size} is not above the tracking threshold {threshold:.6g} "
            f"for {steps} steps of {T}"
        )
    bound = threshold / (2.0 * size)
    # An elliptic T has order o in {3, 4, 6}: T**o = I over the integers, so
    # both orbits repeat after o steps and the first o - 1 hold every distance.
    tracked = steps if data.period is None else min(steps, data.period - 1)
    rng = np.random.default_rng(seed)
    xs = rng.random((trials, 2))
    one = matrix_power_mod(T, 1, size)
    one_dyadic = matrix_power_mod(T, 1, _DYADIC)
    max_distance = 0.0
    for start in range(0, trials, _SAMPLE_BLOCK):
        x = xs[start:start + _SAMPLE_BLOCK]
        a1, a2 = np.ascontiguousarray((x * 2.0**53).astype(np.uint64).T)
        p1 = round_coordinates(x[:, 0], size)
        p2 = round_coordinates(x[:, 1], size)
        for k in range(tracked + 1):
            if k:
                a1, a2 = _step(one_dyadic, a1, a2, _DYADIC)
                p1, p2 = _step(one, p1, p2, size)
            dist = torus_distance_arrays(a1 / _DYADIC, a2 / _DYADIC, p1 / size, p2 / size)
            max_distance = max(max_distance, float(dist.max()))
    return ShadowingReport(
        matrix=T.entries,
        family=data.family.value,
        size=size,
        steps=steps,
        trials=trials,
        seed=seed,
        threshold=threshold,
        bound=bound,
        max_distance=max_distance,
        max_ratio=max_distance / bound,
    )
