"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's own code paths wherever the
tests use them as cross-checks: the word sampler below walks cells with its
own modular stepping and samples geometry directly instead of reusing the
library's weight tables or packing loops; the atom and cell oracles decide
membership one point or cell at a time in rational arithmetic; the union
oracle is the plain `np.union1d` form of the fast merge; the period oracle
walks every cycle of the cell permutation; `kernel_defect` evaluates the
Egorov defect by the kernel route with its own single-step orbit walk.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from torusdyn.discretize import (
    _MESH_BLOCK,
    Observable,
    _cell_axis_coordinates,
    _indicator_entries,
    _mesh_offset,
)
from torusdyn.entropy import Partition, ProbabilityTable
from torusdyn.lattice import LatticeConfig, matrix_power_mod, round_coordinates
from torusdyn.maps import ToralMatrix, matrix_power_entries


def lattice_word_sampler_mc(
    T, size: int, partition: Partition, length: int, samples: int, seed
) -> ProbabilityTable:
    """Monte Carlo sampler of the lattice (cell-averaged) word distribution.

    A word's probability is the lattice average over starting cells of the
    product over steps of the cell/atom overlap weight.  Equivalently:
    draw a uniform starting cell, then independently for each step draw a
    uniform point of the orbit cell and record which atom contains it.
    This samples the same distribution with geometry only — no weight
    tables, no product recursion.
    """
    rng = np.random.default_rng(seed)
    p1 = rng.integers(0, size, samples)
    p2 = rng.integers(0, size, samples)
    if T is not None:
        t11, t12, t21, t22 = (v % size for v in T.entries)
    alphabet = len(partition)
    codes = np.zeros(samples, dtype=np.int64)
    for k in range(length):
        y1 = ((p1 + rng.random(samples) - 0.5) / size) % 1.0
        y2 = ((p2 + rng.random(samples) - 0.5) / size) % 1.0
        codes += partition.atom_index(y1, y2) * alphabet**k
        if T is not None and k + 1 < length:
            p1, p2 = (t11 * p1 + t12 * p2) % size, (t21 * p1 + t22 * p2) % size
    return ProbabilityTable.from_counts(codes, length, alphabet)


def _on_arc(value: Fraction, start: Fraction, span: Fraction) -> bool:
    """Exact half-open membership of `value` in the circle arc [start, start + span)."""
    return (value - start) % 1 < span


def atom_of_point_exact(partition: Partition, x1: float, x2: float) -> int:
    """Atom holding the float point (x1, x2) mod 1, decided in rational arithmetic."""
    y1, y2 = Fraction(x1) % 1, Fraction(x2) % 1
    hits = [
        a
        for a, rect in enumerate(partition.atoms)
        if _on_arc(y1, rect.x_start, rect.x_span) and _on_arc(y2, rect.y_start, rect.y_span)
    ]
    assert len(hits) == 1, f"point ({x1!r}, {x2!r}) lies in atoms {hits}"
    return hits[0]


def atom_of_cell_bruteforce(partition: Partition, size: int) -> np.ndarray:
    """Flat cell -> atom map of an aligned partition, cell by cell in Fractions.

    Cell p on an axis is the arc [(p - 1/2)/size, (p + 1/2)/size); it lies in
    an atom's arc exactly when its start, measured from the atom's start,
    leaves room for the whole cell.
    """
    width = Fraction(1, size)

    def inside(p: int, start: Fraction, span: Fraction) -> bool:
        return (Fraction(2 * p - 1, 2 * size) - start) % 1 + width <= span

    out = np.empty(size * size, dtype=np.int64)
    for p1 in range(size):
        for p2 in range(size):
            hits = [
                a
                for a, rect in enumerate(partition.atoms)
                if inside(p1, rect.x_start, rect.x_span) and inside(p2, rect.y_start, rect.y_span)
            ]
            assert len(hits) == 1, f"cell ({p1},{p2}) lies in atoms {hits}"
            out[p1 * size + p2] = hits[0]
    return out


def probs_on_union_oracle(
    a: ProbabilityTable, b: ProbabilityTable
) -> tuple[np.ndarray, np.ndarray]:
    """Both tables' probabilities on `np.union1d` of their codes."""
    union = np.union1d(a.codes, b.codes)
    out = []
    for t in (a, b):
        p = np.zeros(union.size)
        idx = np.searchsorted(t.codes, union)
        hit = (idx < t.codes.size) & (t.codes[np.minimum(idx, t.codes.size - 1)] == union)
        p[hit] = t.probs[idx[hit]]
        out.append(p)
    return out[0], out[1]


def orbit_period_cycle_walk(T: ToralMatrix, size: int) -> int:
    """Least m >= 1 with U**m = identity: the lcm of the cell permutation's cycles.

    Builds its own table of U(p) = T p mod size in Python integers, then
    walks every cycle once.
    """
    t11, t12, t21, t22 = T.entries
    forward = [
        ((t11 * p1 + t12 * p2) % size) * size + (t21 * p1 + t22 * p2) % size
        for p1 in range(size)
        for p2 in range(size)
    ]
    visited = [False] * (size * size)
    period = 1
    for start in range(size * size):
        length = 0
        cursor = start
        while not visited[cursor]:
            visited[cursor] = True
            cursor = forward[cursor]
            length += 1
        if length:
            period = math.lcm(period, length)
    return period


def kernel_defect(
    T: ToralMatrix,
    cfg: LatticeConfig,
    f: Observable,
    steps: int,
    grid: int,
    quadrature: int = 4,
) -> float:
    """Same defect via the kernel-average route, as an independent check.

    The normalized y-integral of f against the squared correspondence
    kernel collapses to the cell average of f at the lattice image of
    round(x); this function evaluates that form with its own single-step
    orbit walk and its own cell-average accumulation, sharing no table or
    permutation machinery with `egorov_defect`.  The two implementations
    agree to float reordering (about 1e-12 relative).
    """
    if grid < cfg.size:
        raise ValueError(f"grid must be >= lattice size {cfg.size}, got {grid}")
    if quadrature < 1:
        raise ValueError(f"quadrature must be >= 1, got {quadrature}")
    size = cfg.size
    # Independent cell-average pass: accumulate sub-grid samples cell by cell.
    if f.rectangles is not None:
        averages = _indicator_entries(f.rectangles, cfg)
    else:
        q = quadrature
        averages = np.zeros((size, size))
        axis_cells = _cell_axis_coordinates(size, q)
        for a in range(q):
            xs = axis_cells[:, a]
            block = np.zeros((size, size))
            for b in range(q):
                block += f(xs[:, None], axis_cells[None, :, b])
            averages += block
        averages /= q * q
        averages = averages.ravel()
    phase = _mesh_offset(grid, size)
    axis = (np.arange(grid) + phase) / grid
    m_float = tuple(float(v) for v in matrix_power_entries(T, steps))
    # Single-step orbit walk of the rounded mesh, repeated |steps| times.
    one = matrix_power_mod(T, 1 if steps >= 0 else -1, size)
    total = 0.0
    rows_per_block = max(1, _MESH_BLOCK // grid)
    for start in range(0, grid, rows_per_block):
        stop = min(start + rows_per_block, grid)
        x1 = axis[start:stop, None]
        x2 = axis[None, :]
        cont = f((m_float[0] * x1 + m_float[1] * x2) % 1.0,
                 (m_float[2] * x1 + m_float[3] * x2) % 1.0)
        p1 = np.broadcast_to(round_coordinates(x1, size), cont.shape).copy()
        p2 = np.broadcast_to(round_coordinates(x2, size), cont.shape).copy()
        for _ in range(abs(steps)):
            p1, p2 = (one[0] * p1 + one[1] * p2) % size, (one[2] * p1 + one[3] * p2) % size
        diff = averages[p1 * size + p2] - cont
        total += float(np.sum(np.abs(diff) ** 2))
    return math.sqrt(total / (grid * grid))
