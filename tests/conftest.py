"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's own code paths wherever the
tests use them as cross-checks: the word sampler below walks cells with its
own modular stepping and samples geometry directly instead of reusing the
library's weight tables or packing loops; the atom and cell oracles decide
membership one point or cell at a time in rational arithmetic; the union
oracle is the plain `np.union1d` form of the fast merge.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from torusdyn.entropy import Partition, ProbabilityTable


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
