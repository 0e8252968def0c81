"""Exact rational rectangles on the torus.

Rectangles are products of half-open circle arcs, each stored as a start in
[0, 1) plus a span in (0, 1], so an arc may wrap through the seam at 0.
All geometry here is done in exact `fractions.Fraction` arithmetic: arc
overlaps, lattice cell overlaps along an axis, and rectangle overlap areas.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

__all__ = [
    "TorusRectangle",
    "arc_pieces",
    "cell_interval_pieces",
    "pieces_overlap",
    "rectangle_overlap_area",
]

RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"rectangle coordinates must be exact rationals, got float {value!r}; "
            "pass a Fraction or a string like '1/3'"
        )
    return Fraction(value)


@dataclass(frozen=True)
class TorusRectangle:
    """Half-open product arc [x_start, x_start + x_span) x [y_start, ...).

    Starts lie in [0, 1) and spans in (0, 1]; a span may run through the
    seam, e.g. start 7/8 with span 1/4 covers [7/8, 1) and [0, 1/8).
    """

    x_start: Fraction
    x_span: Fraction
    y_start: Fraction
    y_span: Fraction

    def __post_init__(self) -> None:
        for name in ("x_start", "x_span", "y_start", "y_span"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
        for name in ("x_start", "y_start"):
            value = getattr(self, name)
            if not (_ZERO <= value < _ONE):
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        for name in ("x_span", "y_span"):
            value = getattr(self, name)
            if not (_ZERO < value <= _ONE):
                raise ValueError(f"{name} must lie in (0, 1], got {value}")

    @property
    def area(self) -> Fraction:
        return self.x_span * self.y_span

    @property
    def x_end(self) -> Fraction:
        """End coordinate reduced to [0, 1); equals start for a full span."""
        return (self.x_start + self.x_span) % 1

    @property
    def y_end(self) -> Fraction:
        return (self.y_start + self.y_span) % 1

    def x_pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return arc_pieces(self.x_start, self.x_span)

    def y_pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return arc_pieces(self.y_start, self.y_span)

    def contains_arrays(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Vectorized half-open membership for float coordinates in [0, 1).

        Membership is ((x - start) mod 1) < span per axis.  For dyadic
        boundaries (every power-of-two lattice) the float subtraction is
        exact, so the half-open convention is honored exactly.
        """
        dx = (x1 - float(self.x_start)) % 1.0
        dy = (x2 - float(self.y_start)) % 1.0
        return (dx < float(self.x_span)) & (dy < float(self.y_span))


def arc_pieces(start: Fraction, span: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """Decompose a circle arc into at most two linear intervals inside [0, 1]."""
    end = start + span
    if end <= _ONE:
        return ((start, end),)
    return ((start, _ONE), (_ZERO, end - _ONE))


def cell_interval_pieces(p: int, n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Linear pieces of the 1/n circle interval centered at p/n.

    This is one axis of the half-open lattice cell [p/n - 1/(2n), p/n + 1/(2n));
    the cell at p = 0 wraps the seam and decomposes into two pieces.
    """
    start = (Fraction(p, n) - Fraction(1, 2 * n)) % 1
    return arc_pieces(start, Fraction(1, n))


def _cell_overlaps(
    arcs: Iterable[tuple[tuple[Fraction, Fraction], ...]], n: int
) -> list[list[Fraction]]:
    """Per arc, n times its overlap with each 1/n cell interval p = 0..n-1.

    These are exact per-cell weights along one axis: 1 inside the arc, 0
    outside, and the covered fraction in the cells its ends cut.
    """
    cells = [cell_interval_pieces(p, n) for p in range(n)]
    return [[n * pieces_overlap(cell, arc) for cell in cells] for arc in arcs]


def pieces_overlap(
    a: Iterable[tuple[Fraction, Fraction]], b: Iterable[tuple[Fraction, Fraction]]
) -> Fraction:
    """Total length of the intersection of two unions of linear intervals."""
    b = tuple(b)
    total = _ZERO
    for lo_a, hi_a in a:
        for lo_b, hi_b in b:
            lo = max(lo_a, lo_b)
            hi = min(hi_a, hi_b)
            if hi > lo:
                total += hi - lo
    return total


def rectangle_overlap_area(a: TorusRectangle, b: TorusRectangle) -> Fraction:
    """Exact area of the intersection of two torus rectangles."""
    return pieces_overlap(a.x_pieces(), b.x_pieces()) * pieces_overlap(
        a.y_pieces(), b.y_pieces()
    )


def _check_disjoint(rects, kind: str) -> None:
    """Raise ValueError when two of the rectangles overlap in positive area."""
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rectangle_overlap_area(rects[i], rects[j]) != 0:
                raise ValueError(f"{kind} {i} and {j} overlap")
