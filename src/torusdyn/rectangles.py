"""Exact rational rectangles on the torus.

Rectangles are products of half-open circle arcs, each stored as a start in
[0, 1) plus a span in (0, 1], so an arc may wrap through the seam at 0.
Arc overlaps and rectangle overlap areas are exact `fractions.Fraction`
arithmetic.  Lattice cell overlaps along an axis (`_axis_weights`) are exact
too, as integer numerators over a common denominator, in closed form for
all cells at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "TorusRectangle",
    "arc_pieces",
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


def _axis_weights(
    arcs: Sequence[tuple[Fraction, Fraction]], n: int
) -> tuple[np.ndarray, int]:
    """Per (start, span) arc, n times its overlap with each 1/n cell interval.

    Returns integer numerators, shape (len(arcs), n), over one common
    denominator: 1 inside the arc, 0 outside, and the covered fraction in
    the cells its ends cut.  On the circle scaled by 2 n L, L the lcm of the
    arcs' denominators, every arc end is an integer and cell p is
    [(2p-1) L, (2p+1) L).  An arc's overlap with a cell is then the measure
    of its copies [S + m 2nL, S + W + m 2nL), m = -2, -1, 0, below the
    cell's end less that below its start (copies further left lie below
    both), and the weight is that overlap over 2 L.  The numerators are
    int64 while the scaled circle stays below 2**53, so numerator /
    denominator is the correctly rounded float; past that they are Python
    integers.
    """
    half = math.lcm(*(f.denominator for arc in arcs for f in arc))
    circle = 2 * n * half
    dtype = np.int64 if circle < 1 << 53 else object
    starts = np.array([int(s * circle) for s, _ in arcs], dtype=dtype)[:, None, None]
    widths = np.array([int(w * circle) for _, w in arcs], dtype=dtype)[:, None, None]
    copies = starts + circle * np.arange(-2, 1, dtype=dtype)[:, None]
    edges = (2 * np.arange(n + 1, dtype=dtype) - 1) * half
    below = np.clip(edges - copies, 0, widths).sum(axis=1)
    return np.diff(below, axis=1), 2 * half


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
