"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's own code paths wherever the
tests use them as cross-checks: the word sampler below walks cells with its
own modular stepping and samples geometry directly instead of reusing the
library's weight tables or packing loops; the atom and cell oracles decide
membership one point or cell at a time in rational arithmetic; the union
oracle is the plain `np.union1d` form of the fast merge; the permutation
table is built point by point in Python integers, and the period oracle
walks every cycle of it; the orbit-atom walk steps coordinate arrays instead
of gathering on the permutation, and the cell-weight oracle takes exact
`Fraction` overlaps, one cell at a time through `cell_interval_pieces`,
instead of the library's closed-form integer overlaps; `is_aligned` decides
alignment from the atom boundaries instead of reading it off the weights;
`kernel_defect` evaluates the Egorov defect by the kernel route with its
own single-step orbit walk, and `egorov_defect_exact_mesh` from every mesh
point's exact integer orbit; the classical samplers are a float walk mod 1.0
and a 53-bit dyadic orbit, both read through `Partition.atom_index`, and a
Python-integer dyadic orbit read through rational atom membership.
`entropy_of_fractions` sums -p log p over sorted exact masses, and
`partition_entropy` applies it to the atom areas.  The geometry oracle,
`exact_refinement_probabilities`, gives exact length-1 and length-2 word
masses of the continuous map by Sutherland-Hodgman clipping of pulled-back
boxes (`clip_polygon_halfplane`, `clip_polygon_to_box`) and the shoelace
`polygon_area`, all in `Fraction` arithmetic.  `classical_probabilities_mc`
is a Monte Carlo word table at one length, from the 53-bit sampler and the
library's histogram.  `diameter_bruteforce_full_grid` takes
`np.hypot` at every point of a freshly built angular grid.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from torusdyn.discretize import (
    DiagonalObservable,
    Observable,
    _cell_axis_coordinates,
    _indicator_entries,
)
from torusdyn.entropy import Partition, ProbabilityTable
from torusdyn.lattice import LatticeConfig, matrix_power_mod, round_coordinates
from torusdyn.maps import ToralMatrix, _step, matrix_power_entries
from torusdyn.rectangles import TorusRectangle, arc_pieces, pieces_overlap

# Mesh points per block in `kernel_defect`: the oracle's own constant, so a
# tuning change to the library's blocks cannot steer the oracle.
_KERNEL_MESH_BLOCK = 1 << 22


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


def classical_atom_matrix_float(
    T,
    partition: Partition,
    length: int,
    samples: int,
    seed,
) -> np.ndarray:
    """uint8 matrix (samples, length): atom of T**k(x) for random x."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    x1 = rng.random(samples)
    x2 = rng.random(samples)
    out = np.empty((samples, length), dtype=np.uint8)
    for k in range(length):
        out[:, k] = partition.atom_index(x1, x2)
        if T is not None and k + 1 < length:
            t11, t12, t21, t22 = T.entries
            x1, x2 = (t11 * x1 + t12 * x2) % 1.0, (t21 * x1 + t22 * x2) % 1.0
        elif T is None:
            break
    if T is None:
        out[:] = out[:, :1]
    return out


def classical_atom_matrix_53bit(T, partition: Partition, length: int, samples: int, seed):
    """uint8 matrix (length, samples): atom of T**k(x) for random x, exactly.

    The draws x1 then x2 (multiples of 2**-53) as uint64 numerators a step
    exactly as T a mod 2**53, and `partition.atom_index` reads the floats
    a 2**-53, so any partition serves, snapped to a lattice or not.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    a1 = (rng.random(samples) * 2.0**53).astype(np.uint64)
    a2 = (rng.random(samples) * 2.0**53).astype(np.uint64)
    one = matrix_power_mod(T, 1, 1 << 53) if T is not None else None
    out = np.empty((length, samples), dtype=np.uint8)
    for k in range(length):
        if k and one is None:
            out[k:] = out[0]
            break
        if k:
            a1, a2 = _step(one, a1, a2, 1 << 53)
        out[k] = partition.atom_index(a1 * 2.0**-53, a2 * 2.0**-53)
    return out


def classical_atoms_python_int(T, partition: Partition, x1, x2, length: int, bits: int):
    """Atoms of the dyadic orbit of each drawn point, as (length, samples) nested lists.

    The draws (multiples of 2**-53) are cut to `bits`-bit numerators
    a = floor(x 2**bits); T a mod 2**bits is stepped in Python integers
    with the matrix's own entries, and each point a / 2**bits is placed by
    exact rational membership.
    """
    modulus = 1 << bits
    points = [(int(u * 2**53) >> (53 - bits), int(v * 2**53) >> (53 - bits))
              for u, v in zip(np.asarray(x1).tolist(), np.asarray(x2).tolist())]
    rows = []
    for _ in range(length):
        rows.append([atom_of_point_exact(partition, a1 / modulus, a2 / modulus) for a1, a2 in points])
        if T is not None:
            t11, t12, t21, t22 = T.entries
            points = [((t11 * a1 + t12 * a2) % modulus, (t21 * a1 + t22 * a2) % modulus)
                      for a1, a2 in points]
    return rows


class ReplayedDraws(np.random.Generator):
    """A generator whose `random` returns the given arrays, one per call."""

    def __init__(self, *draws):
        super().__init__(np.random.PCG64(0))
        self._draws = iter(draws)

    def random(self, size=None):
        return next(self._draws)


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
    an atom's arc exactly when the arc is the whole circle or the cell's
    start, measured from the atom's start, leaves room for the whole cell.
    """
    width = Fraction(1, size)

    def inside(p: int, start: Fraction, span: Fraction) -> bool:
        return span == 1 or (Fraction(2 * p - 1, 2 * size) - start) % 1 + width <= span

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


def permutation_table_python_int(T: ToralMatrix, size: int) -> list[int]:
    """Flat table of U(p) = T p mod size, point by point in Python integers."""
    t11, t12, t21, t22 = T.entries
    return [
        ((t11 * p1 + t12 * p2) % size) * size + (t21 * p1 + t22 * p2) % size
        for p1 in range(size)
        for p2 in range(size)
    ]


def orbit_atoms_step_walk(T, weights, length: int):
    """Atom of every lattice point's orbit cell at steps 0..length-1 (aligned).

    Steps all N^2 points as two int64 coordinate arrays with the 2x2 step
    mod N and reads the atom of each point's cell, step by step; it builds
    no permutation table.
    """
    size = weights.cfg.size
    one = matrix_power_mod(T, 1, size) if T is not None else None
    p1 = np.repeat(np.arange(size, dtype=np.int64), size)
    p2 = np.tile(np.arange(size, dtype=np.int64), size)
    for k in range(length):
        yield weights.atom_of_cell[p1 * size + p2]
        if one is not None and k + 1 < length:
            p1, p2 = _step(one, p1, p2, size)


def cell_interval_pieces(p: int, n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Linear pieces of the 1/n circle interval centered at p/n.

    This is one axis of the half-open lattice cell [p/n - 1/(2n), p/n + 1/(2n));
    the cell at p = 0 wraps the seam and decomposes into two pieces.
    """
    start = (Fraction(p, n) - Fraction(1, 2 * n)) % 1
    return arc_pieces(start, Fraction(1, n))


def is_aligned(partition: Partition, size: int) -> bool:
    """True when every atom boundary sits on a lattice cell edge (k+1/2)/size.

    The start of a full-span arc is no boundary and is not checked.
    """
    for rect in partition.atoms:
        for start, span in ((rect.x_start, rect.x_span), (rect.y_start, rect.y_span)):
            if span == 1:
                continue
            for v in (start, (start + span) % 1):
                scaled = v * 2 * size
                if scaled.denominator != 1 or scaled.numerator % 2 != 1:
                    return False
    return True


def cell_weights_fraction_oracle(
    partition: Partition, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x weights, y weights and flat cell -> atom map of an aligned partition.

    Each weight is size times the exact `pieces_overlap` of the cell's
    interval with the atom's arc; an atom covers the product of its
    full-weight rows and columns.
    """
    cells = [cell_interval_pieces(p, size) for p in range(size)]
    wx, wy = (
        np.array([
            [float(size * pieces_overlap(cells[p], pieces(atom))) for p in range(size)]
            for atom in partition.atoms
        ])
        for pieces in (TorusRectangle.x_pieces, TorusRectangle.y_pieces)
    )
    atom_of_cell = np.full((size, size), -1, dtype=np.int64)
    for a in range(len(partition)):
        atom_of_cell[np.ix_(wx[a] == 1.0, wy[a] == 1.0)] = a
    return wx, wy, atom_of_cell.ravel()


def orbit_period_cycle_walk(T: ToralMatrix, size: int) -> int:
    """Least m >= 1 with U**m = identity: the lcm of the cell permutation's cycles.

    Builds its own table of U(p) = T p mod size in Python integers, then
    walks every cycle once.
    """
    forward = permutation_table_python_int(T, size)
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


def _mesh_phase(grid: int, size: int) -> float:
    """Phase of the Egorov mesh (i + phase)/grid, grid a multiple g of N.

    A mesh point sits on a cell boundary (k + 1/2)/N when
    2i + 2 phase = (2k + 1) g; phase 1/2 rules that out for even g and
    phase 0 for odd g.
    """
    g, rest = divmod(grid, size)
    if g < 1 or rest:
        raise ValueError(f"grid must be a positive multiple of the lattice size {size}, got {grid}")
    return 0.5 if g % 2 == 0 else 0.0


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
    axis = (np.arange(grid) + _mesh_phase(grid, size)) / grid
    m_float = tuple(float(v) for v in matrix_power_entries(T, steps))
    # Single-step orbit walk of the rounded mesh, repeated |steps| times.
    one = matrix_power_mod(T, 1 if steps >= 0 else -1, size)
    total = 0.0
    rows_per_block = max(1, _KERNEL_MESH_BLOCK // grid)
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


def egorov_defect_exact_mesh(
    T: ToralMatrix, cfg: LatticeConfig, f: Observable, steps: int, grid: int,
    table: DiagonalObservable,
) -> float:
    """Egorov defect from the exact integer orbit of every mesh point.

    Mesh point (i1, i2) is a/(2 grid) with a_k = 2 i_k + 2 phase.  Its image
    a' = T**steps a mod 2 grid is computed in Python integers, with T**steps
    formed here by repeated multiplication; its cell round(N x) is
    (a + g) // 2g mod N, and that cell's lattice image is T**steps cell
    mod N.  The squared differences are summed by `math.fsum`.
    """
    size = cfg.size
    g = grid // size
    modulus = 2 * grid
    a = np.array([2 * i + int(2 * _mesh_phase(grid, size)) for i in range(grid)], dtype=object)
    m = (1, 0, 0, 1)
    t11, t12, t21, t22 = T.entries if steps >= 0 else (T.t22, -T.t12, -T.t21, T.t11)
    for _ in range(abs(steps)):
        m = (m[0] * t11 + m[1] * t21, m[0] * t12 + m[1] * t22,
             m[2] * t11 + m[3] * t21, m[2] * t12 + m[3] * t22)
    a1, a2 = a[:, None], a[None, :]
    b1 = (m[0] * a1 + m[1] * a2) % modulus
    b2 = (m[2] * a1 + m[3] * a2) % modulus
    cont = f(b1.astype(float) / modulus, b2.astype(float) / modulus)
    p1, p2 = (a1 + g) // (2 * g) % size, (a2 + g) // (2 * g) % size
    q1 = ((m[0] * p1 + m[1] * p2) % size).astype(np.int64)
    q2 = ((m[2] * p1 + m[3] * p2) % size).astype(np.int64)
    diff = np.broadcast_to(cont, (grid, grid)) - table.entries[q1 * size + q2]
    return math.sqrt(math.fsum((np.abs(diff) ** 2).ravel()) / (grid * grid))


def classical_probabilities_mc(T, partition: Partition, length: int, samples: int, seed):
    """Monte Carlo table of the continuous map's words of one length, from `seed`.

    The 53-bit sampler's words, packed step k at alphabet**k and
    histogrammed by `from_counts`.
    """
    atoms = classical_atom_matrix_53bit(T, partition, length, samples, seed)
    alphabet = len(partition)
    codes = sum(row.astype(np.int64) * alphabet**k for k, row in enumerate(atoms))
    return ProbabilityTable.from_counts(codes, length, alphabet)


def entropy_of_fractions(values) -> float:
    """Entropy in nats of exact masses: sort, then `math.fsum` of -p log p.

    Two distributions with the same multiset of rational masses give
    bit-identical results, whatever order or labels they arrived with.
    """
    terms = []
    for f in sorted(Fraction(v) for v in values):
        if f < 0 or f > 1:
            raise ValueError(f"probability {f} outside [0, 1]")
        if f != 0:
            p = float(f)
            terms.append(-p * math.log(p))
    return math.fsum(terms)


def partition_entropy(partition: Partition) -> float:
    """Entropy of the atom areas, by `entropy_of_fractions`."""
    return entropy_of_fractions(a.area for a in partition.atoms)


def diameter_bruteforce_full_grid(T: ToralMatrix, n: int, samples: int) -> float:
    """Largest `np.hypot` of T**n v over the whole grid of `samples` angles."""
    a, b, c, d = (float(v) for v in matrix_power_entries(T, n))
    theta = 2.0 * math.pi * np.arange(samples) / samples
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    return float(np.hypot(a * cos_t + b * sin_t, c * cos_t + d * sin_t).max())


Point = tuple[Fraction, Fraction]


def polygon_area(vertices: list[Point]) -> Fraction:
    """Unsigned area of a simple polygon by the exact shoelace sum."""
    if len(vertices) < 3:
        return Fraction(0)
    twice = Fraction(0)
    closed = list(vertices) + [vertices[0]]
    for (x0, y0), (x1, y1) in zip(closed, closed[1:]):
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2


def clip_polygon_halfplane(
    vertices: list[Point], a: Fraction, b: Fraction, c: Fraction
) -> list[Point]:
    """Clip a convex polygon to the half-plane a*x + b*y <= c, exactly.

    Standard single-plane Sutherland-Hodgman step with rational
    intersections; boundaries are kept (closed half-plane), which is
    harmless for area computations.
    """
    result: list[Point] = []
    count = len(vertices)
    for i in range(count):
        px, py = vertices[i]
        qx, qy = vertices[(i + 1) % count]
        p_in = a * px + b * py <= c
        q_in = a * qx + b * qy <= c
        if p_in:
            result.append((px, py))
        if p_in != q_in:
            denom = a * (qx - px) + b * (qy - py)
            t = (c - a * px - b * py) / denom
            result.append((px + t * (qx - px), py + t * (qy - py)))
    return result


def clip_polygon_to_box(
    vertices: list[Point], x_lo: Fraction, x_hi: Fraction, y_lo: Fraction, y_hi: Fraction
) -> list[Point]:
    """Clip a convex polygon to an axis-aligned box, exactly."""
    poly = list(vertices)
    for a, b, c in (
        (Fraction(-1), Fraction(0), -x_lo),
        (Fraction(1), Fraction(0), x_hi),
        (Fraction(0), Fraction(-1), -y_lo),
        (Fraction(0), Fraction(1), y_hi),
    ):
        poly = clip_polygon_halfplane(poly, a, b, c)
        if len(poly) < 3:
            return []
    return poly


def _axis_rectangles(rect: TorusRectangle) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Atom as plain boxes (x_lo, x_hi, y_lo, y_hi) inside [0, 1]^2."""
    return [
        (xs, xe, ys, ye)
        for xs, xe in rect.x_pieces()
        for ys, ye in rect.y_pieces()
    ]


def exact_refinement_probabilities(T, partition: Partition, length: int) -> dict[int, Fraction]:
    """Exact rational word probabilities of the continuous dynamics.

    Supports length 1 (atom areas) and length 2: the joint mass of
    (atom i at step 0, atom j at step 1) is the area of E_i intersected
    with the pullback of E_j, computed by exact parallelogram clipping
    over integer translates.  Packing follows the library convention
    (code = i + j * alphabet).
    """
    d = len(partition)
    if length == 1:
        return {a: partition.atoms[a].area for a in range(d) if partition.atoms[a].area}
    if length != 2:
        raise ValueError("exact probabilities support lengths 1 and 2 only")
    if T is None:
        return {
            a + a * d: partition.atoms[a].area
            for a in range(d)
            if partition.atoms[a].area
        }
    inv = (T.t22, -T.t12, -T.t21, T.t11)  # the integer adjugate, since det T = 1
    out: dict[int, Fraction] = {}
    for j, atom_j in enumerate(partition.atoms):
        # Pull each box of E_j back through the map: the preimage of a box
        # is a parallelogram; intersect its integer translates with E_i.
        pulled: list[list[Point]] = []
        for (xs, xe, ys, ye) in _axis_rectangles(atom_j):
            corners = [(xs, ys), (xe, ys), (xe, ye), (xs, ye)]
            base = [
                (inv[0] * cx + inv[1] * cy, inv[2] * cx + inv[3] * cy)
                for cx, cy in corners
            ]
            lo1 = min(v[0] for v in base)
            hi1 = max(v[0] for v in base)
            lo2 = min(v[1] for v in base)
            hi2 = max(v[1] for v in base)
            for s1 in range(math.floor(-hi1), math.ceil(1 - lo1) + 1):
                for s2 in range(math.floor(-hi2), math.ceil(1 - lo2) + 1):
                    shifted = [(vx + s1, vy + s2) for vx, vy in base]
                    clipped = clip_polygon_to_box(
                        shifted, Fraction(0), Fraction(1), Fraction(0), Fraction(1)
                    )
                    if len(clipped) >= 3:
                        pulled.append(clipped)
        for i, atom_i in enumerate(partition.atoms):
            area = Fraction(0)
            for poly in pulled:
                for (bxs, bxe, bys, bye) in _axis_rectangles(atom_i):
                    piece = clip_polygon_to_box(poly, bxs, bxe, bys, bye)
                    if len(piece) >= 3:
                        area += abs(polygon_area(piece))
            if area:
                out[i + j * d] = out.get(i + j * d, Fraction(0)) + area
    total = sum(out.values(), Fraction(0))
    if total != 1:
        raise AssertionError(f"exact word masses sum to {total}, expected 1")
    return out
