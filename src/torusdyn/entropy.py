"""Symbol-sequence statistics and entropy production, lattice vs continuous.

A partition of the torus into rectangles induces two word distributions for
a toral map: the classical one (which atom does the continuous orbit of a
random point visit at each step) and the lattice one (average over lattice
points of the per-step cell/atom overlap weights along the discrete orbit).
Shannon entropies of these distributions grow with word length; for
hyperbolic maps the classical growth rate is the positive Lyapunov exponent,
while the lattice growth must stall once words resolve structure finer than
the lattice spacing — at word lengths of order log(size).

Two word packings, over an alphabet of D atoms:

* Tables (`cs_probabilities`, `ProbabilityTable.from_counts`): a word of
  length n stores its step-k symbol at significance D**k, i.e.
  code = sum_k symbol_k * D**k.
* Walk codes (`_word_runs`), for every alphabet: a walk of L steps stores
  its step-k symbol in a field of b = ceil(log2 D) bits at bit b*(L-1-k),
  oldest symbol most significant, so one sort of the whole walks orders
  every length at once.  The length-n word is the code's n-field prefix,
  code >> b*(L-n); sorted neighbours share the fields above the highest
  bit of their XOR.  62-bit codes hold words of up to 62 // b symbols.  The
  lattice walk (`_orbit_atoms`) hands the counter c = min(8, 8 // b) steps
  at a time in one byte: a chunk is the next c fields of the walk code.

Lattice and classical words of one length packed the same way are directly
comparable code by code.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .lattice import (
    DEFAULT_CAPACITY, CapacityExceededError, LatticeConfig, matrix_power_mod, _index_dtype,
    _permutation,
)
from .maps import Family, ToralMatrix, classify, _step
from .rectangles import TorusRectangle, _axis_weights, _check_disjoint

__all__ = [
    "AlignmentRequiredError",
    "DimensionMismatchError",
    "Partition",
    "partition_halves_x1",
    "partition_halves_x2",
    "partition_quadrants",
    "partition_bands_x2",
    "snap_partition",
    "CellWeightTable",
    "cell_weights",
    "ProbabilityTable",
    "shannon_entropy",
    "cs_probabilities",
    "cs_entropy",
    "cs_entropies",
    "EntropyComparison",
    "compare_entropy_production",
    "fannes_bound",
]

_MAX_ATOMS = 255
_CODE_BIT_LIMIT = 62
# Largest combined support of a (size, length) pair that the compare audit checks.
_AUDIT_SUPPORT_CAP = 1 << 20


class AlignmentRequiredError(ValueError):
    """A one-pass computation (`cs_entropies`) got a partition that is not aligned."""


class DimensionMismatchError(ValueError):
    """Two probability tables do not describe the same word space."""


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Finite partition of the torus into half-open rectangles.

    Validation is exact: atom areas must sum to 1 and atoms must be pairwise
    disjoint (zero overlap area in rational arithmetic).  Atom order is
    significant — it defines the symbol alphabet 0..D-1.
    """

    atoms: tuple[TorusRectangle, ...]
    name: str = ""

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not 1 <= len(atoms) <= _MAX_ATOMS:
            raise ValueError(f"partition must have 1..{_MAX_ATOMS} atoms, got {len(atoms)}")
        total = sum((a.area for a in atoms), Fraction(0))
        if total != 1:
            raise ValueError(f"atom areas must sum to exactly 1, got {total}")
        _check_disjoint(atoms, "atoms")

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def _atom_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float edges per axis and the atom of every box between edges.

        Each axis's edges are 0 and the atoms' boundaries on it.  The grid
        is filled atom by atom from each atom's range of edge indices; a
        validated partition covers every box exactly once.  A sentinel row
        and column past an inf edge, where NaN sorts, hold -1.
        """
        arcs = (
            [(rect.x_start, rect.x_end, rect.x_span) for rect in self.atoms],
            [(rect.y_start, rect.y_end, rect.y_span) for rect in self.atoms],
        )
        edges = [
            sorted({Fraction(0)}.union(*({s, e} for s, e, w in axis if w != 1)))
            for axis in arcs
        ]
        grid = np.full((len(edges[0]) + 1, len(edges[1]) + 1), -1, dtype=np.int64)
        for a in range(len(self.atoms)):
            boxes = []
            for axis, axis_edges in zip(arcs, edges):
                start, end, span = axis[a]
                count = len(axis_edges)
                if span == 1:
                    boxes.append(np.arange(count))
                    continue
                lo, hi = axis_edges.index(start), axis_edges.index(end)
                boxes.append(np.arange(lo, hi if hi > lo else hi + count) % count)
            grid[np.ix_(*boxes)] = a
        return _floats_rounded_up(edges[0]), _floats_rounded_up(edges[1]), grid

    def atom_index(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Atom index for float coordinate arrays, read mod 1.

        Membership is exact under the half-open convention of the
        rectangles: one sorted lookup per axis into the atom edges, each
        rounded up to the nearest float, then a lookup in the small atom
        grid.  Because membership is exact, points within an ulp of a
        boundary need no padded second pass.  Raises ValueError for
        non-finite coordinates.
        """
        ex, ey, grid = self._atom_grid
        ix = np.searchsorted(ex, np.asarray(x1, dtype=float) % 1.0, side="right") - 1
        iy = np.searchsorted(ey, np.asarray(x2, dtype=float) % 1.0, side="right") - 1
        out = grid[ix, iy]
        if out.size and out.min() < 0:
            raise ValueError("some points have non-finite coordinates")
        return out


def _floats_rounded_up(edges: list[Fraction]) -> np.ndarray:
    """Smallest float >= each rational edge, then an inf sentinel.

    With edges rounded up, `x >= float_edge` holds for a float x exactly
    when `x >= edge` holds in rational arithmetic.
    """
    up = []
    for e in edges:
        f = float(e)
        up.append(float(np.nextafter(f, math.inf)) if Fraction(f) < e else f)
    return np.array(up + [math.inf])


def partition_halves_x1(name: str = "halves-x1") -> Partition:
    """Two atoms split at x1 = 1/2."""
    h = Fraction(1, 2)
    return Partition(
        (
            TorusRectangle(Fraction(0), h, Fraction(0), Fraction(1)),
            TorusRectangle(h, h, Fraction(0), Fraction(1)),
        ),
        name=name,
    )


def partition_halves_x2(name: str = "halves-x2") -> Partition:
    """Two atoms split at x2 = 1/2."""
    h = Fraction(1, 2)
    return Partition(
        (
            TorusRectangle(Fraction(0), Fraction(1), Fraction(0), h),
            TorusRectangle(Fraction(0), Fraction(1), h, h),
        ),
        name=name,
    )


def partition_quadrants(name: str = "quadrants") -> Partition:
    """Four atoms split at 1/2 on both axes, x1-major order."""
    h = Fraction(1, 2)
    z = Fraction(0)
    return Partition(
        (
            TorusRectangle(z, h, z, h),
            TorusRectangle(z, h, h, h),
            TorusRectangle(h, h, z, h),
            TorusRectangle(h, h, h, h),
        ),
        name=name,
    )


def partition_bands_x2(count: int, name: str = "") -> Partition:
    """`count` horizontal bands [j/count, (j+1)/count) in x2, full x1."""
    if count < 1:
        raise ValueError(f"band count must be >= 1, got {count}")
    w = Fraction(1, count)
    atoms = tuple(
        TorusRectangle(Fraction(0), Fraction(1), j * w, w) for j in range(count)
    )
    return Partition(atoms, name=name or f"bands-x2:{count}")


def _snap_boundary(value: Fraction, size: int) -> Fraction:
    """Nearest cell edge (k+1/2)/size, exact midpoints snapping upward."""
    k = (value * size).__floor__()
    return Fraction(2 * k + 1, 2 * size) % 1


def _circle_gap(a: Fraction, b: Fraction) -> Fraction:
    d = abs(a - b) % 1
    return min(d, 1 - d)


def snap_partition(partition: Partition, size: int) -> tuple[Partition, float]:
    """Move every atom boundary to the nearest cell edge of an N x N lattice.

    Returns the snapped partition and the largest boundary displacement
    (at most 1/(2 size)).  A full-span arc has no boundary and stays as it
    is.  Raises ValueError when two distinct boundaries of an atom land on
    the same edge — the lattice cannot resolve the partition.
    """
    max_shift = Fraction(0)
    new_atoms = []
    for rect in partition.atoms:
        spans = {}
        for axis, (start, span) in (
            ("x", (rect.x_start, rect.x_span)),
            ("y", (rect.y_start, rect.y_span)),
        ):
            if span == 1:
                spans[axis] = (start, span)
                continue
            end = (start + span) % 1
            new_start = _snap_boundary(start, size)
            new_end = _snap_boundary(end, size)
            max_shift = max(
                max_shift, _circle_gap(new_start, start), _circle_gap(new_end, end)
            )
            new_span = (new_end - new_start) % 1
            if new_span == 0:
                raise ValueError(
                    "distinct atom boundaries snapped to the same cell edge; "
                    f"a {size} x {size} lattice cannot resolve this partition"
                )
            spans[axis] = (new_start, new_span)
        (xs, xw), (ys, yw) = spans["x"], spans["y"]
        new_atoms.append(TorusRectangle(xs, xw, ys, yw))
    snapped = Partition(tuple(new_atoms), name=partition.name)
    return snapped, float(max_shift)


# ---------------------------------------------------------------------------
# Cell weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CellWeightTable:
    """Per-cell atom overlap weights w(cell, atom) on an N x N lattice.

    Weights factor per axis for rectangular atoms:
    w = x_weights[atom, p1] * y_weights[atom, p2], each factor being size
    times the overlap length of the cell interval with the atom's pieces.
    `aligned` is read off the weights: it holds when every weight is 0 or
    1, that is when every atom boundary lies on a cell edge (k+1/2)/size
    (the start of a full-span arc is no boundary).  `atom_of_cell` then
    maps each flat cell index to its unique atom.
    """

    cfg: LatticeConfig
    atom_count: int
    x_weights: np.ndarray
    y_weights: np.ndarray
    aligned: bool
    atom_of_cell: Optional[np.ndarray]

    def weight_products(self, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        """Stacked weights, shape (len(p1), atom_count)."""
        return self.x_weights[:, p1].T * self.y_weights[:, p2].T


def cell_weights(partition: Partition, cfg: LatticeConfig) -> CellWeightTable:
    size = cfg.size
    d = len(partition)
    arcs = [(atom.x_start, atom.x_span) for atom in partition.atoms]
    arcs += [(atom.y_start, atom.y_span) for atom in partition.atoms]
    num, den = _axis_weights(arcs, size)
    nx, ny = num[:d], num[d:]
    # Aligned: every atom boundary is a cell edge, so no cell is cut.
    aligned = bool(np.all((num == 0) | (num == den)))
    atom_map = None
    if aligned:
        # Each atom covers the product of its full rows and columns; the
        # atoms of a validated Partition tile the torus, so every cell is
        # written exactly once.
        atom_map = np.empty((size, size), dtype=np.uint8)
        for a in range(d):
            for r0, r1 in _cell_runs(nx[a]):
                for c0, c1 in _cell_runs(ny[a]):
                    atom_map[r0:r1, c0:c1] = a
        atom_map = atom_map.ravel()
    return CellWeightTable(
        cfg=cfg,
        atom_count=d,
        x_weights=(nx / den).astype(float),
        y_weights=(ny / den).astype(float),
        aligned=aligned,
        atom_of_cell=atom_map,
    )


def _cell_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of nonzero entries: two for an arc that wraps."""
    cells = np.flatnonzero(row)
    cut = np.flatnonzero(np.diff(cells) != 1) + 1
    return [(int(run[0]), int(run[-1]) + 1) for run in np.split(cells, cut) if run.size]


# ---------------------------------------------------------------------------
# Probability tables
# ---------------------------------------------------------------------------


def _check_word_space(length: int, alphabet: int) -> None:
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    if alphabet < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet}")
    bits = max((alphabet - 1).bit_length(), 1)  # one atom packs no bits, but is still a symbol
    if length * bits > _CODE_BIT_LIMIT:
        raise CapacityExceededError(
            f"words of {length} symbols over {alphabet} atoms pass the {_CODE_BIT_LIMIT}-bit "
            f"codes, which hold {_CODE_BIT_LIMIT // bits}"
        )


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Sparse distribution over packed words of one length.

    `codes` are strictly increasing int64 packed words with positive mass;
    `probs` are their float probabilities.  When the table came from exact
    integer counts those are retained (`counts`, `total`), so the exact
    probability of `codes[i]` is counts[i] / total.
    """

    length: int
    alphabet: int
    codes: np.ndarray
    probs: np.ndarray
    counts: Optional[np.ndarray] = None
    total: Optional[int] = None

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=float)
        if codes.ndim != 1 or probs.shape != codes.shape:
            raise ValueError("codes and probs must be 1-d arrays of equal length")
        if codes.size and np.any(codes[1:] <= codes[:-1]):
            raise ValueError("codes must be strictly increasing")
        if codes.size and (codes[0] < 0 or codes[-1] >= self.alphabet**self.length):
            raise ValueError("codes outside the word space")
        if not math.isclose(float(probs.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        for arr in (codes, probs):
            arr.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "probs", probs)
        if self.counts is not None:
            counts = np.ascontiguousarray(self.counts, dtype=np.int64)
            if counts.shape != codes.shape or self.total is None:
                raise ValueError("counts must match codes and come with a total")
            if int(counts.sum()) != int(self.total):
                raise ValueError("counts do not sum to the stated total")
            counts.flags.writeable = False
            object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, values: np.ndarray, length: int, alphabet: int) -> "ProbabilityTable":
        """Histogram raw packed codes into an exact count-backed table."""
        _check_word_space(length, alphabet)
        values = np.asarray(values, dtype=np.int64).ravel()
        if values.size == 0:
            raise ValueError("cannot build a table from zero samples")
        codes, counts = np.unique(values, return_counts=True)
        return cls(length=length, alphabet=alphabet, codes=codes, probs=counts / values.size,
                   counts=counts, total=values.size)

    @classmethod
    def from_probs(
        cls, codes: np.ndarray, probs: np.ndarray, length: int, alphabet: int
    ) -> "ProbabilityTable":
        _check_word_space(length, alphabet)
        codes = np.asarray(codes, dtype=np.int64)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        probs = np.asarray(probs, dtype=float)[order]
        keep = probs > 0
        return cls(length=length, alphabet=alphabet, codes=codes[keep], probs=probs[keep])

    @property
    def is_exact(self) -> bool:
        return self.counts is not None

    def probability(self, code: int) -> float:
        i = int(np.searchsorted(self.codes, code))
        if i < self.codes.size and self.codes[i] == code:
            return float(self.probs[i])
        return 0.0


def _tally(tally: dict, counts: np.ndarray) -> dict:
    """Add the count-of-counts of `counts` to `tally` (count -> multiplicity)."""
    if counts.size:
        top = int(counts.max())
        if top <= 2 * counts.size:  # a histogram no longer than the counts beats a sort
            hist = np.bincount(counts)
            values = np.flatnonzero(hist)
            multiplicities = hist[values]
        else:
            values, multiplicities = np.unique(counts, return_counts=True)
        for value, m in zip(values.tolist(), multiplicities.tolist()):
            tally[value] = tally.get(value, 0) + m
    return tally


def _entropy_of_counts(tally: dict, total: int) -> float:
    """Entropy in nats of the masses count/total, from the count-of-counts `tally`.

    Each distinct count t with multiplicity m adds m copies of the float
    -p log p, p = t/total; their sum is taken exactly and rounded once, as
    `math.fsum` of all the copies would be.
    """
    values = np.array([t for t in tally if t > 0], dtype=np.int64)
    ratios = [(-p * math.log(p)).as_integer_ratio() for p in (values / total).tolist()]
    # Every denominator is a power of two: sum exactly over the largest one.
    bits = max(den.bit_length() for _, den in ratios) - 1
    exact = sum(
        num * tally[t] << (bits - den.bit_length() + 1)
        for (num, den), t in zip(ratios, values.tolist())
    )
    return exact / (1 << bits)


def shannon_entropy(table: ProbabilityTable) -> float:
    """Shannon entropy in nats.

    Count-backed tables take the canonical exact path: count/total is the
    correctly rounded mass and the sum of -p log p over the count-of-counts
    is correctly rounded, so equal distributions give bit-identical
    entropies at any support size.  Other tables use the vectorized float
    path.
    """
    if table.is_exact:
        return _entropy_of_counts(_tally({}, table.counts), table.total)
    p = table.probs[table.probs > 0]
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Classical (continuous-orbit) word statistics
# ---------------------------------------------------------------------------


def _dyadic_bits(T: Optional[ToralMatrix], xi: float, size: int, length: int) -> int:
    """Bits of the classical sampler's dyadic numerators at lattice side `size`.

    bits = min(53, 64 - bit_length(2N)) keeps 2N a + 2**bits below 2**64.
    Being the lattice orbit at side 2**bits, a sampled orbit stops imitating
    a hyperbolic T, of exponent xi, near n = 2 bits log 2 / xi (72.0 steps of
    the cat map at 50 bits): longer words raise ValueError.
    """
    bits = min(53, 64 - (2 * size).bit_length())
    if xi and length >= 2 * bits * math.log(2) / xi:
        raise ValueError(f"word length {length} reaches the {2 * bits * math.log(2) / xi:.1f}-"
                         f"step horizon of {bits}-bit dyadic orbits of {T}")
    return bits


def _classical_atom_matrix(
    T: Optional[ToralMatrix],
    weights: CellWeightTable,
    length: int,
    samples: int,
    seed,
) -> np.ndarray:
    """uint8 matrix (length, samples): atom of T**k(x) for random x, exactly.

    x = a / 2**bits, the leading bits of the draws x1 then x2 (multiples of
    2**-53) as uint64 numerators a, so T x = (T a mod 2**bits) / 2**bits
    (Percival and Vivaldi, Physica D 25, 1987) is `_step` mod 2**bits.  With
    the aligned `weights` of a partition snapped to N x N, x lies in the atom
    of cell ((2N a + 2**bits) >> (bits + 1)) mod N (`_dyadic_bits` gives
    bits, and refuses words past the dyadic horizon).
    """
    size = weights.cfg.size
    bits = _dyadic_bits(T, classify(T).xi if T is not None else 0.0, size, length)
    rng = np.random.default_rng(seed)
    a1 = (rng.random(samples) * 2.0**53).astype(np.uint64) >> (53 - bits)
    a2 = (rng.random(samples) * 2.0**53).astype(np.uint64) >> (53 - bits)
    # Cell index N is cell 0 past the seam: the table repeats row and column 0.
    table = np.pad(weights.atom_of_cell.reshape(size, size), (0, 1), mode="wrap").ravel()
    one = matrix_power_mod(T, 1, 1 << bits) if T is not None else None
    out = np.empty((length, samples), dtype=np.uint8)
    b1, b2, cell, idx = (np.empty_like(a1) for _ in range(4))  # every step works in place
    for k in range(length):
        if k and one is None:
            out[k:] = out[0]
            break
        if k:
            _step(one, a1, a2, 1 << bits, out=(b1, b2))
            a1, a2, b1, b2 = b1, b2, a1, a2  # the old state is the next step's buffer
        for a, c in ((a1, idx), (a2, cell)):
            np.multiply(a, 2 * size, out=c)
            c += 1 << bits
            c >>= bits + 1
        idx *= size + 1
        idx += cell
        np.take(table, idx.view(np.int64), out=out[k], mode="clip")  # every index is in range
    return out


# Entries per block of the counter's passes over the walks: the temporaries stay small.
_BLOCK = 1 << 14


def _common_prefixes(codes: np.ndarray, alphabet: int, length: int) -> np.ndarray:
    """Leading symbols each sorted walk code shares with the one before it.

    A -1 stands before the first code and after the last one, so the runs
    of words of every length end where their successors start.

    `codes` hold `length` fields of b bits, b = ceil(log2 alphabet).  When
    the XOR x of two neighbours has bit length t, they share their leading
    length - 1 - (t - 1) // b fields: all `length` when they are equal (t =
    0).  After x &= ~(x >> 1) no two adjacent bits of x are set, so its
    float cannot round up to the next power of two, and the float exponent
    is t exactly, at any bit length up to 62.  Worked in blocks, so the
    temporaries stay small.
    """
    shared = np.full(codes.size + 1, -1, dtype=np.min_scalar_type(-length))
    t = np.arange(_CODE_BIT_LIMIT + 1)  # the bit length of a XOR, and the fields shared below
    fields = (length - 1 - (t - 1) // max((alphabet - 1).bit_length(), 1)).astype(shared.dtype)
    for start in range(1, codes.size, _BLOCK):
        later = codes[start:start + _BLOCK]
        x = later ^ codes[start - 1:start - 1 + later.size]
        x &= ~(x >> 1)
        np.take(fields, np.frexp(x)[1], out=shared[start:start + x.size], mode="clip")
    return shared


@dataclass(frozen=True, eq=False)
class _Words:
    """The words of one length among a sorted array of whole-walk codes.

    The length-n words are the codes' n-field prefixes; equal words are one
    run of the sorted array, and a run starts wherever `shared`, the
    prefix array of `_common_prefixes`, falls below n.  The counter fills
    in `support` and `entropy`; the run bounds, and the codes and counts
    read off them, are built only when something reads them (the Fannes
    audit): the runs start at `bounds[:-1]`, and `bounds[-1]` is the total.
    """

    length: int
    alphabet: int
    support: int
    entropy: float
    shared: np.ndarray
    sorted_codes: np.ndarray
    shift: int  # bits of the walk code past the length-n prefix

    @property
    def total(self) -> int:
        return self.sorted_codes.size

    @cached_property
    def bounds(self) -> np.ndarray:
        return np.flatnonzero(self.shared < self.length)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)

    @cached_property
    def codes(self) -> np.ndarray:
        """The distinct words, in the walk packing, increasing."""
        codes = self.sorted_codes[self.bounds[:-1]]
        codes >>= self.shift
        return codes


def _scan(shared: np.ndarray, test, count: int) -> np.ndarray:
    """The `count` positions of `shared` where `test` holds, found block by block."""
    found = np.empty(count, dtype=_index_dtype(shared.size))
    filled = 0
    for start in range(0, shared.size, _BLOCK):
        hits = np.flatnonzero(test(shared[start:start + _BLOCK]))
        found[filled:filled + hits.size] = hits + start
        filled += hits.size
    return found


def _bound_tally(bounds: np.ndarray) -> dict:
    """Count-of-counts of the runs between consecutive `bounds`."""
    tally = {}
    for start in range(0, bounds.size - 1, _BLOCK):
        _tally(tally, np.diff(bounds[start:start + _BLOCK + 1]))
    return tally


def _continuation_tally(cont: np.ndarray, support: int) -> dict:
    """Count-of-counts of `support` runs, `cont` the walks that continue a run.

    A block of g consecutive positions in `cont` is one run of g + 1 walks;
    every other run is a single walk.
    """
    tally = {}
    first = 0  # where the open block starts in `cont`
    for start in range(1, cont.size, _BLOCK):
        breaks = np.flatnonzero(np.diff(cont[start - 1:start + _BLOCK]) != 1) + start
        if breaks.size:
            _tally(tally, np.diff(breaks, prepend=first) + 1)
            first = int(breaks[-1])
    if cont.size:
        last = cont.size - first + 1
        tally[last] = tally.get(last, 0) + 1
    singles = support - sum(tally.values())
    if singles:
        tally[1] = singles
    return tally


def _walk_codes(chunks, alphabet: int) -> tuple[np.ndarray, int]:
    """Every walk's int64 code and the walk length, from (digits, width) chunks
    of consecutive steps, each holding every walk's `width` symbols in fields of
    b = ceil(log2 alphabet) bits, oldest most significant, as the codes do."""
    bits = (alphabet - 1).bit_length()
    codes, length = None, 0
    for digits, width in chunks:
        if codes is None:
            codes = digits.astype(np.int64)
        else:
            codes <<= bits * width
            codes |= digits
        length += width
    return codes, length


def _word_runs(chunks, alphabet: int):
    """The word counter: the words of every length of a set of walks, from one sort.

    Packs each walk's L steps, handed over in chunks, into one code
    (`_walk_codes`), sorts the codes once, finds their common prefixes and
    yields the `_Words` of lengths 1..L in turn.

    Every length's support is read off one histogram of the prefix array,
    and each length's entropy is counted from the smaller side, so no
    length holds an array of the walks' size:

    * Lengths whose support is at most half the walks take their run
      bounds from one scan at the longest of them, B_n = {j: shared[j] <
      n}, and filter them down, B_{n-1} = B_n[shared[B_n] < n - 1].
    * Longer lengths take the walks that continue a run, C_n = {j:
      shared[j] >= n}, from one scan at the shortest of them and filter
      them up, C_{n+1} = C_n[shared[C_n] >= n + 1].  Once C_n is empty
      every walk has a word of its own, and no longer length is counted.

    Both give each length the same count-of-counts as its run bounds.
    """
    codes, length = _walk_codes(chunks, alphabet)
    codes.sort()
    shared = _common_prefixes(codes, alphabet, length)
    total = codes.size
    pairs = np.zeros(length + 1, dtype=np.int64)  # neighbours by shared prefix length
    for start in range(1, total, _BLOCK):
        pairs += np.bincount(shared[start:min(start + _BLOCK, total)], minlength=length + 1)
    supports = (1 + np.cumsum(pairs[:length])).tolist()  # length n at n - 1
    cut = sum(2 * support <= total for support in supports)  # lengths 1..cut are short
    entropies = [0.0] * length
    if cut:
        bounds = _scan(shared, lambda block: block < cut, supports[cut - 1] + 1)
        for n in range(cut, 0, -1):
            if n < cut:
                bounds = bounds[shared[bounds] < n]
            entropies[n - 1] = _entropy_of_counts(_bound_tally(bounds), total)
    if cut < length:
        cont = _scan(shared, lambda block: block > cut, total - supports[cut])
        for n in range(cut + 1, length + 1):
            if n > cut + 1:
                cont = cont[shared[cont] >= n]
            entropies[n - 1] = _entropy_of_counts(_continuation_tally(cont, supports[n - 1]), total)
            if not cont.size:  # separated: longer words refine nothing
                entropies[n:] = entropies[n - 1:n] * (length - n)
                break
    for n in range(1, length + 1):
        yield _Words(n, alphabet, supports[n - 1], entropies[n - 1], shared, codes,
                     (alphabet - 1).bit_length() * (length - n))


# ---------------------------------------------------------------------------
# Lattice (coherent-state) word statistics
# ---------------------------------------------------------------------------


def _orbit_atoms(T: Optional[ToralMatrix], weights: CellWeightTable, length: int, capacity: int):
    """Atoms of every lattice point's orbit cells at steps 0..length-1 (aligned).

    Returns an iterator over the walk in chunks of c = min(8, 8 // b) steps,
    b = ceil(log2 D) bits a symbol for D atoms, as (digits, width) pairs for
    `_word_runs`: `digits` is a uint8 array holding every point's atoms of
    its chunk's cells in fields of b bits, oldest step most significant.
    The step-k atom of p is the step-(k-1) atom of U p, so the first chunk
    takes c-1 gathers of the atoms on the permutation table of U, one field
    each; each later chunk is the previous one gathered on the table of
    U**c, and a last chunk of r < c steps keeps the leading r fields of a
    full one.  The powers of T mod N are taken in this call; the tables are
    built and gathered as the chunks are drawn, which calls no public
    function, so the walk can run on another thread.
    """
    bits = (weights.atom_count - 1).bit_length()
    width = min(length, 8 // max(bits, 1))
    cfg = weights.cfg
    one = matrix_power_mod(T, 1, cfg.size) if T is not None and width > 1 else None
    leap = matrix_power_mod(T, width, cfg.size) if T is not None and length > width else None

    def chunks():
        forward = _permutation(one, cfg, capacity) if one is not None else None
        symbols = weights.atom_of_cell
        digits = symbols.copy()
        for _ in range(1, width):
            symbols = symbols[forward] if forward is not None else symbols
            digits <<= bits
            digits |= symbols
        forward = symbols = None  # freed first: the two tables are never held at once
        if leap is not None:
            forward = _permutation(leap, cfg, capacity)
        for start in range(0, length, width):
            if start:
                digits = digits[forward] if forward is not None else digits
            steps = min(width, length - start)
            yield (digits if steps == width else digits >> bits * (width - steps)), steps

    return chunks()


def _checked_weights(
    cfg: LatticeConfig,
    partition: Partition,
    capacity: int,
    weights: Optional[CellWeightTable],
) -> CellWeightTable:
    """The partition's cell weights on cfg, refusing lattices above `capacity`."""
    if cfg.points > capacity:
        raise CapacityExceededError(
            f"lattice with {cfg.points} points exceeds capacity {capacity}"
        )
    if weights is None:
        return cell_weights(partition, cfg)
    if weights.cfg != cfg:
        raise ValueError("weight table belongs to a different lattice")
    return weights


def cs_probabilities(
    T: Optional[ToralMatrix],
    cfg: LatticeConfig,
    partition: Partition,
    length: int,
    capacity: int = DEFAULT_CAPACITY,
    weights: Optional[CellWeightTable] = None,
) -> ProbabilityTable:
    """Lattice word distribution for coherent-state style repeated readout.

    The probability of a word is the lattice average, over starting cells,
    of the product over steps k of the overlap weight between the step-k
    cell of the discrete orbit and the word's step-k atom.  T None means
    identity dynamics (the orbit never moves).

    Aligned partitions (`weights.aligned`: every cell weight 0 or 1, so
    every boundary is on a cell edge) reduce to exact orbit-word counting;
    the table then carries integer counts out of size**2.  Unaligned
    partitions take a sparse counter of (cell, code, mass) entries, one per
    lattice point at first.  Step k splits each entry over the atoms of
    positive weight in its cell (a CSR table of `weight_products`),
    multiplies its mass by that weight, adds the atom at significance d**k
    and moves the cell by one gather on the permutation table.  Equal codes
    merge at the end, each word's mass summed over the start points in
    order.  A step of more than `capacity` entries raises
    CapacityExceededError.
    """
    _check_word_space(length, len(partition))
    weights = _checked_weights(cfg, partition, capacity, weights)
    d = len(partition)
    if weights.aligned:
        walks, counts = np.unique(_walk_codes(_orbit_atoms(T, weights, length, capacity), d)[0],
                                  return_counts=True)
        # Reverse the bit fields into the table packing, step k at d**k.
        bits = (d - 1).bit_length()
        codes = np.zeros_like(walks)
        for _ in range(length):
            codes = codes * d + (walks & (1 << bits) - 1)
            walks >>= bits
        order = np.argsort(codes)
        counts = counts[order]
        return ProbabilityTable(length=length, alphabet=d, codes=codes[order],
                                probs=counts / cfg.points, counts=counts, total=cfg.points)
    forward = (_permutation(matrix_power_mod(T, 1, cfg.size), cfg, capacity)
               if T is not None and length > 1 else None)
    w = weights.weight_products(*np.divmod(np.arange(cfg.points), cfg.size))
    cell_of, atom_of = np.nonzero(w)  # by cell, then atom: the CSR rows
    weight_of = w[cell_of, atom_of]
    fan = np.bincount(cell_of, minlength=cfg.points)
    row_start = np.cumsum(fan) - fan
    cells = np.arange(cfg.points)
    codes = np.zeros(cfg.points, dtype=np.int64)
    mass = np.ones(cfg.points)
    for k in range(length):
        split = fan[cells]
        entries = int(split.sum())
        if entries > capacity:
            raise CapacityExceededError(
                f"unaligned words of {k + 1} steps take {entries} entries, "
                f"above the configured capacity {capacity}"
            )
        # Entry i's pieces take the CSR slots row_start[cell_i] + 0..split_i-1.
        slots = np.repeat(row_start[cells] - (np.cumsum(split) - split), split)
        slots += np.arange(entries)
        codes = np.repeat(codes, split)
        codes += atom_of[slots] * d**k
        mass = weight_of[slots] * np.repeat(mass, split)
        cells = np.repeat(cells, split)
        if forward is not None and k + 1 < length:
            cells = forward[cells]
    codes, word = np.unique(codes, return_inverse=True)
    probs = np.bincount(word, weights=mass) / cfg.points
    return ProbabilityTable(length=length, alphabet=d, codes=codes, probs=probs)


def cs_entropy(
    T: Optional[ToralMatrix],
    cfg: LatticeConfig,
    partition: Partition,
    length: int,
    **kwargs,
) -> float:
    return shannon_entropy(cs_probabilities(T, cfg, partition, length, **kwargs))


def cs_entropies(
    T: Optional[ToralMatrix],
    cfg: LatticeConfig,
    partition: Partition,
    n_max: int,
    capacity: int = DEFAULT_CAPACITY,
) -> list[float]:
    """Lattice word entropies S_1..S_n_max of an aligned partition, one orbit pass.

    Bit for bit `cs_entropy` at each length; raises AlignmentRequiredError
    for an unaligned partition (snap it to the lattice first).  Counting
    stops once the words separate all N**2 points: longer words refine them.
    """
    d = len(partition)
    _check_word_space(n_max, d)
    weights = _checked_weights(cfg, partition, capacity, None)
    if not weights.aligned:
        raise AlignmentRequiredError("one-pass lattice entropies need an aligned partition")
    return [words.entropy for words in _word_runs(_orbit_atoms(T, weights, n_max, capacity), d)]


# ---------------------------------------------------------------------------
# Side-by-side entropy production
# ---------------------------------------------------------------------------


def _union_slots(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where two strictly increasing code arrays land in their sorted union.

    Returns a bool mask over the union, true at the codes of a, and the
    union position of each code of b.  A linear merge: a code of b sits
    after the codes of a below it and the b-only codes before it; the codes
    of a fill, in order, every slot that no b-only code takes.
    """
    below = np.searchsorted(a, b)
    shared = a[np.minimum(below, a.size - 1)] == b
    b_only = ~shared
    b_pos = below + np.cumsum(b_only) - b_only
    a_slot = np.ones(a.size + b.size - int(shared.sum()), dtype=bool)
    a_slot[b_pos[b_only]] = False
    return a_slot, b_pos


def _probs_on_union(a: ProbabilityTable, b: ProbabilityTable) -> tuple[np.ndarray, np.ndarray]:
    """Both tables' probabilities on their sorted union support."""
    a_slot, b_pos = _union_slots(a.codes, b.codes)
    pa = np.zeros(a_slot.size)
    pb = np.zeros(a_slot.size)
    pa[a_slot] = a.probs
    pb[b_pos] = b.probs
    return pa, pb


def _fannes_eta(x: float) -> float:
    """-x log x extended flat beyond its maximum at 1/e (still an upper bound)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0 / math.e:
        return 1.0 / math.e
    return -x * math.log(x)


def _continuity_bound(diff: np.ndarray, length: int, alphabet: int) -> tuple[float, float]:
    """(delta, bound) of the differences |a - b| of two word distributions.

    delta is their sum, and bound = delta * n log D + eta(delta) for words of
    length n over D atoms.
    """
    delta = float(diff.sum())
    return delta, delta * length * math.log(alphabet) + _fannes_eta(delta)


def fannes_bound(a: ProbabilityTable, b: ProbabilityTable) -> tuple[float, float]:
    """Total-variation continuity bound on the entropy difference.

    Returns (delta, bound) with delta the l1 distance between the tables
    and bound = delta * log(word space) + eta(delta); |S(a) - S(b)| never
    exceeds it.  Tables must share word length and alphabet.
    """
    if a.length != b.length or a.alphabet != b.alphabet:
        raise DimensionMismatchError(
            f"tables describe different word spaces: "
            f"({a.alphabet}**{a.length}) vs ({b.alphabet}**{b.length})"
        )
    diff, pb = _probs_on_union(a, b)
    diff -= pb
    delta, bound = _continuity_bound(np.abs(diff, out=diff), a.length, a.alphabet)
    gap = abs(shannon_entropy(a) - shannon_entropy(b))
    if gap > bound + 1e-9:
        raise AssertionError(
            f"entropy gap {gap} exceeds its continuity bound {bound}"
        )
    return delta, bound


def _fannes_audit(cs: Sequence[_Words], ks: Sequence[_Words]) -> list[tuple[float, float]]:
    """eps_hat and the Fannes margin (bound less entropy gap) of lengths 1..m.

    `cs` and `ks` are the lattice and the classical words of lengths 1..m.
    Both sides' length-m words are merged once, each carrying its counts,
    and `_common_prefixes` over the union gives the run bounds of every
    shorter length, filtered down as in `_word_runs`.  A length's counts
    are differences of the prefix sums of the length-m counts at its
    bounds, so its array |c_cs/N**2 - c_ks/S| holds, in order, the floats
    that a merge of that length's own words gives.
    """
    m = len(cs)
    top_cs, top_ks = cs[-1], ks[-1]
    a_slot, b_pos = _union_slots(top_cs.codes, top_ks.codes)
    codes = np.empty(a_slot.size, dtype=np.int64)
    codes[a_slot] = top_cs.codes
    codes[b_pos] = top_ks.codes
    sums = []  # each side's counts summed over the union words before each position
    for words, slots in ((top_cs, a_slot), (top_ks, b_pos)):
        cum = np.zeros(a_slot.size + 1, dtype=np.int64)
        cum[1:][slots] = words.counts
        sums.append(np.cumsum(cum, out=cum))
    shared = _common_prefixes(codes, top_cs.alphabet, m)
    bounds = np.arange(codes.size + 1)  # the union's length-m words are distinct
    audits = []
    for n in range(m, 0, -1):
        if n < m:
            bounds = bounds[shared[bounds] < n]
        diff = np.diff(sums[0][bounds]) / top_cs.total
        diff -= np.diff(sums[1][bounds]) / top_ks.total
        np.abs(diff, out=diff)
        _, bound = _continuity_bound(diff, n, top_cs.alphabet)
        audits.append((float(diff.max()), bound - abs(cs[n - 1].entropy - ks[n - 1].entropy)))
    return audits[::-1]


@dataclass(frozen=True)
class EntropyComparison:
    """Lattice vs classical entropy production across lattice sizes."""

    matrix: Optional[tuple[int, int, int, int]]
    family: str
    classical_rate: float
    partition_name: str
    alphabet: int
    n_max: int
    sizes: tuple[int, ...]
    samples: int
    seed: int
    snap_shifts: tuple[float, ...]
    s_cs: np.ndarray  # (len(sizes), n_max + 1), column 0 = 0
    s_ks: np.ndarray
    cs_increments: np.ndarray  # (len(sizes), n_max)
    ks_increments: np.ndarray
    gaps: np.ndarray  # s_ks - s_cs, matching s_cs shape
    eps_hat: np.ndarray  # (len(sizes), n_max) sup |P_cs - P_ks|
    breaking: tuple[Optional[int], ...]
    slope: Optional[float]
    intercept: Optional[float]
    fannes_checked: int
    fannes_violations: int
    fannes_min_margin: float

    def as_dict(self) -> dict:
        return {
            "matrix": list(self.matrix) if self.matrix is not None else None,
            "family": self.family,
            "classical_rate": self.classical_rate,
            "partition": self.partition_name,
            "alphabet": self.alphabet,
            "n_max": self.n_max,
            "sizes": list(self.sizes),
            "samples": self.samples,
            "seed": self.seed,
            "snap_shifts": list(self.snap_shifts),
            "s_cs": self.s_cs.tolist(),
            "s_ks": self.s_ks.tolist(),
            "cs_increments": self.cs_increments.tolist(),
            "ks_increments": self.ks_increments.tolist(),
            "gaps": self.gaps.tolist(),
            "eps_hat": [
                [v if math.isfinite(v) else None for v in row]
                for row in self.eps_hat.tolist()
            ],
            "breaking": list(self.breaking),
            "slope": self.slope,
            "intercept": self.intercept,
            "fannes_checked": self.fannes_checked,
            "fannes_violations": self.fannes_violations,
            "fannes_min_margin": self.fannes_min_margin,
        }


def compare_entropy_production(
    T: Optional[ToralMatrix],
    partition: Partition,
    n_max: int,
    sizes: Sequence[int],
    samples: int,
    seed: int,
    break_increment_fraction: float = 0.5,
    abs_gap_threshold: float = 0.05,
    capacity: int = DEFAULT_CAPACITY,
) -> EntropyComparison:
    """Run the lattice/classical entropy comparison over a ladder of sizes.

    For each lattice size the partition is snapped to the cell edges, the
    lattice word entropies of every length are read off one sorted pass of
    the discrete orbit, and the classical side is estimated by Monte Carlo
    with an independent child seed per size, its words sorted once too.

    Breaking time at a size is the first word length where lattice entropy
    production visibly stalls.  For hyperbolic maps the per-step lattice
    increment is compared against the exact classical rate (the Lyapunov
    exponent): breaking is the first n >= 2 with increment below
    `break_increment_fraction` times that rate.  The Monte Carlo estimate
    is deliberately not the reference there — its word entropy saturates at
    log(samples), well before the lattice stall near 2 log(size)/rate.
    Non-hyperbolic families (rate zero) fall back to |S_ks - S_cs| >
    `abs_gap_threshold`.  A least-squares line of breaking time against
    log(size) is fitted when at least two distinct sizes break.

    Each (size, length) pair whose combined table support stays within
    2**20 words (`_AUDIT_SUPPORT_CAP`) also gets a pointwise
    sup-difference (`eps_hat`) and a total-variation entropy continuity
    check; larger pairs record NaN and are skipped (the entropy and
    breaking outputs never depend on these diagnostics).  The audited
    lengths of a size are audited together, from one merge of both sides'
    longest audited words.

    The sample count is checked, and every size snapped, weighted and
    checked against the sampler's dyadic horizon, before any lattice walk
    starts.  Then each size's lattice side (permutation tables, walk and
    word counter) is queued as one task on a helper thread, while this
    thread samples and counts each size's classical words in turn, takes
    that size's lattice words and audits them.  The helper calls no public
    function, and each size's outputs are computed from the same words as
    in a serial run, so they are bit-identical to one.  A lattice task
    that raises stops the call at its size, any error cancels the tasks
    not yet started, and the thread ends with the call.
    """
    _check_word_space(n_max, len(partition))
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ValueError("need at least one lattice size")
    if T is not None:
        data = classify(T)
        family = data.family.value
        rate = data.xi if data.family is Family.HYPERBOLIC else 0.0
    else:
        family = "identity"
        rate = 0.0
    hyperbolic = rate > 0.0
    d = len(partition)
    n_sizes = len(sizes)
    s_cs = np.zeros((n_sizes, n_max + 1))
    s_ks = np.zeros((n_sizes, n_max + 1))
    eps_hat = np.zeros((n_sizes, n_max))
    snap_shifts = []
    ladder = []  # each size's weights, all checked before any walk starts
    for size in sizes:
        cfg = LatticeConfig(size)
        snapped, shift = snap_partition(partition, size)
        snap_shifts.append(shift)
        ladder.append(_checked_weights(cfg, snapped, capacity, None))
        _dyadic_bits(T, rate, size, n_max)
    breaking: list[Optional[int]] = []
    margins = []
    children = np.random.SeedSequence(seed).spawn(n_sizes)
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        lattice = [helper.submit(list, _word_runs(_orbit_atoms(T, weights, n_max, capacity), d))
                   for weights in ladder]
        for i, weights in enumerate(ladder):
            atoms_mc = _classical_atom_matrix(T, weights, n_max, samples, children[i])
            ks_words = list(_word_runs(((symbols, 1) for symbols in atoms_mc), d))
            del atoms_mc
            cs_words = lattice[i].result()
            lattice[i] = None  # a future keeps its result: free each walk once read
            brk: Optional[int] = None
            for n, (cs, ks) in enumerate(zip(cs_words, ks_words), 1):
                s_cs[i, n] = cs.entropy
                s_ks[i, n] = ks.entropy
                if brk is None:
                    if hyperbolic:
                        if n >= 2 and s_cs[i, n] - s_cs[i, n - 1] < break_increment_fraction * rate:
                            brk = n
                    elif abs(s_ks[i, n] - s_cs[i, n]) > abs_gap_threshold:
                        brk = n
            breaking.append(brk)
            # Supports grow with the length, so the audited lengths are 1..m.
            m = sum(cs.support + ks.support <= _AUDIT_SUPPORT_CAP
                    for cs, ks in zip(cs_words, ks_words))
            eps_hat[i, m:] = math.nan
            if m:
                for k, (eps, margin) in enumerate(_fannes_audit(cs_words[:m], ks_words[:m])):
                    eps_hat[i, k] = eps
                    margins.append(margin)
    finally:
        helper.shutdown(cancel_futures=True)  # an error leaves queued walks unstarted
    cs_inc = s_cs[:, 1:] - s_cs[:, :-1]
    ks_inc = s_ks[:, 1:] - s_ks[:, :-1]
    valid = [(math.log(sz), b) for sz, b in zip(sizes, breaking) if b is not None]
    slope = intercept = None
    if len({x for x, _ in valid}) >= 2:  # a repeated size alone leaves the line undetermined
        xs = np.array([v[0] for v in valid])
        ys = np.array([float(v[1]) for v in valid])
        coef = np.polyfit(xs, ys, 1)
        slope, intercept = float(coef[0]), float(coef[1])
    return EntropyComparison(
        matrix=T.entries if T is not None else None,
        family=family,
        classical_rate=rate,
        partition_name=partition.name,
        alphabet=d,
        n_max=n_max,
        sizes=sizes,
        samples=samples,
        seed=seed,
        snap_shifts=tuple(snap_shifts),
        s_cs=s_cs,
        s_ks=s_ks,
        cs_increments=cs_inc,
        ks_increments=ks_inc,
        gaps=s_ks - s_cs,
        eps_hat=eps_hat,
        breaking=tuple(breaking),
        slope=slope,
        intercept=intercept,
        fannes_checked=len(margins),
        fannes_violations=sum(margin < 0 for margin in margins),
        fannes_min_margin=min(margins, default=math.inf),
    )
