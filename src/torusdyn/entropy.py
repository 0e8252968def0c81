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
* The word counter (`_word_runs`): a walk of L steps stores its step-k
  symbol at D**(L-1-k), oldest symbol most significant, so one sort of the
  whole words orders every length at once; the length-n word is the code's
  n-digit prefix, code // D**(L-n).  The tables it hands out (the Fannes
  audit's) keep this packing, sum_k symbol_k * D**(n-1-k).  The lattice
  walk (`_orbit_atoms`) hands it c steps at a time in one byte, c the
  largest with D**c <= 256, in the same order: a chunk's digits are the
  next c digits of the whole-walk code.

Either way lattice and classical tables of the same length built the same
way are directly comparable code by code.
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
    DEFAULT_CAPACITY, CapacityExceededError, LatticeConfig, build_permutation, matrix_power_mod,
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

# Largest word space (alphabet**length) of the dense unaligned recursion.
_UNALIGNED_CAP = 4096
_MAX_ATOMS = 255
_CODE_BIT_LIMIT = 62


class AlignmentRequiredError(ValueError):
    """The requested word space is too large for unaligned cell weights."""


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
        # Each atom covers the product of its full rows and columns; every
        # cell must be covered exactly once.
        atom_map = np.empty((size, size), dtype=np.uint8)
        hits = np.zeros((size, size), dtype=np.uint8)
        for a in range(d):
            for r0, r1 in _cell_runs(nx[a]):
                for c0, c1 in _cell_runs(ny[a]):
                    atom_map[r0:r1, c0:c1] = a
                    hits[r0:r1, c0:c1] += 1
        bad = np.flatnonzero(hits != 1)
        if bad.size:
            p1, p2 = divmod(int(bad[0]), size)
            raise AssertionError(
                f"aligned cell ({p1},{p2}) lies in {hits[p1, p2]} atoms"
            )
        atom_map = atom_map.ravel()
    else:
        # Exact sanity check on a few cells.
        for p1 in (0, size // 2, size - 1):
            for p2 in (0, size // 2, size - 1):
                total = sum(int(nx[a, p1]) * int(ny[a, p2]) for a in range(d))
                if total != den * den:
                    raise AssertionError(
                        f"cell ({p1},{p2}) atom weights sum to "
                        f"{Fraction(total, den * den)}, expected 1"
                    )
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
    if length * math.log2(alphabet) > _CODE_BIT_LIMIT:
        raise CapacityExceededError(
            f"word space {alphabet}**{length} exceeds 64-bit code capacity"
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
        space = alphabet**length
        # A dense histogram costs O(space); past values.size sorting is cheaper.
        if space <= values.size:
            dense = np.bincount(values, minlength=space)
            codes = np.flatnonzero(dense).astype(np.int64)
            counts = dense[codes]
        else:
            codes, counts = np.unique(values, return_counts=True)
        total = int(values.size)
        return cls(
            length=length,
            alphabet=alphabet,
            codes=codes,
            probs=counts / total,
            counts=counts.astype(np.int64),
            total=total,
        )

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


def _entropy_of_counts(counts: np.ndarray, total: int) -> float:
    """Entropy in nats of the masses counts/total, a function of the count-of-counts.

    Each distinct count t with multiplicity m adds m copies of the float
    -p log p, p = t/total; their sum is taken exactly and rounded once, as
    `math.fsum` of all the copies would be.
    """
    top = int(counts.max())
    if top <= 2 * counts.size:  # a histogram no longer than the counts beats a sort
        hist = np.bincount(counts)
        values = np.flatnonzero(hist)
        multiplicities = hist[values]
    else:
        values, multiplicities = np.unique(counts, return_counts=True)
    keep = values > 0
    ratios = [
        (-p * math.log(p)).as_integer_ratio()
        for p in (values[keep] / total).tolist()
    ]
    # Every denominator is a power of two: sum exactly over the largest one.
    bits = max(den.bit_length() for _, den in ratios) - 1
    exact = sum(
        num * m << (bits - den.bit_length() + 1)
        for (num, den), m in zip(ratios, multiplicities[keep].tolist())
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
        return _entropy_of_counts(table.counts, table.total)
    p = table.probs[table.probs > 0]
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Classical (continuous-orbit) word statistics
# ---------------------------------------------------------------------------


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
    of cell ((2N a + 2**bits) >> (bits + 1)) mod N, where bits = min(53, 64 -
    bit_length(2N)) keeps 2N a + 2**bits below 2**64.  Being the lattice
    orbit at side 2**bits, it stops imitating a hyperbolic T near n = 2 bits
    log 2 / xi (72.0 steps of the cat map at 50 bits): longer words raise
    ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    size = weights.cfg.size
    bits = min(53, 64 - (2 * size).bit_length())
    xi = classify(T).xi if T is not None else 0.0
    if xi and length >= 2 * bits * math.log(2) / xi:
        raise ValueError(f"word length {length} reaches the {2 * bits * math.log(2) / xi:.1f}-"
                         f"step horizon of {bits}-bit dyadic orbits of {T}")
    rng = np.random.default_rng(seed)
    a1 = (rng.random(samples) * 2.0**53).astype(np.uint64) >> (53 - bits)
    a2 = (rng.random(samples) * 2.0**53).astype(np.uint64) >> (53 - bits)
    # Cell index N is cell 0 past the seam: the table repeats row and column 0.
    table = np.pad(weights.atom_of_cell.reshape(size, size), (0, 1), mode="wrap").ravel()
    one = matrix_power_mod(T, 1, 1 << bits) if T is not None else None
    out = np.empty((length, samples), dtype=np.uint8)
    for k in range(length):
        if k and one is None:
            out[k:] = out[0]
            break
        if k:
            a1, a2 = _step(one, a1, a2, 1 << bits)
        c1, c2 = ((2 * size * a + (1 << bits)) >> (bits + 1) for a in (a1, a2))
        out[k] = table[(c1 * (size + 1) + c2).view(np.int64)]
    return out


_PREFIX_BLOCK = 1 << 16


def _common_prefixes(codes: np.ndarray, alphabet: int, length: int) -> np.ndarray:
    """Leading digits each sorted code shares with the one before it.

    A -1 stands before the first code and after the last one, so the runs
    of words of every length end where their successors start.

    `codes` hold `length` base-`alphabet` digits.  Neighbours a < b first
    differ at digit p (counted from the least significant), the largest m
    with a multiple of alphabet**m in (a, b], i.e. with b mod alphabet**m <
    b - a.  So p is at least e = floor(log(b - a)) (base alphabet), and it
    passes e only when a multiple of alphabet**(e+1) lies in (a, b]: p is
    then that multiple's count of trailing zero digits.  Worked in blocks,
    so the temporaries stay small.
    """
    shared = np.full(codes.size + 1, length, dtype=np.min_scalar_type(-length))
    shared[[0, -1]] = -1
    if codes[0] == codes[-1]:  # always so with one atom, where log base 1 fails
        return shared
    powers = alphabet ** np.arange(length + 1, dtype=np.int64)
    scale = 1 / math.log(alphabet)
    for start in range(1, codes.size, _PREFIX_BLOCK):
        later = codes[start:start + _PREFIX_BLOCK]
        gap = later - codes[start - 1:start - 1 + later.size]
        moved = np.flatnonzero(gap)  # equal neighbours share every digit
        later, gap = later[moved], gap[moved]
        # The float estimate is e or e + 1; the power it names decides which.
        top = (np.log(gap) * scale + 1e-9).astype(np.intp)
        top -= powers[top] > gap
        above, rest = np.divmod(later, powers[top + 1])
        carried = np.flatnonzero(rest < gap)
        top[carried] += 1
        multiple = above[carried]  # that multiple over alphabet**(e+1)
        while carried.size:
            more = multiple % alphabet == 0
            carried, multiple = carried[more], multiple[more] // alphabet
            top[carried] += 1
        shared[start + moved] = length - 1 - top
    return shared


@dataclass(frozen=True, eq=False)
class _Words:
    """The words of one length among a sorted array of whole-walk codes.

    The length-n words are the codes' n-digit prefixes; equal words are one
    run of the sorted array.  The runs start at `bounds[:-1]`, and
    `bounds[-1]` is the total.  Their counts are worked out on demand, so
    that a length's words hold one array of the walks' size, not two.
    """

    length: int
    alphabet: int
    bounds: np.ndarray
    entropy: float
    sorted_codes: np.ndarray
    scale: int  # alphabet ** (walk length - length)

    @property
    def total(self) -> int:
        return self.sorted_codes.size

    @property
    def support(self) -> int:
        return self.bounds.size - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)

    @property
    def codes(self) -> np.ndarray:
        """The distinct words, oldest symbol most significant, increasing."""
        codes = self.sorted_codes[self.bounds[:-1]]
        codes //= self.scale
        return codes

    def table(self) -> ProbabilityTable:
        counts = self.counts
        return ProbabilityTable(
            length=self.length,
            alphabet=self.alphabet,
            codes=self.codes,
            probs=counts / self.total,
            counts=counts,
            total=self.total,
        )


def _word_runs(chunks, alphabet: int):
    """The word counter: the words of every length of a set of walks, from one sort.

    Takes the walks in chunks of consecutive steps, one (digits, width)
    pair per chunk: `digits` holds every walk's `width` symbols of the
    chunk as one base-`alphabet` number, oldest symbol most significant.
    It packs each walk's L symbols into one int64 code with step k's symbol
    at significance alphabet**(L-1-k), sorts the codes once and yields the
    `_Words` of lengths 1..L in turn.  A length-n run starts wherever
    neighbours share fewer than n leading digits.  Past the longest shared
    prefix every walk has a word of its own, and no length is counted.
    """
    codes = None
    length = 0
    for digits, width in chunks:
        if codes is None:
            codes = digits.astype(np.int64)
        else:
            codes *= alphabet**width
            codes += digits
        length += width
    codes.sort()
    shared = _common_prefixes(codes, alphabet, length)
    total = codes.size
    alone = int(shared.max()) + 1  # from this length on each walk has its own word
    for n in range(1, length + 1):
        if n <= max(alone, 1):
            bounds = np.flatnonzero(shared < n)
            entropy = _entropy_of_counts(np.diff(bounds), total)
        yield _Words(n, alphabet, bounds, entropy, codes, alphabet ** (length - n))


# ---------------------------------------------------------------------------
# Lattice (coherent-state) word statistics
# ---------------------------------------------------------------------------


def _orbit_atoms(T: Optional[ToralMatrix], weights: CellWeightTable, length: int, capacity: int):
    """Atoms of every lattice point's orbit cells at steps 0..length-1 (aligned).

    Yields the walk in chunks of c steps, c the largest width with D**c <=
    256 (D atoms), as (digits, width) pairs for `_word_runs`: `digits` is a
    uint8 array holding, for every point, the atoms of its chunk's cells
    as one base-D number, oldest step most significant.  The step-k atom of
    p is the step-(k-1) atom of U p, so the first chunk takes c-1 gathers
    of the atoms on the permutation table of U, one digit each; each later
    chunk is the previous one gathered on the table of U**c, and a last
    chunk of r < c steps keeps the leading r digits of a full one.
    """
    d = weights.atom_count
    width = min(length, next(c for c in range(8, 0, -1) if d**c <= 256))
    cfg = weights.cfg
    forward = None
    if T is not None and width > 1:
        forward = build_permutation(T, cfg, capacity).forward
    symbols = weights.atom_of_cell
    digits = symbols.copy()
    for _ in range(1, width):
        symbols = symbols[forward] if forward is not None else symbols
        digits *= d
        digits += symbols
    forward = symbols = None  # freed first: the two tables are never held at once
    if T is not None and length > width:
        forward = _permutation(matrix_power_mod(T, width, cfg.size), cfg, capacity).forward
    for start in range(0, length, width):
        if start:
            digits = digits[forward] if forward is not None else digits
        steps = min(width, length - start)
        yield (digits if steps == width else digits // d ** (width - steps)), steps


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
    partitions take a dense product-weight recursion over all
    alphabet**length words, refused beyond 4096 words — snap the
    partition to the lattice first for long words.
    """
    _check_word_space(length, len(partition))
    weights = _checked_weights(cfg, partition, capacity, weights)
    d = len(partition)
    if weights.aligned:
        *_, words = _word_runs(_orbit_atoms(T, weights, length, capacity), d)
        # Reverse the digits into the table packing, step k at d**k.
        rest = words.codes
        codes = np.zeros_like(rest)
        for _ in range(length):
            codes = codes * d + rest % d
            rest = rest // d
        order = np.argsort(codes)
        counts = words.counts[order]
        return ProbabilityTable(length=length, alphabet=d, codes=codes[order],
                                probs=counts / cfg.points, counts=counts, total=cfg.points)
    space = d**length
    if space > _UNALIGNED_CAP:
        raise AlignmentRequiredError(
            f"word space {d}**{length} = {space} exceeds the unaligned cap "
            f"{_UNALIGNED_CAP}; snap the partition to the lattice (snap_partition) "
            "or shorten the words"
        )
    size = cfg.size
    one = matrix_power_mod(T, 1, size) if T is not None else None
    chunk = max(1, (1 << 22) // space)
    acc = np.zeros(space)
    all_p1, all_p2 = np.divmod(np.arange(cfg.points, dtype=np.int64), size)
    for start in range(0, cfg.points, chunk):
        stop = min(start + chunk, cfg.points)
        p1 = all_p1[start:stop].copy()
        p2 = all_p2[start:stop].copy()
        amp = np.ones((stop - start, 1))
        for k in range(length):
            w = weights.weight_products(p1, p2)  # (m, d)
            # New step-k symbol lands at significance d**k: the word index
            # factors as (digit, old_code) in C order.
            amp = (w[:, :, None] * amp[:, None, :]).reshape(stop - start, d ** (k + 1))
            if one is not None and k + 1 < length:
                p1, p2 = _step(one, p1, p2, size)
        acc += amp.sum(axis=0)
    probs = acc / cfg.points
    codes = np.arange(space, dtype=np.int64)
    return ProbabilityTable.from_probs(codes, probs, length, d)


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
    entropies = []
    for words in _word_runs(_orbit_atoms(T, weights, n_max, capacity), d):
        entropies.append(words.entropy)
        if words.support == cfg.points:
            break
    return entropies + entropies[-1:] * (n_max - len(entropies))


# ---------------------------------------------------------------------------
# Side-by-side entropy production
# ---------------------------------------------------------------------------


def _probs_on_union(a: ProbabilityTable, b: ProbabilityTable) -> tuple[np.ndarray, np.ndarray]:
    """Both tables' probabilities expanded onto their sorted union support.

    Both code arrays are strictly increasing, so the union positions come
    from a linear merge: a code of b sits after the codes of a below it and
    the b-only codes before it; the codes of a fill, in order, every slot
    that no b-only code takes.
    """
    below = np.searchsorted(a.codes, b.codes)
    shared = a.codes[np.minimum(below, a.codes.size - 1)] == b.codes
    b_only = ~shared
    b_pos = below + np.cumsum(b_only) - b_only
    union_size = a.codes.size + b.codes.size - int(shared.sum())
    a_slot = np.ones(union_size, dtype=bool)
    a_slot[b_pos[b_only]] = False
    pa = np.zeros(union_size)
    pb = np.zeros(union_size)
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


def _total_variation(a: ProbabilityTable, b: ProbabilityTable) -> tuple[np.ndarray, float, float]:
    """(diff, delta, bound): |a - b| on the union support, its sum, and the Fannes bound.

    bound = delta * log(word space) + eta(delta), with the word space of a.
    """
    diff, pb = _probs_on_union(a, b)
    diff -= pb  # in place: on the ladder these are the audit's largest arrays
    np.abs(diff, out=diff)
    delta = float(diff.sum())
    return diff, delta, delta * a.length * math.log(a.alphabet) + _fannes_eta(delta)


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
    _, delta, bound = _total_variation(a, b)
    gap = abs(shannon_entropy(a) - shannon_entropy(b))
    if gap > bound + 1e-9:
        raise AssertionError(
            f"entropy gap {gap} exceeds its continuity bound {bound}"
        )
    return delta, bound


def _fannes_audit(cs: _Words, ks: _Words) -> tuple[float, float]:
    """eps_hat and the Fannes margin (bound less entropy gap) of one length's words.

    A pure function of two frozen word sets that calls no public function,
    so it can run on the comparison's helper thread.
    """
    diff, _, bound = _total_variation(cs.table(), ks.table())
    eps = float(diff.max()) if diff.size else 0.0
    return eps, bound - abs(cs.entropy - ks.entropy)


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
    diff_support_cap: int = 1 << 20,
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
    log(size) is fitted when at least two sizes break.

    Each (size, length) pair whose combined table support stays within
    `diff_support_cap` also gets a pointwise sup-difference (`eps_hat`) and
    a total-variation entropy continuity check; larger pairs record NaN
    and are skipped (the entropy and breaking outputs never depend on
    these diagnostics).  These audits run on one helper thread, each as
    soon as both sides' words of its length exist, while this thread walks
    and samples on; the results are read back in order, so they are
    bit-identical to a serial audit, and the thread ends with the call.
    Once the lattice words separate all N**2 >= `diff_support_cap` points,
    so that no longer length is audited, lattice counting stops: longer
    words refine them, so S_cs stays at that log N**2.
    """
    _check_word_space(n_max, len(partition))
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
    breaking: list[Optional[int]] = []
    children = np.random.SeedSequence(seed).spawn(n_sizes)
    audits = []  # (size index, length index, future), in submission order
    with ThreadPoolExecutor(max_workers=1) as helper:
        for i, size in enumerate(sizes):
            cfg = LatticeConfig(size)
            snapped, shift = snap_partition(partition, size)
            snap_shifts.append(shift)
            weights = _checked_weights(cfg, snapped, capacity, None)
            atoms_mc = _classical_atom_matrix(T, weights, n_max, samples, children[i])
            lattice = _word_runs(_orbit_atoms(T, weights, n_max, capacity), d)
            brk: Optional[int] = None
            for n, ks in enumerate(_word_runs(((symbols, 1) for symbols in atoms_mc), d), 1):
                k = n - 1
                if lattice is not None:
                    cs = next(lattice)
                    s_cs[i, n:] = cs.entropy  # holds until a longer length
                    if cs.support == cfg.points >= diff_support_cap:
                        lattice.close()
                        lattice = None
                s_ks[i, n] = ks.entropy
                if cs.support + ks.support <= diff_support_cap:
                    audits.append((i, k, helper.submit(_fannes_audit, cs, ks)))
                else:
                    eps_hat[i, k] = math.nan
                if brk is None:
                    if hyperbolic:
                        if n >= 2 and s_cs[i, n] - s_cs[i, n - 1] < break_increment_fraction * rate:
                            brk = n
                    elif abs(s_ks[i, n] - s_cs[i, n]) > abs_gap_threshold:
                        brk = n
            breaking.append(brk)
        margins = []
        for i, k, audit in audits:
            eps_hat[i, k], margin = audit.result()
            margins.append(margin)
    cs_inc = s_cs[:, 1:] - s_cs[:, :-1]
    ks_inc = s_ks[:, 1:] - s_ks[:, :-1]
    valid = [(math.log(sz), b) for sz, b in zip(sizes, breaking) if b is not None]
    slope = intercept = None
    if len(valid) >= 2:
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
