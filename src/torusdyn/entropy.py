"""Symbol-sequence statistics and entropy production, lattice vs continuous.

A partition of the torus into rectangles induces two word distributions for
a toral map: the classical one (which atom does the continuous orbit of a
random point visit at each step) and the lattice one (average over lattice
points of the per-step cell/atom overlap weights along the discrete orbit).
Shannon entropies of these distributions grow with word length; for
hyperbolic maps the classical growth rate is the positive Lyapunov exponent,
while the lattice growth must stall once words resolve structure finer than
the lattice spacing — at word lengths of order log(size).

Word packing convention (used on BOTH sides throughout this module): a word
of length n over an alphabet of D atoms stores its step-k symbol at
significance D**k, i.e. code = sum_k symbol_k * D**k.  Lattice and classical
tables for the same partition are therefore directly comparable code by
code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import DEFAULT_CAPACITY, CapacityExceededError, LatticeConfig, matrix_power_mod
from .maps import Family, ToralMatrix, classify, _step
from .rectangles import (
    TorusRectangle,
    cell_interval_pieces,
    clip_polygon_to_box,
    pieces_overlap,
    polygon_area,
    rectangle_overlap_area,
)

__all__ = [
    "AlignmentRequiredError",
    "DimensionMismatchError",
    "Partition",
    "partition_halves_x1",
    "partition_halves_x2",
    "partition_quadrants",
    "partition_bands_x2",
    "is_aligned",
    "snap_partition",
    "CellWeightTable",
    "cell_weights",
    "ProbabilityTable",
    "encode_word",
    "decode_word",
    "shannon_entropy",
    "partition_entropy",
    "classical_probabilities_mc",
    "KSEntropyReport",
    "ks_entropy_rate",
    "cs_probabilities",
    "cs_entropy",
    "cs_entropies",
    "entropy_components",
    "EntropyComparison",
    "compare_entropy_production",
    "fannes_bound",
    "exact_refinement_probabilities",
    "write_probability_csv",
]

DEFAULT_UNALIGNED_CAP = 4096
_EXACT_SUPPORT_CAP = 4096
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
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if rectangle_overlap_area(atoms[i], atoms[j]) != 0:
                    raise ValueError(f"atoms {i} and {j} overlap")

    def __len__(self) -> int:
        return len(self.atoms)

    def atom_measures(self) -> tuple[Fraction, ...]:
        return tuple(a.area for a in self.atoms)

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


def _boundary_values(rect: TorusRectangle) -> list[Fraction]:
    vals = [rect.x_start, rect.y_start]
    if rect.x_span != 1:
        vals.append((rect.x_start + rect.x_span) % 1)
    if rect.y_span != 1:
        vals.append((rect.y_start + rect.y_span) % 1)
    return vals


def is_aligned(partition: Partition, size: int) -> bool:
    """True when every atom boundary sits on a lattice cell edge (k+1/2)/size."""
    for rect in partition.atoms:
        for v in _boundary_values(rect):
            scaled = v * 2 * size
            if scaled.denominator != 1 or scaled.numerator % 2 != 1:
                return False
    return True


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
    (at most 1/(2 size)).  Raises ValueError when two distinct boundaries
    of an atom land on the same edge — the lattice cannot resolve the
    partition.
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
                new_start = _snap_boundary(start, size)
                max_shift = max(max_shift, _circle_gap(new_start, start))
                spans[axis] = (new_start, Fraction(1))
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
    For aligned partitions every weight is 0 or 1 and `atom_of_cell` maps
    each flat cell index to its unique atom.
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
    cell_pieces = [cell_interval_pieces(p, size) for p in range(size)]
    wx_frac = [
        [size * pieces_overlap(cell_pieces[p], atom.x_pieces()) for p in range(size)]
        for atom in partition.atoms
    ]
    wy_frac = [
        [size * pieces_overlap(cell_pieces[p], atom.y_pieces()) for p in range(size)]
        for atom in partition.atoms
    ]
    # Exact sanity check on a few cells plus exact alignment detection.
    aligned = is_aligned(partition, size)
    atom_map = None
    if aligned:
        # Each atom covers the product of its full-weight rows and columns;
        # every cell must be covered exactly once.
        atom_map = np.empty((size, size), dtype=np.uint8)
        hits = np.zeros((size, size), dtype=np.uint8)
        for a in range(d):
            rows = np.array([v == 1 for v in wx_frac[a]])
            cols = np.array([v == 1 for v in wy_frac[a]])
            atom_map[np.ix_(rows, cols)] = a
            hits[np.ix_(rows, cols)] += 1
        bad = np.flatnonzero(hits != 1)
        if bad.size:
            p1, p2 = divmod(int(bad[0]), size)
            raise AssertionError(
                f"aligned cell ({p1},{p2}) lies in {hits[p1, p2]} atoms"
            )
        atom_map = atom_map.ravel()
    else:
        for p1 in (0, size // 2, size - 1):
            for p2 in (0, size // 2, size - 1):
                total = sum(
                    (wx_frac[a][p1] * wy_frac[a][p2] for a in range(d)), Fraction(0)
                )
                if total != 1:
                    raise AssertionError(
                        f"cell ({p1},{p2}) atom weights sum to {total}, expected 1"
                    )
    wx = np.array([[float(v) for v in row] for row in wx_frac])
    wy = np.array([[float(v) for v in row] for row in wy_frac])
    return CellWeightTable(
        cfg=cfg,
        atom_count=d,
        x_weights=wx,
        y_weights=wy,
        aligned=aligned,
        atom_of_cell=atom_map,
    )


# ---------------------------------------------------------------------------
# Probability tables
# ---------------------------------------------------------------------------


def encode_word(word: Sequence[int], alphabet: int) -> int:
    """Pack symbols into a code, step-k symbol at significance alphabet**k."""
    code = 0
    for k, s in enumerate(word):
        if not 0 <= s < alphabet:
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet}")
        code += s * alphabet**k
    return code


def decode_word(code: int, length: int, alphabet: int) -> tuple[int, ...]:
    """Inverse of encode_word: tuple whose k-th entry is the step-k symbol."""
    word = []
    for _ in range(length):
        word.append(code % alphabet)
        code //= alphabet
    if code:
        raise ValueError("code does not fit in the given word length")
    return tuple(word)


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
    integer counts those are retained (`counts`, `total`) and exact
    rational probabilities are available.
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
        if space <= 1 << 24:
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

    @property
    def support_size(self) -> int:
        return int(self.codes.size)

    def probability(self, code: int) -> float:
        i = int(np.searchsorted(self.codes, code))
        if i < self.codes.size and self.codes[i] == code:
            return float(self.probs[i])
        return 0.0

    def exact_probability(self, code: int) -> Fraction:
        if not self.is_exact:
            raise ValueError("table does not carry exact counts")
        i = int(np.searchsorted(self.codes, code))
        if i < self.codes.size and self.codes[i] == code:
            return Fraction(int(self.counts[i]), int(self.total))
        return Fraction(0)


def _entropy_of_fractions(values: list[Fraction]) -> float:
    """Canonical exact-input entropy in nats: sort, then fsum of -p log p.

    Two distributions with the same multiset of rational masses produce
    bit-identical results, whatever order or labels they arrived with.
    """
    terms = []
    for f in sorted(values):
        if f < 0 or f > 1:
            raise ValueError(f"probability {f} outside [0, 1]")
        if f != 0:
            p = float(f)
            terms.append(-p * math.log(p))
    return math.fsum(terms)


def shannon_entropy(table: Union[ProbabilityTable, Sequence[Fraction]]) -> float:
    """Shannon entropy in nats.

    Count-backed tables with small support take the canonical exact path
    (sorted rational masses), so equal distributions give bit-identical
    entropies; everything else uses the vectorized float path.
    """
    if not isinstance(table, ProbabilityTable):
        return _entropy_of_fractions([Fraction(v) for v in table])
    if table.is_exact and table.support_size <= _EXACT_SUPPORT_CAP:
        total = int(table.total)
        return _entropy_of_fractions(
            [Fraction(int(c), total) for c in table.counts]
        )
    p = table.probs[table.probs > 0]
    return float(-(p * np.log(p)).sum())


def partition_entropy(partition: Partition) -> float:
    """Entropy of the atom measures, via the canonical exact path."""
    return _entropy_of_fractions(list(partition.atom_measures()))


# ---------------------------------------------------------------------------
# Classical (continuous-orbit) word statistics
# ---------------------------------------------------------------------------


def _classical_atom_matrix(
    T: Optional[ToralMatrix],
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
            x1, x2 = _step(T.entries, x1, x2, 1.0)
        elif T is None:
            break
    if T is None:
        out[:] = out[:, :1]
    return out


def _word_codes(symbol_steps, alphabet: int):
    """The word counter: running packed codes of the words of each length.

    Takes one array of symbols per step (step k's symbol of every orbit)
    and adds symbol * alphabet**k to the codes in place, yielding the same
    array after each step; after step k it holds the length-(k+1) words in
    the module's packing convention.  Read it (e.g. with
    `ProbabilityTable.from_counts`) before asking for the next length.
    """
    codes = None
    significance = 1
    # Hold no step array while suspended (hence no enumerate, whose cached
    # tuple keeps the last one): at N = 2048 the lattice's symbols take
    # 4 MB and their int64 digits 33 MB.
    for symbols in symbol_steps:
        if codes is None:
            codes = symbols.astype(np.int64)
        else:
            significance *= alphabet
            codes += symbols.astype(np.int64) * significance
        del symbols
        yield codes


def classical_probabilities_mc(
    T: Optional[ToralMatrix],
    partition: Partition,
    length: int,
    samples: int,
    seed,
) -> ProbabilityTable:
    """Monte Carlo word distribution of the continuous dynamics.

    Samples uniform starting points, records the atom visited at each of
    `length` steps, and histograms packed words.  Deterministic for a
    fixed seed.
    """
    _check_word_space(length, len(partition))
    atoms = _classical_atom_matrix(T, partition, length, samples, seed)
    *_, codes = _word_codes(atoms.T, len(partition))
    return ProbabilityTable.from_counts(codes, length, len(partition))


@dataclass(frozen=True)
class KSEntropyReport:
    """Classical entropy growth S(n) for n = 0..n_max and derived rates."""

    partition_name: str
    alphabet: int
    n_max: int
    samples: int
    seed: int
    entropies: tuple[float, ...]  # S(0) = 0, S(1), ..., S(n_max)
    increments: tuple[float, ...]  # S(n) - S(n-1) for n = 1..n_max
    rates: tuple[float, ...]  # S(n)/n for n = 1..n_max
    support_sizes: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "partition": self.partition_name,
            "alphabet": self.alphabet,
            "n_max": self.n_max,
            "samples": self.samples,
            "seed": self.seed,
            "entropies": list(self.entropies),
            "increments": list(self.increments),
            "rates": list(self.rates),
            "support_sizes": list(self.support_sizes),
        }


def ks_entropy_rate(
    T: Optional[ToralMatrix],
    partition: Partition,
    n_max: int,
    samples: int,
    seed,
) -> KSEntropyReport:
    """Entropy growth of classical words, all lengths sharing one sample set.

    Sharing samples makes the empirical S(n) exactly monotone in n (the
    length-(n+1) empirical words refine the length-n ones), so increments
    are never spuriously negative.
    """
    _check_word_space(n_max, len(partition))
    d = len(partition)
    atoms = _classical_atom_matrix(T, partition, n_max, samples, seed)
    entropies = [0.0]
    supports = []
    for n, codes in enumerate(_word_codes(atoms.T, d), 1):
        table = ProbabilityTable.from_counts(codes, n, d)
        entropies.append(shannon_entropy(table))
        supports.append(table.support_size)
    increments = tuple(entropies[n] - entropies[n - 1] for n in range(1, n_max + 1))
    rates = tuple(entropies[n] / n for n in range(1, n_max + 1))
    return KSEntropyReport(
        partition_name=partition.name,
        alphabet=d,
        n_max=n_max,
        samples=samples,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else -1,
        entropies=tuple(entropies),
        increments=increments,
        rates=rates,
        support_sizes=tuple(supports),
    )


# ---------------------------------------------------------------------------
# Lattice (coherent-state) word statistics
# ---------------------------------------------------------------------------


def _lattice_positions(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    size = cfg.size
    p1 = np.repeat(np.arange(size, dtype=np.int64), size)
    p2 = np.tile(np.arange(size, dtype=np.int64), size)
    return p1, p2


def _orbit_atoms(T: Optional[ToralMatrix], weights: CellWeightTable, length: int):
    """Atom of every lattice point's orbit cell at steps 0..length-1 (aligned)."""
    size = weights.cfg.size
    one = matrix_power_mod(T, 1, size) if T is not None else None
    p1, p2 = _lattice_positions(weights.cfg)
    for k in range(length):
        yield weights.atom_of_cell[p1 * size + p2]
        if one is not None and k + 1 < length:
            p1, p2 = _step(one, p1, p2, size)


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
    unaligned_cap: int = DEFAULT_UNALIGNED_CAP,
    weights: Optional[CellWeightTable] = None,
) -> ProbabilityTable:
    """Lattice word distribution for coherent-state style repeated readout.

    The probability of a word is the lattice average, over starting cells,
    of the product over steps k of the overlap weight between the step-k
    cell of the discrete orbit and the word's step-k atom.  T None means
    identity dynamics (the orbit never moves).

    Aligned partitions (every boundary on a cell edge) reduce to exact
    orbit-word counting; the table then carries integer counts out of
    size**2.  Unaligned partitions take a dense product-weight recursion
    over all alphabet**length words, refused beyond `unaligned_cap` —
    snap the partition to the lattice first for long words.
    """
    _check_word_space(length, len(partition))
    weights = _checked_weights(cfg, partition, capacity, weights)
    d = len(partition)
    if weights.aligned:
        *_, codes = _word_codes(_orbit_atoms(T, weights, length), d)
        return ProbabilityTable.from_counts(codes, length, d)
    space = d**length
    if space > unaligned_cap:
        raise AlignmentRequiredError(
            f"word space {d}**{length} = {space} exceeds the unaligned cap "
            f"{unaligned_cap}; snap the partition to the lattice (snap_partition) "
            "or shorten the words"
        )
    size = cfg.size
    one = matrix_power_mod(T, 1, size) if T is not None else None
    chunk = max(1, (1 << 22) // space)
    acc = np.zeros(space)
    all_p1, all_p2 = _lattice_positions(cfg)
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
    for an unaligned partition (snap it to the lattice first).
    """
    d = len(partition)
    _check_word_space(n_max, d)
    weights = _checked_weights(cfg, partition, capacity, None)
    if not weights.aligned:
        raise AlignmentRequiredError("one-pass lattice entropies need an aligned partition")
    return [
        shannon_entropy(ProbabilityTable.from_counts(codes, n, d))
        for n, codes in enumerate(_word_codes(_orbit_atoms(T, weights, n_max), d), 1)
    ]


def entropy_components(
    T: Optional[ToralMatrix],
    cfg: LatticeConfig,
    partition: Partition,
    length: int,
    **kwargs,
) -> dict:
    """Split lattice word entropy into readout and dynamical parts.

    The one-step entropy is pure measurement (partition resolution as seen
    through the lattice); growth beyond it is generated by the dynamics.
    """
    weights = kwargs.pop("weights", None) or cell_weights(partition, cfg)
    s1 = cs_entropy(T, cfg, partition, 1, weights=weights, **kwargs)
    total = s1 if length == 1 else cs_entropy(
        T, cfg, partition, length, weights=weights, **kwargs
    )
    per_step = (total - s1) / (length - 1) if length > 1 else 0.0
    return {
        "length": length,
        "total": total,
        "measurement": s1,
        "dynamical": total - s1,
        "per_step_dynamical": per_step,
    }


# ---------------------------------------------------------------------------
# Side-by-side entropy production
# ---------------------------------------------------------------------------


def _probs_on_union(a: ProbabilityTable, b: ProbabilityTable) -> tuple[np.ndarray, np.ndarray]:
    """Both tables' probabilities expanded onto their sorted union support.

    Both code arrays are strictly increasing, so the union positions come
    from a linear merge: a code of b sits after the codes of a below it and
    the b-only codes before it; a code of a sits after its own predecessors
    and the b-only codes below it.
    """
    below = np.searchsorted(a.codes, b.codes)
    shared = a.codes[np.minimum(below, a.codes.size - 1)] == b.codes
    b_only = ~shared
    b_pos = below + np.cumsum(b_only) - b_only
    a_pos = np.arange(a.codes.size) + np.searchsorted(b.codes[b_only], a.codes)
    union_size = a.codes.size + b.codes.size - int(shared.sum())
    pa = np.zeros(union_size)
    pb = np.zeros(union_size)
    pa[a_pos] = a.probs
    pb[b_pos] = b.probs
    return pa, pb


def _fannes_eta(x: float) -> float:
    """-x log x extended flat beyond its maximum at 1/e (still an upper bound)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0 / math.e:
        return 1.0 / math.e
    return -x * math.log(x)


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
    pa, pb = _probs_on_union(a, b)
    delta = float(np.abs(pa - pb).sum())
    bound = delta * a.length * math.log(a.alphabet) + _fannes_eta(delta)
    gap = abs(shannon_entropy(a) - shannon_entropy(b))
    if gap > bound + 1e-9:
        raise AssertionError(
            f"entropy gap {gap} exceeds its continuity bound {bound}"
        )
    return delta, bound


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
    lattice word entropies are accumulated incrementally over one pass of
    the discrete orbit, and the classical side is estimated by Monte Carlo
    with an independent child seed per size.

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
    these diagnostics).
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
    fannes_checked = 0
    fannes_violations = 0
    fannes_min_margin = math.inf
    children = np.random.SeedSequence(seed).spawn(n_sizes)
    for i, size in enumerate(sizes):
        cfg = LatticeConfig(size)
        if cfg.points > capacity:
            raise CapacityExceededError(
                f"lattice with {cfg.points} points exceeds capacity {capacity}"
            )
        snapped, shift = snap_partition(partition, size)
        snap_shifts.append(shift)
        weights = cell_weights(snapped, cfg)
        atoms_mc = _classical_atom_matrix(T, snapped, n_max, samples, children[i])
        words = zip(
            _word_codes(_orbit_atoms(T, weights, n_max), d), _word_codes(atoms_mc.T, d)
        )
        brk: Optional[int] = None
        for n, (cs_codes, ks_codes) in enumerate(words, 1):
            k = n - 1
            cs_table = ProbabilityTable.from_counts(cs_codes, n, d)
            ks_table = ProbabilityTable.from_counts(ks_codes, n, d)
            s_cs[i, n] = shannon_entropy(cs_table)
            s_ks[i, n] = shannon_entropy(ks_table)
            if cs_table.support_size + ks_table.support_size <= diff_support_cap:
                pa, pb = _probs_on_union(cs_table, ks_table)
                diff = np.abs(pa - pb)
                eps_hat[i, k] = float(diff.max()) if diff.size else 0.0
                delta = float(diff.sum())
                bound = delta * n * math.log(d) + _fannes_eta(delta)
                margin = bound - abs(s_cs[i, n] - s_ks[i, n])
                fannes_checked += 1
                fannes_min_margin = min(fannes_min_margin, margin)
                if margin < 0:
                    fannes_violations += 1
            else:
                eps_hat[i, k] = math.nan
            if brk is None:
                if hyperbolic:
                    if n >= 2 and s_cs[i, n] - s_cs[i, n - 1] < break_increment_fraction * rate:
                        brk = n
                elif abs(s_ks[i, n] - s_cs[i, n]) > abs_gap_threshold:
                    brk = n
        breaking.append(brk)
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
        fannes_checked=fannes_checked,
        fannes_violations=fannes_violations,
        fannes_min_margin=float(fannes_min_margin),
    )


# ---------------------------------------------------------------------------
# Exact small-length classical probabilities (geometry oracle)
# ---------------------------------------------------------------------------


def _axis_rectangles(rect: TorusRectangle) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Atom as plain boxes (x_lo, x_hi, y_lo, y_hi) inside [0, 1]^2."""
    return [
        (xs, xe, ys, ye)
        for xs, xe in rect.x_pieces()
        for ys, ye in rect.y_pieces()
    ]


def exact_refinement_probabilities(
    T: Optional[ToralMatrix], partition: Partition, length: int
) -> dict[int, Fraction]:
    """Exact rational word probabilities of the continuous dynamics.

    Supports length 1 (atom areas) and length 2: the joint mass of
    (atom i at step 0, atom j at step 1) is the area of E_i intersected
    with the pullback of E_j, computed by exact parallelogram clipping
    over integer translates.  Packing follows the module convention
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
    inv = T.inverse().entries
    out: dict[int, Fraction] = {}
    for j, atom_j in enumerate(partition.atoms):
        # Pull each box of E_j back through the map: the preimage of a box
        # is a parallelogram; intersect its integer translates with E_i.
        pulled: list[list[tuple[Fraction, Fraction]]] = []
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


def write_probability_csv(path, table: ProbabilityTable, header: Optional[dict] = None) -> None:
    """Write a table as CSV: '# key=value' header lines, then code rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key}={value}\n")
        if table.is_exact:
            fh.write("code,probability,count\n")
            for c, p, k in zip(table.codes, table.probs, table.counts):
                fh.write(f"{int(c)},{float(p)!r},{int(k)}\n")
        else:
            fh.write("code,probability\n")
            for c, p in zip(table.codes, table.probs):
                fh.write(f"{int(c)},{float(p)!r}\n")
