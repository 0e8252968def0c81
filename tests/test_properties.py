"""Properties of the shared lattice step, matrix powers, the kernel, lattice
rounding, image diameters, orbit periods, the permutation table and the
orbit walk on it, cell overlaps and alignment, partition snapping, word
counter, the weighted counter of unaligned partitions against the dense
recursion, tables and exact entropy, the dyadic classical sampler and
Egorov defect.

Random unimodular matrices with entries in [-5, 5] are checked against
Python-integer, coordinate-walk, cycle-walk and exact-mesh oracles, and
random arcs against `Fraction` cell overlaps; the
int64 overflow guard is checked at its boundary and through `kernel_many`
and the CLI, and the unsigned power-of-two step and the signed step with
negative entries and values against Python integers.  The closed-form
diameter search is checked against a block scan of the whole grid, for
matrices with entries in [-30, 30].
"""
import functools
import itertools
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusdyn import entropy
from torusdyn.cli import EXIT_VALIDATION, main, parse_partition
from torusdyn.discretize import Observable, discretize_aw, egorov_defect, kernel_many
from torusdyn.entropy import (
    Partition,
    ProbabilityTable,
    _classical_atom_matrix,
    _orbit_atoms,
    _word_runs,
    cell_weights,
    cs_entropies,
    cs_entropy,
    cs_probabilities,
    partition_bands_x2,
    partition_halves_x1,
    partition_halves_x2,
    partition_quadrants,
    shannon_entropy,
    snap_partition,
)
from torusdyn.lattice import (
    DEFAULT_CAPACITY,
    LatticeConfig,
    _index_dtype,
    _permutation,
    build_permutation,
    matrix_power_mod,
    orbit_period,
    round_coordinates,
)
from torusdyn.maps import ToralMatrix, cat_map, diameter_bruteforce, matrix_power_entries, _step
from torusdyn.rectangles import TorusRectangle, _axis_weights, arc_pieces, pieces_overlap

from conftest import (
    ReplayedDraws,
    cell_interval_pieces,
    cell_weights_fraction_oracle,
    classical_atom_matrix_53bit,
    classical_atoms_python_int,
    cs_probabilities_dense,
    diameter_block_scan,
    egorov_defect_exact_mesh,
    entropy_of_fractions,
    is_aligned,
    orbit_atoms_step_walk,
    orbit_period_cycle_walk,
    permutation_table_python_int,
    word_runs_scan_per_length,
)

UNIMODULAR = [
    ToralMatrix(*m)
    for m in itertools.product(range(-5, 6), repeat=4)
    if m[0] * m[3] - m[1] * m[2] == 1 and not (m[1] == 0 and m[2] == 0)
]
ACCEPTANCE = [
    ToralMatrix(*m)
    for m in ((2, 1, 1, 1), (3, 2, 1, 1), (1, 1, 0, 1), (1, 0, 2, 1), (0, 1, -1, 0), (1, 1, -1, 0))
]
matrices = st.sampled_from(UNIMODULAR)
INT64_MAX = np.iinfo(np.int64).max


# --- the one step --------------------------------------------------------------


@given(matrices, st.integers(2, 1 << 31), st.integers(-60, 60), st.data())
def test_step_matches_python_int_oracle(T, size, power, data):
    m = matrix_power_mod(T, power, size)
    points = data.draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                                min_size=1, max_size=20))
    p1 = np.array([p for p, _ in points], dtype=np.int64)
    p2 = np.array([q for _, q in points], dtype=np.int64)
    q1, q2 = _step(m, p1, p2, size)
    for (a, b), u, v in zip(points, q1.tolist(), q2.tolist()):
        assert (u, v) == ((m[0] * a + m[1] * b) % size, (m[2] * a + m[3] * b) % size)
        assert (u, v) == _step(m, a, b, size)


@given(matrices, st.integers(2, 10**12), st.integers(-40, 40), st.integers(-40, 40), st.data())
def test_powers_compose_through_step(T, size, a, b, data):
    p = (data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1)))
    ua, ub, uab = (matrix_power_mod(T, n, size) for n in (a, b, a + b))
    assert _step(ua, *_step(ub, *p, size), size) == _step(uab, *p, size)
    exact = matrix_power_entries(T, a + b)
    assert uab == tuple(v % size for v in exact)


@given(st.integers(2, 1 << 56), st.tuples(*[st.integers(-60, 60)] * 4), st.data())
def test_step_on_signed_arrays_equals_the_python_remainder(size, m, data):
    # Negative entries and values: y - (y // N) N is Python's y % N at every sign.
    value = st.integers(1 - size, size - 1)
    points = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=20))
    p1, p2 = (np.array(column, dtype=np.int64) for column in zip(*points))
    q1, q2 = _step(m, p1, p2, size)
    for (a, b), u, v in zip(points, q1.tolist(), q2.tolist()):
        assert (u, v) == ((m[0] * a + m[1] * b) % size, (m[2] * a + m[3] * b) % size)


@given(st.integers(2, 1 << 40), st.data())
def test_round_coordinates_at_the_edges_equals_the_remainder(size, data):
    # x = 0, the last float below 1, and a cell edge or centre k/(2N) with its
    # two float neighbours, against floor(N x + 1/2) % N.
    half = data.draw(st.integers(0, 2 * size - 1)) / (2 * size)
    xs = np.array([x for x in (0.0, 1.0 - 2.0**-53, np.nextafter(half, 0.0), half,
                               np.nextafter(half, 1.0)) if 0.0 <= x < 1.0])
    want = np.floor(xs * size + 0.5).astype(np.int64) % size
    assert round_coordinates(xs, size).tolist() == want.tolist()


def test_step_overflow_guard_boundary():
    shear = (1, 1, 0, 1)  # row sum 2, so the guard trips once 2 (N - 1) passes int64
    fits = (INT64_MAX - 1) // 2 + 1  # 2 (N - 1) = 2**63 - 2
    top = np.array([fits - 1], dtype=np.int64)
    q1, q2 = _step(shear, top, top, fits)
    assert (int(q1[0]), int(q2[0])) == ((2 * (fits - 1)) % fits, fits - 1)
    with pytest.raises(OverflowError):
        _step(shear, top, top, fits + 1)
    # Python integers stay exact at any size.
    big = 10**30
    assert _step(shear, big - 1, big - 1, big) == ((2 * big - 2) % big, big - 1)


@given(matrices, st.integers(-60, 60), st.integers(1, 64), st.data())
def test_power_of_two_step_on_unsigned_arrays_is_exact(T, power, bits, data):
    modulus = 1 << bits
    m = matrix_power_mod(T, power, modulus)
    coordinate = st.one_of(st.integers(0, modulus - 1), st.just(modulus - 1))
    points = data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20))
    a1 = np.array([a for a, _ in points], dtype=np.uint64)
    a2 = np.array([b for _, b in points], dtype=np.uint64)
    q1, q2 = _step(m, a1, a2, modulus)
    assert q1.dtype == q2.dtype == np.uint64
    for (a, b), u, v in zip(points, q1.tolist(), q2.tolist()):
        assert (u, v) == ((m[0] * a + m[1] * b) % modulus, (m[2] * a + m[3] * b) % modulus)


def test_step_guard_still_raises_off_the_unsigned_power_of_two_case():
    cat = (2, 1, 1, 1)
    three = np.array([3], dtype=np.uint64)
    with pytest.raises(OverflowError):  # signed arrays
        _step(cat, three.astype(np.int64), three.astype(np.int64), 1 << 62)
    with pytest.raises(OverflowError):  # not a power of two
        _step(cat, three, three, 3 << 62)
    with pytest.raises(OverflowError):  # a power of two past the dtype's range
        _step(cat, three.astype(np.uint32), three.astype(np.uint32), 1 << 33)
    with pytest.raises(OverflowError):
        _step(cat, three, three, 1 << 65)
    q1, q2 = _step(cat, three.astype(np.uint32), three.astype(np.uint32), 1 << 32)
    assert (q1.dtype, int(q1[0]), int(q2[0])) == (np.uint32, 9, 6)


def test_kernel_many_refuses_int64_overflow():
    xs = np.random.default_rng(1).random((4, 1000))
    with pytest.raises(OverflowError):
        kernel_many(cat_map(), LatticeConfig(4_000_000_001), 45, *xs)
    # One pair is refused too: the guard bounds the step, not the array.
    with pytest.raises(OverflowError):
        kernel_many(cat_map(), LatticeConfig(4_000_000_001), 45, *xs[:, :1])


def test_kernel_many_exact_at_two_to_the_31():
    size = 1 << 31
    cat = cat_map()
    rng = np.random.default_rng(3)
    x1, x2, y1, y2 = rng.random((4, 1000))
    m = matrix_power_entries(cat, 45)
    p = [(int(np.floor(a * size + 0.5)) % size, int(np.floor(b * size + 0.5)) % size)
         for a, b in zip(x1, x2)]
    images = [((m[0] * a + m[1] * b) % size, (m[2] * a + m[3] * b) % size) for a, b in p]
    # Aim half of the y points at the exact image cell (q / 2**31 is exact in floats).
    y1[::2] = [u / size for u, _ in images[::2]]
    y2[::2] = [v / size for _, v in images[::2]]
    want = [
        int(images[i] == (int(np.floor(y1[i] * size + 0.5)) % size,
                          int(np.floor(y2[i] * size + 0.5)) % size))
        for i in range(1000)
    ]
    got = kernel_many(cat, LatticeConfig(size), 45, x1, x2, y1, y2)
    assert got.tolist() == want
    assert sum(want) >= 500


@settings(deadline=None)
@given(matrices, st.integers(2, 24), st.integers(-5, 40), st.data())
def test_kernel_many_is_a_sub_permutation(T, size, n, data):
    # Over the cell centres K is a permutation matrix: U**n of the cells.
    cfg = LatticeConfig(size)
    centres = np.arange(size) / size
    y1, y2 = np.repeat(centres, size), np.tile(centres, size)
    K = kernel_many(T, cfg, n, np.repeat(y1, cfg.points), np.repeat(y2, cfg.points),
                    np.tile(y1, cfg.points), np.tile(y2, cfg.points)).reshape(cfg.points, -1)
    assert (K.sum(axis=0) == 1).all() and (K.sum(axis=1) == 1).all()
    # Any x, on a cell edge or not, reaches exactly one cell y.
    coordinate = st.one_of(st.floats(0, 1, exclude_max=True),
                           st.integers(0, 2 * size - 1).map(lambda k: k / (2 * size)))
    for a, b in data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=5)):
        row = kernel_many(T, cfg, n, np.full(cfg.points, a), np.full(cfg.points, b), y1, y2)
        assert np.count_nonzero(row) == 1


def test_localize_beyond_int64_is_validation_error(capsys):
    code = main(["localize", "--matrix", "2", "1", "1", "1", "--size", "4000000001",
                 "--steps", "45", "--trials", "1000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("OverflowError:")
    assert "Traceback" not in captured.err


# --- image diameters ------------------------------------------------------------


def _unimodular_within(bound: int) -> list[ToralMatrix]:
    """Every det-1 matrix with entries in [-bound, bound] but plus or minus the identity."""
    a, b, c = np.meshgrid(*[np.arange(-bound, bound + 1)] * 3, indexing="ij")
    a, b, c = a[a != 0], b[a != 0], c[a != 0]
    d, rest = np.divmod(1 + b * c, a)
    keep = (rest == 0) & (np.abs(d) <= bound) & ~((b == 0) & (c == 0))
    return [ToralMatrix(*map(int, m)) for m in zip(a[keep], b[keep], c[keep], d[keep])]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_unimodular_within(30)), st.integers(0, 40), st.integers(64, 1 << 14))
@example(cat_map(), 40, 64)
@example(ToralMatrix(0, -1, 1, 0), 3, 65)  # a quarter turn
@example(ToralMatrix(1, 1, -1, 0), 6, 4097)  # T**6 = I
@example(ToralMatrix(29, 30, 28, 29), 40, 1 << 14)  # entries near 1e73
def test_diameter_search_equals_the_block_scan(T, n, samples):
    assert diameter_bruteforce(T, n, samples) == diameter_block_scan(T, n, samples)


# --- orbit periods ---------------------------------------------------------------


@settings(deadline=None)
@given(matrices, st.integers(2, 150))
def test_orbit_period_is_order_mod_n(T, size):
    period = orbit_period(T, LatticeConfig(size))
    assert period == orbit_period_cycle_walk(T, size)
    assert period <= 3 * size


def test_orbit_period_acceptance_matrices_small_sizes():
    for T in ACCEPTANCE:
        for size in range(2, 90):
            assert orbit_period(T, LatticeConfig(size)) == orbit_period_cycle_walk(T, size), (
                T, size,
            )


# --- the permutation table and the walk on it ------------------------------------


def test_build_permutation_matches_python_int_oracle():
    # Every unimodular matrix with entries in [-5, 5] but plus or minus the
    # identity (which ToralMatrix rejects), each on one size; the sizes
    # cycle through 2..100 (LatticeConfig refuses N = 1).
    for i, T in enumerate(UNIMODULAR):
        size = 2 + i % 99
        table = build_permutation(T, LatticeConfig(size))
        assert table.dtype == _index_dtype(size * size)
        assert not table.flags.writeable
        assert table.tolist() == permutation_table_python_int(T, size)


@settings(deadline=None)
@given(matrices, st.integers(2, 64), st.integers(1, 8))
@example(ToralMatrix(0, 1, -1, 0), 9, 1)  # a quarter turn
@example(ToralMatrix(0, 1, -1, 0), 10, 3)  # the other quarter turn
@example(ToralMatrix(0, 1, -1, 0), 7, 2)  # -I
@example(ToralMatrix(0, 1, -1, 0), 12, 4)  # I
@example(ToralMatrix(1, 1, -1, 0), 5, 3)  # -I from an order-6 matrix
@example(ToralMatrix(1, 1, -1, 0), 6, 6)  # I
def test_permutation_of_walk_powers_matches_python_int_oracle(T, size, c):
    # `_orbit_atoms` builds the tables of T and T**c, c <= 8, from their
    # entries mod N; T**c may be plus or minus the identity, which
    # ToralMatrix rejects, so there the oracle is p -> +-p mod N.
    table = _permutation(matrix_power_mod(T, c, size), LatticeConfig(size), DEFAULT_CAPACITY)
    power = matrix_power_entries(T, c)
    if power in ((1, 0, 0, 1), (-1, 0, 0, -1)):
        sign = power[0]
        want = [(sign * p1 % size) * size + sign * p2 % size
                for p1 in range(size) for p2 in range(size)]
    else:
        want = permutation_table_python_int(ToralMatrix(*power), size)
    assert table.tolist() == want
    assert table.dtype == _index_dtype(size * size)
    assert not table.flags.writeable and table.flags.c_contiguous


@settings(deadline=None)
@given(matrices, st.integers(2, 64), st.integers(0, 6))
def test_permutation_table_gathers_compose_powers(T, size, a):
    # The table of T**a is the table of T gathered a times; where T**a is
    # plus or minus the identity (which ToralMatrix rejects) it is the
    # identity table or the point reflection p -> -p mod N.
    cfg = LatticeConfig(size)
    f = build_permutation(T, cfg)
    identity = np.arange(cfg.points)
    gathered = identity
    for _ in range(a):
        gathered = gathered[f]
    power = matrix_power_entries(T, a)
    if power == (1, 0, 0, 1):
        want = identity
    elif power == (-1, 0, 0, -1):
        p1, p2 = np.divmod(identity, size)
        want = (-p1 % size) * size + (-p2 % size)
    else:
        want = build_permutation(ToralMatrix(*power), cfg)
    assert np.array_equal(gathered, want)
    # orbit_period gathers return to the identity, and no fewer do
    period = orbit_period(T, cfg)
    gathered = f
    for _ in range(period - 1):
        assert not np.array_equal(gathered, identity)
        gathered = gathered[f]
    assert np.array_equal(gathered, identity)


SEAM_WRAPPING = parse_partition(
    "rects:3/4,1/2,7/8,1/2;1/4,1/2,7/8,1/2;3/4,1/2,3/8,1/2;1/4,1/2,3/8,1/2"
)


def chunk_steps(chunks, alphabet: int) -> list[np.ndarray]:
    """Per-step symbols of `_orbit_atoms`' chunks: each chunk's fields of
    b = ceil(log2 alphabet) bits, most significant first."""
    bits = (alphabet - 1).bit_length()
    steps = []
    for digits, width in chunks:
        assert digits.dtype == np.uint8
        steps += [digits >> bits * (width - 1 - k) & (1 << bits) - 1 for k in range(width)]
    return steps


# In the examples below T**c, c the chunk width, is the lattice identity for
# (1, 0, 2, 1) at N = 2 (T = I mod 2), and plus or minus the identity for the
# elliptic maps: c = 4 for quadrants and three bands and 8 for halves (ROT,
# order 4: ROT**4 = I); c = 2 for five bands (ROT**2 = -I).
ROT = ToralMatrix(0, -1, 1, 0)


@settings(deadline=None)
@given(
    st.one_of(st.none(), matrices),
    st.integers(2, 64),
    st.sampled_from([
        partition_bands_x2(1),
        partition_quadrants(),
        partition_halves_x1(),
        partition_halves_x2(),
        partition_bands_x2(3),
        partition_bands_x2(5),
        SEAM_WRAPPING,
    ]),
    st.integers(1, 20),
)
@example(ROT, 12, partition_quadrants(), 13)
@example(ROT, 7, partition_halves_x2(), 20)
@example(ROT, 9, partition_bands_x2(3), 11)
@example(ROT, 15, partition_bands_x2(5), 11)
@example(ToralMatrix(1, 0, 2, 1), 2, partition_halves_x1(), 17)
@example(None, 20, partition_bands_x2(5), 7)
@example(cat_map(), 34, partition_bands_x2(17), 5)  # c = 1: one step per chunk
@example(None, 34, partition_bands_x2(17), 3)
def test_orbit_atoms_gather_equals_step_walk(T, size, partition, length):
    try:
        snapped, _ = snap_partition(partition, size)
    except ValueError:  # too coarse a lattice to resolve the partition
        assume(False)
    weights = cell_weights(snapped, LatticeConfig(size))
    d = len(partition)
    chunks = list(_orbit_atoms(T, weights, length, DEFAULT_CAPACITY))
    # Chunks of c steps, c = min(8, 8 // ceil(log2 d)), and a shorter last one.
    c = min(length, {1: 8, 2: 8, 3: 4, 4: 4, 5: 2, 17: 1}[d])
    widths = [width for _, width in chunks]
    assert widths == [c] * (length // c) + ([length % c] if length % c else [])
    got = chunk_steps(chunks, d)
    want = list(orbit_atoms_step_walk(T, weights, length))
    assert len(got) == len(want) == length
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


# --- cell overlaps ---------------------------------------------------------------

# A prime denominator past 2**53: its arcs take the Python-integer path.
HUGE = (1 << 61) - 1


def circle_arcs(n: int):
    """(start, span) arcs: any rational arc, wrapping or not; a full span from
    a non-zero start; an arc narrower than one cell; and arcs whose
    denominator is a prime past 2**53.  Starts land anywhere, on cell edges,
    and in the half of cell 0 below the seam."""
    def over(q: int, lo: int, hi: int):  # k / q for lo <= k <= hi
        return st.integers(lo, hi).map(lambda k: Fraction(k, q))

    narrow = st.integers(2, 9).flatmap(lambda m: over(m * n, 1, m - 1))
    inside = st.one_of(
        st.integers(2, 6 * n).flatmap(lambda q: over(q, 1, q - 1)),
        st.integers(0, n - 1).map(lambda k: Fraction(2 * k + 1, 2 * n)),  # cell edges
        narrow.map(lambda f: 1 - f / 2),  # below the seam, inside cell 0
    )
    point = st.one_of(st.just(Fraction(0)), inside)
    span = st.one_of(st.integers(1, 6 * n).flatmap(lambda q: over(q, 1, q)), over(n, 1, n))
    return st.one_of(
        st.tuples(point, span),
        st.tuples(inside, st.just(Fraction(1))),
        st.tuples(point, narrow),
        st.tuples(over(HUGE, 0, HUGE - 1), over(HUGE, 1, HUGE)),
    )


def _arc_and_complement(start: Fraction, span: Fraction) -> list[tuple[Fraction, Fraction]]:
    return [(start, span)] if span == 1 else [(start, span), ((start + span) % 1, 1 - span)]


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(circle_arcs(n), min_size=2, max_size=4))))
@example((8, [(Fraction(7, 8), Fraction(1, 4)), (Fraction(1, 3), Fraction(1))]))  # wrap, full
@example((8, [(Fraction(31, 32), Fraction(1)), (Fraction(63, 64), Fraction(15, 16))]))  # seam
@example((8, [(Fraction(3, 16), Fraction(1, 1)), (Fraction(5, 16), Fraction(1, 2))]))  # aligned
@example((5, [(Fraction(1, 7), Fraction(1, 40)), (Fraction(9, 10), Fraction(1, 10))]))  # narrow
def test_axis_weights_equal_fraction_overlaps(case):
    n, arcs = case
    num, den = _axis_weights(arcs, n)
    assert num.shape == (len(arcs), n)
    cells = [cell_interval_pieces(p, n) for p in range(n)]
    for row, (start, span) in zip(num, arcs):
        want = [n * pieces_overlap(cell, arc_pieces(start, span)) for cell in cells]
        assert [Fraction(int(v), den) for v in row] == want
    # The product of the first two arcs and their complements: alignment
    # read off its weights agrees with the boundary test, and the float
    # weights are the correctly rounded Fraction ones.
    partition = Partition(tuple(
        TorusRectangle(xs, xw, ys, yw)
        for xs, xw in _arc_and_complement(*arcs[0])
        for ys, yw in _arc_and_complement(*arcs[1])
    ))
    weights = cell_weights(partition, LatticeConfig(n))
    assert weights.aligned == is_aligned(partition, n)
    wx, wy, atom_of_cell = cell_weights_fraction_oracle(partition, n)
    assert weights.x_weights.tobytes() == wx.tobytes()
    assert weights.y_weights.tobytes() == wy.tobytes()
    if weights.aligned:
        assert np.array_equal(weights.atom_of_cell, atom_of_cell)


# --- snapping a partition to the lattice -----------------------------------------


@st.composite
def grid_partitions(draw, size: int):
    """Products of one cut circle per axis; cuts land anywhere or on cell edges.

    One cut makes a full-span arc starting there; more cut the circle into
    arcs, the last one wrapping the seam.
    """
    anywhere = st.fractions(0, 1, max_denominator=48).filter(lambda f: f < 1)
    on_edge = st.integers(0, size - 1).map(lambda k: Fraction(2 * k + 1, 2 * size))
    axes = []
    for _ in range(2):
        cuts = sorted(draw(st.lists(st.one_of(anywhere, on_edge), min_size=1, max_size=3,
                                    unique=True)))
        spans = [(b - a) % 1 for a, b in zip(cuts, cuts[1:] + cuts[:1])]
        axes.append([(a, w or Fraction(1)) for a, w in zip(cuts, spans)])
    return Partition(tuple(TorusRectangle(xs, xw, ys, yw)
                           for xs, xw in axes[0] for ys, yw in axes[1]))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), grid_partitions(n))))
def test_snap_invariants(case):
    size, partition = case
    try:
        snapped, shift = snap_partition(partition, size)
    except ValueError:  # two boundaries of an atom on one cell edge
        assume(False)
    assert is_aligned(snapped, size)
    assert shift <= 1 / (2 * size)
    assert snap_partition(snapped, size) == (snapped, 0.0)
    if is_aligned(partition, size):
        assert (snapped, shift) == (partition, 0.0)


# --- the word counter ------------------------------------------------------------


@settings(deadline=None)
@given(
    st.one_of(st.none(), matrices),
    # Few lattices past N = 12 separate within 14 steps, so draw small N more often.
    st.one_of(st.integers(2, 12), st.integers(2, 40)),
    st.sampled_from([partition_quadrants(), partition_halves_x2(), partition_bands_x2(3)]),
    st.integers(1, 14),
)
@example(cat_map(), 8, partition_quadrants(), 12)  # the words separate all 64 points at n = 4
def test_one_pass_entropies_equal_per_length_cs_entropy(T, size, partition, n_max):
    try:
        snapped, _ = snap_partition(partition, size)
    except ValueError:  # too coarse a lattice to resolve the partition
        assume(False)
    cfg = LatticeConfig(size)
    one_pass = cs_entropies(T, cfg, snapped, n_max)
    per_length = [cs_entropy(T, cfg, snapped, n) for n in range(1, n_max + 1)]
    assert np.array(one_pass).tobytes() == np.array(per_length).tobytes()


# One preset per alphabet size, and the longest word its 62-bit codes hold,
# ceil(log2 d) bits a symbol.
ALPHABETS = {
    2: partition_halves_x2(),
    3: partition_bands_x2(3),
    4: partition_quadrants(),
    5: partition_bands_x2(5),
}
CEILING = {d: 62 // (d - 1).bit_length() for d in ALPHABETS}


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.none(), matrices),
    st.sampled_from(sorted(ALPHABETS)),
    st.integers(2, 40),
    st.integers(1, 62),
    st.lists(st.integers(1, 62), max_size=3),
)
@example(cat_map(), 3, 9, 62, [])
@example(None, 5, 10, 62, [])
def test_word_runs_equal_a_counter_of_word_tuples(T, d, size, length, checked):
    """Every length's codes and counts, against a Counter of the walks' word tuples;
    the one-pass entropies at the longest and the `checked` lengths, against
    `cs_entropy`."""
    try:
        snapped, _ = snap_partition(ALPHABETS[d], size)
    except ValueError:  # too coarse a lattice to resolve the partition
        assume(False)
    length = min(length, CEILING[d])
    cfg = LatticeConfig(size)
    weights = cell_weights(snapped, cfg)
    chunks = list(_orbit_atoms(T, weights, length, DEFAULT_CAPACITY))
    steps = chunk_steps(chunks, d)
    assert len(steps) == length
    for got, want in zip(steps, orbit_atoms_step_walk(T, weights, length)):
        assert np.array_equal(got, want)
    walks = list(zip(*(symbols.tolist() for symbols in steps)))
    runs = list(_word_runs(chunks, d))
    assert [words.length for words in runs] == list(range(1, length + 1))
    for n, words in enumerate(runs, 1):
        tally = Counter(walk[:n] for walk in walks)
        bits = (d - 1).bit_length()
        want = sorted((sum(s << bits * (n - 1 - k) for k, s in enumerate(word)), count)
                      for word, count in tally.items())
        assert list(zip(words.codes.tolist(), words.counts.tolist())) == want, n
    one_pass = cs_entropies(T, cfg, snapped, length)
    for n in sorted({length, *(min(n, length) for n in checked)}):
        assert one_pass[n - 1].hex() == cs_entropy(T, cfg, snapped, n).hex(), n


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.none(), matrices),
    st.integers(1, 5),
    st.integers(2, 40),
    st.integers(1, 62),
    st.integers(1, 1600),
    st.sampled_from((1, 2, 5, 1 << 14)),
)
@example(cat_map(), 2, 4, 10, 16, 3)  # support of exactly half the walks from length 3 on
@example(cat_map(), 1, 9, 62, 81, 5)  # one atom
@example(cat_map(), 4, 8, 31, 1, 1)  # a single walk
@example(cat_map(), 4, 2, 31, 4, 2)  # every walk distinct from length 1
def test_word_counter_equals_a_scan_per_length(T, d, size, length, walks, block):
    """Every yielded `_Words` of the first `walks` lattice points' orbits:
    support, entropy, the lazily built bounds, codes and counts, against a
    full scan of the prefix array per length.  The counter's blocks are
    shrunk to `block` entries so that runs and continuations straddle them."""
    try:
        snapped, _ = snap_partition(partition_bands_x2(1) if d == 1 else ALPHABETS[d], size)
    except ValueError:  # too coarse a lattice to resolve the partition
        assume(False)
    length = min(length, CEILING.get(d, 62))
    weights = cell_weights(snapped, LatticeConfig(size))
    chunks = [(digits[:walks], width)
              for digits, width in _orbit_atoms(T, weights, length, DEFAULT_CAPACITY)]
    with mock.patch.object(entropy, "_BLOCK", block):
        counted = list(_word_runs(chunks, d))
    scanned = list(word_runs_scan_per_length(chunks, d))
    assert len(counted) == len(scanned) == length
    for n, (words, want) in enumerate(zip(counted, scanned), 1):
        assert words.support == want.support, n
        assert words.entropy.hex() == want.entropy.hex(), n
        for name in ("bounds", "codes", "counts"):
            assert np.array_equal(getattr(words, name), getattr(want, name)), (n, name)


# --- the weighted counter of unaligned partitions --------------------------------

# The presets, and thirds and fifths on both axes: edges no lattice meets dyadically.
WEIGHTED = ["quadrants", "halves-x1", "halves-x2", "bands-x2:3", "bands-x2:4", "bands-x2:5",
            "rects:0,1/3,0,1;1/3,2/3,0,2/5;1/3,2/3,2/5,3/5"]


@settings(deadline=None)
@given(
    st.one_of(st.none(), matrices),
    st.integers(2, 40),
    st.sampled_from(WEIGHTED),
    st.integers(1, 5),
)
@example(cat_map(), 40, "bands-x2:5", 5)  # the oracle sums its start points in two blocks
@example(None, 32, "quadrants", 5)  # the 2-torsion points weigh 1/4 in every quadrant
def test_weighted_words_equal_the_dense_recursion(T, size, spec, length):
    """Unaligned `cs_probabilities` against the dense recursion over every word:
    the same codes, and the same probabilities bit for bit when every cell
    weight is a multiple of 1/256 (every sum is then exact), else within a
    relative 1e-15."""
    partition = parse_partition(spec)
    cfg = LatticeConfig(size)
    weights = cell_weights(partition, cfg)
    assume(not weights.aligned)
    table = cs_probabilities(T, cfg, partition, length)
    dense = cs_probabilities_dense(T, weights, length)
    assert np.array_equal(table.codes, dense.codes)
    if all(np.all(v * 256 == np.round(v * 256)) for v in (weights.x_weights, weights.y_weights)):
        assert table.probs.tobytes() == dense.probs.tobytes()
    else:
        np.testing.assert_allclose(table.probs, dense.probs, rtol=1e-15, atol=0)


# --- exact entropy and the dyadic classical sampler ------------------------------


@given(st.lists(st.one_of(st.integers(1, 20), st.integers(1, 1 << 40)), min_size=1, max_size=300))
@example([1] * 200 + [4] * 100)  # 200 times a term is not one rounded product
def test_exact_path_entropy_equals_sorted_fractions(counts):
    total = sum(counts)
    arr = np.array(counts, dtype=np.int64)
    table = ProbabilityTable(length=9, alphabet=2, codes=np.arange(arr.size), probs=arr / total,
                             counts=arr, total=total)
    got = shannon_entropy(table)
    want = entropy_of_fractions([Fraction(c, total) for c in counts])
    assert got.hex() == want.hex()


@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_from_counts_equals_unique(alphabet, length, data):
    space = alphabet**length
    values = np.array(data.draw(st.lists(st.integers(0, space - 1), min_size=1, max_size=200)),
                      dtype=np.int64)
    table = ProbabilityTable.from_counts(values, length, alphabet)
    codes, counts = np.unique(values, return_counts=True)
    assert table.codes.tolist() == codes.tolist()
    assert table.counts.tolist() == counts.tolist()
    assert int(table.counts.sum()) == table.total == values.size
    assert table.probs.tolist() == (counts / values.size).tolist()


PRESETS = [
    partition_quadrants(),
    partition_halves_x1(),
    partition_halves_x2(),
    partition_bands_x2(3),
    partition_bands_x2(5),
    SEAM_WRAPPING,
]


def _seam_split(size: int) -> Partition:
    """Four aligned atoms whose edge (2N - 1)/(2N) parts cell N - 1 from cell 0."""
    edge, half = Fraction(2 * size - 1, 2 * size), Fraction((size - 1) // 2 + 1, size)
    arcs = ((edge, half), ((edge + half) % 1, 1 - half))
    return Partition(tuple(TorusRectangle(xs, xw, ys, yw) for xs, xw in arcs for ys, yw in arcs))


@functools.lru_cache(maxsize=None)
def _snapped_weights(preset: int, size: int):
    if preset == len(PRESETS):
        snapped = _seam_split(size)
    else:
        snapped, _ = snap_partition(PRESETS[preset], size)
    return snapped, cell_weights(snapped, LatticeConfig(size))


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(st.none(), matrices),
    st.one_of(st.integers(2, 64), st.sampled_from([1000, 3000, 4096]), st.none()),
    st.integers(0, len(PRESETS)),
    st.integers(1, 10),
    st.data(),
)
def test_dyadic_sampler_equals_python_int_orbit(T, size, preset, length, data):
    # size None: a preset as given (bands-x2:3 and :5 have non-dyadic edges),
    # through the 53-bit oracle sampler read by `atom_index`; otherwise the
    # library sampler on a preset snapped to N x N or the seam split, read by
    # cell (N = 3000 and 4096 cut the draws to 51 and 50 bits).
    if size is None:
        partition, weights, bits = PRESETS[preset % len(PRESETS)], None, 53
    else:
        try:
            partition, weights = _snapped_weights(preset, size)
        except ValueError:  # too coarse a lattice to resolve the partition
            assume(False)
        bits = min(53, 64 - (2 * size).bit_length())
    # Numerators at the seam (2**bits - 1 reads as cell 0), at zero and on
    # both sides of cell edges, besides uniform ones; every example holds
    # the largest draw 1 - 2**-53 on each axis.
    top, low_top = (1 << bits) - 1, (1 << (53 - bits)) - 1
    special = [0, top]
    if size is not None:
        for j in (0, size // 2, size - 1):
            edge = ((2 * j + 1) << bits) // (2 * size)
            special += [edge - 1, edge, edge + 1]
    numerator = st.one_of(st.integers(0, (1 << bits) - 1), st.sampled_from(special))
    low = st.integers(0, low_top)
    points = data.draw(st.lists(st.tuples(numerator, low, numerator, low), max_size=30))
    points += [(top, low_top, top, low_top), (top, low_top, 0, 0), (0, 0, top, low_top)]
    x1 = np.array([((a << (53 - bits)) | r) / 2**53 for a, r, _, _ in points])
    x2 = np.array([((b << (53 - bits)) | r) / 2**53 for _, _, b, r in points])
    draws = ReplayedDraws(x1, x2)
    if weights is None:
        got = classical_atom_matrix_53bit(T, partition, length, x1.size, draws)
    else:
        got = _classical_atom_matrix(T, weights, length, x1.size, draws)
    assert got.dtype == np.uint8 and got.shape == (length, x1.size)
    assert got.tolist() == classical_atoms_python_int(T, partition, x1, x2, length, bits)


# --- the Egorov defect -----------------------------------------------------------

OBSERVABLES = [
    Observable.from_function(lambda x1, x2: np.sin(2 * np.pi * x1), 1.0, "sin-x1"),
    Observable.from_function(lambda x1, x2: np.cos(2 * np.pi * x2), 1.0, "cos-x2"),
    Observable.from_function(
        lambda x1, x2: np.cos(2 * np.pi * (x1 + 2 * x2)) + x1 * x2**2, 2.0, "non-separable"
    ),
]


@settings(deadline=None)
@given(matrices, st.integers(2, 40), st.integers(1, 4), st.integers(-5, 60),
       st.sampled_from(OBSERVABLES))
def test_egorov_defect_matches_exact_mesh_oracle(T, size, g, steps, f):
    cfg = LatticeConfig(size)
    table = discretize_aw(f, cfg, 2)
    got = egorov_defect(T, cfg, f, steps, g * size, table=table)
    want = egorov_defect_exact_mesh(T, cfg, f, steps, g * size, table)
    assert abs(got - want) <= 1e-12 * want
