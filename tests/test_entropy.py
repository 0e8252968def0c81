"""Word distributions and entropy production, lattice vs continuous."""
import math
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from torusdyn import entropy
from torusdyn.cli import EXIT_VALIDATION, main
from torusdyn.entropy import (
    _classical_atom_matrix,
    _common_prefixes,
    _orbit_atoms,
    _probs_on_union,
    _word_runs,
    AlignmentRequiredError,
    DimensionMismatchError,
    Partition,
    ProbabilityTable,
    cell_weights,
    compare_entropy_production,
    cs_entropies,
    cs_entropy,
    cs_probabilities,
    fannes_bound,
    partition_bands_x2,
    partition_halves_x1,
    partition_halves_x2,
    partition_quadrants,
    shannon_entropy,
    snap_partition,
)
from torusdyn.lattice import DEFAULT_CAPACITY, CapacityExceededError, LatticeConfig
from torusdyn.maps import ToralMatrix, cat_map, classify
from torusdyn.rectangles import TorusRectangle

from conftest import (
    atom_of_cell_bruteforce,
    atom_of_point_exact,
    cell_weights_fraction_oracle,
    classical_atom_matrix_float,
    classical_probabilities_mc,
    exact_refinement_probabilities,
    is_aligned,
    lattice_word_sampler_mc,
    partition_entropy,
    probs_on_union_oracle,
)

CAT = cat_map()
SHEAR = ToralMatrix(1, 1, 0, 1)
ROT = ToralMatrix(0, 1, -1, 0)
XI = classify(CAT).xi


def _rect(xs, xw, ys, yw):
    return TorusRectangle(Fraction(xs), Fraction(xw), Fraction(ys), Fraction(yw))


def _presets():
    return [
        partition_quadrants(),
        partition_halves_x1(),
        partition_halves_x2(),
        partition_bands_x2(3),
        partition_bands_x2(5),
    ]


def _wrapping_thirds():
    """Four atoms whose arcs wrap the seam on both axes, at non-dyadic edges."""
    return Partition(
        tuple(
            _rect(xs, "1/2", ys, "1/2")
            for xs in ("1/3", "5/6")
            for ys in ("1/5", "7/10")
        ),
        name="wrapping-thirds",
    )


# --- partitions ---------------------------------------------------------------


def test_partition_presets():
    assert len(partition_halves_x1()) == 2
    assert len(partition_quadrants()) == 4
    assert len(partition_bands_x2(5)) == 5
    assert [a.area for a in partition_quadrants().atoms] == [Fraction(1, 4)] * 4


def test_partition_rejects_bad_total_area():
    with pytest.raises(ValueError):
        Partition((_rect(0, "1/2", 0, 1),))


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        Partition((_rect(0, "1/2", 0, 1), _rect("1/4", "1/2", 0, 1), _rect("3/4", "1/4", 0, 1)))


def test_atom_index_half_open_convention():
    p = partition_quadrants()
    idx = p.atom_index(np.array([0.0, 0.5, 0.0, 0.5, 0.499999]), np.array([0.0, 0.0, 0.5, 0.5, 0.0]))
    # x1-major ordering: atom = 2*(x1-half) + (x2-half)
    assert list(idx) == [0, 2, 1, 3, 0]


def test_atom_index_at_non_dyadic_band_edges():
    # float(1/3) < 1/3 and float(2/3) < 2/3: both points lie below the edge
    p = partition_bands_x2(3)
    assert p.atom_index(0.1, float(1 / 3)) == 0
    assert p.atom_index(0.1, float(2 / 3)) == 1
    assert p.atom_index(0.1, float(np.nextafter(1 / 3, 1))) == 1


def _edge_neighbourhood(edges):
    """Each edge as a float and its two float neighbours, inside [0, 1)."""
    values = set()
    for e in edges:
        f = float(e)
        values.update((np.nextafter(f, -1.0), f, np.nextafter(f, 2.0)))
    return np.array(sorted(v % 1.0 for v in values))


def test_atom_index_matches_exact_membership():
    rng = np.random.default_rng(31)
    for base in _presets() + [_wrapping_thirds()]:
        variants = [base] + [snap_partition(base, size)[0] for size in (5, 8, 12, 100)]
        for part in variants:
            xs = _edge_neighbourhood(
                [v for r in part.atoms for v in (r.x_start, r.x_start + r.x_span)]
            )
            ys = _edge_neighbourhood(
                [v for r in part.atoms for v in (r.y_start, r.y_start + r.y_span)]
            )
            x1, x2 = np.meshgrid(xs, ys, indexing="ij")
            x1 = np.concatenate([x1.ravel(), rng.random(200)])
            x2 = np.concatenate([x2.ravel(), rng.random(200)])
            got = part.atom_index(x1, x2)
            want = [atom_of_point_exact(part, a, b) for a, b in zip(x1, x2)]
            assert got.tolist() == want, part


def test_alignment_detection():
    # edges sit at (k + 1/2)/size; the boundary at 0 is a cell center, so
    # the raw quadrants are never aligned and snapping always moves them
    assert not is_aligned(partition_quadrants(), 5)
    assert not is_aligned(partition_quadrants(), 8)
    snapped, shift = snap_partition(partition_quadrants(), 8)
    assert is_aligned(snapped, 8)
    assert shift == pytest.approx(1 / 16, abs=0)
    # snapping is idempotent
    again, shift2 = snap_partition(snapped, 8)
    assert shift2 == 0.0
    assert again.atoms == snapped.atoms


def test_full_span_arc_start_is_no_boundary():
    # Four x2-bands on the cell edges (2k+1)/16 of N = 8, each spanning all
    # of x1 from 0: their only boundaries are on cell edges, so the
    # partition is aligned, snaps to itself and takes the counting path.
    bands = Partition(tuple(_rect(0, 1, Fraction(4 * k + 1, 16), "1/4") for k in range(4)))
    cfg = LatticeConfig(8)
    assert is_aligned(bands, 8)
    snapped, shift = snap_partition(bands, 8)
    assert snapped == bands and shift == 0.0
    one_pass = cs_entropies(CAT, cfg, bands, 7)
    assert one_pass == [cs_entropy(CAT, cfg, bands, n) for n in range(1, 8)]
    assert cs_probabilities(CAT, cfg, bands, 7).is_exact  # past the unaligned cap


def test_snap_ties_move_upward():
    part = Partition((_rect(0, "1/2", 0, 1), _rect("1/2", "1/2", 0, 1)), name="h")
    snapped, _ = snap_partition(part, 8)
    # boundary 1/2 = 8/16 is equidistant from 7/16 and 9/16; rule picks 9/16
    assert snapped.atoms[1].x_start == Fraction(9, 16)


def test_snap_collapse_raises():
    with pytest.raises(ValueError):
        snap_partition(partition_bands_x2(8), 4)


# --- cell weights ---------------------------------------------------------------


def test_cell_weights_aligned_zero_one():
    cfg = LatticeConfig(8)
    snapped, _ = snap_partition(partition_quadrants(), 8)
    w = cell_weights(snapped, cfg)
    assert w.aligned
    assert set(np.unique(w.x_weights)) <= {0.0, 1.0}
    assert np.array_equal(np.bincount(w.atom_of_cell), [16, 16, 16, 16])


def test_cell_weights_atom_map_matches_bruteforce():
    for base in _presets() + [_wrapping_thirds()]:
        for size in (5, 8, 12, 33):
            snapped, _ = snap_partition(base, size)
            w = cell_weights(snapped, LatticeConfig(size))
            assert w.aligned
            assert w.atom_of_cell.dtype == np.uint8
            assert np.array_equal(w.atom_of_cell, atom_of_cell_bruteforce(snapped, size))


def test_cell_weights_aligned_match_fraction_overlaps():
    for base in _presets() + [_wrapping_thirds()]:
        for size in (5, 8, 12, 33):
            snapped, _ = snap_partition(base, size)
            w = cell_weights(snapped, LatticeConfig(size))
            wx, wy, atom_of_cell = cell_weights_fraction_oracle(snapped, size)
            assert w.x_weights.dtype == w.y_weights.dtype == np.float64
            assert np.array_equal(w.x_weights, wx)
            assert np.array_equal(w.y_weights, wy)
            assert np.array_equal(w.atom_of_cell, atom_of_cell)


def test_cell_weights_aligned_cover_is_checked():
    snapped, _ = snap_partition(partition_quadrants(), 8)
    cfg = LatticeConfig(8)
    # Bypass Partition validation: a missing atom leaves cells uncovered,
    # a repeated one covers cells twice.  The first bad cell in row-major
    # order is reported.
    for atoms, message in (
        (snapped.atoms[:1] + snapped.atoms[2:], r"aligned cell \(1,0\) lies in 0 atoms"),
        (snapped.atoms + snapped.atoms[:1], r"aligned cell \(1,1\) lies in 2 atoms"),
    ):
        broken = object.__new__(Partition)
        object.__setattr__(broken, "atoms", atoms)
        object.__setattr__(broken, "name", "broken")
        with pytest.raises(AssertionError, match=message):
            cell_weights(broken, cfg)


def test_cell_weights_unaligned_rows_sum_to_one():
    cfg = LatticeConfig(8)
    w = cell_weights(partition_quadrants(), cfg)  # boundary 1/2 not on an edge
    assert not w.aligned
    p1, p2 = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    totals = w.weight_products(p1.ravel(), p2.ravel()).sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-12)


# --- word codes and tables ------------------------------------------------------


def test_word_codes_roundtrip():
    # The counter packs the step-k symbol of an L-step walk at alphabet**(L-1-k)
    # and yields each length's distinct words, as n-digit prefixes, with
    # their counts; the base-alphabet digits of each code give the word back.
    words = np.array([(0, 0, 0, 0), (3, 1, 2, 0), (1, 0, 0, 2), (3, 3, 3, 3), (3, 1, 2, 1)],
                     dtype=np.uint8)
    steps = [(words[:, k].copy(), 1) for k in range(4)]
    runs = list(_word_runs(steps, 4))
    assert [r.length for r in runs] == [1, 2, 3, 4]
    for n, r in enumerate(runs, 1):
        want = Counter(tuple(w[:n].tolist()) for w in words)
        got = {}
        for code, count in zip(r.codes.tolist(), r.counts.tolist()):
            got[tuple(code // 4 ** (n - 1 - k) % 4 for k in range(n))] = count
        assert got == dict(want)
        assert r.codes.tolist() == sorted(r.codes.tolist())
        assert r.total == len(words)
    # step order = significance order, oldest symbol most significant
    assert runs[2].codes.tolist()[2] == 3 * 16 + 1 * 4 + 2
    assert runs[2].counts.tolist()[2] == 2
    # chunks of several steps, their digits oldest first, pack to the same codes
    chunked = [(words[:, 0] * 16 + words[:, 1] * 4 + words[:, 2], 3), (words[:, 3].copy(), 1)]
    assert [(r.codes.tolist(), r.counts.tolist(), r.entropy)
            for r in _word_runs(chunked, 4)] == [
        (r.codes.tolist(), r.counts.tolist(), r.entropy) for r in runs]
    # a single walk has a word of its own at every length
    single = _word_runs([(np.array([2], dtype=np.uint8), 1)] * 3, 4)
    assert [(r.codes.tolist(), r.counts.tolist(), r.entropy) for r in single] == [
        ([2], [1], 0.0), ([10], [1], 0.0), ([42], [1], 0.0)]


@pytest.mark.parametrize("alphabet", [2, 3, 4, 5])
def test_common_prefixes_at_powers_of_the_alphabet(alphabet):
    # Gaps of exactly alphabet**k and one either side, up to the 62-bit
    # ceiling, where the float estimate of the leading digit is closest to
    # wrong; against Python-integer prefixes.
    length = math.floor(62 / math.log2(alphabet))
    top = alphabet**length - 1
    for k in range(length):
        for gap in (alphabet**k - 1, alphabet**k, alphabet**k + 1):
            # the last low carries into digit k + 1 when gap = alphabet**k + 1
            for low in (0, (top - gap) // 3, top - gap, alphabet ** (k + 1) - 1):
                if gap == 0 or low + gap > top:
                    continue
                shared = _common_prefixes(np.array([low, low + gap]), alphabet, length)
                want = max(n for n in range(length + 1)
                           if low // alphabet ** (length - n) == (low + gap) // alphabet ** (length - n))
                assert shared.tolist() == [-1, want, -1], (k, gap, low)


def test_word_space_guard():
    with pytest.raises(CapacityExceededError):
        cs_probabilities(CAT, LatticeConfig(4), partition_quadrants(), 40)


def test_probability_table_validation():
    with pytest.raises(ValueError):
        ProbabilityTable.from_probs(np.array([0, 0], dtype=np.int64), np.array([0.5, 0.5]), 1, 2)
    with pytest.raises(ValueError):
        ProbabilityTable.from_probs(np.array([0], dtype=np.int64), np.array([0.5]), 1, 2)
    tbl = ProbabilityTable.from_counts(np.array([0, 1, 1, 3]), 1, 4)
    assert tbl.is_exact
    assert tbl.codes.tolist() == [0, 1, 3]
    assert Fraction(int(tbl.counts[1]), tbl.total) == Fraction(1, 2)
    assert tbl.probability(2) == 0.0
    assert tbl.codes.size == 3


def test_shannon_entropy_exact_path_matches_float():
    uniform = ProbabilityTable.from_counts(np.arange(4), 1, 4)
    assert shannon_entropy(uniform) == pytest.approx(math.log(4), abs=1e-15)
    tbl = ProbabilityTable.from_counts(np.array([0, 0, 1, 2]), 1, 3)
    assert shannon_entropy(tbl) == pytest.approx(
        -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25)), abs=1e-13
    )


# --- lattice word distributions ---------------------------------------------------


def test_cs_probabilities_normalized_and_counted():
    cfg = LatticeConfig(9)
    snapped, _ = snap_partition(partition_quadrants(), 9)
    tbl = cs_probabilities(CAT, cfg, snapped, 3)
    assert tbl.is_exact
    assert sum(Fraction(int(c), tbl.total) for c in tbl.counts) == 1
    assert tbl.total == 81


def test_identity_dynamics_entropy_is_partition_entropy_bitwise():
    for size in (8, 16):
        for part in (partition_quadrants(), partition_halves_x1(), partition_bands_x2(4)):
            snapped, _ = snap_partition(part, size)
            expect = partition_entropy(snapped)
            for n in (1, 2, 3):
                assert cs_entropy(None, LatticeConfig(size), snapped, n) == expect


def test_aligned_and_weighted_paths_agree():
    cfg = LatticeConfig(12)
    snapped, _ = snap_partition(partition_quadrants(), 12)
    aligned_tbl = cs_probabilities(CAT, cfg, snapped, 3)
    w = cell_weights(snapped, cfg)
    forced = CellWeightTableNoAlign(w)
    dp_tbl = cs_probabilities(CAT, cfg, snapped, 3, weights=forced)
    union = sorted(set(aligned_tbl.codes) | set(dp_tbl.codes))
    for c in union:
        assert abs(aligned_tbl.probability(c) - dp_tbl.probability(c)) < 1e-12


class CellWeightTableNoAlign:
    """Wrapper that hides alignment, forcing the dense product recursion."""

    def __init__(self, inner):
        self.cfg = inner.cfg
        self.atom_count = inner.atom_count
        self.x_weights = inner.x_weights
        self.y_weights = inner.y_weights
        self.aligned = False
        self.atom_of_cell = None
        self.weight_products = inner.weight_products


def test_unaligned_refused_past_cap():
    cfg = LatticeConfig(8)
    with pytest.raises(AlignmentRequiredError):
        cs_probabilities(CAT, cfg, partition_quadrants(), 7)  # 4**7 > 4096


def test_unaligned_small_words_allowed():
    cfg = LatticeConfig(8)
    tbl = cs_probabilities(CAT, cfg, partition_quadrants(), 2)
    total = float(np.sum([tbl.probability(int(c)) for c in tbl.codes]))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_entropy_components_split():
    cfg = LatticeConfig(32)
    snapped, _ = snap_partition(partition_quadrants(), 32)
    s = cs_entropies(CAT, cfg, snapped, 4)
    assert s[0] == pytest.approx(math.log(4), abs=1e-12)  # readout of 4 equal atoms
    assert 0.5 * XI < (s[3] - s[0]) / 3 < 1.5 * XI  # dynamical part per step


# --- exact geometry oracle ---------------------------------------------------------


def test_exact_refinement_total_mass():
    for T in (CAT, SHEAR, ROT, None):
        probs = exact_refinement_probabilities(T, partition_quadrants(), 2)
        assert sum(probs.values()) == 1


def test_exact_refinement_cat_halves_is_uniform():
    # final x1 = frac(2 a + b) with (a,b) uniform: independent of starting half
    probs = exact_refinement_probabilities(CAT, partition_halves_x1(), 2)
    assert set(probs.values()) == {Fraction(1, 4)}
    assert len(probs) == 4


def test_exact_refinement_identity_is_diagonal():
    probs = exact_refinement_probabilities(None, partition_quadrants(), 2)
    assert probs == {a + a * 4: Fraction(1, 4) for a in range(4)}


def test_exact_refinement_matches_classical_mc():
    samples = 400_000
    exact = exact_refinement_probabilities(CAT, partition_quadrants(), 2)
    mc = classical_probabilities_mc(CAT, partition_quadrants(), 2, samples, seed=11)
    for code, p in exact.items():
        p = float(p)
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(mc.probability(code) - p) < 4 * se + 1e-12


def test_cs_probabilities_approach_exact_geometry():
    exact = exact_refinement_probabilities(CAT, partition_quadrants(), 2)
    cfg = LatticeConfig(512)
    snapped, _ = snap_partition(partition_quadrants(), 512)
    tbl = cs_probabilities(CAT, cfg, snapped, 2)
    worst = max(abs(tbl.probability(c) - float(p)) for c, p in exact.items())
    assert worst < 0.01


def test_cs_probabilities_match_independent_lattice_sampler():
    samples = 400_000
    for size, length in ((16, 3), (12, 2), (9, 3)):
        cfg = LatticeConfig(size)
        snapped, _ = snap_partition(partition_quadrants(), size)
        tbl = cs_probabilities(CAT, cfg, snapped, length)
        mc = lattice_word_sampler_mc(CAT, size, snapped, length, samples, seed=13)
        for code in tbl.codes:
            p = tbl.probability(int(code))
            se = math.sqrt(max(p * (1 - p), 1e-12) / samples)
            assert abs(mc.probability(int(code)) - p) < 4 * se + 1e-9


# --- classical entropy --------------------------------------------------------------


def test_ks_entropy_monotone_and_rate():
    cmp = compare_entropy_production(CAT, partition_quadrants(), 8, (256,), 200_000, seed=17)
    s = cmp.s_ks[0]
    assert all(s[i] <= s[i + 1] + 1e-12 for i in range(len(s) - 1))
    # per-step production settles near the expansion rate
    assert cmp.ks_increments[0, 5] == pytest.approx(XI, rel=0.1)
    assert cmp.as_dict()["n_max"] == 8


def test_ks_entropy_shear_and_rotation_stall():
    shear = compare_entropy_production(SHEAR, partition_bands_x2(2), 6, (256,), 100_000, seed=17)
    assert all(abs(v) < 1e-12 for v in shear.ks_increments[0, 1:])
    rot = compare_entropy_production(ROT, partition_quadrants(), 6, (256,), 100_000, seed=17)
    assert all(abs(v) < 1e-12 for v in rot.ks_increments[0, 4:])


@pytest.mark.parametrize("index, size", [(0, 256), (3, 2048)])
def test_dyadic_sampler_matches_float_walk_on_the_ladder(index, size):
    # The ladder's classical side at one size: cat map, quadrants snapped to
    # the lattice, 20 steps, 200 000 samples from a child of the run's seed.
    child = np.random.SeedSequence(5).spawn(4)[index]
    snapped, _ = snap_partition(partition_quadrants(), size)
    weights = cell_weights(snapped, LatticeConfig(size))
    got = _classical_atom_matrix(CAT, weights, 20, 200_000, child)
    want = classical_atom_matrix_float(CAT, snapped, 20, 200_000, child)
    assert got.shape == (20, 200_000)
    assert np.array_equal(got, want.T)


def test_dyadic_horizon_refuses_long_hyperbolic_words(tmp_path, capsys):
    # Dyadic orbits at b bits stop imitating T near 2 b log 2 / xi steps:
    # 72.02 for the cat map and 39.32 for [[5,2],[2,1]] at 50 bits (N = 4096).
    snapped, _ = snap_partition(partition_quadrants(), 4096)
    weights = cell_weights(snapped, LatticeConfig(4096))
    assert _classical_atom_matrix(CAT, weights, 72, 10, 1).shape == (72, 10)
    with pytest.raises(ValueError, match="horizon"):
        _classical_atom_matrix(CAT, weights, 73, 10, 1)
    for T in (None, SHEAR, ROT):  # no expansion, no horizon
        assert _classical_atom_matrix(T, weights, 500, 10, 1).shape == (500, 10)
    argv = ["entropy", "--matrix", "5", "2", "2", "1", "--partition", "halves-x1",
            "--sizes", "4096", "--n-max", "40", "--samples", "10", "--seed", "1",
            "--output", str(tmp_path / "e.csv")]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("ValueError:")
    assert not (tmp_path / "e.csv").exists()


# --- continuity bound -----------------------------------------------------------------


def test_fannes_bound_on_mc_vs_exact():
    exact = exact_refinement_probabilities(CAT, partition_quadrants(), 2)
    codes = np.array(sorted(exact), dtype=np.int64)
    probs = np.array([float(exact[c]) for c in sorted(exact)])
    a = ProbabilityTable.from_probs(codes, probs, 2, 4)
    b = classical_probabilities_mc(CAT, partition_quadrants(), 2, 50_000, seed=23)
    delta, bound = fannes_bound(a, b)
    assert 0 < delta < 0.05
    assert abs(shannon_entropy(a) - shannon_entropy(b)) <= bound


def test_fannes_bound_random_tables():
    rng = np.random.default_rng(29)
    for length, alphabet in ((2, 3), (3, 2), (1, 5)):
        space = alphabet**length
        codes = np.arange(space, dtype=np.int64)
        pa = rng.dirichlet(np.ones(space))
        pb = rng.dirichlet(np.ones(space) * 0.3)
        a = ProbabilityTable.from_probs(codes, pa, length, alphabet)
        b = ProbabilityTable.from_probs(codes, pb, length, alphabet)
        delta, bound = fannes_bound(a, b)
        assert abs(shannon_entropy(a) - shannon_entropy(b)) <= bound
        assert delta <= 2.0


def _table(codes, length=20, alphabet=4):
    codes = np.asarray(codes, dtype=np.int64)
    probs = np.arange(1, codes.size + 1, dtype=float)
    return ProbabilityTable.from_probs(codes, probs / probs.sum(), length, alphabet)


def test_probs_on_union_matches_union1d_bitwise():
    rng = np.random.default_rng(37)
    big_a = np.unique(rng.integers(0, 1 << 22, 100_000))
    big_b = np.unique(rng.integers(0, 1 << 22, 100_000))
    cases = [
        ([0, 2, 4], [1, 3, 5]),  # disjoint, interleaved
        ([0, 1, 2], [10, 11]),  # disjoint, separated
        ([3, 7, 9], [3, 7, 9]),  # identical
        ([1, 4, 6, 8, 20], [4, 8]),  # nested
        ([4, 8], [1, 4, 6, 8, 20]),
        ([5], [5]),  # single code
        ([5], [2]),
        ([5], [1, 5, 9]),
        (big_a, big_b),
    ]
    for codes_a, codes_b in cases:
        a, b = _table(codes_a), _table(codes_b)
        pa, pb = _probs_on_union(a, b)
        qa, qb = probs_on_union_oracle(a, b)
        assert pa.tobytes() == qa.tobytes()
        assert pb.tobytes() == qb.tobytes()


def test_fannes_bound_dimension_mismatch():
    codes = np.array([0, 1], dtype=np.int64)
    a = ProbabilityTable.from_probs(codes, np.array([0.5, 0.5]), 1, 2)
    b = ProbabilityTable.from_probs(codes, np.array([0.5, 0.5]), 2, 2)
    with pytest.raises(DimensionMismatchError):
        fannes_bound(a, b)


# --- side-by-side production ------------------------------------------------------------


def test_compare_hyperbolic_ladder():
    cmp = compare_entropy_production(
        CAT, partition_quadrants(), 12, (32, 64, 128), 100_000, seed=101
    )
    assert cmp.family == "hyperbolic"
    assert cmp.classical_rate == pytest.approx(XI, abs=1e-12)
    assert cmp.breaking == (7, 8, 10)
    assert cmp.slope is not None and cmp.slope > 0
    assert cmp.fannes_checked > 0 and cmp.fannes_violations == 0
    # before breaking, lattice matches classical per-step production
    for i, size in enumerate(cmp.sizes):
        window = int(0.5 * math.log(size) / XI)
        for n in range(1, window + 1):
            assert abs(cmp.ks_increments[i, n - 1] - cmp.cs_increments[i, n - 1]) < 0.05
    d = cmp.as_dict()
    assert d["breaking"] == [7, 8, 10]
    assert len(d["s_cs"]) == 3 and len(d["s_cs"][0]) == 13


def test_compare_stops_the_lattice_walk_at_separation(monkeypatch):
    """Past the length whose words separate every lattice point nothing changes.

    With N**2 at or above the audit cap, lattice counting stops there: S_cs
    repeats log N**2, the classical side and the breaking outputs are
    untouched, and the lattice counter yields no later length (7 and 9
    lengths instead of 14).
    """
    part = partition_quadrants()
    sizes = (32, 64)
    default = compare_entropy_production(CAT, part, 14, sizes, 50_000, seed=3)
    yielded = Counter()

    def counting(symbol_steps, alphabet):
        for words in word_runs(symbol_steps, alphabet):
            yielded[words.total] += 1
            yield words

    word_runs = entropy._word_runs
    monkeypatch.setattr(entropy, "_word_runs", counting)
    capped = compare_entropy_production(CAT, part, 14, sizes, 50_000, seed=3, diff_support_cap=1024)
    monkeypatch.undo()
    assert yielded == {32**2: 7, 64**2: 9, 50_000: 2 * 14}
    assert capped.s_ks.tobytes() == default.s_ks.tobytes()
    assert capped.breaking == default.breaking and capped.slope == default.slope
    assert capped.fannes_violations == 0
    assert capped.fannes_checked == int(np.isfinite(capped.eps_hat).sum())
    children = np.random.SeedSequence(3).spawn(len(sizes))
    for i, (size, separated_at) in enumerate(zip(sizes, (7, 9))):
        cfg = LatticeConfig(size)
        snapped, _ = snap_partition(part, size)
        tables = [cs_probabilities(CAT, cfg, snapped, n) for n in range(1, 15)]
        supports = [t.codes.size for t in tables]
        assert supports.index(cfg.points) + 1 == separated_at
        want = [0.0] + [shannon_entropy(t) for t in tables]
        assert capped.s_cs[i].tolist() == want
        weights = cell_weights(snapped, cfg)
        atoms = _classical_atom_matrix(CAT, weights, 14, 50_000, children[i])
        codes = np.zeros(atoms.shape[1], dtype=np.int64)
        for n, symbols in enumerate(atoms, 1):
            codes += symbols.astype(np.int64) * 4 ** (n - 1)
            audited = supports[n - 1] + np.unique(codes).size <= 1024
            got, full = capped.eps_hat[i, n - 1], default.eps_hat[i, n - 1]
            assert (got == full) if audited else math.isnan(got), (size, n)


def test_compare_audit_on_its_helper_thread_matches_a_serial_audit(monkeypatch):
    """The continuity audit runs beside the walk and gives the serial results.

    Every length is audited at these sizes, so `eps_hat` and the Fannes
    margins are recomputed here length by length from the same word sets.
    An audit's exception reaches the caller, and either way the helper
    thread is gone when the call ends.
    """
    part = partition_quadrants()
    sizes, n_max, samples = (32, 64, 128), 12, 50_000
    before = threading.active_count()
    cmp = compare_entropy_production(CAT, part, n_max, sizes, samples, seed=11)
    assert threading.active_count() == before
    children = np.random.SeedSequence(11).spawn(len(sizes))
    margins = []
    for i, size in enumerate(sizes):
        cfg = LatticeConfig(size)
        snapped, _ = snap_partition(part, size)
        weights = cell_weights(snapped, cfg)
        atoms = _classical_atom_matrix(CAT, weights, n_max, samples, children[i])
        lattice = _word_runs(_orbit_atoms(CAT, weights, n_max, DEFAULT_CAPACITY), 4)
        classical = _word_runs(((symbols, 1) for symbols in atoms), 4)
        for k, (cs, ks) in enumerate(zip(lattice, classical)):
            pa, pb = _probs_on_union(cs.table(), ks.table())
            assert cmp.eps_hat[i, k] == np.abs(pa - pb).max(), (size, k + 1)
            _, bound = fannes_bound(cs.table(), ks.table())
            margins.append(bound - abs(cs.entropy - ks.entropy))
    assert cmp.fannes_checked == len(margins) == len(sizes) * n_max
    assert cmp.fannes_violations == 0
    assert cmp.fannes_min_margin == min(margins)

    def failing(a, b):
        raise RuntimeError("audit failed")

    monkeypatch.setattr(entropy, "_probs_on_union", failing)
    with pytest.raises(RuntimeError, match="audit failed"):
        compare_entropy_production(CAT, part, n_max, sizes, samples, seed=11)
    assert threading.active_count() == before


def test_compare_low_entropy_partition_no_spurious_break():
    cmp = compare_entropy_production(
        CAT, partition_halves_x1(), 8, (256,), 100_000, seed=101
    )
    assert cmp.breaking == (None,)  # log(2) per step still above half the rate


def test_compare_non_hyperbolic_never_breaks():
    rot = compare_entropy_production(ROT, partition_quadrants(), 8, (64,), 100_000, seed=5)
    assert rot.family == "elliptic" and rot.breaking == (None,)
    sh = compare_entropy_production(SHEAR, partition_bands_x2(2), 8, (64,), 100_000, seed=5)
    assert sh.family == "parabolic" and sh.breaking == (None,)
    assert np.all(np.abs(sh.gaps) < 1e-6)
    ident = compare_entropy_production(None, partition_quadrants(), 5, (64,), 50_000, seed=5)
    assert ident.family == "identity" and ident.breaking == (None,)
    assert ident.slope is None


def test_compare_requires_sizes():
    with pytest.raises(ValueError):
        compare_entropy_production(CAT, partition_quadrants(), 4, (), 1000, seed=1)
