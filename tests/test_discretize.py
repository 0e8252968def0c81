"""Cell-average coarse-graining, kernels, defects, and tracking guarantees."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from torusdyn.discretize import (
    DiagonalObservable,
    Observable,
    ThresholdUnmetError,
    check_dynamical_localization,
    check_orbit_shadowing,
    discretize_aw,
    egorov_defect,
    kernel_many,
    localization_threshold,
    shadowing_threshold,
)
from torusdyn.lattice import LatticeConfig, orbit_period, round_coordinates, torus_distance_arrays
from torusdyn.maps import ToralMatrix, cat_map, classify, matrix_power_entries
from torusdyn.rectangles import (
    TorusRectangle,
    arc_pieces,
    pieces_overlap,
    rectangle_overlap_area,
)

from conftest import (
    cell_interval_pieces,
    clip_polygon_to_box,
    egorov_defect_exact_mesh,
    kernel_defect,
    polygon_area,
)

CAT = cat_map()
SHEAR = ToralMatrix(1, 1, 0, 1)
ROT = ToralMatrix(0, 1, -1, 0)

ONE = Observable.from_function(lambda x1, x2: np.ones(np.broadcast(x1, x2).shape), 1.0, "one")
SIN1 = Observable.from_function(lambda x1, x2: np.sin(2 * np.pi * x1), 1.0, "sin-x1")
COS2 = Observable.from_function(lambda x1, x2: np.cos(2 * np.pi * x2), 1.0, "cos-x2")
SIN_SUM = Observable.from_function(lambda x1, x2: np.sin(2 * np.pi * (x1 + x2)), 1.0, "sin-sum")


# --- exact rectangle geometry -------------------------------------------------


def test_rectangle_validation():
    with pytest.raises(ValueError):
        TorusRectangle(Fraction(1), Fraction(1, 2), Fraction(0), Fraction(1))  # start >= 1
    with pytest.raises(ValueError):
        TorusRectangle(Fraction(0), Fraction(0), Fraction(0), Fraction(1))  # empty span
    with pytest.raises(TypeError):
        TorusRectangle(0.25, Fraction(1, 2), Fraction(0), Fraction(1))  # float coordinate


def test_rectangle_wraparound_pieces_and_area():
    rect = TorusRectangle(Fraction(3, 4), Fraction(1, 2), Fraction(0), Fraction(1))
    assert rect.x_pieces() == ((Fraction(3, 4), Fraction(1)), (Fraction(0), Fraction(1, 4)))
    assert rect.area == Fraction(1, 2)
    inside = rect.contains_arrays(np.array([0.9, 0.1, 0.5]), np.array([0.5, 0.5, 0.5]))
    assert inside.tolist() == [True, True, False]


def test_overlap_area_exact():
    a = TorusRectangle(Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2))
    b = TorusRectangle(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))
    assert rectangle_overlap_area(a, b) == Fraction(1, 16)
    # wrap vs non-wrap overlap
    c = TorusRectangle(Fraction(7, 8), Fraction(1, 4), Fraction(0), Fraction(1))
    assert rectangle_overlap_area(a, c) == Fraction(1, 16)


def test_cell_interval_pieces_cover_and_wrap():
    for size in (2, 5, 8):
        total = Fraction(0)
        for p in range(size):
            pieces = cell_interval_pieces(p, size)
            total += sum(e - s for s, e in pieces)
            if p == 0:
                assert len(pieces) == 2  # the seam cell wraps
        assert total == 1


def test_pieces_overlap_matches_float_sampling():
    a = arc_pieces(Fraction(4, 5), Fraction(2, 5))
    b = arc_pieces(Fraction(1, 10), Fraction(1, 2))
    exact = pieces_overlap(a, b)
    xs = (np.arange(200000) + 0.5) / 200000
    in_a = ((xs - 0.8) % 1.0) < 0.4
    in_b = ((xs - 0.1) % 1.0) < 0.5
    assert abs(float(exact) - float(np.mean(in_a & in_b))) < 1e-4


def test_polygon_clipping_exact_area():
    tri = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert abs(polygon_area(tri)) == Fraction(1, 2)
    # box inside the triangle: clipping keeps the whole box
    inner = clip_polygon_to_box(tri, Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2))
    assert abs(polygon_area(inner)) == Fraction(1, 4)
    # box crossing the hypotenuse: 9/16 minus the cut corner (legs 1/2) = 7/16
    cut = clip_polygon_to_box(tri, Fraction(0), Fraction(3, 4), Fraction(0), Fraction(3, 4))
    assert abs(polygon_area(cut)) == Fraction(7, 16)


# --- discretization -----------------------------------------------------------


def test_unital():
    X = discretize_aw(ONE, LatticeConfig(7), quadrature=3)
    assert np.all(X.entries == 1.0)


def test_linear_observable_cell_average_is_exact_at_any_quadrature():
    f = Observable.from_function(lambda x1, x2: x1 + 0.0 * x2, 1.0, "x1")
    cfg = LatticeConfig(4)
    for q in (1, 2, 5):
        X = discretize_aw(f, cfg, quadrature=q)
        assert X.entries[cfg.index(1, 0)] == pytest.approx(0.25, abs=1e-15)
        assert X.entries[cfg.index(3, 2)] == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("q", range(1, 9))
def test_one_coordinate_observables_average_along_their_axis(q):
    # The short path must give the cell averages of the full evaluation
    # mesh: bit for bit at q = 1, 2, 4, within float reordering otherwise.
    cfg = LatticeConfig(48)
    for fn in (lambda x1, x2: np.sin(2 * np.pi * x1), lambda x1, x2: np.cos(2 * np.pi * x2) ** 3):
        short = discretize_aw(Observable.from_function(fn, 1.0), cfg, q).entries
        full = discretize_aw(Observable.from_function(
            lambda x1, x2: np.broadcast_to(fn(x1, x2), np.broadcast(x1, x2).shape), 1.0
        ), cfg, q).entries
        if q in (1, 2, 4):
            assert np.array_equal(short, full)
        else:
            assert np.abs(short - full).max() <= 4e-16


def test_indicator_entries_exact():
    half = TorusRectangle(Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1))
    ind = Observable.indicator(half, "left")
    cfg = LatticeConfig(4)
    X = discretize_aw(ind, cfg)
    got = X.entries.reshape(4, 4)
    assert np.array_equal(got[:, 0], [0.5, 1.0, 0.5, 0.0])
    assert np.all(got == got[:, :1])  # independent of the second coordinate
    assert X.entries.mean() == pytest.approx(0.5, abs=0)
    # quadrature path on the same function agrees where it is exact
    Xq = discretize_aw(Observable.from_function(ind.fn, 1.0), cfg, quadrature=8)
    assert np.allclose(Xq.entries, X.entries, atol=1e-12)


def test_indicator_rejects_overlapping_rectangles():
    left = TorusRectangle(Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1))
    middle = TorusRectangle(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(1))
    right = TorusRectangle(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1))
    with pytest.raises(ValueError, match="overlap"):
        Observable.indicator((left, middle))
    # Rectangles that only share an edge are disjoint: the union is everything.
    whole = discretize_aw(Observable.indicator((left, right)), LatticeConfig(4))
    assert np.array_equal(whole.entries, np.ones(16))


def test_positivity_and_bound():
    f = Observable.from_function(lambda x1, x2: 0.5 + 0.5 * np.sin(2 * np.pi * (x1 + x2)), 1.0)
    X = discretize_aw(f, LatticeConfig(9), quadrature=4)
    assert np.all(X.entries >= -1e-15)
    assert np.all(X.entries <= 1.0 + 1e-15)


def test_discretize_dediscretize_roundtrip_on_step_functions():
    """Cell averages of a cell step function give back its entries exactly."""
    cfg = LatticeConfig(8)
    rng = np.random.default_rng(3)
    entries = rng.random(64)
    X = DiagonalObservable(cfg, entries)
    f = Observable.from_function(
        lambda x1, x2: X.entries[round_coordinates(x1, 8) * 8 + round_coordinates(x2, 8)], 1.0
    )
    Y = discretize_aw(f, cfg, quadrature=3)
    assert np.allclose(Y.entries, entries, atol=1e-15)


# --- kernel -------------------------------------------------------------------


def test_kernel_values_and_normalization():
    cfg = LatticeConfig(7)
    ys = np.arange(7) / 7.0
    g1, g2 = np.meshgrid(ys, ys, indexing="ij")
    for n in (0, 1, 3):
        K = kernel_many(
            CAT, cfg, n,
            np.full(49, 0.123), np.full(49, 0.456), g1.ravel(), g2.ravel(),
        )
        assert set(np.unique(K)) <= {0, 1}
        assert K.sum() == 1  # exactly one receiving cell
        j = int(K.argmax())
        one = kernel_many(CAT, cfg, n, np.array([0.123]), np.array([0.456]),
                          g1.ravel()[j:j + 1], g2.ravel()[j:j + 1])
        assert one.tolist() == [1]


def test_kernel_composes_along_orbit():
    cfg = LatticeConfig(31)
    rng = np.random.default_rng(8)
    xs = rng.random(200)
    ys = rng.random(200)
    m = kernel_many(CAT, cfg, 2, xs, ys, *_orbit_images(CAT, cfg, 2, xs, ys))
    assert np.all(m == 1)


def _orbit_images(T, cfg, n, x1, x2):
    from torusdyn.lattice import matrix_power_mod, round_coordinates

    m = matrix_power_mod(T, n, cfg.size)
    p1 = round_coordinates(x1, cfg.size)
    p2 = round_coordinates(x2, cfg.size)
    q1 = (m[0] * p1 + m[1] * p2) % cfg.size
    q2 = (m[2] * p1 + m[3] * p2) % cfg.size
    return q1 / cfg.size, q2 / cfg.size


# --- defects ------------------------------------------------------------------


def test_defect_zero_steps_within_oscillation_bound():
    cfg = LatticeConfig(100)
    d = egorov_defect(CAT, cfg, SIN1, 0, 1000, quadrature=4)
    assert d <= 2 * np.pi / (math.sqrt(12) * 100) * 1.05


def test_defect_vanishes_for_constants():
    assert egorov_defect(CAT, LatticeConfig(64), ONE, 5, 256) < 1e-14


def test_defect_grows_then_saturates():
    cfg = LatticeConfig(100)
    table = discretize_aw(SIN1, cfg, 4)
    defects = [egorov_defect(CAT, cfg, SIN1, j, 700, table=table) for j in range(8)]
    assert all(defects[j] < defects[j + 1] for j in range(4))
    assert defects[6] > 0.5  # far past breaking, order-one defect


def test_kernel_route_agrees_with_direct_route():
    cfg = LatticeConfig(100)
    for j in (0, 2, 4):
        a = egorov_defect(CAT, cfg, SIN1, j, 700, quadrature=3)
        b = kernel_defect(CAT, cfg, SIN1, j, 700, quadrature=3)
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_defect_validates_grid():
    with pytest.raises(ValueError):
        egorov_defect(CAT, LatticeConfig(64), SIN1, 1, 32)


def test_defect_rejects_grid_not_a_multiple_of_size():
    with pytest.raises(ValueError, match="multiple"):
        egorov_defect(CAT, LatticeConfig(64), SIN1, 1, 100)


def test_defect_exact_where_float_powers_lose_precision():
    # The cat map's T**j passes 2**53 near j = 38; a float mesh walk then
    # returned one constant for every j >= 41 at this size.
    cfg = LatticeConfig(16)
    table = discretize_aw(SIN1, cfg, 4)
    defects = []
    for j in range(38, 61):
        d = egorov_defect(CAT, cfg, SIN1, j, 32, table=table)
        assert abs(d - egorov_defect_exact_mesh(CAT, cfg, SIN1, j, 32, table)) <= 1e-12 * d, j
        defects.append(d)
    assert len(set(defects[3:])) > 1


def test_defect_repeats_with_the_order_of_t_mod_twice_the_grid():
    # Mesh images depend on T**j mod 2*grid only; the cat map's order mod 64 is 48.
    cfg = LatticeConfig(16)
    table = discretize_aw(SIN1, cfg, 4)
    assert orbit_period(CAT, LatticeConfig(64)) == 48
    for j in (0, 5, 12):
        assert egorov_defect(CAT, cfg, SIN1, j + 48, 32, table=table) == egorov_defect(
            CAT, cfg, SIN1, j, 32, table=table
        )


def test_one_axis_observable_with_an_uneven_table_takes_the_full_mesh():
    # The one-axis sum needs a table constant along the axis f ignores; any
    # other table must give the full-mesh defect.
    cfg = LatticeConfig(16)
    tables = [(SIN1, discretize_aw(SIN_SUM, cfg, 4))]
    for f, cell in ((SIN1, 37), (COS2, 200)):
        entries = discretize_aw(f, cfg, 4).entries.copy()
        entries[cell] += 1e-3
        tables.append((f, DiagonalObservable(cfg, entries)))
    for f, table in tables:
        for j in (0, 3, 9):
            d = egorov_defect(CAT, cfg, f, j, 48, table=table)
            assert abs(d - egorov_defect_exact_mesh(CAT, cfg, f, j, 48, table)) <= 1e-12 * d, j


def test_observable_of_full_shape_matches_its_one_axis_form():
    # sin(2 pi x1) + 0 x2 returns the full broadcast shape, so it takes the
    # general paths of both `discretize_aw` and `egorov_defect`.
    cfg = LatticeConfig(48)
    full = Observable.from_function(lambda x1, x2: np.sin(2 * np.pi * x1) + 0 * x2, 1.0)
    line, mesh = discretize_aw(SIN1, cfg, 4), discretize_aw(full, cfg, 4)
    assert np.max(np.abs(line.entries - mesh.entries)) <= 1e-15
    for j in (0, 4, 11):
        want = egorov_defect(CAT, cfg, SIN1, j, 96, table=line)
        assert abs(egorov_defect(CAT, cfg, full, j, 96, table=mesh) - want) <= 1e-12 * want, j


def test_one_axis_defect_allocates_no_mesh_sized_array():
    size = 1024
    cfg = LatticeConfig(size)
    table = discretize_aw(SIN1, cfg, 4)
    tracemalloc.start()
    try:
        egorov_defect(CAT, cfg, SIN1, 5, 2 * size, table=table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A quarter of one float64 N x N array.
    assert peak < 2 * size * size


# --- thresholds and guarantees -------------------------------------------------


def test_threshold_formulas():
    root2 = math.sqrt(2)
    cat = classify(CAT)
    lam3 = math.exp(3 * cat.xi)
    assert localization_threshold(cat, 3, 0.1) == pytest.approx(
        max((1 + lam3 / cat.sin_beta) / (0.1 * root2), root2 * lam3 / cat.sin_beta), rel=1e-12
    )
    assert shadowing_threshold(cat, 3) == pytest.approx(root2 * lam3 / cat.sin_beta, rel=1e-12)
    sh = classify(SHEAR)
    assert localization_threshold(sh, 5, 0.1) == pytest.approx(
        max(root2 * (5 * 0.5 + 1) / 0.1, root2 * (2 * 5 * 0.5 + 1)), rel=1e-12
    )
    assert shadowing_threshold(sh, 10) == pytest.approx(root2 * 11, rel=1e-12)
    rot = classify(ROT)
    assert localization_threshold(rot, 9, 0.1) == pytest.approx(
        (1 + 1) / (0.1 * root2), rel=1e-12
    )
    assert shadowing_threshold(rot, 9) == pytest.approx(root2, rel=1e-12)


def test_threshold_validation():
    cat = classify(CAT)
    with pytest.raises(ValueError):
        localization_threshold(cat, -1, 0.1)
    with pytest.raises(ValueError):
        localization_threshold(cat, 3, 0.0)
    with pytest.raises(ValueError):
        localization_threshold(cat, 3, 0.8)  # beyond the torus diameter


def test_localization_above_threshold_no_hits():
    rep = check_dynamical_localization(CAT, LatticeConfig(256), 3, 2.0, 0.1, 20000, seed=42)
    assert rep.premise_satisfied
    assert rep.violations == 0
    assert rep.tested_pairs > 15000
    d = rep.as_dict()
    assert d["check"] == "dynamical_localization" and d["seed"] == 42


def test_localization_below_threshold_sees_hits():
    rep = check_dynamical_localization(CAT, LatticeConfig(8), 4, 2.0, 0.1, 20000, seed=7)
    assert not rep.premise_satisfied
    assert rep.violations >= 1


@pytest.mark.parametrize("gamma", [1.0, 0.0, -1.0, math.nan])
def test_localization_requires_gamma_above_one(gamma):
    with pytest.raises(ValueError, match="gamma"):
        check_dynamical_localization(CAT, LatticeConfig(64), 2, gamma, 0.1, 10, seed=1)


def test_localization_deterministic_in_seed():
    a = check_dynamical_localization(CAT, LatticeConfig(64), 2, 2.0, 0.1, 5000, seed=9)
    b = check_dynamical_localization(CAT, LatticeConfig(64), 2, 2.0, 0.1, 5000, seed=9)
    assert a == b


@pytest.mark.parametrize("steps, tested", [(30, 19361), (40, 19387)])
def test_localization_far_test_uses_the_exact_image(steps, tested):
    # T**n in floats drifted once its entries passed 2**53 and counted 19360
    # and 19400; the recount steps the draws' 53-bit numerators in Python
    # integers and measures distance as the check does.
    rep = check_dynamical_localization(CAT, LatticeConfig(256), steps, 2.0, 0.1, 20_000, seed=5)
    assert rep.tested_pairs == tested
    rng = np.random.default_rng(5)
    xs = rng.random((20_000, 2))
    ys = rng.random((20_000, 2))
    m = matrix_power_entries(CAT, steps)
    top = 2**53
    a = [(int(u * top), int(v * top)) for u, v in xs.tolist()]
    t = np.array([((m[0] * a1 + m[1] * a2) % top / top, (m[2] * a1 + m[3] * a2) % top / top)
                  for a1, a2 in a])
    far = torus_distance_arrays(t[:, 0], t[:, 1], ys[:, 0], ys[:, 1]) >= 0.1
    assert int(far.sum()) == tested


@pytest.mark.parametrize("T, size, steps", [(CAT, 10_000, 3), (SHEAR, 1_000, 10)])
def test_shadowing_walks_the_exact_orbit(T, size, steps):
    rep = check_orbit_shadowing(T, LatticeConfig(size), steps, 5_000, seed=5)
    xs = np.random.default_rng(5).random((5_000, 2))
    top = 2**53
    a = [(int(u * top), int(v * top)) for u, v in xs.tolist()]
    p = list(zip(round_coordinates(xs[:, 0], size).tolist(),
                 round_coordinates(xs[:, 1], size).tolist()))
    t11, t12, t21, t22 = T.entries
    worst = 0.0
    for n in range(steps + 1):
        if n:
            a = [((t11 * u + t12 * v) % top, (t21 * u + t22 * v) % top) for u, v in a]
            p = [((t11 * u + t12 * v) % size, (t21 * u + t22 * v) % size) for u, v in p]
        x, q = np.array(a) / top, np.array(p) / size
        worst = max(worst, float(torus_distance_arrays(x[:, 0], x[:, 1], q[:, 0], q[:, 1]).max()))
    assert rep.max_distance == worst


def test_shadowing_within_bound():
    rep = check_orbit_shadowing(CAT, LatticeConfig(10000), 3, 20000, seed=3)
    assert rep.max_ratio <= 1.0
    assert rep.max_distance <= rep.bound


def test_shadowing_requires_fine_lattice():
    with pytest.raises(ThresholdUnmetError):
        check_orbit_shadowing(CAT, LatticeConfig(16), 3, 100, seed=1)


def test_shadowing_zero_steps_is_rounding_error_only():
    rep = check_orbit_shadowing(CAT, LatticeConfig(50), 0, 20000, seed=8)
    assert rep.max_ratio <= 1.0
    assert rep.max_distance <= math.sqrt(2) / (2 * 50) + 1e-15
