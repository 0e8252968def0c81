"""Cell-average coarse-graining, kernels, defects, and tracking guarantees."""
import math
from fractions import Fraction

import numpy as np
import pytest

from torusdyn.discretize import (
    DiagonalObservable,
    Observable,
    ThresholdUnmetError,
    check_dynamical_localization,
    check_orbit_shadowing,
    dediscretize_aw,
    dediscretize_many,
    discretize_aw,
    egorov_defect,
    kernel,
    kernel_many,
    localization_threshold,
    shadowing_threshold,
)
from torusdyn.lattice import LatticeConfig, TorusPoint
from torusdyn.maps import cat_map, classify, quarter_turn, unit_shear
from torusdyn.rectangles import (
    TorusRectangle,
    arc_pieces,
    cell_interval_pieces,
    clip_polygon_to_box,
    pieces_overlap,
    polygon_area,
    rectangle_overlap_area,
)

from conftest import kernel_defect

CAT = cat_map()
SHEAR = unit_shear()
ROT = quarter_turn()

ONE = Observable.from_function(lambda x1, x2: np.ones(np.broadcast(x1, x2).shape), 1.0, "one")
SIN1 = Observable.from_function(lambda x1, x2: np.sin(2 * np.pi * x1), 1.0, "sin-x1")


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
    assert rect.contains(0.9, 0.5) and rect.contains(0.1, 0.5)
    assert not rect.contains(0.5, 0.5)


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


def test_indicator_entries_exact():
    half = TorusRectangle(Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1))
    ind = Observable.indicator(half, "left")
    cfg = LatticeConfig(4)
    X = discretize_aw(ind, cfg)
    got = X.entries.reshape(4, 4)
    assert np.array_equal(got[:, 0], [0.5, 1.0, 0.5, 0.0])
    assert np.all(got == got[:, :1])  # independent of the second coordinate
    assert X.lattice_mean() == pytest.approx(0.5, abs=0)
    # quadrature path on the same function agrees where it is exact
    Xq = discretize_aw(Observable.from_function(ind.fn, 1.0), cfg, quadrature=8)
    assert np.allclose(Xq.entries, X.entries, atol=1e-12)


def test_positivity_and_bound():
    f = Observable.from_function(lambda x1, x2: 0.5 + 0.5 * np.sin(2 * np.pi * (x1 + x2)), 1.0)
    X = discretize_aw(f, LatticeConfig(9), quadrature=4)
    assert np.all(X.entries >= -1e-15)
    assert np.all(X.entries <= 1.0 + 1e-15)


def test_dediscretize_is_cell_step_function():
    cfg = LatticeConfig(10)
    entries = np.arange(100.0)
    X = DiagonalObservable(cfg, entries)
    assert dediscretize_aw(X, TorusPoint(0.96, 0.34)) == entries[cfg.index(0, 3)]
    vals = dediscretize_many(X, np.array([0.96, 0.04]), np.array([0.34, 0.06]))
    assert vals[0] == entries[cfg.index(0, 3)]
    assert vals[1] == entries[cfg.index(0, 1)]


def test_discretize_dediscretize_roundtrip_on_step_functions():
    """Cell averages of a cell step function give back its entries exactly."""
    cfg = LatticeConfig(8)
    rng = np.random.default_rng(3)
    entries = rng.random(64)
    X = DiagonalObservable(cfg, entries)
    f = Observable.from_function(lambda x1, x2: dediscretize_many(X, x1, x2), 1.0)
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
        assert kernel(CAT, cfg, n, TorusPoint(0.123, 0.456), TorusPoint(g1.ravel()[j], g2.ravel()[j])) == 1


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


def test_localization_deterministic_in_seed():
    a = check_dynamical_localization(CAT, LatticeConfig(64), 2, 2.0, 0.1, 5000, seed=9)
    b = check_dynamical_localization(CAT, LatticeConfig(64), 2, 2.0, 0.1, 5000, seed=9)
    assert a == b


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
