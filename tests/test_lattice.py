"""Lattice geometry, rounding, exact modular dynamics, and permutations."""
import math
from fractions import Fraction

import numpy as np
import pytest

from torusdyn.lattice import (
    CapacityExceededError,
    LatticeConfig,
    build_permutation,
    matrix_power_mod,
    orbit_period,
    round_coordinates,
    torus_distance_arrays,
)
from torusdyn.maps import ToralMatrix, cat_map, matrix_power_entries

CAT = cat_map()
SHEAR = ToralMatrix(1, 1, 0, 1)
ROT = ToralMatrix(0, 1, -1, 0)


def _inverse(T):
    return ToralMatrix(*matrix_power_entries(T, -1))


# --- config and indices ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(0)
    with pytest.raises(ValueError):
        LatticeConfig(-3)
    cfg = LatticeConfig(7)
    assert cfg.points == 49
    assert cfg.index(2, 3) == 17


def test_index_point_roundtrip():
    cfg = LatticeConfig(11)
    pairs = [(p1, p2) for p1 in range(11) for p2 in range(11)]
    assert [cfg.index(*p) for p in pairs] == list(range(cfg.points))
    assert all(divmod(cfg.index(*p), 11) == p for p in pairs)


# --- distances ---------------------------------------------------------------


def _distance(a, b):
    """Scalar torus distance: fold each coordinate difference into [0, 1/2]."""
    d1 = abs(a[0] - b[0])
    d2 = abs(a[1] - b[1])
    return math.hypot(min(d1, 1.0 - d1), min(d2, 1.0 - d2))


def test_torus_distance_wraps():
    assert torus_distance_arrays(0.95, 0.0, 0.05, 0.0) == pytest.approx(0.1)
    assert torus_distance_arrays(0.0, 0.9, 0.0, 0.1) == pytest.approx(0.2)
    # maximum possible separation is the half-diagonal
    assert torus_distance_arrays(0.0, 0.0, 0.5, 0.5) == pytest.approx(math.sqrt(2) / 2)


def test_torus_distance_arrays_matches_scalar():
    rng = np.random.default_rng(5)
    a = rng.random((64, 2))
    b = rng.random((64, 2))
    vec = torus_distance_arrays(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    for i in range(64):
        assert vec[i] == pytest.approx(_distance(a[i], b[i]), abs=1e-15)


# --- rounding ----------------------------------------------------------------


def test_rounding_examples():
    assert round_coordinates(np.array([0.3, 0.7]), 10).tolist() == [3, 7]
    assert round_coordinates(np.array([0.96, 0.96]), 10).tolist() == [0, 0]
    assert round_coordinates(np.array([0.04999, 0.05001]), 10).tolist() == [0, 1]


def test_rounding_half_goes_up():
    assert round_coordinates(np.array([0.05, 0.15]), 10).tolist() == [1, 2]


def test_rounding_never_farther_than_half_diagonal_of_cell():
    rng = np.random.default_rng(11)
    for size in (3, 10, 64, 101):
        cfg = LatticeConfig(size)
        xs = rng.random((2000, 2))
        p1 = round_coordinates(xs[:, 0], size)
        p2 = round_coordinates(xs[:, 1], size)
        d = torus_distance_arrays(xs[:, 0], xs[:, 1], p1 / size, p2 / size)
        assert float(d.max()) <= 1 / (math.sqrt(2) * size) + 1e-15


def test_round_coordinates_matches_scalar():
    xs = np.linspace(0, 1, 97, endpoint=False)
    p = round_coordinates(xs, 17)
    for x, v in zip(xs, p):
        assert math.floor(17 * float(x) + 0.5) % 17 == v


# --- exact modular dynamics --------------------------------------------------


def test_matrix_power_mod_matches_exact_entries():
    for T in (CAT, SHEAR, ROT):
        for n in (0, 1, 2, 5, 9, -1, -4):
            exact = matrix_power_entries(T, n)
            assert matrix_power_mod(T, n, 12) == tuple(v % 12 for v in exact)


def test_discrete_step_example():
    cfg = LatticeConfig(5)
    assert build_permutation(CAT, cfg)[cfg.index(1, 1)] == cfg.index(3, 2)
    back = build_permutation(_inverse(CAT), cfg)[cfg.index(3, 2)]
    assert back == cfg.index(1, 1)


def test_discrete_step_equivariance_exact():
    """Lattice points are exactly invariant: rounding after the continuous map
    of a lattice point reproduces the modular dynamics, in exact arithmetic."""
    size = 12
    cfg = LatticeConfig(size)
    for T in (CAT, SHEAR, ROT):
        for j in (1, 2, 5, -3):
            m = matrix_power_mod(T, j, size)
            for p1 in range(size):
                for p2 in range(size):
                    x1 = Fraction(p1, size)
                    x2 = Fraction(p2, size)
                    e = matrix_power_entries(T, j)
                    y1 = (e[0] * x1 + e[1] * x2) % 1
                    y2 = (e[2] * x1 + e[3] * x2) % 1
                    assert (y1 * size, y2 * size) == (
                        (m[0] * p1 + m[1] * p2) % size,
                        (m[2] * p1 + m[3] * p2) % size,
                    )


# --- permutations ------------------------------------------------------------


def test_shear_permutation_small_table():
    cfg = LatticeConfig(2)
    perm = build_permutation(SHEAR, cfg)
    # (p1, p2) -> (p1 + p2, p2) mod 2, row-major flat indexing
    assert list(perm) == [0, 3, 2, 1]


def test_permutation_is_bijection_and_preserves_counts():
    cfg = LatticeConfig(31)
    perm = build_permutation(CAT, cfg)
    assert np.array_equal(np.sort(perm), np.arange(cfg.points))


def test_permutation_group_law():
    cfg = LatticeConfig(13)
    f = build_permutation(CAT, cfg)
    # the table of T**3 is the table of T gathered on itself twice
    T3 = ToralMatrix(*matrix_power_entries(CAT, 3))
    assert np.array_equal(build_permutation(T3, cfg), f[f[f]])


def test_permutation_inverse_and_identity():
    cfg = LatticeConfig(9)
    f = build_permutation(ROT, cfg)
    inv = build_permutation(_inverse(ROT), cfg)
    identity = np.arange(cfg.points)
    assert np.array_equal(f[inv], identity)
    assert np.array_equal(inv[f], identity)
    assert not np.array_equal(f, identity)
    # the quarter turn has order 4: three gathers give its inverse, four the identity
    assert np.array_equal(f[f[f]], inv)
    assert np.array_equal(f[f[f[f]]], identity)


def test_permutation_gather_is_pullback():
    cfg = LatticeConfig(6)
    perm = build_permutation(CAT, cfg)
    entries = np.arange(cfg.points, dtype=float)
    pulled = entries[perm]
    for flat in range(cfg.points):
        p1, p2 = divmod(flat, 6)
        assert pulled[flat] == entries[cfg.index((2 * p1 + p2) % 6, (p1 + p2) % 6)]


def test_orbit_periods():
    assert orbit_period(CAT, LatticeConfig(5)) == 10
    assert orbit_period(SHEAR, LatticeConfig(7)) == 7
    # rotation orbits close after at most 4 steps
    assert orbit_period(ROT, LatticeConfig(3)) in (1, 2, 4)
    # consistency: that many gathers of the table give the identity
    for T, size in ((CAT, 5), (SHEAR, 7), (ROT, 3)):
        cfg = LatticeConfig(size)
        f = build_permutation(T, cfg)
        g = np.arange(cfg.points)
        for _ in range(orbit_period(T, cfg)):
            g = g[f]
        assert np.array_equal(g, np.arange(cfg.points))


def test_capacity_guard():
    with pytest.raises(CapacityExceededError):
        build_permutation(CAT, LatticeConfig(5000), capacity=1 << 20)
