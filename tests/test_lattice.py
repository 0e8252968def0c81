"""Lattice geometry, rounding, exact modular dynamics, and permutations."""
import math
from fractions import Fraction

import numpy as np
import pytest

from torusdyn.lattice import (
    CapacityExceededError,
    LatticeConfig,
    LatticePoint,
    Permutation,
    TorusPoint,
    build_permutation,
    discrete_step,
    identity_permutation,
    matrix_power_mod,
    orbit_period,
    round_coordinates,
    round_to_lattice,
    torus_distance,
    torus_distance_arrays,
)
from torusdyn.maps import ToralMatrix, cat_map, quarter_turn, unit_shear

CAT = cat_map()
SHEAR = unit_shear()
ROT = quarter_turn()


# --- config and points -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(0)
    with pytest.raises(ValueError):
        LatticeConfig(-3)
    cfg = LatticeConfig(7)
    assert cfg.points == 49
    assert cfg.index(2, 3) == 17
    assert cfg.point(17) == LatticePoint(2, 3)


def test_index_point_roundtrip():
    cfg = LatticeConfig(11)
    for flat in range(cfg.points):
        p = cfg.point(flat)
        assert cfg.index(p.p1, p.p2) == flat


def test_torus_point_reduction():
    x = TorusPoint(1.25, -0.25)
    assert (x.x1, x.x2) == (0.25, 0.75)


# --- distances ---------------------------------------------------------------


def test_torus_distance_wraps():
    assert torus_distance(TorusPoint(0.95, 0.0), TorusPoint(0.05, 0.0)) == pytest.approx(0.1)
    assert torus_distance(TorusPoint(0.0, 0.9), TorusPoint(0.0, 0.1)) == pytest.approx(0.2)
    # maximum possible separation is the half-diagonal
    assert torus_distance(TorusPoint(0.0, 0.0), TorusPoint(0.5, 0.5)) == pytest.approx(
        math.sqrt(2) / 2
    )


def test_torus_distance_arrays_matches_scalar():
    rng = np.random.default_rng(5)
    a = rng.random((64, 2))
    b = rng.random((64, 2))
    vec = torus_distance_arrays(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    for i in range(64):
        scalar = torus_distance(TorusPoint(a[i, 0], a[i, 1]), TorusPoint(b[i, 0], b[i, 1]))
        assert vec[i] == pytest.approx(scalar, abs=1e-15)


# --- rounding ----------------------------------------------------------------


def test_rounding_examples():
    cfg = LatticeConfig(10)
    assert round_to_lattice(TorusPoint(0.3, 0.7), cfg) == LatticePoint(3, 7)
    assert round_to_lattice(TorusPoint(0.96, 0.96), cfg) == LatticePoint(0, 0)
    assert round_to_lattice(TorusPoint(0.04999, 0.05001), cfg) == LatticePoint(0, 1)


def test_rounding_half_goes_up():
    cfg = LatticeConfig(10)
    assert round_to_lattice(TorusPoint(0.05, 0.15), cfg) == LatticePoint(1, 2)


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
    cfg = LatticeConfig(17)
    xs = np.linspace(0, 1, 97, endpoint=False)
    p = round_coordinates(xs, 17)
    for x, v in zip(xs, p):
        assert round_to_lattice(TorusPoint(float(x), 0.0), cfg).p1 == v


# --- exact modular dynamics --------------------------------------------------


def test_matrix_power_mod_matches_exact_entries():
    from torusdyn.maps import matrix_power_entries

    for T in (CAT, SHEAR, ROT):
        for n in (0, 1, 2, 5, 9, -1, -4):
            exact = matrix_power_entries(T, n)
            assert matrix_power_mod(T, n, 12) == tuple(v % 12 for v in exact)


def test_discrete_step_example():
    cfg = LatticeConfig(5)
    assert discrete_step(CAT, LatticePoint(1, 1), cfg) == LatticePoint(3, 2)
    back = discrete_step(CAT, LatticePoint(3, 2), cfg, steps=-1)
    assert back == LatticePoint(1, 1)


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
                    from torusdyn.maps import matrix_power_entries

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
    assert list(perm.forward) == [0, 3, 2, 1]


def test_permutation_is_bijection_and_preserves_counts():
    cfg = LatticeConfig(31)
    perm = build_permutation(CAT, cfg)
    assert np.array_equal(np.sort(perm.forward), np.arange(cfg.points))


def test_permutation_group_law():
    from torusdyn.maps import matrix_power_entries

    cfg = LatticeConfig(13)
    perm = build_permutation(CAT, cfg)
    assert perm.power(3) == build_permutation(CAT, cfg).compose(perm).compose(perm)
    # power matches the permutation built from the exact cubed matrix
    T3 = ToralMatrix(*matrix_power_entries(CAT, 3))
    assert perm.power(3) == build_permutation(T3, cfg)


def test_permutation_inverse_and_identity():
    cfg = LatticeConfig(9)
    perm = build_permutation(ROT, cfg)
    assert perm.compose(perm.inverse()) == identity_permutation(cfg)
    assert perm.inverse().compose(perm) == identity_permutation(cfg)
    assert identity_permutation(cfg).is_identity
    assert not perm.is_identity
    assert perm.power(0) == identity_permutation(cfg)
    assert perm.power(-2) == perm.inverse().power(2)


def test_evolve_diagonal_is_pullback():
    cfg = LatticeConfig(6)
    perm = build_permutation(CAT, cfg)
    entries = np.arange(cfg.points, dtype=float)
    pulled = perm.evolve_diagonal(entries)
    for flat in range(cfg.points):
        assert pulled[flat] == entries[perm.forward[flat]]


def test_orbit_periods():
    assert orbit_period(CAT, LatticeConfig(5)) == 10
    assert orbit_period(SHEAR, LatticeConfig(7)) == 7
    # rotation orbits close after at most 4 steps
    assert orbit_period(ROT, LatticeConfig(3)) in (1, 2, 4)
    # consistency: permutation to that power is the identity
    for T, size in ((CAT, 5), (SHEAR, 7), (ROT, 3)):
        cfg = LatticeConfig(size)
        p = orbit_period(T, cfg)
        assert build_permutation(T, cfg).power(p).is_identity


def test_capacity_guard():
    with pytest.raises(CapacityExceededError):
        build_permutation(CAT, LatticeConfig(5000), capacity=1 << 20)


def test_permutation_rejects_non_bijection():
    cfg = LatticeConfig(2)
    with pytest.raises(ValueError):
        Permutation(cfg, np.array([0, 0, 1, 2], dtype=np.int64))
