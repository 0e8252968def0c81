"""Properties of the shared lattice step, matrix powers, orbit periods and word counter.

Random unimodular matrices with entries in [-5, 5] are checked against
Python-integer and cycle-walk oracles; the int64 overflow guard is checked
at its boundary and through `kernel_many` and the CLI.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn.cli import EXIT_VALIDATION, main
from torusdyn.discretize import kernel, kernel_many
from torusdyn.entropy import (
    cs_entropies,
    cs_entropy,
    partition_bands_x2,
    partition_halves_x2,
    partition_quadrants,
    snap_partition,
)
from torusdyn.lattice import LatticeConfig, TorusPoint, matrix_power_mod, orbit_period
from torusdyn.maps import ToralMatrix, cat_map, matrix_power_entries, _step

from conftest import orbit_period_cycle_walk

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


def test_kernel_many_refuses_int64_overflow():
    xs = np.random.default_rng(1).random((4, 1000))
    with pytest.raises(OverflowError):
        kernel_many(cat_map(), LatticeConfig(4_000_000_001), 45, *xs)
    # The scalar kernel uses Python integers and stays exact there.
    cfg = LatticeConfig(4_000_000_001)
    x = TorusPoint(0.25, 0.5)
    p = (math.floor(cfg.size * x.x1 + 0.5), math.floor(cfg.size * x.x2 + 0.5))
    m = matrix_power_entries(cat_map(), 45)
    q = ((m[0] * p[0] + m[1] * p[1]) % cfg.size, (m[2] * p[0] + m[3] * p[1]) % cfg.size)
    assert kernel(cat_map(), cfg, 45, x, TorusPoint(q[0] / cfg.size, q[1] / cfg.size)) == 1


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


def test_localize_beyond_int64_is_validation_error(capsys):
    code = main(["localize", "--matrix", "2", "1", "1", "1", "--size", "4000000001",
                 "--steps", "45", "--trials", "1000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("OverflowError:")
    assert "Traceback" not in captured.err


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


# --- the word counter ------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.none(), matrices),
    st.integers(4, 40),
    st.sampled_from([partition_quadrants(), partition_halves_x2(), partition_bands_x2(3)]),
    st.integers(1, 8),
)
def test_one_pass_entropies_equal_per_length_cs_entropy(T, size, partition, n_max):
    snapped, _ = snap_partition(partition, size)
    cfg = LatticeConfig(size)
    one_pass = cs_entropies(T, cfg, snapped, n_max)
    per_length = [cs_entropy(T, cfg, snapped, n) for n in range(1, n_max + 1)]
    assert one_pass == per_length
