"""Integer torus matrices: validation, spectral data, diameters, breaking times."""
import math
from fractions import Fraction

import numpy as np
import pytest

from torusdyn.maps import (
    Family,
    NonUnimodularError,
    ToralMatrix,
    TrivialMatrixError,
    breaking_time,
    cat_map,
    classify,
    diameter_bruteforce,
    diameter_formula,
    matrix_power_entries,
    quarter_turn,
    scaling_function,
    unit_shear,
)

from conftest import diameter_bruteforce_full_grid

CAT = cat_map()
SHEAR = unit_shear()
ROT = quarter_turn()
HEX6 = ToralMatrix(1, 1, -1, 0)  # order-6 elliptic, semitrace 1/2
HEX3 = ToralMatrix(0, 1, -1, -1)  # order-3 elliptic, semitrace -1/2
HYP2 = ToralMatrix(3, 2, 1, 1)
SHEAR_T = ToralMatrix(1, 0, -3, 1)

ALL_SIX = [CAT, HYP2, SHEAR, SHEAR_T, ROT, HEX6]


# --- construction and validation -------------------------------------------


def test_rejects_non_unimodular():
    with pytest.raises(NonUnimodularError):
        ToralMatrix(2, 1, 1, 2)  # det 3
    with pytest.raises(NonUnimodularError):
        ToralMatrix(1, 0, 0, -1)  # det -1


def test_rejects_trivial():
    with pytest.raises(TrivialMatrixError):
        ToralMatrix(1, 0, 0, 1)
    with pytest.raises(TrivialMatrixError):
        ToralMatrix(-1, 0, 0, -1)


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        ToralMatrix(1.0, 1, 0, 1)
    with pytest.raises(TypeError):
        ToralMatrix(True, 1, 0, 1)


def test_inverse_is_adjugate():
    for T in ALL_SIX:
        inv = T.inverse()
        a, b, c, d = T.entries
        assert inv.entries == (d, -b, -c, a)


def test_apply_wraps_mod_one():
    x1, x2 = CAT.apply(0.75, 0.5)
    assert (x1, x2) == ((2 * 0.75 + 0.5) % 1.0, (0.75 + 0.5) % 1.0)


def test_matrix_power_entries_against_numpy():
    for T in ALL_SIX:
        arr = np.array(T.as_array(), dtype=object)
        acc = np.eye(2, dtype=object)
        for n in range(6):
            assert matrix_power_entries(T, n) == (
                int(acc[0, 0]), int(acc[0, 1]), int(acc[1, 0]), int(acc[1, 1])
            )
            acc = acc @ arr
    # negative powers via the exact inverse
    assert matrix_power_entries(CAT, -2) == matrix_power_entries(CAT.inverse(), 2)


# --- classification ----------------------------------------------------------


def test_families():
    assert classify(CAT).family is Family.HYPERBOLIC
    assert classify(HYP2).family is Family.HYPERBOLIC
    assert classify(SHEAR).family is Family.PARABOLIC
    assert classify(SHEAR_T).family is Family.PARABOLIC
    assert classify(ROT).family is Family.ELLIPTIC
    assert classify(HEX6).family is Family.ELLIPTIC
    assert classify(HEX3).family is Family.ELLIPTIC


def test_semitrace_is_exact_fraction():
    assert classify(CAT).semitrace == Fraction(3, 2)
    assert classify(HEX6).semitrace == Fraction(1, 2)
    assert classify(ROT).semitrace == 0


def test_eigenvalue_against_root_oracle():
    for T in (CAT, HYP2, ToralMatrix(-2, -1, -1, -1)):
        data = classify(T)
        roots = np.roots([1.0, -float(T.trace), 1.0])
        lam_oracle = roots[np.argmax(np.abs(roots))]
        assert abs(data.lam - lam_oracle) < 1e-9
        assert abs(data.xi - math.log(abs(lam_oracle))) < 1e-12


def test_largest_singular_value_against_svd_oracle():
    for T in ALL_SIX + [HEX3]:
        data = classify(T)
        eta_oracle = np.linalg.svd(np.array(T.as_array(), dtype=float), compute_uv=False)[0]
        assert abs(data.eta - eta_oracle) < 1e-9


def test_eigenvector_angle_two_routes():
    """Geometric angle between eigendirections vs the closed form.

    classify computes sin(beta) from trace/entry invariants and beta from
    the eigenvectors; this oracle recomputes the angle from numpy
    eigenvectors and checks both representations agree.
    """
    for T in (CAT, HYP2, ToralMatrix(5, 2, 2, 1), ToralMatrix(-2, -1, -1, -1)):
        data = classify(T)
        vals, vecs = np.linalg.eig(np.array(T.as_array(), dtype=float))
        order = np.argsort(-np.abs(vals))
        v_plus = vecs[:, order[0]]
        v_minus = vecs[:, order[1]]
        cross = v_plus[0] * v_minus[1] - v_plus[1] * v_minus[0]
        dot = v_plus @ v_minus
        beta_oracle = math.atan2(abs(cross), dot if cross > 0 else -dot)
        assert abs(data.beta - beta_oracle) < 1e-9
        assert abs(data.sin_beta - math.sin(beta_oracle)) < 1e-9
        # closed form from invariants
        q = sum(v * v for v in T.entries)
        closed = math.sqrt(T.trace**2 - 4) / math.sqrt(q - 2)
        assert abs(data.sin_beta - closed) < 1e-12


def test_singular_value_identities():
    for T in ALL_SIX:
        data = classify(T)
        q = sum(v * v for v in T.entries)
        assert abs((data.eta - 1 / data.eta) - math.sqrt(q - 2)) < 1e-12
        assert abs((data.eta + 1 / data.eta) - math.sqrt(q + 2)) < 1e-12


def test_parabolic_shear_equals_schur_off_diagonal():
    """eta - 1/eta equals |t12 - t21| for trace +-2, so shear J = |t12-t21|/2."""
    for T in (SHEAR, SHEAR_T, ToralMatrix(3, 4, -1, -1), ToralMatrix(-1, 1, 0, -1)):
        data = classify(T)
        assert data.family is Family.PARABOLIC
        j = abs(T.entries[1] - T.entries[2])
        assert abs((data.eta - 1 / data.eta) - j) < 1e-12
        assert abs(data.shear - j / 2) < 1e-12


def test_elliptic_angles_and_periods():
    data = classify(ROT)
    assert data.phi == pytest.approx(math.pi / 2, abs=1e-15)
    assert data.period == 4
    data6 = classify(HEX6)
    assert data6.phi == pytest.approx(math.pi / 3, abs=1e-15)
    assert data6.period == 6
    data3 = classify(HEX3)
    assert data3.phi == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert data3.period == 3
    # the stated period really returns to the identity, and no sooner
    for T, p in ((ROT, 4), (HEX6, 6), (HEX3, 3)):
        assert matrix_power_entries(T, p) == (1, 0, 0, 1)
        for k in range(1, p):
            assert matrix_power_entries(T, k) != (1, 0, 0, 1)


def test_frozen_cat_values():
    data = classify(CAT)
    golden = (1 + math.sqrt(5)) / 2
    assert data.lam == pytest.approx(golden**2, abs=1e-12)
    assert data.eta == pytest.approx(golden**2, abs=1e-12)  # symmetric matrix
    assert data.sin_beta == pytest.approx(1.0, abs=1e-12)
    assert data.beta == pytest.approx(math.pi / 2, abs=1e-12)
    assert data.xi == pytest.approx(0.9624236501192069, abs=1e-15)


def test_negation_invariance():
    for T in (CAT, SHEAR, ROT):
        a = classify(T)
        b = classify(T.negated())
        assert a.family is b.family
        assert a.eta == pytest.approx(b.eta, abs=1e-12)
        assert a.xi == pytest.approx(b.xi, abs=1e-12)


# --- diameters ---------------------------------------------------------------


def test_diameter_formula_against_svd_oracle():
    """Max-radius image diameter equals the largest singular value of T**n."""
    for T in ALL_SIX:
        data = classify(T)
        for n in range(0, 9):
            entries = matrix_power_entries(T, n)
            oracle = np.linalg.svd(
                np.array([[entries[0], entries[1]], [entries[2], entries[3]]], dtype=float),
                compute_uv=False,
            )[0]
            assert diameter_formula(data, n) == pytest.approx(oracle, rel=1e-9)


def test_diameter_bruteforce_matches_formula():
    for T in ALL_SIX:
        data = classify(T)
        for n in range(0, 7):
            formula = diameter_formula(data, n)
            brute = diameter_bruteforce(T, n, 20000)
            assert abs(formula - brute) / formula < 1e-6


def _random_unimodular(rng, count):
    found = []
    while len(found) < count:
        a, b, c, d = (int(v) for v in rng.integers(-3, 4, 4))
        if a * d - b * c == 1 and not (b == 0 and c == 0):
            found.append(ToralMatrix(a, b, c, d))
    return found


@pytest.mark.parametrize("samples", [64, 4096, 99991, 100000])
def test_diameter_bruteforce_equals_full_grid_oracle(samples):
    """The squared-norm search returns the full-grid hypot maximum bit for bit.

    Cat-map steps from 370 on put the squared entries past the float range;
    with every floating-point error raised, the search must not overflow.
    """
    acceptance = ALL_SIX + [ToralMatrix(1, 0, 2, 1)]
    drawn = _random_unimodular(np.random.default_rng(7), 10)
    cases = [(T, n) for T in acceptance + drawn for n in range(15)]
    cases += [(CAT, n) for n in (360, 369, 370, 400, 500, 700)]
    with np.errstate(all="raise"):
        for T, n in cases:
            expected = diameter_bruteforce_full_grid(T, n, samples)
            assert diameter_bruteforce(T, n, samples) == expected, (T.entries, n)


def test_diameter_formula_overflow_raises():
    """Past the float range the closed form raises instead of returning inf."""
    data = classify(CAT)
    assert math.isfinite(diameter_formula(data, 369))
    for n in (370, 380, 739, 800):
        with pytest.raises(OverflowError):
            diameter_formula(data, n)


def test_frozen_diameter_values():
    shear_data = classify(SHEAR)
    assert diameter_formula(shear_data, 2) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    assert diameter_formula(shear_data, 10) == pytest.approx(5 + math.sqrt(26), abs=1e-12)
    rot_data = classify(ROT)
    assert [diameter_formula(rot_data, n) for n in range(5)] == [1.0, 1.0, 1.0, 1.0, 1.0]
    hex_data = classify(HEX6)
    eta = hex_data.eta
    assert [diameter_formula(hex_data, n) for n in range(7)] == [
        1.0, eta, eta, 1.0, eta, eta, 1.0,
    ]


def test_diameter_requires_nonnegative_step():
    with pytest.raises(ValueError):
        diameter_formula(classify(CAT), -1)


# --- growth scale and breaking time -----------------------------------------


def test_scaling_function_values():
    data = classify(CAT)
    assert scaling_function(data, 5) == pytest.approx(5 * data.xi, abs=1e-15)
    datas = classify(SHEAR)
    assert scaling_function(datas, 7) == pytest.approx(math.log(7), abs=1e-15)
    assert scaling_function(classify(ROT), 9) == 0.0
    with pytest.raises(ValueError):
        scaling_function(data, 0)


def test_breaking_time_against_walk_oracle():
    for T, size, gamma in ((CAT, 1 << 10, 2.0), (SHEAR, 1 << 10, 2.0), (CAT, 4096, 3.0)):
        data = classify(T)
        bound = math.log(size) / gamma
        walk = None
        for n in range(1, 10000):
            if scaling_function(data, n) < bound:
                walk = n
            else:
                break
        assert breaking_time(data, size, gamma) == walk


def test_frozen_breaking_times():
    assert breaking_time(classify(CAT), 1 << 10, 2.0) == 3
    assert breaking_time(classify(SHEAR), 1 << 10, 2.0) == 31
    assert breaking_time(classify(ROT), 1 << 10, 2.0) is None


def test_breaking_time_strict_boundary():
    """At an exact boundary hit the step does not count (strict inequality).

    For a shear, the growth scale at step n is log(n), and with size 2**20
    and gamma 2 the bound log(size)/2 equals log(1024) bit-exactly, so step
    1024 sits exactly on the boundary and must be excluded.
    """
    data = classify(SHEAR)
    size = 1 << 20
    assert math.log(size) / 2.0 == scaling_function(data, 1024)
    assert breaking_time(data, size, 2.0) == 1023
