import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshift import (ESCAPE_RADIUS, Diverged, Overflow, Params, Point3,
                       apply_T, escape_radius, fixed_point_cycles_1d,
                       h1d, h1d_n, jacobian_T, orbit, search_interval)


def test_single_step_shifts_and_kicks():
    p = apply_T(Point3(1.0, 2.0, 3.0), Params(-1.0))
    assert (p.x, p.y, p.z) == (2.0, 3.0, 0.0)


def test_point_protocol():
    p = Point3(1.0, -2.0, 0.5)
    assert tuple(p) == (1.0, -2.0, 0.5)
    assert p.max_abs() == 2.0


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        Params(float("nan"))


def test_scalar_kick_agrees_with_full_map():
    params = Params(-0.9)
    assert h1d(0.25, params) == 0.25 * 0.25 - 0.9
    assert h1d_n(0.25, params, 3) == h1d(h1d(h1d(0.25, params), params), params)


def test_three_steps_act_coordinatewise_exactly():
    # the cube of the map is H applied to each coordinate separately, and the
    # float operations are literally identical, so equality is exact
    rng = np.random.default_rng(7)
    params = Params(-1.7)
    for _ in range(300):
        p0 = Point3(*rng.uniform(-1.5, 1.5, size=3))
        k = int(rng.integers(1, 11))
        p = p0
        for _ in range(3 * k):
            p = apply_T(p, params)
        assert p.x == h1d_n(p0.x, params, k)
        assert p.y == h1d_n(p0.y, params, k)
        assert p.z == h1d_n(p0.z, params, k)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
def test_jacobian_structure_and_determinant(x, y, z):
    J = jacobian_T(Point3(x, y, z))
    expect = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0 * x, 0.0, 0.0]])
    assert np.array_equal(J, expect)
    with np.errstate(divide="ignore"):    # x = 0 makes J exactly singular
        det = np.linalg.det(J)
    assert det == pytest.approx(2.0 * x, rel=1e-12, abs=1e-12)


def test_chain_rule_over_three_steps_is_exactly_diagonal():
    rng = np.random.default_rng(3)
    params = Params(-1.6)
    for _ in range(50):
        p0 = Point3(*rng.uniform(-1.4, 1.4, size=3))
        p1 = apply_T(p0, params)
        p2 = apply_T(p1, params)
        M = jacobian_T(p2) @ jacobian_T(p1) @ jacobian_T(p0)
        assert np.array_equal(M, np.diag([2 * p0.x, 2 * p0.y, 2 * p0.z]))


def test_orbit_transient_is_a_pure_offset():
    params = Params(-1.1)
    p0 = Point3(0.2, -0.3, 0.4)
    full = orbit(p0, params, 10)
    assert orbit(p0, params, 6, transient=4) == full[4:10]
    assert len(full) == 10
    assert full[0] == p0
    with pytest.raises(ValueError, match="transient must be >= 0, got -2"):
        orbit(Point3(3.0, 3.0, 3.0), Params(-1.0), 5, transient=-2)


def test_orbit_reports_absolute_divergence_step():
    with pytest.raises(Diverged) as exc:
        orbit(Point3(3.0, 3.0, 3.0), Params(-1.0), 50)
    assert exc.value.step == 1          # (3,3,3) -> (3,3,8) leaves the ball
    with pytest.raises(Diverged) as exc:
        orbit(Point3(9.0, 0.0, 0.0), Params(-1.0), 5)
    assert exc.value.step == 0          # the start itself is already out


def test_escape_radius_is_four_down_to_minus_twelve_then_beta():
    for b in np.linspace(-12.0, 10.0, 2201):
        assert escape_radius(float(b)) == ESCAPE_RADIUS
    assert escape_radius(-20.0) == 5.0
    for b in (-12.5, -20.0, -1e3, -1e8, -1e300):
        x_fixed = fixed_point_cycles_1d(Params(b))[0].points[0]
        assert escape_radius(b) == x_fixed > ESCAPE_RADIUS
    assert np.isfinite(escape_radius(-1.7e308))     # 1 - 4b would overflow


def test_search_interval_is_two_and_a_half_down_to_minus_375_then_beta():
    for b in (1.0, 0.25, 0.0, -2.0, -3.75):
        assert search_interval(b) == (-2.5, 2.5)
    for b in (-3.8, -4.0, -10.0, -20.0, -1e8):
        beta = 0.5 + math.sqrt(0.25 - b)    # as escape_radius takes it
        assert search_interval(b) == (-beta, beta)


def test_orbit_holds_the_fixed_point_beyond_radius_four():
    # beta(-20) = 5 exactly and 5^2 - 20 = 5 in floats
    pts = orbit(Point3(5.0, 5.0, 5.0), Params(-20.0), 1000)
    assert set(pts) == {Point3(5.0, 5.0, 5.0)}


def test_overflow_on_nonfinite_image():
    with pytest.raises(Overflow):
        apply_T(Point3(1e200, 0.0, 0.0), Params(0.0))
