import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshift import (ESCAPE_RADIUS, Diverged, Overflow, Params, Point3,
                       apply_T, bifurcation_diagram, build_catalog,
                       escape_radius, fixed_point_cycles_1d, h1d, h1d_n,
                       jacobian_T, lyapunov_1d, lyapunov_spectrum, orbit,
                       search_interval)
from quadshift.core import _jet


def test_single_step_shifts_and_kicks():
    p = apply_T(Point3(1.0, 2.0, 3.0), Params(-1.0))
    assert (p.x, p.y, p.z) == (2.0, 3.0, 0.0)


def test_point_protocol():
    p = Point3(1.0, -2.0, 0.5)
    assert tuple(p) == (1.0, -2.0, 0.5)


def test_point_is_a_named_tuple():
    p = Point3(1.0, -2.0, 0.5)
    assert p == (1.0, -2.0, 0.5)
    assert hash(p) == hash((1.0, -2.0, 0.5))
    assert (p.x, p.y, p.z) == (p[0], p[1], p[2])
    assert repr(p) == "Point3(x=1.0, y=-2.0, z=0.5)"
    pts = orbit(Point3(0.0, -0.5, 0.5), Params(-1.864), 50, 10)
    arr = np.array(pts)
    assert arr.dtype == np.float64 and arr.shape == (50, 3)
    assert arr.tolist() == [list(q) for q in pts]
    with pytest.raises(Diverged) as exc:
        orbit(Point3(3.0, 0.0, 0.0), Params(-1.0), 5)
    assert type(exc.value.point) is Point3


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        Params(float("nan"))


def test_scalar_kick_agrees_with_full_map():
    params = Params(-0.9)
    assert h1d(0.25, params) == 0.25 * 0.25 - 0.9
    assert h1d_n(0.25, params, 3) == h1d(h1d(h1d(0.25, params), params), params)


def test_h1d_n_rejects_a_negative_count():
    assert h1d_n(0.3, Params(-1.0), 0) == 0.3
    with pytest.raises(ValueError, match="n must be >= 0"):
        h1d_n(0.3, Params(-1.0), -1)


@pytest.mark.parametrize("b", [-2.0, -0.75, 0.25])
@pytest.mark.parametrize("x", [-1.5, -0.25, 0.0, 0.75, 2.0])
def test_jet_is_the_closed_form_for_one_and_two_steps(x, b):
    # at dyadic x and b every product and sum here is exact in floats
    assert _jet(x, b, 1) == (x * x + b, 2.0 * x, 1.0, 2.0, 0.0)
    u = x * x + b
    assert _jet(x, b, 2) == (u * u + b, 4.0 * x * u, 2.0 * u + 1.0,
                             12.0 * x * x + 4.0 * b, 4.0 * x)


@pytest.mark.parametrize("n", range(1, 11))
def test_jet_at_minus_two_is_the_chebyshev_form(n):
    # with x = 2cos(t), H^n(x) = 2cos(2^n t) at b = -2, and its x-derivative
    # is 2^n sin(2^n t)/sin(t)
    t = np.random.default_rng(n).uniform(0.05, math.pi - 0.05, 64)
    v, dx = _jet(2.0 * np.cos(t), -2.0, n)[:2]
    assert v == pytest.approx(2.0 * np.cos(2.0 ** n * t), rel=1e-9, abs=1e-9)
    assert dx == pytest.approx(2.0 ** n * np.sin(2.0 ** n * t) / np.sin(t),
                               rel=1e-9, abs=1e-9 * 2.0 ** n)


def test_jet_of_an_array_is_the_jet_of_each_float_bitwise():
    xs = np.linspace(-2.0, 2.0, 41)
    jets = _jet(xs, -1.75, 5)
    for i, x in enumerate(xs.tolist()):
        assert [float(d[i]).hex() for d in jets] == \
            [d.hex() for d in _jet(x, -1.75, 5)]


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


# ---------------------------------------------------------------------------
# the scalar-stream engine against plain loops


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("run", [
    lambda p0: orbit(p0, Params(-1.0), 5),
    lambda p0: bifurcation_diagram((-1.0, -0.5), 3, p0=p0, transient=2,
                                   samples=2),
    lambda p0: build_catalog(Params(-1.0), seeds=(p0,)),
    lambda p0: lyapunov_spectrum(p0, Params(-1.0), n_iter=10, transient=0),
    lambda p0: lyapunov_1d(p0.y, Params(-1.0), n_iter=10, transient=0),
], ids=["orbit", "diagram", "catalog", "spectrum", "scalar"])
def test_a_non_finite_start_is_a_value_error(run, bad):
    # NaN passes every escape test and inf is out at once: neither is an
    # orbit that diverges, nor a kick that overflows
    with pytest.raises(ValueError, match="start must be finite"):
        run(Point3(0.1, bad, 0.3))


def _first_state_out(p0, b, n_states):
    """(step, state) of the first of n_states states of the apply_T loop
    outside the escape ball, or None."""
    p = p0
    for k in range(n_states):
        if max(map(abs, p)) > escape_radius(b):
            return k, p
        p = apply_T(p, Params(b))
    return None


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("value, transient, phase", [
    (5.0, 0, "start"), (5.0, 10, "start"),
    (2.2, 10, "transient"),     # 2.2 -> 3.84 -> 13.7 at b = -1
    (2.2, 2, "recorded"), (1.7, 5, "recorded"),
])
def test_diverged_step_and_point_are_the_step_loops(axis, value, transient,
                                                    phase):
    b, n = -1.0, 30
    coords = [0.3, -0.2, 0.1]
    coords[axis] = value
    p0 = Point3(*coords)
    step, state = _first_state_out(p0, b, transient + n)
    assert phase == ("start" if step == 0 else
                     "transient" if step < transient else "recorded")
    for run in (lambda: orbit(p0, Params(b), n, transient),
                lambda: lyapunov_spectrum(p0, Params(b), n_iter=n,
                                          transient=transient)):
        with pytest.raises(Diverged) as exc:
            run()
        assert exc.value.step == step
        assert exc.value.point == state


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("transient", [0, 2])
def test_the_last_states_y_and_z_are_tested(axis, transient):
    # at b = -1, 2.2 -> 3.84 -> 13.7: s_j is the first sample out,
    # j = 6 + axis, the z of state j - 2 and the y of state j - 1
    b, j = -1.0, 6 + axis
    coords = [0.3, -0.2, 0.1]
    coords[axis] = 2.2
    p0 = Point3(*coords)
    for n in (j - 2 - transient, j - 1 - transient, j - transient):
        want = _first_state_out(p0, b, transient + n)
        assert (want is None) == (n == j - 2 - transient)
        for run in (lambda: orbit(p0, Params(b), n, transient),
                    lambda: lyapunov_spectrum(p0, Params(b), n_iter=n,
                                              transient=transient)):
            if want is None:
                run()
                continue
            with pytest.raises(Diverged) as exc:
                run()
            assert (exc.value.step, exc.value.point) == want


@pytest.mark.parametrize("b", [-2.0, -1.864, -1.3])
@pytest.mark.parametrize("n_iter, transient", [(3001, 499), (3000, 0),
                                               (1, 2)])
def test_spectrum_is_the_sorted_stream_sums(b, n_iter, transient):
    # step k stretches stream k mod 3 by |2 s_k|, s_{3m+r} = H^m(start_r)
    p0 = Point3(0.3, -0.5, 0.5)
    sums = []
    for r, u in enumerate(p0):
        s, j = 0.0, r
        while j < transient + n_iter:
            if j >= transient:
                s += math.log(abs(2.0 * u))
            u, j = u * u + b, j + 3
        sums.append(s)
    want = sorted((s / n_iter for s in sums), reverse=True)
    got = lyapunov_spectrum(p0, Params(b), n_iter=n_iter, transient=transient)
    assert [e.hex() for e in got.exponents] == [e.hex() for e in want]
    # the scalar exponent is the same sum on the one stream of x
    s, u = 0.0, p0.x
    for m in range(transient + n_iter):
        if m >= transient:
            s += math.log(abs(2.0 * u))
        u = u * u + b
    assert lyapunov_1d(p0.x, Params(b), n_iter=n_iter,
                       transient=transient).value.hex() == (s / n_iter).hex()
