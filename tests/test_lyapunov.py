"""Lyapunov spectra: per-stream log averages vs independent oracles.

Oracles used here:
  * the scalar-coupling structure forces every 3D exponent to be one third
    of a scalar exponent, so `lyapunov_1d` (a plain log-average of one
    scalar orbit) checks the three interleaved streams of the spectrum;
  * at b = -2 the scalar exponent is ln 2 (the map is conjugate to a full
    shift on the interval);
  * on an attracting fixed point the spectrum is exactly ln|2x| per scalar
    step, i.e. ln|2x|/3 per 3D step, for all three exponents.
"""
import math

import pytest

from quadshift import Diverged, Params, Point3, lyapunov_1d, lyapunov_spectrum

from conftest import GENERIC_X0

LN2_3 = math.log(2.0) / 3.0


def test_generic_spectrum_at_minus_two(spectrum_b2_generic):
    r = spectrum_b2_generic
    assert r.n_used == 10**6
    assert len(r.exponents) == 3
    assert r.exponents == tuple(sorted(r.exponents, reverse=True))
    for e in r.exponents:
        assert abs(e - LN2_3) < 5e-3


def test_spectrum_agrees_with_scalar_exponent(spectrum_b2_generic,
                                              exponent1d_b2):
    scalar = exponent1d_b2.value
    assert abs(scalar - math.log(2.0)) < 2e-3
    for e in spectrum_b2_generic.exponents:
        assert abs(e - scalar / 3.0) < 2e-3


def test_pinned_start_at_minus_two_rides_the_fixed_point(spectrum_b2_pinned):
    # the x-stream from (0, -1/2, 1/2) at b = -2 runs 0 -> -2 -> 2 -> 2 ...
    # exactly in floats, so the spectrum is that of the unstable fixed
    # point x = 2: (ln 4)/3 along the orbit and (ln 2)/3 twice from the
    # one-step-offset streams -- not the generic chaotic value
    e = spectrum_b2_pinned.exponents
    assert abs(e[0] - math.log(4.0) / 3.0) < 1e-3
    assert abs(e[1] - math.log(2.0) / 3.0) < 1e-3
    assert abs(e[2] - math.log(2.0) / 3.0) < 1e-3


def test_pinned_spectrum_at_minus_1864(spectrum_b1864_pinned,
                                       exponent1d_b1864):
    e = spectrum_b1864_pinned.exponents
    assert all(v > 0.0 for v in e)
    for v in e:
        assert abs(v - 0.153) < 0.010
        assert abs(v - exponent1d_b1864.value / 3.0) < 5e-3


def test_contracting_spectrum_on_stable_fixed_point():
    # b = -0.4: x2 = (1 - sqrt(2.6))/2 attracts; all exponents ln|2 x2|/3
    b = -0.4
    x2 = 0.5 - 0.5 * math.sqrt(1.0 - 4.0 * b)
    want = math.log(abs(2.0 * x2)) / 3.0
    r = lyapunov_spectrum(Point3(0.1, 0.0, -0.1), Params(b),
                          n_iter=20000, transient=2000)
    for e in r.exponents:
        assert e < 0.0
        assert abs(e - want) < 1e-3


def test_critical_hits_are_floored_once_per_stream():
    # from the origin at b = 0 every stream sits on the critical point, so
    # each step floors one log: every exponent is a third of the scalar one
    scalar = lyapunov_1d(0.0, Params(0.0), n_iter=3000, transient=0)
    assert scalar.superstable
    r = lyapunov_spectrum(Point3(0.0, 0.0, 0.0), Params(0.0), n_iter=3000,
                          transient=0)
    for e in r.exponents:
        assert e == pytest.approx(scalar.value / 3.0, rel=1e-12)
    # at b = -2 each stream runs 0 -> -2 -> 2 -> 2 ...: one floored log,
    # then log 4 on each of its other 999 steps
    r = lyapunov_spectrum(Point3(0.0, 0.0, 0.0), Params(-2.0), n_iter=3000,
                          transient=0)
    want = (999 * math.log(4.0) + math.log(1e-300)) / 3000
    for e in r.exponents:
        assert e == pytest.approx(want, rel=1e-12)


def test_spectrum_is_deterministic():
    a = lyapunov_spectrum(GENERIC_X0, Params(-1.864), n_iter=5000,
                          transient=500)
    b = lyapunov_spectrum(GENERIC_X0, Params(-1.864), n_iter=5000,
                          transient=500)
    assert a.exponents == b.exponents     # bitwise


def test_scalar_exponent_flags_critical_hit():
    # x0 = 0 at b = -1 runs the superstable 2-cycle 0 -> -1 -> 0; the log
    # at the critical point is floored and flagged
    r = lyapunov_1d(0.0, Params(-1.0), n_iter=100, transient=0)
    assert r.superstable
    assert r.value < -10.0


def test_scalar_exponent_without_critical_hit():
    r = lyapunov_1d(0.3, Params(-0.4), n_iter=20000, transient=2000)
    assert not r.superstable
    x2 = 0.5 - 0.5 * math.sqrt(2.6)
    assert abs(r.value - math.log(abs(2.0 * x2))) < 1e-6


def test_spectrum_on_the_fixed_point_beyond_radius_four():
    # beta(-20) = 5 is an exact float fixed point; every step stretches by 10
    r = lyapunov_spectrum(Point3(5.0, 5.0, 5.0), Params(-20.0), n_iter=3000)
    for e in r.exponents:
        assert abs(e - math.log(10.0) / 3) <= 1e-12
    e1 = lyapunov_1d(5.0, Params(-20.0), n_iter=3000).value
    assert abs(e1 - math.log(10.0)) <= 1e-12


def test_spectrum_raises_on_divergence():
    with pytest.raises(Diverged):
        lyapunov_spectrum(Point3(9.0, 9.0, 9.0), Params(1.0), n_iter=100)
    with pytest.raises(Diverged):
        lyapunov_1d(9.0, Params(1.0), n_iter=100)


def test_spectrum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lyapunov_spectrum(GENERIC_X0, Params(-1.0), n_iter=0)
    with pytest.raises(ValueError):
        lyapunov_1d(0.1, Params(-1.0), n_iter=0)
    with pytest.raises(ValueError, match="transient must be >= 0, got -5"):
        lyapunov_spectrum(Point3(5.0, 0.0, 0.0), Params(-1.0), transient=-5)
    with pytest.raises(ValueError, match="transient must be >= 0, got -5"):
        lyapunov_1d(5.0, Params(-1.0), transient=-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectrum_rejects_a_non_finite_start(bad):
    # NaN would pass every escape test and floor every log
    with pytest.raises(ValueError, match="start must be finite"):
        lyapunov_spectrum(Point3(0.1, bad, 0.3), Params(-1.0), n_iter=10,
                          transient=0)
    with pytest.raises(ValueError, match="start must be finite"):
        lyapunov_1d(bad, Params(-1.0), n_iter=10, transient=0)
