import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshift import (Cycle1D, NoRealFixedPoints, Params, Point3, census,
                       classify_stability, cycle1d_label, find_cycles_1d,
                       fixed_point_cycles_1d, fixed_points_T, jacobian_T,
                       lift_homogeneous, lift_homogeneous_3n, lift_mixed_pair,
                       lift_mixed_triple, stability_block_length)
from quadshift.cycles import (ORBIT_DEDUP_TOL, STABILITY_TOL,
                              _bisect_brackets, _first_distinct,
                              _newton_1d_array, _residual_1d)


def two_cycle_points(b):
    r = math.sqrt(-3.0 - 4.0 * b)
    return (-0.5 - 0.5 * r, -0.5 + 0.5 * r)


def test_fixed_points_closed_form():
    c_plus, c_minus = fixed_point_cycles_1d(Params(0.0))
    assert c_plus.points == (1.0,)
    assert c_minus.points == (0.0,)
    assert c_plus.multiplier == 2.0
    assert c_minus.multiplier == 0.0
    # the grid finder meets x = 1/2 +- sqrt(1 - 4b)/2 with multiplier 2x
    for b in np.linspace(-0.7, 0.2, 10):
        found = find_cycles_1d(Params(float(b)), 1)
        disc = math.sqrt(1.0 - 4.0 * b)
        assert [c.points[0] for c in found] == pytest.approx(
            [0.5 - 0.5 * disc, 0.5 + 0.5 * disc], abs=1e-9)
        for c in found:
            assert abs(c.multiplier - 2.0 * c.points[0]) <= 1e-9


def test_fixed_points_merge_at_the_tangency():
    c_plus, c_minus = fixed_point_cycles_1d(Params(0.25))
    assert c_plus.points == (0.5,)
    assert c_minus.points == (0.5,)


def test_no_real_fixed_points_past_the_fold():
    with pytest.raises(NoRealFixedPoints):
        fixed_point_cycles_1d(Params(0.3))
    for b in (0.26, 0.3):
        assert find_cycles_1d(Params(b), 1) == []


def test_two_cycle_at_minus_one_is_zero_and_minus_one():
    found = find_cycles_1d(Params(-1.0), 2)
    assert len(found) == 1
    c = found[0]
    assert c.points == (-1.0, 0.0)
    assert c.multiplier == 0.0
    assert cycle1d_label(c) == "n2@-1"


def test_no_two_cycle_before_the_doubling():
    assert find_cycles_1d(Params(-0.5), 2) == []


def test_two_cycle_closed_form_and_multiplier_rule():
    for b in (-1.3, *np.linspace(-1.2, -0.8, 9).tolist()):
        found = find_cycles_1d(Params(b), 2)
        assert len(found) == 1
        lo, hi = two_cycle_points(b)
        assert found[0].points[0] == pytest.approx(lo, abs=1e-12)
        assert found[0].points[1] == pytest.approx(hi, abs=1e-12)
        # the multiplier of the 2-cycle is 4(b+1) analytically
        assert found[0].multiplier == pytest.approx(4.0 * (b + 1.0),
                                                    abs=1e-10)


def test_exactly_one_four_cycle_at_minus_one_point_three():
    found = find_cycles_1d(Params(-1.3), 4)
    assert len(found) == 1
    assert abs(found[0].multiplier) < 1.0      # inside the stable window
    assert len(set(found[0].points)) == 4


def test_minimal_period_filter_drops_fixed_points():
    # H^2 - x also vanishes on the fixed points; they must not show up
    for c in find_cycles_1d(Params(-1.3), 2):
        assert c.period == 2
        assert len(set(c.points)) == 2


def test_cycle1d_points_are_min_first():
    for n in (1, 2, 4):
        for c in find_cycles_1d(Params(-1.3), n):
            assert c.points[0] == min(c.points)


def test_stability_block_length_convention():
    assert stability_block_length(1) == 3
    assert stability_block_length(2) == 6
    assert stability_block_length(3) == 3
    assert stability_block_length(6) == 6
    assert stability_block_length(4) == 12


def test_fixed_points_of_full_map_are_diagonal():
    params = Params(-0.4)
    hi, lo = fixed_points_T(params)
    x_plus = 0.5 + 0.5 * math.sqrt(1.0 + 1.6)
    x_minus = 0.5 - 0.5 * math.sqrt(1.0 + 1.6)
    assert hi.points[0] == Point3(x_plus, x_plus, x_plus)
    assert lo.points[0] == Point3(x_minus, x_minus, x_minus)
    assert hi.stability == "unstable"
    assert lo.stability == "stable"
    # block of three steps: one scalar kick per coordinate
    assert hi.eigenvalues == (2 * x_plus,) * 3


def _period2_lift_orbit(b):
    # (lo, hi, lo) -> (hi, lo, hi) -> itself: the shortest 3D orbit built
    # from the scalar 2-cycle
    lo, hi = two_cycle_points(b)
    return [Point3(lo, hi, lo), Point3(hi, lo, hi)]


def test_classify_stability_homogeneous_two_cycle():
    b = -1.1
    eig, tag = classify_stability(_period2_lift_orbit(b), b)
    lam = 4.0 * (b + 1.0)
    assert tag == "stable"
    assert eig == pytest.approx((lam, lam, lam), abs=1e-9)


def test_classify_stability_flags_neutral_cycle():
    b = -1.25
    eig, tag = classify_stability(_period2_lift_orbit(b), b)
    assert tag == "nonhyperbolic"
    assert eig == pytest.approx((-1.0, -1.0, -1.0), abs=1e-9)


def _reference_stability(points):
    # the definition: eigenvalues of the product of one-step Jacobians over
    # the stability block, tagged by their moduli
    M = np.eye(3)
    for k in range(stability_block_length(len(points))):
        M = jacobian_T(points[k % len(points)]) @ M
    eig = tuple(sorted((float(v.real) for v in np.linalg.eigvals(M)),
                       reverse=True))
    mags = [abs(v) for v in eig]
    if any(abs(m - 1.0) <= STABILITY_TOL for m in mags):
        return eig, "nonhyperbolic"
    return eig, "stable" if all(m < 1.0 for m in mags) else "unstable"


def _lifts_at_minus_one():
    params = Params(-1.0)
    x1, x2 = find_cycles_1d(params, 1)
    (c2,) = find_cycles_1d(params, 2)
    out = list(fixed_points_T(params))
    out += [lift_homogeneous(c) for c in (x1, x2, c2)]
    out += lift_homogeneous_3n(c2)
    for A, B in ((x1, x2), (x1, c2), (x2, c2)):
        out += lift_mixed_pair(A, B)
    out += lift_mixed_triple(x1, x2, c2)
    return out


def test_closed_form_stability_matches_the_jacobian_product():
    # bitwise, signed zeros included: the superstable lifts at b = -1 have
    # eigenvalue products that come out as -0.0 before the + 0.0
    orbits = census(Params(-1.9), 18) + _lifts_at_minus_one()
    assert len(orbits) > 1188
    for c in orbits:
        eig, tag = classify_stability(c.points, c.b)
        ref_eig, ref_tag = _reference_stability(c.points)
        assert [v.hex() for v in eig] == [v.hex() for v in ref_eig]
        assert tag == ref_tag
        assert (eig, tag) == (c.eigenvalues, c.stability)


def test_tangent_cycle_is_found_at_the_fold_itself():
    # at the period-3 fold parameter the pair is one double root; the
    # curvature-minimum path must still deliver it, with multiplier one
    found = find_cycles_1d(Params(-1.75), 3)
    assert len(found) == 1
    assert found[0].multiplier == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the scalar cycles of the Chebyshev map b = -2, and the finder's kernels


def _necklace(n):
    # minimal-period-n orbits of a map with 2^n points of period n:
    # (1/n) sum over d | n of mu(d) 2^(n/d)
    def mu(d):
        sign, k, p = 1, d, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if k > 1 else sign
    return sum(mu(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _chebyshev_gaps(found, n):
    # H(2cos t) = 2cos 2t, so the period-n points at b = -2 are
    # 2cos(2 pi k/(2^n -+ 1)); for each found point, the distance to the
    # nearest one and that one's index
    exact = np.sort(np.concatenate([
        2.0 * np.cos(2.0 * np.pi * np.arange(q) / q)
        for q in (2 ** n - 1, 2 ** n + 1)]))
    pts = np.array([x for c in found for x in c.points])
    i = np.clip(np.searchsorted(exact, pts), 1, exact.size - 1)
    left = np.abs(pts - exact[i - 1]) <= np.abs(pts - exact[i])
    return np.where(left, np.abs(pts - exact[i - 1]), np.abs(pts - exact[i])), \
        np.where(left, i - 1, i)


@pytest.mark.parametrize("n", [*range(1, 13), pytest.param(
    13, marks=pytest.mark.xfail(strict=True, reason=(
        "known defect: the 20001-point grid cannot separate the 2^13 roots "
        "and finds 629 of the 630 cycles")))])
def test_every_cycle_at_minus_two_is_found_at_its_closed_form(n):
    found = find_cycles_1d(Params(-2.0), n)
    assert len(found) == _necklace(n)
    # 1e-10 is under half the smallest spacing of the closed-form points
    # (5.7e-10 at n = 12), so each point names one of them, and no two
    # points name the same one
    gap, nearest = _chebyshev_gaps(found, n)
    assert gap.max() < 1e-10
    assert len(set(nearest.tolist())) == gap.size


@pytest.mark.xfail(strict=True, reason=(
    "known defect: only one root per orbit is polished and the other points "
    "are its forward iterates, whose error grows by up to |2x| = 4 a step; "
    "at n = 12 they sit up to 2.8e-11 from the closed form"))
def test_every_cycle_point_at_minus_two_is_exact_to_1e_12():
    gap, _ = _chebyshev_gaps(find_cycles_1d(Params(-2.0), 12), 12)
    assert gap.max() < 1e-12


def test_grid_escape_raises_no_warning():
    # grid points beyond beta overflow to +inf on the way to H^12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_cycles_1d(Params(-2.0), 12)
    assert len(found) == _necklace(12)


@pytest.mark.parametrize("b, n", [(-2.1, 18), (-2.3, 16), (-2.3, 18), (-1.9, 18)])
def test_bisection_and_polish_raise_no_overflow_warning(b, n):
    # bracket ends and Newton runs past beta overflow to +-inf on the way
    # to H^n; the sign of H^n(x) - x is still right there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_cycles_1d(Params(b), n)
    assert found


@pytest.mark.parametrize("b", [-3.8, -4.0, -10.0])
def test_cycles_outside_two_and_a_half_are_found(b):
    # below b = -3.75 the fixed point beta(b) lies past 2.5, and at b = -10
    # every cycle point has |x| >= 2.51; all of them lie in [-beta, beta]
    params = Params(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 7):
            assert len(find_cycles_1d(params, n)) == _necklace(n)
        fixed = census(params, 1)
    assert fixed == sorted(fixed_points_T(params), key=lambda c: c.points[0].x)


def _scalar_bisection(a, c, fa, params, n):
    # the per-bracket loop the array bisection replaces
    for _ in range(40):
        mid = 0.5 * (a + c)
        fm = _residual_1d(mid, params, n)
        if fa * fm <= 0:
            c = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + c)


def _scalar_newton(x, params, n, iters=60):
    # one root at a time on Python floats, with the derivative of H^n
    # carried as the product of 2*v; the array Newton must stop each entry
    # where this loop does
    b = params.b
    for _ in range(iters):
        v = x
        d = 1.0
        for _ in range(n):
            d = 2.0 * v * d
            v = v * v + b
        fv = v - x
        dfv = d - 1.0
        if dfv == 0.0:
            break
        step = fv / dfv
        x -= step
        if abs(fv) < 5e-14 and abs(step) < 1e-13:
            break
    return x


@pytest.mark.parametrize("b, n", [(-2.0, 7), (-2.0, 10), (-1.75, 3), (-1.75, 9)])
def test_array_kernels_match_the_scalar_loops_bitwise(b, n):
    params = Params(b)
    xs = np.linspace(-2.5, 2.5, 20001)
    with np.errstate(over="ignore"):
        f = _residual_1d(xs, params, n)
    sgn = np.sign(f)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    mids = _bisect_brackets(xs[flips], xs[flips + 1], f[flips], params, n)
    ref_mids = [_scalar_bisection(float(xs[i]), float(xs[i + 1]), float(f[i]),
                                  params, n) for i in flips]
    assert [float(m).hex() for m in mids] == [m.hex() for m in ref_mids]
    # wild starts too: every 97th grid point, escaping ones included
    starts = np.concatenate([mids, xs[::97]])
    for iters in (60, 100):
        with np.errstate(all="ignore"):
            polished = _newton_1d_array(starts, params, n, iters=iters)
        ref = [_scalar_newton(float(x), params, n, iters) for x in starts]
        assert [float(x).hex() for x in polished] == [x.hex() for x in ref]


def _reference_first_distinct(keys):
    # the quadratic dedup the windowed one replaces
    kept_keys, kept = [], []
    for i, key in enumerate(keys):
        if any(max(abs(a - c) for a, c in zip(key, k)) < ORBIT_DEDUP_TOL
               for k in kept_keys):
            continue
        kept_keys.append(key)
        kept.append(i)
    return kept


# offsets at, just inside and just outside the tolerance and the dedup
# window 2e-9, and wider ones that keep keys apart; added to base 0.0 they
# give differences that are exactly the tolerance or the window
_EDGES = [1e-9, 2e-9, 1e-7, 5e-10, 5e-8, 2e-7]
_OFFSETS = [0.0] + [s * v for e in _EDGES for s in (1.0, -1.0)
                    for v in (e, float(np.nextafter(e, 0.0)),
                              float(np.nextafter(e, 1.0)))]


@st.composite
def _clustered_keys(draw):
    length = draw(st.integers(1, 4))
    bases = draw(st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.75]),
                           st.floats(-2.5, 2.5)),
                 min_size=length, max_size=length),
        min_size=1, max_size=3))
    keys = []
    for _ in range(draw(st.integers(1, 25))):
        base = draw(st.sampled_from(bases))
        keys.append(sorted(x + draw(st.sampled_from(_OFFSETS)) for x in base))
    return keys


@settings(max_examples=300, deadline=None)
@given(_clustered_keys())
def test_windowed_dedup_matches_the_quadratic_loop(keys):
    assert _first_distinct(keys) == _reference_first_distinct(keys)
