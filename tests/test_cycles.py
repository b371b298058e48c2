import math
import warnings

import mpmath
import numpy as np
import pytest
from mp_reference import polish_cycle_point

from quadshift import (Cycle1D, NoRealFixedPoints, Params, Point3, census,
                       classify_stability, cycle1d_label, find_cycles_1d,
                       find_flip, find_fold, find_transcritical,
                       fixed_point_cycles_1d, fixed_points_T, jacobian_T,
                       lift_homogeneous, lift_homogeneous_3n, lift_mixed_pair,
                       lift_mixed_triple, stability_block_length)
from quadshift.core import _jet
from quadshift.cycles import (MAX_PERIOD, ORBIT_DEDUP_TOL, STABILITY_TOL,
                              _bisect, _orbit_1d, _pullback, _repeat,
                              _sorted_multiplier, _step_gaps)


def two_cycle_points(b):
    r = math.sqrt(-3.0 - 4.0 * b)
    return (-0.5 - 0.5 * r, -0.5 + 0.5 * r)


def test_fixed_points_closed_form():
    c_plus, c_minus = fixed_point_cycles_1d(Params(0.0))
    assert c_plus.points == (1.0,)
    assert c_minus.points == (0.0,)
    assert c_plus.multiplier == 2.0
    assert c_minus.multiplier == 0.0
    # the finder meets x = 1/2 +- sqrt(1 - 4b)/2 with multiplier 2x
    for b in np.linspace(-0.7, 0.2, 10):
        found = find_cycles_1d(Params(float(b)), 1)
        disc = math.sqrt(1.0 - 4.0 * b)
        assert [c.points[0] for c in found] == pytest.approx(
            [0.5 - 0.5 * disc, 0.5 + 0.5 * disc], abs=1e-9)
        for c in found:
            assert abs(c.multiplier - 2.0 * c.points[0]) <= 1e-9


@pytest.mark.parametrize("b", [-1e308, -1.7976931348623157e308])
def test_fixed_points_stay_finite_where_one_minus_4b_overflows(b):
    c_plus, c_minus = fixed_point_cycles_1d(Params(b))
    r = math.sqrt(0.25 - b)
    assert (c_plus.points, c_minus.points) == ((0.5 + r,), (0.5 - r,))
    assert all(map(math.isfinite, c_plus.points + c_minus.points))
    assert [c.points for c in fixed_points_T(Params(b))] == \
        [(Point3(0.5 + r, 0.5 + r, 0.5 + r),), (Point3(0.5 - r, 0.5 - r, 0.5 - r),)]


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


def _source_verdicts(orbs, b):
    # the lifts' rule, per cycle along the last axis; the finder applies
    # its closure part to every root and its divisor part only where the
    # word cannot decide the period, so every cycle it returns passes both
    orbs = np.asarray(orbs)
    return _step_gaps(orbs, b)[1].all(axis=-1) & (_repeat(orbs) == 0)


def test_closure_rule_on_floats_equals_the_array_rule():
    # the 4-cycle at b = -1.3, the fixed points and the 2-cycle listed as
    # 4-cycles, and copies of the 4-cycle with its last point moved a little
    b = -1.3
    (c4,) = find_cycles_1d(Params(b), 4)
    lower = [c.points * (4 // d) for d in (1, 2)
             for c in find_cycles_1d(Params(b), d)]
    moved = [c4.points[:3] + (c4.points[3] + e,)
             for e in (1e-11, -3e-11, 1e-9, -1e-6)]
    cycles = [c4.points, *lower, *moved]
    verdicts = _source_verdicts(cycles, b).tolist()
    assert verdicts == [bool(_source_verdicts(c, b)) for c in cycles]
    assert verdicts == [True, False, False, False, True, True, False, False]


@pytest.mark.parametrize("b", [-2.3, -2.0, -1.76, -1.3, -0.5])
def test_every_found_cycle_passes_the_closure_rule(b):
    # every point maps within CLOSURE_TOL * max(1, x^2) of the next, and
    # no proper divisor of the period repeats: the rule of a lift source.
    # No two cycles have sorted points within ORBIT_DEDUP_TOL (sup norm),
    # the closeness at which lifts refuse two sources as one cycle
    for n in range(1, 11):
        found = find_cycles_1d(Params(b), n)
        for c in found:
            assert _source_verdicts(c.points, b)
        keys = np.sort(np.reshape([c.points for c in found], (-1, n)), axis=1)
        gaps = np.abs(keys[:, None, :] - keys[None, :, :]).max(axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert not (gaps < ORBIT_DEDUP_TOL).any(), n


@pytest.mark.parametrize("locate, n, bracket", [
    (find_fold, 1, (0.2, 0.3)), (find_flip, 1, (-0.8, -0.7)),
    (find_flip, 2, (-1.3, -1.2)), (find_flip, 4, (-1.45, -1.3)),
    (find_fold, 3, (-1.8, -1.7)), (find_flip, 3, (-1.8, -1.75)),
    (lambda n, bracket: find_transcritical(bracket), 1, (0.2, 0.3))])
def test_every_recipe_event_passes_the_closure_rule(locate, n, bracket):
    ev = locate(n, bracket)
    assert _source_verdicts(_orbit_1d(ev.x_star, ev.b_star, ev.period),
                            ev.b_star)


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
# complete and exact scalar cycles: closed forms at b = -2, counts, 60-digit
# roots and multipliers


def _mobius(d):
    sign, k, p = 1, d, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def _minimal_orbits(fixed, n):
    # orbits of minimal period n, Moebius-inverted from fixed[d], the
    # number of points that H^d fixes, at every divisor d of n
    return sum(_mobius(n // d) * fixed[d]
               for d in range(1, n + 1) if n % d == 0) // n


def _necklace(n):
    # minimal-period-n orbits of a map with 2^n points of period n
    return _minimal_orbits({d: 2 ** d for d in range(1, n + 1)}, n)


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


@pytest.mark.parametrize("n", range(1, 14))
def test_every_cycle_at_minus_two_is_found_at_its_closed_form(n):
    found = find_cycles_1d(Params(-2.0), n)
    assert len(found) == _necklace(n)
    # 1e-10 is under half the smallest spacing of the closed-form points
    # (5.7e-10 at n = 12), so each point names one of them, and no two
    # points name the same one
    gap, nearest = _chebyshev_gaps(found, n)
    assert gap.max() < 1e-10
    assert len(set(nearest.tolist())) == gap.size


def test_every_cycle_point_at_minus_two_is_exact_to_1e_12():
    # every point is pulled back along its word, so no point is a forward
    # iterate of another; measured: 5.4e-14 at n = 12, 1.7e-13 at n = 13
    for n in range(1, 14):
        gap, _ = _chebyshev_gaps(find_cycles_1d(Params(-2.0), n), n)
        assert gap.max() < 1e-12, n


@pytest.mark.parametrize("b", [-2.0, -2.1, -2.3])
def test_every_cycle_is_found_below_minus_two(b):
    # for b <= -2 every one of the 2^n points of period n is real, one on
    # the lap of each word
    params = Params(b)
    assert [len(find_cycles_1d(params, n)) for n in range(1, 17)] == \
        [_necklace(n) for n in range(1, 17)]


@pytest.mark.parametrize("b, n", [(-2.3, 18), (-2.0, 19)])
def test_every_cycle_is_found_at_long_periods(b, n):
    # a root on the lap of a primitive word has period n, with no divisor
    # test: at (-2.3, 18) one cycle has |x_6 - x_0| = 6.6e-10, under the
    # 1e-9 at which the divisor test would drop it
    assert len(find_cycles_1d(Params(b), n)) == _necklace(n)


@pytest.mark.xfail(strict=True, reason=(
    "the cycle of word 0 1^19 is missed: its lap's end at beta is pulled "
    "back through an exact 0 (x_19 = -2, x_18 = 0), so it is not widened, "
    "and there H^20(x) - x evaluates to -2.5e-11, so the lap shows no sign "
    "change; 52,376 of 52,377 are found"))
def test_every_cycle_is_found_at_the_largest_period():
    assert len(find_cycles_1d(Params(-2.0), 20)) == _necklace(20)


@pytest.mark.parametrize("p", [11, 13])
def test_census_lifts_every_cycle_at_minus_two_point_one(p):
    # 3 does not divide p, so each scalar p-cycle lifts to one 3D orbit,
    # and every one the finder returns is a valid lift source
    assert len(census(Params(-2.1), p)) == _necklace(p)


def test_a_period_above_the_largest_raises_before_any_search():
    # the finder holds 2^n codes; above MAX_PERIOD it refuses at once
    with pytest.raises(ValueError, match=f"period {MAX_PERIOD + 1} is above"):
        find_cycles_1d(Params(-2.0), MAX_PERIOD + 1)


def _plain_sorted_product(points):
    m = 1.0
    for x in sorted(points):
        m *= 2.0 * x
    return m


@pytest.mark.parametrize("b", [0.2, -0.5, -1.0, -1.3, -1.76, -1.9, -2.0,
                               -2.1, -2.3])
def test_multipliers_are_the_plain_sorted_product_bit_for_bit(b):
    # the rescaled product equals the plain one wherever that stays finite
    for n in range(1, 13):
        for c in find_cycles_1d(Params(b), n):
            assert c.multiplier.hex() == _plain_sorted_product(c.points).hex()


def test_a_multiplier_stays_finite_where_the_sorted_product_overflows():
    # the 600 factors -3.8 come first in sorted order and overflow, though
    # the product with the 200 factors 0.02 is about 1.2e8
    pts = [-1.9] * 600 + [0.01] * 200
    assert _plain_sorted_product(pts) == math.inf
    exact = mpmath.mpf(-3.8) ** 600 * mpmath.mpf(0.02) ** 200
    assert float(abs(_sorted_multiplier(pts) / exact - 1)) < 1e-12
    assert _sorted_multiplier([3.0] * 1000) == math.inf
    assert _sorted_multiplier([-3.0] * 1001) == -math.inf


@pytest.mark.parametrize("b", [-1.3, -1.76, -1.9, -2.1, -2.3])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_sampled_cycle_points_are_within_1e_12_of_their_60_digit_roots(b, n):
    # up to 24 points per (b, n), spread over the cycles; each is polished
    # at 60 digits from itself to the root of H^n(x) = x it approximates.
    # At b = -1.3 the 4-cycle has not yet doubled: no 8- or 12-cycles
    pts = [x for c in find_cycles_1d(Params(b), n) for x in c.points]
    assert pts or (b == -1.3 and n > 4)
    for x in pts[::max(1, len(pts) // 24)]:
        assert abs(mpmath.mpf(x) - polish_cycle_point(x, b, n)) < 1e-12


def _grid_fixed_points(b, n_max, sizes=(2 ** 18, 2 ** 20 + 1)):
    """The real solutions of H^k(x) = x for k = 1 .. n_max, counted as sign
    changes of H^k(x) - x on two uniform grids over [-beta, beta], padded;
    None for a k where the grids disagree."""
    beta = 0.5 + math.sqrt(0.25 - b)
    counts = []
    for size in sizes:
        u = np.linspace(-beta - 1e-3, beta + 1e-3, size)
        x, row = u, []
        for _ in range(n_max):
            x = x * x + b
            neg = np.signbit(x - u)
            row.append(int(np.count_nonzero(neg[1:] != neg[:-1])))
        counts.append(row)
    return {k + 1: c if c == d else None
            for k, (c, d) in enumerate(zip(*counts))}


# b in [-1.99, 0.2], each away from the folds and flips of periods <= 10
GRID_ORACLE_BS = [0.2, 0.1, -0.3, -0.6, -0.9, -1.1, -1.2, -1.33, -1.45, -1.55,
                  -1.6, -1.65, -1.7, -1.78, -1.82, -1.85, -1.88, -1.92, -1.95,
                  -1.98]


@pytest.mark.parametrize("b", GRID_ORACLE_BS)
def test_cycle_counts_match_an_independent_grid_count(b):
    fixed = _grid_fixed_points(b, 10)
    assert None not in fixed.values(), fixed
    for n in range(1, 11):
        assert len(find_cycles_1d(Params(b), n)) == _minimal_orbits(fixed, n), n


# the flips of the period-doubling cascade: below FLIPS[k - 1] the cycle of
# period 2^(k - 1) has doubled into one of period 2^k
FLIPS = [-0.75, -1.25, -1.3680989394, -1.3940461566]


def _cascade_count(b, n):
    # above the Feigenbaum point -1.401155... only periods 2^k exist: the
    # two fixed points and one cycle of each period 2^k born so far
    if n == 1:
        return 2
    return int(any(n == 2 ** k and b < flip for k, flip in enumerate(FLIPS, 1)))


# 300 values of b down to just above the Feigenbaum point, and points on
# either side of each flip; -1.36809894 lies 6e-10 past the 4 -> 8 flip
CASCADE_BS = sorted({*np.linspace(0.24, -1.399, 300).tolist(), -1.36809894,
                     *(f + d for f in FLIPS for d in (1e-7, -1e-9, -1e-8, -1e-7))})


def test_cycle_counts_match_the_cascade_above_the_feigenbaum_point():
    for b in CASCADE_BS:
        counts = [len(find_cycles_1d(Params(b), n)) for n in range(1, 17)]
        assert counts == [_cascade_count(b, n) for n in range(1, 17)], b


@pytest.mark.xfail(strict=True, reason=(
    "just before a flip the parent cycle's root on the lap of its doubled "
    "word is ill-conditioned, |x_{n/2} - x_0| passes 1e-9, and the finder "
    "reports it as a cycle of period n"))
@pytest.mark.parametrize("b, n", [(-0.74999999, 2), (-1.24999999, 4),
                                  (-1.3680989384, 8), (-1.3940461556, 16)])
def test_no_cycle_is_reported_just_before_its_flip(b, n):
    assert find_cycles_1d(Params(b), n) == []


def test_grid_escape_raises_no_warning():
    # every lap lies in [-beta, beta], so no evaluation of H^12 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_cycles_1d(Params(-2.0), 12)
    assert len(found) == _necklace(12)


@pytest.mark.parametrize("b, n", [(-2.1, 18), (-2.3, 16), (-2.3, 18), (-1.9, 18)])
def test_bisection_and_polish_raise_no_overflow_warning(b, n):
    # a lap end widened past beta stays within a few ulps of it, and the
    # jets of H^n stay finite at every bisection point
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


def _scalar_bisect(f, lo, hi):
    # the per-bracket loop the array bisection replaces
    flo, fhi = f(lo), f(hi)
    if not (flo > 0.0 and fhi < 0.0):
        return lo if flo <= 0.0 else hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if flo <= -fhi else hi
        fm = f(mid)
        if fm > 0.0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm


def _scalar_pullback(y, word, b, n):
    # x_0 back from x_n = y along one word, one square root at a time
    for k in reversed(range(n)):
        r = math.sqrt(max(y - b, 0.0))
        y = r if (word >> k) & 1 else 0.0 - r
    return y


def _hex(xs):
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("b, n", [(-2.0, 7), (-2.0, 10), (-1.75, 3), (-1.75, 9)])
def test_array_kernels_match_the_scalar_loops_bitwise(b, n):
    # the laps of one word per rotation class, as the finder takes them
    codes = [c for c in range(1 << n)
             if all(c <= ((c >> k) | (c << (n - k))) & ((1 << n) - 1)
                    for k in range(n))]
    beta = 0.5 + math.sqrt(0.25 - b)
    ends = [list(_pullback(np.full(len(codes), y), np.array(codes), b, n))[-1]
            for y in (beta, -beta)]
    for y, got in zip((beta, -beta), ends):
        assert _hex(got) == _hex(_scalar_pullback(y, c, b, n) for c in codes)
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    # wild brackets too: adjacent points of a grid past beta, where the
    # jets overflow to inf and nan
    grid = np.linspace(-2.5, 2.5, 20001)[::97]
    lo, hi = np.concatenate([lo, grid[:-1]]), np.concatenate([hi, grid[1:]])
    # the finder's three: (H^n)'', (H^n)' - 1 and H^n(x) - x, either sign
    for f in (lambda x: _jet(x, b, n)[3], lambda x: _jet(x, b, n)[1] - 1.0,
              lambda x: _jet(x, b, n)[0] - x, lambda x: x - _jet(x, b, n)[0]):
        with np.errstate(all="ignore"):
            got = _bisect(f, lo, hi)
        assert _hex(got) == _hex(_scalar_bisect(f, float(x), float(z))
                                 for x, z in zip(lo, hi))
