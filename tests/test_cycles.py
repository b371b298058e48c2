import math

import numpy as np
import pytest

from quadshift import (Cycle1D, NoRealFixedPoints, Params, Point3, census,
                       classify_stability, cycle1d_label, find_cycles_1d,
                       fixed_point_cycles_1d, fixed_points_T, jacobian_T,
                       lift_homogeneous, lift_homogeneous_3n, lift_mixed_pair,
                       lift_mixed_triple, stability_block_length)
from quadshift.cycles import STABILITY_TOL


def two_cycle_points(b):
    r = math.sqrt(-3.0 - 4.0 * b)
    return (-0.5 - 0.5 * r, -0.5 + 0.5 * r)


def test_fixed_points_closed_form():
    c_plus, c_minus = fixed_point_cycles_1d(Params(0.0))
    assert c_plus.points == (1.0,)
    assert c_minus.points == (0.0,)
    assert c_plus.multiplier == 2.0
    assert c_minus.multiplier == 0.0


def test_fixed_points_merge_at_the_tangency():
    c_plus, c_minus = fixed_point_cycles_1d(Params(0.25))
    assert c_plus.points == (0.5,)
    assert c_minus.points == (0.5,)


def test_no_real_fixed_points_past_the_fold():
    with pytest.raises(NoRealFixedPoints):
        fixed_point_cycles_1d(Params(0.3))


def test_two_cycle_at_minus_one_is_zero_and_minus_one():
    found = find_cycles_1d(Params(-1.0), 2)
    assert len(found) == 1
    c = found[0]
    assert c.points == (-1.0, 0.0)
    assert c.multiplier == 0.0
    assert not c.degenerate
    assert cycle1d_label(c) == "n2@-1"


def test_no_two_cycle_before_the_doubling():
    assert find_cycles_1d(Params(-0.5), 2) == []


def test_two_cycle_closed_form_and_multiplier_rule():
    b = -1.3
    found = find_cycles_1d(Params(b), 2)
    assert len(found) == 1
    lo, hi = two_cycle_points(b)
    assert found[0].points[0] == pytest.approx(lo, abs=1e-12)
    assert found[0].points[1] == pytest.approx(hi, abs=1e-12)
    # the multiplier of the 2-cycle is 4(b+1) analytically
    assert found[0].multiplier == pytest.approx(4.0 * (b + 1.0), abs=1e-10)


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
    out += [lift_homogeneous(c, params) for c in (x1, x2, c2)]
    out += lift_homogeneous_3n(c2, params)
    for A, B in ((x1, x2), (x1, c2), (x2, c2)):
        out += lift_mixed_pair(A, B, params)
    out += lift_mixed_triple(x1, x2, c2, params)
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
    assert not any(c.degenerate is None for c in found)
