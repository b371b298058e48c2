"""Degeneracy planes, forward images, zones and inverse branches.

Oracle: iterating `plane_image` from the base plane must agree with the
closed-form `critical_plane(k)` -- same axis cycle, same scalar orbit of
offsets, and since both run the identical float recurrence the offsets
match exactly, not just to tolerance.
"""
import math

import numpy as np
import pytest

from quadshift import (Params, Point3, apply_T, critical_plane, h1d_n, orbit,
                       plane_image, preimages, region_of, zone_of)


def test_base_plane():
    pl = critical_plane(-1, Params(-1.3))
    assert (pl.axis, pl.offset, pl.index) == ("x", 0.0, -1)


def test_closed_form_matches_iteration():
    params = Params(-1.3)
    pl = critical_plane(-1, params)
    for k in range(0, 13):
        pl = plane_image(pl, params)
        direct = critical_plane(k, params)
        assert pl == direct         # axis, offset (exact float), index


@pytest.mark.parametrize("b", [-2.0, -1.76, -0.4, 0.1])
def test_closed_form_matches_iteration_other_params(b):
    params = Params(b)
    pl = critical_plane(-1, params)
    for k in range(0, 10):
        pl = plane_image(pl, params)
        assert pl == critical_plane(k, params)


def test_axis_cycle_and_offset_orbit():
    params = Params(-1.3)
    for k in range(0, 12):
        pl = critical_plane(k, params)
        assert pl.axis == ("z", "y", "x")[k % 3]
        assert pl.offset == h1d_n(0.0, params, k // 3 + 1)


def test_offsets_at_b_zero_do_not_walk():
    # b = 0 pins the critical orbit at 0: every image plane has offset 0,
    # a coincidence that would mask axis-indexing bugs at other parameters
    params = Params(0.0)
    for k in range(-1, 9):
        assert critical_plane(k, params).offset == 0.0


def test_plane_index_validation():
    with pytest.raises(ValueError):
        critical_plane(-2, Params(-1.0))


# ---------------------------------------------------------------------------
# zones and regions


def test_zone_classification():
    params = Params(-1.3)
    assert zone_of(Point3(0.0, 0.0, 0.0), params) == "Z2"
    assert zone_of(Point3(0.0, 0.0, -2.0), params) == "Z0"
    assert zone_of(Point3(0.0, 0.0, -1.3), params) == "on_PC0"


def test_region_classification():
    assert region_of(Point3(0.5, 0.0, 0.0)) == "R1"
    assert region_of(Point3(-0.5, 0.0, 0.0)) == "R2"
    assert region_of(Point3(0.0, 1.0, 2.0)) == "on_PC_minus1"


def test_preimages_in_z2():
    params = Params(-1.3)
    p = Point3(0.4, -0.2, 0.7)
    pre = preimages(p, params)
    assert len(pre) == 2
    regions = {q.region for q in pre}
    assert regions == {"R1", "R2"}
    for q in pre:
        back = apply_T(q.point, params)
        assert max(abs(a - b) for a, b in zip(back, p)) < 1e-12


def test_preimages_in_z0_empty():
    params = Params(-1.3)
    assert preimages(Point3(0.0, 0.0, -2.0), params) == []


def test_preimage_on_fold_is_single_and_critical():
    params = Params(-1.3)
    p = Point3(0.4, -0.2, -1.3)
    pre = preimages(p, params)
    assert len(pre) == 1
    assert pre[0].region == "on_PC_minus1"
    assert pre[0].point.x == 0.0


def test_preimage_round_trip_randomized():
    # 10^4 random Z2 targets at randomized parameters: T(preimage) == target
    rng = np.random.default_rng(7)
    for _ in range(10**4):
        b = rng.uniform(-2.0, 0.25)
        params = Params(b)
        p = Point3(rng.uniform(-2, 2), rng.uniform(-2, 2),
                   b + rng.uniform(1e-6, 4.0))
        pre = preimages(p, params)
        assert len(pre) == 2
        for q in pre:
            back = apply_T(q.point, params)
            assert max(abs(a - c) for a, c in zip(back, p)) <= 1e-12


def test_preimages_partition_by_sign():
    pre = preimages(Point3(0.1, 0.2, 0.5), Params(-1.0))
    xs = sorted(q.point.x for q in pre)
    assert xs[0] == -xs[1]
    assert xs[1] == math.sqrt(1.5)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("classify", [
    lambda p: zone_of(p, Params(-1.3)), region_of,
    lambda p: preimages(p, Params(-1.3))],
    ids=["zone_of", "region_of", "preimages"])
def test_non_finite_points_are_rejected(classify, bad, axis):
    # a NaN z once put a point in Z0 while its preimages were two NaN
    # points in R1 and R2; an infinite z gave preimages at x = +-inf
    coords = [0.4, -0.2, 0.7]
    coords[axis] = bad
    with pytest.raises(ValueError, match="point must be finite"):
        classify(Point3(*coords))


# ---------------------------------------------------------------------------
# plane / attractor geometry


def test_attractor_never_below_first_plane():
    # at b = -2 the orbit closure lies in the half-space z >= b: the first
    # image plane {z = b} bounds every attractor from below
    params = Params(-2.0)
    pts = orbit(Point3(0.3, -0.5, 0.5), params, 4000, transient=500)
    first = critical_plane(0, params)
    assert (first.axis, first.offset) == ("z", -2.0)
    assert min(p.z for p in pts) >= first.offset
