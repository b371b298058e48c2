"""Top-level acceptance checks: ten numbered criteria, one printed
PASS/FAIL line each (run with `pytest tests/test_acceptance.py -s -v` to
see the lines as they happen).

Each check computes everything it needs, prints its verdict line with the
measured numbers, and only then asserts -- a failing criterion still
reports what was actually measured.

All ten criteria check the runs documented in `recipes/README.md`, with
the starts, parameters and waypoints given there.  Two inputs near those
runs are special and are checked on their own: the pinned start
(0, -1/2, 1/2) at exactly b = -2 rides the unstable fixed point x = 2
(test_lyapunov.py), and b = -1.25 is exactly the flip of the 2-cycle
(test_bifurcations.py).
"""
import itertools
import math

import numpy as np
import pytest

from quadshift import (DIVERGENT, Params, Point3, apply_T,
                       bifurcation_diagram, critical_plane,
                       distinct_sample_count, find_cycles_1d, find_flip,
                       find_fold, find_transcritical, fixed_points_T,
                       lift_homogeneous_3n, lift_mixed_pair,
                       lift_mixed_triple, plane_image, preimages, zone_of)


def _verdict(num, ok, desc, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {flag} — {desc} ({detail})")


def test_criterion_01_fixed_point_closed_form():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(50):
        b = rng.uniform(-2.5, 0.25)
        disc = math.sqrt(1.0 - 4.0 * b)
        expect = sorted((0.5 - 0.5 * disc, 0.5 + 0.5 * disc))
        got = sorted(c.points[0].x for c in fixed_points_T(Params(b)))
        assert len(got) == 2
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expect)))
    ok = worst <= 1e-12
    _verdict(1, ok, "fixed-point closed form, 50 random parameters",
             f"max deviation {worst:.3e}")
    assert ok


def test_criterion_02_bifurcation_constants():
    events = [
        ("fold(1)", find_fold(1, (0.2, 0.3)).b_star, 0.25, 1e-9),
        ("flip(1)", find_flip(1, (-0.8, -0.7)).b_star, -0.75, 1e-9),
        ("flip(2)", find_flip(2, (-1.3, -1.2)).b_star, -1.25, 1e-9),
        ("fold(3)", find_fold(3, (-1.8, -1.7)).b_star, -1.75, 1e-8),
        ("flip(3)", find_flip(3, (-1.8, -1.75)).b_star, -1.768529152, 1e-6),
        ("transcritical", find_transcritical((0.2, 0.3)).b_star, 0.25, 1e-9),
    ]
    devs = {name: abs(got - want) for name, got, want, _ in events}
    ok = all(abs(got - want) <= tol for _, got, want, tol in events)
    _verdict(2, ok, "six bifurcation locations",
             ", ".join(f"{n} dev {d:.2e}" for n, d in devs.items()))
    assert ok


def test_criterion_03_period_four_flip_window():
    pinned = -1.3680989393912575
    ev = find_flip(4, (-1.45, -1.3))
    in_window = -1.40 <= ev.b_star <= -1.35
    near_pin = abs(ev.b_star - pinned) <= 1e-9
    ok = in_window and near_pin
    _verdict(3, ok, "period-4 flip inside [-1.40, -1.35]",
             f"b* = {ev.b_star:.16g}, pin dev {abs(ev.b_star - pinned):.2e}")
    assert ok


def _orbit_key(points, nd=8):
    return frozenset(tuple(round(v, nd) for v in p) for p in points)


def test_criterion_04_period_six_census_at_minus_one():
    params = Params(-1.0)
    x1, x2 = find_cycles_1d(params, 1)
    (c2,) = find_cycles_1d(params, 2)

    homog = lift_homogeneous_3n(c2)
    pairs = (lift_mixed_pair(x1, x2)
             + lift_mixed_pair(x1, c2)
             + lift_mixed_pair(x2, c2))
    triples = lift_mixed_triple(x1, x2, c2)
    group_counts = (len(homog), len(pairs), len(triples))

    union = {}
    for c in homog + pairs + triples:
        if c.period == 6:
            union[_orbit_key(c.points)] = c
    # validate every orbit by direct iteration: closes at 6, at no divisor
    valid = True
    for c in union.values():
        p0 = c.points[0]
        seq = [p0]
        for _ in range(6):
            seq.append(apply_T(seq[-1], params))
        valid &= max(abs(a - b) for a, b in zip(seq[6], p0)) < 1e-9
        for d in (1, 2, 3):
            valid &= max(abs(a - b) for a, b in zip(seq[d], p0)) > 1e-6

    # brute force: period-6 points have coordinates among the four roots
    # of H^2(u) = u, so sweep all 4^3 starts and collect minimal-6 orbits
    vals = [x1.points[0], x2.points[0], 0.0, -1.0]
    brute = set()
    for trip in itertools.product(vals, repeat=3):
        p = Point3(*trip)
        seq = [p]
        for _ in range(6):
            seq.append(apply_T(seq[-1], params))
        if max(abs(a - b) for a, b in zip(seq[6], seq[0])) > 1e-9:
            continue
        key = _orbit_key(seq[:6])
        if len(key) == 6:
            brute.add(key)

    ok = (group_counts == (1, 8, 2) and len(union) == 9 and valid
          and brute == set(union))
    _verdict(4, ok, "nine period-6 orbits at b = -1",
             f"groups {group_counts}, union {len(union)}, "
             f"brute force {len(brute)}, iteration valid {valid}")
    assert ok


def test_criterion_05_count_formulas():
    def pair_n(n, m):
        return (n + m) * n * m // math.lcm(n, m)

    def triple_n(n, m, p):
        return 2 * n * m * p // math.lcm(n, m, p)

    p1 = Params(-1.0)
    x1, x2 = find_cycles_1d(p1, 1)
    (c2,) = find_cycles_1d(p1, 2)
    p13 = Params(-1.3)
    y1, y2 = find_cycles_1d(p13, 1)
    (d2,) = find_cycles_1d(p13, 2)
    (d4,) = find_cycles_1d(p13, 4)

    checks = [
        ("pair(1,1)", len(lift_mixed_pair(x1, x2)), pair_n(1, 1)),
        ("pair(1,2)", len(lift_mixed_pair(x1, c2)), pair_n(1, 2)),
        ("pair(1,4)", len(lift_mixed_pair(y1, d4)), pair_n(1, 4)),
        ("pair(2,4)", len(lift_mixed_pair(d2, d4)), pair_n(2, 4)),
        ("triple(1,1,2)", len(lift_mixed_triple(x1, x2, c2)),
         triple_n(1, 1, 2)),
        ("triple(1,1,4)", len(lift_mixed_triple(y1, y2, d4)),
         triple_n(1, 1, 4)),
        ("triple(1,2,4)", len(lift_mixed_triple(y1, d2, d4)),
         triple_n(1, 2, 4)),
    ]
    ok = all(got == want for _, got, want in checks)
    _verdict(5, ok, "pair and triple lift-count formulas",
             ", ".join(f"{n}={got}/{want}" for n, got, want in checks))
    assert ok


def test_criterion_06_lyapunov_spectra(spectrum_b2_generic,
                                       spectrum_b1864_pinned):
    """The two recipe runs: b = -2 from the generic start (0.3, -1/2, 1/2)
    and b = -1.864 from (0, -1/2, 1/2).  At b = -2 the scalar map is
    conjugate to the full tent map, so its exponent is ln 2
    (Ulam-von Neumann) and each of the three interleaved streams
    contributes (ln 2)/3 = 0.23105.  The generic start is the right one:
    from (0, -1/2, 1/2) the x-stream runs 0 -> -2 -> 2 -> 2 ... and sits
    on the unstable fixed point x = 2 exactly, which measures that point's
    rates instead (checked in test_lyapunov.py).
    """
    e2 = spectrum_b2_generic.exponents
    e18 = spectrum_b1864_pinned.exponents
    ok2 = all(abs(v - 0.23105) <= 0.005 for v in e2)
    ok18 = all(v > 0.0 and abs(v - 0.153) <= 0.010 for v in e18)
    ok = ok2 and ok18
    _verdict(6, ok, "Lyapunov spectra at b = -2 and b = -1.864",
             f"b=-2 generic: {e2[0]:.4f}/{e2[1]:.4f}/{e2[2]:.4f} "
             f"vs 0.23105±0.005; "
             f"b=-1.864: {e18[0]:.4f}/{e18[1]:.4f}/{e18[2]:.4f} "
             f"vs 0.153±0.010")
    assert ok


def test_criterion_07_critical_planes():
    params = Params(-1.3)
    pl = critical_plane(-1, params)
    worst = 0.0
    for k in range(0, 13):
        pl = plane_image(pl, params)
        direct = critical_plane(k, params)
        same_axis = pl.axis == direct.axis
        worst = max(worst, abs(pl.offset - direct.offset))
        if not same_axis:
            worst = math.inf
    confused = [critical_plane(k, Params(0.0)) for k in (-1, 2, 5, 8)]
    coincide = len({(p.axis, p.offset) for p in confused}) == 1
    ok = worst <= 1e-12 and coincide
    _verdict(7, ok, "closed-form planes vs iterated images; b=0 confusion",
             f"max offset dev {worst:.3e}, "
             f"planes -1/2/5/8 at b=0 coincide: {coincide}")
    assert ok


def test_criterion_08_preimage_round_trip():
    rng = np.random.default_rng(1864)
    worst = 0.0
    z0_clean = True
    for _ in range(10**4):
        b = rng.uniform(-2.0, 0.25)
        params = Params(b)
        p = Point3(rng.uniform(-2, 2), rng.uniform(-2, 2),
                   b + rng.uniform(1e-9, 4.0))
        pre = preimages(p, params)
        assert len(pre) == 2
        for q in pre:
            back = apply_T(q.point, params)
            worst = max(worst, max(abs(a - c) for a, c in zip(back, p)))
        down = Point3(p.x, p.y, b - rng.uniform(1e-9, 1.0))
        z0_clean &= (zone_of(down, params) == "Z0"
                     and preimages(down, params) == [])
    ok = worst <= 1e-12 and z0_clean
    _verdict(8, ok, "10^4 preimage round trips; empty Z0 preimages",
             f"max round-trip dev {worst:.3e}, Z0 always empty: {z0_clean}")
    assert ok


def test_criterion_09_diagram_narrative():
    """The recipe's waypoints -0.4, -0.78, -1.26 and -1.6, with its start,
    transient and sample count.  The 2-cycle of H doubles at exactly
    b = -1.25, where its multiplier 4(1+b) is -1; there the attractor is
    still the 2-cycle {(-1 +- sqrt 2)/2}, reached only algebraically, so
    no count of 4 exists at that point.  At -1.26, one step past the
    flip, the 4-cycle attracts geometrically and the samples form four
    tight, well separated clusters.
    """
    def count_at(b):
        d = bifurcation_diagram((b, b), 1, transient=1000, samples=200)
        row = d.rows[0]
        assert row.samples is not None
        return distinct_sample_count(row.samples, tol=1e-6)

    counts = {b: count_at(b) for b in (-0.4, -0.78, -1.26, -1.6)}
    ok = (counts[-0.4] == 1 and counts[-0.78] == 2 and counts[-1.26] == 4
          and counts[-1.6] > 64)
    _verdict(9, ok, "distinct-attractor counts along the diagram",
             f"measured {counts} vs expected {{-0.4: 1, -0.78: 2, "
             f"-1.26: 4, -1.6: >64}}")
    assert ok


def test_criterion_10_basin_coexistence(basin_grid_b1864, basin_grid_b2):
    labs64 = set(int(v) for v in np.unique(basin_grid_b1864.labels))
    labs2 = set(int(v) for v in np.unique(basin_grid_b2.labels))
    bounded64 = {l for l in labs64 if l >= 0}
    bounded2 = {l for l in labs2 if l >= 0}
    ok = (len(bounded64) >= 2 and DIVERGENT in labs64
          and len(bounded2) >= 1 and DIVERGENT in labs2)
    _verdict(10, ok, "basin coexistence on 200x200 slices",
             f"b=-1.864: {len(bounded64)} bounded labels + divergent "
             f"{DIVERGENT in labs64}; b=-2: {len(bounded2)} bounded + "
             f"divergent {DIVERGENT in labs2}")
    assert ok
