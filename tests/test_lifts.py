"""Lifting scalar cycles to 3D cycles.

The oracles here are pure integer dynamics: a lifted orbit is determined
entirely by which scalar orbit each coordinate runs through and with what
phase, so enumerating index triples (i, j, k) -> (j, k, h(i)) counts and
identifies every liftable orbit without touching floats.  The float
machinery must then reproduce those orbits exactly.
"""
import itertools
import math

import pytest

from quadshift import (Cycle1D, LiftValidationFailed, Params,
                       PeriodDivisibleBy3, Point3, apply_T, census,
                       find_cycles_1d, fixed_point_cycles_1d, fixed_points_T,
                       lift_homogeneous, lift_homogeneous_3n,
                       lift_mixed_pair, lift_mixed_triple)


# ---------------------------------------------------------------------------
# integer oracle


def index_orbits(n_values, hmap, period):
    """Distinct minimal-`period` orbits of (i,j,k) -> (j,k,hmap[i])."""
    orbits = set()
    for trip in itertools.product(range(n_values), repeat=3):
        seen = [trip]
        cur = trip
        for _ in range(period):
            cur = (cur[1], cur[2], hmap[cur[0]])
            seen.append(cur)
        if cur != trip:
            continue
        if len(set(seen[:period])) < period:     # a proper divisor closes it
            continue
        orbits.add(frozenset(seen[:period]))
    return orbits


def value_key(points, nd=8):
    return tuple(sorted(tuple(round(v, nd) for v in p) for p in points))


def _orbit_dist(A, B):
    """Symmetric sup-Hausdorff between two finite point sets.

    Lexicographic sort is unusable here: coordinates of the same scalar
    value can land one ulp apart at different phases of a lifted orbit,
    which reshuffles sort order and misaligns a zipped comparison.
    """
    def one_way(P, Q):
        return max(min(max(abs(a - b) for a, b in zip(p, q)) for q in Q)
                   for p in P)
    return max(one_way(A, B), one_way(B, A))


def match_orbit_sets(oracle_point_sets, cycles, tol=1e-9):
    """1:1 matching between oracle orbits and lifted cycles.

    Orbit points are pairwise far apart compared to `tol`, so Hausdorff
    distance below `tol` between equal-size sets forces a bijection.
    """
    assert len(oracle_point_sets) == len(cycles)
    used = set()
    xs = [sorted(p.x for p in c.points) for c in cycles]
    for pts in oracle_point_sets:
        want = [tuple(p) for p in pts]
        wx = sorted(p[0] for p in want)
        hit = None
        for i, c in enumerate(cycles):
            if i in used or len(c.points) != len(want):
                continue
            # a bijection moving no point by tol or more moves no sorted
            # x-coordinate by tol or more: a cheap test to skip most pairs
            if max(abs(a - b) for a, b in zip(xs[i], wx)) >= tol:
                continue
            got = [tuple(p) for p in c.points]
            if _orbit_dist(got, want) < tol:
                hit = i
                break
        assert hit is not None, f"no lifted cycle matches oracle orbit {want[:2]}..."
        used.add(hit)


# ---------------------------------------------------------------------------
# fixtures for the scalar cycles used throughout


@pytest.fixture(scope="module")
def at_minus_one():
    params = Params(-1.0)
    x1, x2 = find_cycles_1d(params, 1)
    (c2,) = find_cycles_1d(params, 2)
    return params, x1, x2, c2


@pytest.fixture(scope="module")
def at_minus_13():
    params = Params(-1.3)
    x1, x2 = find_cycles_1d(params, 1)
    (c2,) = find_cycles_1d(params, 2)
    (c4,) = find_cycles_1d(params, 4)
    return params, x1, x2, c2, c4


# ---------------------------------------------------------------------------
# homogeneous lifts (period not divisible by three)


def test_homogeneous_lift_of_two_cycle(at_minus_one):
    params, _, _, c2 = at_minus_one
    c = lift_homogeneous(c2)
    assert c.period == 2
    assert c.provenance.kind == "homogeneous"
    # t = 3^-1 mod 2 = 1: state 0 is (X0, X[t], X[2t]) = (X0, X1, X0)
    assert tuple(c.points[0]) == (-1.0, 0.0, -1.0)
    # closure re-checked independently
    p = c.points[0]
    q = apply_T(apply_T(p, params), params)
    assert max(abs(a - b) for a, b in zip(p, q)) < 1e-12


def test_homogeneous_lift_of_four_cycle(at_minus_13):
    _, _, _, _, c4 = at_minus_13
    c = lift_homogeneous(c4)
    assert c.period == 4
    X = c4.points
    # t = 3^-1 mod 4 = 3: state 0 is (X0, X[t], X[2t]) = (X0, X3, X2), and
    # X0 is the smallest point, so it is the orbit's first point
    assert tuple(c.points[0]) == (X[0], X[3], X[2])


def test_homogeneous_lift_rejects_multiples_of_three(at_minus_one):
    params, x1, _, _ = at_minus_one
    three = find_cycles_1d(Params(-1.76), 3)
    assert len(three) == 2
    with pytest.raises(PeriodDivisibleBy3):
        lift_homogeneous(three[0])


# ---------------------------------------------------------------------------
# triple-period homogeneous lifts


def test_3n_lift_count_and_orbits_n2(at_minus_one):
    _, _, _, c2 = at_minus_one
    lifted = lift_homogeneous_3n(c2)
    assert len(lifted) == 1
    assert lifted[0].period == 6
    # oracle: h = cyclic shift on 2 symbols; minimal-period-6 index orbits
    oracle = index_orbits(2, {0: 1, 1: 0}, 6)
    assert len(oracle) == 1
    vals = c2.points
    sets = [[tuple(vals[i] for i in trip) for trip in orb] for orb in oracle]
    match_orbit_sets(sets, lifted)


def test_3n_lift_count_and_orbits_n4(at_minus_13):
    _, _, _, _, c4 = at_minus_13
    lifted = lift_homogeneous_3n(c4)
    assert len(lifted) == 5
    assert all(c.period == 12 for c in lifted)
    assert all(c.provenance.kind == "homogeneous_3n" for c in lifted)
    oracle = index_orbits(4, {i: (i + 1) % 4 for i in range(4)}, 12)
    assert len(oracle) == 5
    vals = c4.points
    sets = [[tuple(vals[i] for i in trip) for trip in orb] for orb in oracle]
    match_orbit_sets(sets, lifted)


def test_3n_lift_count_n5():
    params = Params(-2.0)
    fives = find_cycles_1d(params, 5)
    assert len(fives) == 6          # (2^5 - 2)/5, all real at the boundary
    lifted = lift_homogeneous_3n(fives[0])
    assert len(lifted) == 8
    assert all(c.period == 15 for c in lifted)


def test_3n_lift_count_n3():
    params = Params(-1.76)
    threes = find_cycles_1d(params, 3)
    lifted = lift_homogeneous_3n(threes[0])
    assert len(lifted) == 3
    assert all(c.period == 9 for c in lifted)


# ---------------------------------------------------------------------------
# mixed pairs and triples: verified count families


def _pair_count(n, m):
    s = math.lcm(n, m)
    return (n + m) * n * m // s


def _triple_count(n, m, p):
    S = math.lcm(n, m, p)
    return 2 * n * m * p // S


def test_pair_of_fixed_points(at_minus_one):
    _, x1, x2, _ = at_minus_one
    lifted = lift_mixed_pair(x1, x2)
    assert len(lifted) == _pair_count(1, 1) == 2
    assert all(c.period == 3 for c in lifted)
    assert all(c.provenance.kind == "mixed_pair" for c in lifted)


def test_pairs_fixed_point_with_two_cycle(at_minus_one):
    _, x1, x2, c2 = at_minus_one
    a = lift_mixed_pair(x1, c2)
    b = lift_mixed_pair(x2, c2)
    assert len(a) == len(b) == _pair_count(1, 2) == 3
    assert all(c.period == 6 for c in a + b)


def test_pair_two_with_four_cycle(at_minus_13):
    _, _, _, c2, c4 = at_minus_13
    lifted = lift_mixed_pair(c2, c4)
    assert len(lifted) == _pair_count(2, 4) == 12
    assert all(c.period == 12 for c in lifted)


def test_pairs_fixed_point_with_four_cycle(at_minus_13):
    _, x1, x2, _, c4 = at_minus_13
    assert len(lift_mixed_pair(x1, c4)) == _pair_count(1, 4) == 5
    assert len(lift_mixed_pair(x2, c4)) == _pair_count(1, 4) == 5


def test_pair_is_order_invariant(at_minus_13):
    _, _, _, c2, c4 = at_minus_13
    ab = {value_key(c.points) for c in lift_mixed_pair(c2, c4)}
    ba = {value_key(c.points) for c in lift_mixed_pair(c4, c2)}
    assert ab == ba


def test_triple_of_fixed_points_and_two_cycle(at_minus_one):
    _, x1, x2, c2 = at_minus_one
    lifted = lift_mixed_triple(x1, x2, c2)
    assert len(lifted) == _triple_count(1, 1, 2) == 2
    assert all(c.period == 6 for c in lifted)
    assert all(c.provenance.kind == "mixed_triple" for c in lifted)


def test_triples_at_minus_13(at_minus_13):
    _, x1, x2, c2, c4 = at_minus_13
    assert len(lift_mixed_triple(x1, x2, c4)) == \
        _triple_count(1, 1, 4) == 2
    assert len(lift_mixed_triple(x1, c2, c4)) == \
        _triple_count(1, 2, 4) == 4
    assert len(lift_mixed_triple(x2, c2, c4)) == \
        _triple_count(1, 2, 4) == 4


def test_triple_is_order_invariant(at_minus_13):
    _, x1, _, c2, c4 = at_minus_13
    ref = {value_key(c.points) for c in lift_mixed_triple(x1, c2, c4)}
    for perm in itertools.permutations((x1, c2, c4)):
        got = {value_key(c.points) for c in lift_mixed_triple(*perm)}
        assert got == ref


def test_sources_must_coexist(at_minus_one, at_minus_13):
    _, x1, _, _ = at_minus_one
    _, _, _, c2_13, _ = at_minus_13
    with pytest.raises(ValueError):
        lift_mixed_pair(x1, c2_13)


def test_sources_must_be_distinct(at_minus_one):
    _, x1, _, c2 = at_minus_one
    with pytest.raises(ValueError):
        lift_mixed_pair(c2, c2)


LIFTS = {
    "homogeneous": lambda bad, x2, c2: lift_homogeneous(bad),
    "homogeneous_3n": lambda bad, x2, c2: lift_homogeneous_3n(bad),
    "mixed_pair": lambda bad, x2, c2: lift_mixed_pair(bad, x2),
    "mixed_triple": lambda bad, x2, c2: lift_mixed_triple(bad, x2, c2),
}


@pytest.mark.parametrize("defect", ["moved", "repeated"])
@pytest.mark.parametrize("kind", sorted(LIFTS))
def test_lifts_reject_a_bad_source(at_minus_one, kind, defect):
    # a 2-cycle with one point moved by 1e-6, and the fixed point x1 listed
    # twice as a "2-cycle" (minimal period 1, a proper divisor of 2)
    params, x1, x2, c2 = at_minus_one
    pts = (-1.0, 1e-6) if defect == "moved" else x1.points * 2
    bad = Cycle1D(b=params.b, period=2, points=pts, multiplier=0.0)
    with pytest.raises(LiftValidationFailed, match="source n2@"):
        LIFTS[kind](bad, x2, c2)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e200])
def test_lifts_reject_a_source_that_is_not_finite_or_overflows(x):
    # inf - inf and NaN gaps compare false with any tolerance, and a square
    # that overflows makes the relative tolerance infinite
    bad = Cycle1D(b=-1.0, period=1, points=(x,), multiplier=2.0 * x)
    with pytest.raises(LiftValidationFailed, match="source n1@"):
        lift_homogeneous(bad)


def test_lifts_accept_a_large_fixed_point():
    # x^2 + b rounds to ~1e-8 at |x| = 1e4; closure is judged relative to x^2
    x_fixed = fixed_point_cycles_1d(Params(-1e8))[0]
    c = lift_homogeneous(x_fixed)
    assert c.points == (Point3(*x_fixed.points * 3),)


# ---------------------------------------------------------------------------
# census


def test_census_period_six_at_minus_one(at_minus_one):
    params, x1, x2, c2 = at_minus_one
    found = census(params, 6)
    assert len(found) == 9
    kinds = sorted(c.provenance.kind for c in found)
    assert kinds.count("homogeneous_3n") == 1
    assert kinds.count("mixed_pair") == 6
    assert kinds.count("mixed_triple") == 2
    # full-map oracle over the four scalar periodic values
    vals = [x1.points[0], x2.points[0], 0.0, -1.0]
    hmap = {0: 0, 1: 1, 2: 3, 3: 2}
    oracle = index_orbits(4, hmap, 6)
    assert len(oracle) == 9
    sets = [[tuple(vals[i] for i in trip) for trip in orb] for orb in oracle]
    match_orbit_sets(sets, found)


@pytest.mark.parametrize("period", [0, -1, -3])
def test_census_rejects_a_period_below_one(period):
    with pytest.raises(ValueError, match="period must be >= 1"):
        census(Params(-1.0), period)


def test_census_period_three_at_minus_one(at_minus_one):
    params, *_ = at_minus_one
    found = census(params, 3)
    assert len(found) == 2
    assert all(c.provenance.kind == "mixed_pair" for c in found)


def test_census_stability_split_at_minus_one(at_minus_one):
    params, *_ = at_minus_one
    found = census(params, 6)
    stable = [c for c in found if c.stability == "stable"]
    assert len(stable) == 1
    assert stable[0].provenance.kind == "homogeneous_3n"
    # every orbit that uses the scalar 2-cycle touches its superstable 0
    assert stable[0].eigenvalues == (0.0, 0.0, 0.0)
    assert all(c.stability == "unstable" for c in found if c is not stable[0])


def test_census_nontrivial_period_not_divisible_by_three(at_minus_13):
    params, _, _, _, c4 = at_minus_13
    found = census(params, 4)
    assert len(found) == 1
    assert found[0].provenance.kind == "homogeneous"


@pytest.mark.parametrize("b, p", [(-1.3, 12), (-1.76, 9), (-2.0, 9),
                                  (-2.0, 12)])
def test_census_matches_the_index_oracle(b, p):
    # the value table holds the scalar cycles of every period dividing p/3
    # (or p), each point mapped to the next of its cycle
    params = Params(b)
    s = p // 3 if p % 3 == 0 else p
    vals, hmap = [], {}
    for d in range(1, s + 1):
        if s % d == 0:
            for X in find_cycles_1d(params, d):
                base = len(vals)
                vals.extend(X.points)
                hmap.update({base + k: base + (k + 1) % d for k in range(d)})
    oracle = index_orbits(len(vals), hmap, p)
    found = census(params, p)
    assert len(found) == len(oracle)
    sets = [[tuple(vals[i] for i in trip) for trip in orb] for orb in oracle]
    match_orbit_sets(sets, found)
    # each cycle lists its orbit in order, lexicographically smallest first
    for c in found:
        assert tuple(c.points[0]) == min(tuple(q) for q in c.points)
        for q, r in zip(c.points, c.points[1:] + c.points[:1]):
            assert max(abs(u - v) for u, v in zip(apply_T(q, params), r)) < 1e-9


def test_census_past_the_scalar_wrap_at_minus_two_one():
    # one orbit per period-11 cycle, all real: necklace(11) = (2^11 - 2)/11
    assert len(census(Params(-2.1), 11)) == 186


@pytest.fixture(scope="module", params=[11, 13])
def census_at_minus_two(request):
    params = Params(-2.0)
    p = request.param
    return p, find_cycles_1d(params, p), census(params, p)


def test_census_points_are_the_scalar_cycle_points(census_at_minus_two):
    _, scalar, found = census_at_minus_two
    assert len(found) == len(scalar)
    values = {x.hex() for X in scalar for x in X.points}
    assert all(v.hex() in values for c in found for q in c.points for v in q)


def test_census_eigenvalues_at_minus_two_are_powers_of_two(census_at_minus_two):
    # b = -2 is conjugate to the tent map, so every scalar n-cycle has
    # multiplier +-2^n, and each homogeneous lift carries it three times
    p, _, found = census_at_minus_two
    assert all(abs(abs(v) - 2.0 ** p) <= 1e-9 * 2.0 ** p
               for c in found for v in c.eigenvalues)


def test_lifted_eigenvalues_are_scalar_multiplier_triples(at_minus_13):
    params, _, _, c2, _ = at_minus_13
    c = lift_homogeneous(c2)
    lam = 4.0 * (params.b + 1.0)
    assert c.eigenvalues == pytest.approx((lam, lam, lam), abs=1e-9)


# ---------------------------------------------------------------------------
# a 3D cycle is its x-stream


def _stream_lifts(b):
    params = Params(b)
    x1, x2 = find_cycles_1d(params, 1)
    (c2,) = find_cycles_1d(params, 2)
    return [*fixed_points_T(params), lift_homogeneous(c2),
            *lift_homogeneous_3n(c2), *lift_mixed_triple(x1, x2, c2)]


@pytest.mark.parametrize("b", [-1.0, -1.3])
def test_a_3d_cycle_is_its_x_stream_smallest_point_first(b):
    found = _stream_lifts(b)
    assert sorted({c.period for c in found}) == [1, 2, 6]
    for c in found:
        s, P = c.stream, c.period
        assert len(s) == P
        # point t is (s_t, s_{t+1}, s_{t+2}), indices mod P
        assert c.points == tuple((s[t], s[(t + 1) % P], s[(t + 2) % P])
                                 for t in range(P))
        assert c.points[0] == min(c.points)


def _necklace(n):
    # minimal-period-n orbits of a map with 2^d points of period d | n
    prime = {}
    for d in range(1, n + 1):
        if n % d == 0:
            prime[d] = 2 ** d - sum(v for e, v in prime.items() if d % e == 0)
    return prime[n] // n


@pytest.mark.parametrize("p, count", [(18, 14532), (21, 99858)])
def test_census_at_minus_two_meets_the_moebius_count(p, count):
    # for b <= -2, T^d fixes 2^d points, so T has necklace(p) period-p orbits
    assert _necklace(p) == count
    assert len(census(Params(-2.0), p)) == count
