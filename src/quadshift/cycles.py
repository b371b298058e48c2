"""Periodic orbits: scalar cycles and loom lifts to 3D.

A cycle of the scalar map x -> x^2 + b can be placed into the 3D map in
several ways: one orbit per scalar cycle when the period is not a multiple
of 3 ("homogeneous" lifts), a family of period-3n orbits built from one
period-n cycle, and mixed orbits woven from two or three coexisting scalar
cycles.  Since T^3 acts on each coordinate through the scalar map, a 3D
state whose coordinates are points of scalar cycles is a triple of (cycle,
phase) pairs, and T sends (a:i, b:j, c:k) to (b:j, c:k, a:i+1).  The lifts
walk these integer states and read the points off the scalar cycles, which
are checked once each, in scalar form, before use.  Period 3s takes the
3n lifts of the period-s cycles and, for every multiset of 2 or 3 periods
whose lcm is s, the mixed lifts of all distinct cycles with those periods.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from math import lcm, sqrt

import numpy as np

from .core import Params, Point3, _iterates, _jet, h1d_n, search_interval
from .errors import LiftValidationFailed, NoRealFixedPoints, PeriodDivisibleBy3

STABILITY_TOL = 1e-9    # |lambda| this close to 1 -> nonhyperbolic
CLOSURE_TOL = 1e-10     # a source point x maps within this * max(1, x^2) of the next
ORBIT_DEDUP_TOL = 1e-9  # scalar orbits whose sorted points are this close are one
GRID_POINTS = 20001     # sign-change grid over the search interval


@dataclass(frozen=True)
class Cycle1D:
    """A minimal-period orbit of the scalar map, smallest point first.

    points follow orbit order (each maps to the next, last wraps to first).
    The multiplier is the product of 2*x over the points, accumulated in
    sorted order so that cycles sharing a point multiset get bit-identical
    multipliers.
    """
    b: float
    period: int
    points: tuple
    multiplier: float


@dataclass(frozen=True)
class Provenance:
    kind: str                 # "homogeneous" | "homogeneous_3n" | "mixed_pair" | "mixed_triple"
    sources: tuple            # labels of the scalar cycles used


@dataclass(frozen=True)
class Cycle3D:
    b: float
    period: int
    points: tuple             # orbit order, lexicographically smallest first
    eigenvalues: tuple        # three reals, descending
    stability: str            # "stable" | "unstable" | "nonhyperbolic"
    provenance: Provenance


def cycle1d_label(c: Cycle1D) -> str:
    return f"n{c.period}@{min(c.points):.12g}"


def _orbit_1d(x, b, n):
    # n consecutive points of the scalar orbit of x
    return list(itertools.islice(_iterates(x, b), n))


def _sorted_multiplier(points) -> float:
    m = 1.0
    for x in sorted(points):
        m *= 2.0 * x
    return m


def cycle1d_from_orbit(b, points) -> Cycle1D:
    return Cycle1D(b=b, period=len(points), points=tuple(points),
                   multiplier=_sorted_multiplier(points))


def _rotate_min_first(orb):
    i0 = min(range(len(orb)), key=lambda i: orb[i])
    return tuple(orb[i0:]) + tuple(orb[:i0])


def _proper_divisors(n):
    return [d for d in range(1, n) if n % d == 0]


def _residual_1d(x, params, n):
    return h1d_n(x, params, n) - x


def _refine_tangent(x, params, n):
    # Newton on (H^n)'(x) - 1 = 0.  Near a double root the residual itself
    # is noise-floor quadratic, so plain Newton leaves ~1e-8 scatter and the
    # same tangent orbit survives dedup several times; the derivative
    # condition crosses zero transversally and pins the point to full
    # precision.
    for _ in range(40):
        _, dx, _, dxx, _ = _jet(x, params.b, n)
        if dxx == 0.0:
            break
        step = (dx - 1.0) / dxx
        x -= step
        if abs(step) < 1e-15:
            break
    return x


def _newton_1d_array(x, params, n, iters=60):
    # Newton on H^n(x) - x at every entry of x at once, for at most iters
    # rounds; an entry stops where (H^n)'(x) = 1, or once |H^n(x) - x| <
    # 5e-14 and its step is below 1e-13
    x = np.array(x, dtype=float)
    live = np.arange(x.size)
    for _ in range(iters):
        if live.size == 0:
            break
        xl = x[live]
        v, d = _jet(xl, params.b, n)[:2]
        fv = v - xl
        dfv = d - 1.0
        moving = dfv != 0.0
        live, xl, fv, dfv = live[moving], xl[moving], fv[moving], dfv[moving]
        step = fv / dfv
        xn = xl - step
        x[live] = xn
        done = (np.abs(fv) < 5e-14) & (np.abs(step) < 1e-13)
        # a step depends on x alone, so an entry it leaves bit-equal is final
        done |= xn.view(np.int64) == xl.view(np.int64)
        live = live[~done]
    return x


def _bisect_brackets(a, c, fa, params, n):
    # 40 halvings of every bracket [a, c] at once; fa is H^n(a) - a
    for _ in range(40):
        mid = 0.5 * (a + c)
        fm = _residual_1d(mid, params, n)
        left = fa * fm <= 0
        c = np.where(left, mid, c)
        a = np.where(left, a, mid)
        fa = np.where(left, fa, fm)
    return 0.5 * (a + c)


def _sup_gap(p, q):
    return max(abs(a - c) for a, c in zip(p, q))


def _first_distinct(keys):
    """Indices of the keys within ORBIT_DEDUP_TOL (sup norm) of no earlier
    kept key.

    Each key is an ascending sequence, so two keys that close have first
    entries that close.  Only kept keys whose first entry lies within twice
    the tolerance are compared; the margin keeps the rounding of the window
    ends from dropping a pair.  The first key of each match wins.
    """
    tol = ORBIT_DEDUP_TOL
    mins, ids, kept = [], [], []
    for i, key in enumerate(keys):
        m = key[0]
        window = ids[bisect_left(mins, m - 2 * tol):bisect_right(mins, m + 2 * tol)]
        if any(_sup_gap(key, keys[j]) < tol for j in window):
            continue
        pos = bisect_right(mins, m)
        mins.insert(pos, m)
        ids.insert(pos, i)
        kept.append(i)
    return kept


def find_cycles_1d(params: Params, n: int) -> list:
    """All minimal-period-n orbits of the scalar map.

    The search covers `search_interval(b)`, which holds every bounded
    scalar orbit.  Sign changes of H^n(x) - x on a uniform grid of
    GRID_POINTS points are bisected, all brackets at once, then polished by
    one array Newton on the jet of H^n; local minima of |H^n(x) - x| below
    1e-3 seed one Newton run each, refined on (H^n)'(x) = 1, so tangent
    roots at folds are not silently missed.  Roots whose minimal period
    properly divides n are discarded.  Orbits are deduplicated on sorted
    points, comparing only orbits whose smallest points fall in a window
    around each other (the first root found wins).
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    b = params.b
    lo, hi = search_interval(b)
    xs = np.linspace(lo, hi, GRID_POINTS)
    # points beyond beta escape to +-inf, where H^n(x) - x keeps its sign; a
    # Newton run that escapes ends in NaN, which the range test below drops
    with np.errstate(over="ignore", invalid="ignore"):
        f = h1d_n(xs, params, n) - xs
        sgn = np.sign(f)
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        mids = _bisect_brackets(xs[flips], xs[flips + 1], f[flips], params, n)
        # polished bisection roots, then exact-zero grid hits
        roots = [_newton_1d_array(mids, params, n), xs[sgn == 0]]
        # tangency candidates: interior local minima of |f| with no sign change
        af = np.abs(f)
        inner = af[1:-1]
        tangent = (inner < 1e-3) & (inner <= af[:-2]) & (inner <= af[2:]) \
            & (sgn[:-2] == sgn[1:-1]) & (sgn[1:-1] == sgn[2:])
        for i in np.nonzero(tangent)[0] + 1:
            x = float(_newton_1d_array(xs[i:i + 1], params, n, iters=100)[0])
            if abs(_residual_1d(x, params, n)) < 1e-10:
                x2 = _refine_tangent(x, params, n)
                if abs(x2 - x) <= 1e-4 and \
                        abs(_residual_1d(x2, params, n)) < 1e-10:
                    x = x2
                roots.append([x])
    roots = np.concatenate(roots)

    # keep converged, in-range, minimal-period roots; row k of orbs is the
    # orbit of the k-th root, column j its j-th image
    x = roots[(lo - 1e-9 <= roots) & (roots <= hi + 1e-9)]
    orbs = np.empty((x.size, n))
    orbs[:, 0] = x
    for j in range(1, n):
        orbs[:, j] = orbs[:, j - 1] * orbs[:, j - 1] + b
    keep = np.abs(orbs[:, -1] * orbs[:, -1] + b - x) <= 1e-10
    for d in _proper_divisors(n):
        keep &= np.abs(orbs[:, d] - x) >= 1e-8
    orbs = orbs[keep]

    # group roots into orbits, dedup on sorted points
    keys = np.sort(orbs, axis=1).tolist()
    distinct = sorted(_first_distinct(keys), key=lambda i: keys[i][0])
    return [cycle1d_from_orbit(b, _rotate_min_first(orbs[i].tolist()))
            for i in distinct]


# ---------------------------------------------------------------------------
# stability


def stability_block_length(period: int) -> int:
    # smallest step count on which the Jacobian product is exactly diagonal
    return period if period % 3 == 0 else 3 * period


def classify_stability(points, b):
    """Eigenvalue triple and stability tag of a 3D cycle.

    The Jacobian product is taken over the cycle's period when that is a
    multiple of 3 and over 3x the period otherwise -- the smallest block on
    which the product is exactly diagonal, hence real eigenvalues.  Its
    diagonal entry r is the product of 2x over the steps k = r (mod 3),
    accumulated in step order; `+ 0.0` turns a superstable -0.0 into 0.0.
    """
    pts = list(points)
    P = len(pts)
    eig = [1.0, 1.0, 1.0]
    for k in range(stability_block_length(P)):
        eig[k % 3] *= 2.0 * pts[k % P].x
    eig = tuple(sorted((v + 0.0 for v in eig), reverse=True))
    mags = [abs(v) for v in eig]
    if any(abs(m - 1.0) <= STABILITY_TOL for m in mags):
        tag = "nonhyperbolic"
    elif all(m < 1.0 for m in mags):
        tag = "stable"
    else:
        tag = "unstable"
    return eig, tag


def _canonical_rotation_3d(pts):
    key = lambda p: (p.x, p.y, p.z)
    i0 = min(range(len(pts)), key=lambda i: key(pts[i]))
    return tuple(pts[i0:]) + tuple(pts[:i0])


def cycle3d_key(pts):
    # exact orbit-set key; kept because bench/tracing.py times it per orbit
    return tuple(sorted(tuple(p) for p in pts))


def _check_source(X: Cycle1D):
    """Raise LiftValidationFailed unless X is a cycle of minimal period
    X.period of the scalar map at its parameter X.b."""
    pts, n, b = X.points, X.period, X.b
    label = cycle1d_label(X)
    if len(pts) != n:
        raise LiftValidationFailed(
            f"source {label} lists {len(pts)} points for period {n}")
    for k, x in enumerate(pts):
        gap = abs(x * x + b - pts[(k + 1) % n])
        if gap > CLOSURE_TOL * max(1.0, x * x):
            raise LiftValidationFailed(
                f"source {label}: point {k} maps {gap:.3g} away from the next")
    for d in _proper_divisors(n):
        if abs(pts[d] - pts[0]) < 1e-9:
            raise LiftValidationFailed(
                f"source {label} has period {d}, not the stated {n}")


def _cycle3d(pts, b: float, kind: str, labels: tuple) -> Cycle3D:
    pts = _canonical_rotation_3d(pts)
    eig, tag = classify_stability(pts, b)
    return Cycle3D(b=b, period=len(pts), points=pts, eigenvalues=eig,
                   stability=tag, provenance=Provenance(kind, labels))


def _lift_orbits(sources, period: int, kind: str) -> list:
    """Every 3D cycle of minimal period `period` whose coordinates run
    through all of the given scalar cycles and no others; the sources
    share one parameter b.

    A state is an index triple into the sources' points laid end to end,
    and T sends (i, j, k) to (j, k, nxt[i]), where nxt[i] is the next point
    of i's cycle.  Every state that uses all the sources is walked, one
    orbit at a time; T permutes the states, so each walk returns to its
    start and no orbit is met twice.
    """
    for X in sources:
        _check_source(X)
    vals, owner, nxt = [], [], []
    for s, X in enumerate(sources):
        base, n = len(vals), X.period
        vals.extend(X.points)
        owner.extend([s] * n)
        nxt.extend(base + (k + 1) % n for k in range(n))
    labels = tuple(cycle1d_label(X) for X in sources)
    out, seen = [], set()
    for state in itertools.product(range(len(vals)), repeat=3):
        if state in seen or len({owner[i] for i in state}) < len(sources):
            continue
        orb = []
        while state not in seen:
            seen.add(state)
            orb.append(state)
            i, j, k = state
            state = (j, k, nxt[i])
        if len(orb) == period:
            pts = [Point3(vals[i], vals[j], vals[k]) for i, j, k in orb]
            out.append(_cycle3d(pts, sources[0].b, kind, labels))
    return out


# ---------------------------------------------------------------------------
# fixed points


def fixed_point_cycles_1d(params: Params):
    """The two scalar fixed points 1/2 +- (1/2)sqrt(1-4b) as period-1 cycles."""
    disc = 1.0 - 4.0 * params.b
    if disc < 0.0:
        raise NoRealFixedPoints(f"no real fixed points for b={params.b} > 1/4")
    r = sqrt(disc)
    xp = 0.5 + 0.5 * r
    xm = 0.5 - 0.5 * r
    return cycle1d_from_orbit(params.b, (xp,)), cycle1d_from_orbit(params.b, (xm,))


def fixed_points_T(params: Params):
    """Both fixed points of the 3D map, larger first, with stability."""
    return tuple(_cycle3d((Point3(x, x, x),), params.b, "homogeneous",
                          (cycle1d_label(c),))
                 for c in fixed_point_cycles_1d(params) for x in c.points)


# ---------------------------------------------------------------------------
# lifts


def lift_homogeneous(X: Cycle1D) -> Cycle3D:
    """The single 3D cycle of period n riding one scalar n-cycle (3 must not
    divide n): with t = 3^-1 mod n, state k is (X[kt], X[(k+1)t], X[(k+2)t]),
    as X[kt + 1] = X[(k+3)t].  Raises LiftValidationFailed unless X is a
    minimal-period-n scalar cycle at its parameter X.b."""
    n = X.period
    if n % 3 == 0:
        raise PeriodDivisibleBy3(f"period {n} is divisible by 3; use the 3n lift")
    _check_source(X)
    t = pow(3, -1, n)
    P = X.points
    pts = [Point3(P[k * t % n], P[(k + 1) * t % n], P[(k + 2) * t % n])
           for k in range(n)]
    return _cycle3d(pts, X.b, "homogeneous", (cycle1d_label(X),))


def lift_homogeneous_3n(X: Cycle1D) -> list:
    """All homogeneous period-3n cycles built on one scalar n-cycle: the
    orbits of minimal period 3n among its n^3 phase triples.  Raises
    LiftValidationFailed unless X is a minimal-period-n scalar cycle at its
    parameter X.b."""
    n = X.period
    if n < 2:
        raise ValueError("the 3n lift needs a source cycle of period >= 2")
    return _lift_orbits((X,), 3 * n, "homogeneous_3n")


def _check_coexisting(cycles):
    bs = {c.b for c in cycles}
    if len(bs) != 1:
        raise ValueError(f"cycles live at different parameters: {sorted(bs)}")
    keys = [tuple(sorted(c.points)) for c in cycles]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if cycles[i].period == cycles[j].period and \
                    max(abs(a - c) for a, c in zip(keys[i], keys[j])) < 1e-9:
                raise ValueError("source cycles must be distinct")


def lift_mixed_pair(A: Cycle1D, B: Cycle1D) -> list:
    """All mixed cycles woven from two coexisting scalar cycles (one b):
    with n = A.period, m = B.period, s = lcm(n, m), (n+m)*n*m/s cycles of
    period 3s.  Raises LiftValidationFailed unless both are minimal-period
    scalar cycles at that b."""
    _check_coexisting((A, B))
    return _lift_orbits((A, B), 3 * lcm(A.period, B.period), "mixed_pair")


def lift_mixed_triple(A: Cycle1D, B: Cycle1D, C: Cycle1D) -> list:
    """All mixed cycles woven from three pairwise-distinct coexisting scalar
    cycles; period 3*lcm(n, m, p), count 2*n*m*p/lcm(n, m, p).  Raises
    LiftValidationFailed as lift_mixed_pair does."""
    _check_coexisting((A, B, C))
    return _lift_orbits((A, B, C), 3 * lcm(A.period, B.period, C.period),
                        "mixed_triple")


def mixed_lifts(by_period, periods) -> list:
    """Every mixed cycle whose sources are distinct scalar cycles with
    exactly the given 2 or 3 periods; by_period maps each period to its
    cycles at one b.  Per period, in order of first appearance, every
    combination of as many cycles as it occurs is picked; every product of
    those picks is lifted, so sources come grouped by period.
    """
    if len(periods) not in (2, 3):
        raise ValueError("mixed lifts take 2 or 3 periods")
    lift = lift_mixed_pair if len(periods) == 2 else lift_mixed_triple
    picks = [itertools.combinations(by_period[n], k)
             for n, k in Counter(periods).items()]
    out = []
    for pick in itertools.product(*picks):
        out.extend(lift(*itertools.chain.from_iterable(pick)))
    return out


# ---------------------------------------------------------------------------
# census


def census(params: Params, period: int) -> list:
    """Every 3D cycle of the given minimal period, assembled from scalar
    cycles through the lifts, sorted by first point.

    Periods not divisible by 3 are purely homogeneous (one cycle per scalar
    cycle of that period).  Periods 3s draw on scalar cycles of every period
    dividing s: homogeneous 3n lifts from the period-s cycles, and mixed
    pairs and triples for every multiset of 2 or 3 periods whose lcm is s.
    Each orbit rides exactly one set of source cycles, so none is lifted
    twice.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if period % 3 != 0:
        return [lift_homogeneous(X) for X in find_cycles_1d(params, period)]
    s = period // 3
    divisors = [*_proper_divisors(s), s]
    by_period = {d: find_cycles_1d(params, d) for d in divisors}
    out = []
    if s >= 2:
        for X in by_period[s]:
            out.extend(lift_homogeneous_3n(X))
    for k in (2, 3):
        for periods in itertools.combinations_with_replacement(divisors, k):
            if lcm(*periods) == s:
                out.extend(mixed_lifts(by_period, periods))
    out.sort(key=lambda c: tuple(c.points[0]))
    return out
