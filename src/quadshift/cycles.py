"""Periodic orbits: scalar cycles and loom lifts to 3D.

A cycle of the scalar map x -> x^2 + b can be placed into the 3D map in
several ways: one orbit per scalar cycle when the period is not a multiple
of 3 ("homogeneous" lifts), a family of period-3n orbits built from one
period-n cycle, and mixed orbits woven from two or three coexisting scalar
cycles.  Since T^3 acts on each coordinate through the scalar map, a 3D
state whose coordinates are points of scalar cycles is a triple of (cycle,
phase) pairs, and T sends (a:i, b:j, c:k) to (b:j, c:k, a:i+1).  These
integer orbits depend only on the sources' sizes and are walked once per
tuple of sizes; every lift, the fixed points included, checks its sources
and reads off that walk one x-stream per 3D orbit, from which the orbit's
points and eigenvalues follow.  Period 3s takes the 3n lifts of the
period-s cycles and, for every multiset of 2 or 3 periods whose lcm is s,
the mixed lifts of all distinct cycles with those periods.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import inf, lcm, sqrt

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
    """A 3D cycle kept as its x-stream x_0 .. x_{P-1}: since T shifts the
    coordinates, point t is (x_t, x_{t+1}, x_{t+2}), indices mod P."""
    b: float
    period: int
    stream: tuple             # P floats, smallest point first
    eigenvalues: tuple        # three reals, descending
    stability: str            # "stable" | "unstable" | "nonhyperbolic"
    provenance: Provenance

    @property
    def points(self) -> tuple:
        """The P points in orbit order, lexicographically smallest first,
        built from the stream on each read."""
        xs, P = self.stream * 3, self.period
        return tuple(map(Point3, xs[:P], xs[1:P + 1], xs[2:P + 2]))


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
    """orb rotated to start at its smallest window of three, (orb[i],
    orb[i+1], orb[i+2]) with indices mod len(orb): a 3D stream starts at
    its smallest point, and a scalar orbit, whose points are distinct, at
    its smallest point."""
    n, lo = len(orb), min(orb)
    i0 = min((i for i, x in enumerate(orb) if x == lo),
             key=lambda i: (orb[(i + 1) % n], orb[(i + 2) % n]))
    return tuple(orb[i0:]) + tuple(orb[:i0])


def _proper_divisors(n):
    return [d for d in range(1, n) if n % d == 0]


def _closes_minimally(orb):
    """Whether x = orb[0] closes a cycle of minimal period n, where orb is
    x, H(x), ..., H^n(x): |H^n(x) - x| <= 1e-10, and |H^d(x) - x| >= 1e-8
    at every proper divisor d of n.  Entry by entry for an array x."""
    x, n = orb[0], len(orb) - 1
    keep = abs(orb[n] - x) <= 1e-10
    for d in _proper_divisors(n):
        keep &= abs(orb[d] - x) >= 1e-8
    return keep


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
    roots at folds are not silently missed.  In-range roots that close a
    minimal period-n cycle (`_closes_minimally`) are kept.  Orbits are
    deduplicated on sorted points, comparing only orbits whose smallest
    points fall in a window around each other (the first root found wins).
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
    orb = _orbit_1d(x, b, n + 1)
    orbs = np.stack(orb[:n], axis=1)[_closes_minimally(orb)]

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
    """Eigenvalue triple and stability tag of a 3D cycle given as its
    points in orbit order; the eigenvalues depend on their x-stream alone."""
    return _stream_stability([p.x for p in points])


def _stream_stability(xs):
    """Eigenvalue triple and stability tag of the 3D cycle whose x-stream,
    in step order, is xs.

    The Jacobian product is taken over the cycle's period when that is a
    multiple of 3 and over 3x the period otherwise -- the smallest block on
    which the product is exactly diagonal, hence real eigenvalues.  Its
    diagonal entry r is the product of 2x over the steps k = r (mod 3),
    accumulated in step order; `+ 0.0` turns a superstable -0.0 into 0.0.
    """
    P = len(xs)
    eig = [1.0, 1.0, 1.0]
    for k in range(stability_block_length(P)):
        eig[k % 3] *= 2.0 * xs[k % P]
    eig = tuple(sorted((v + 0.0 for v in eig), reverse=True))
    mags = [abs(v) for v in eig]
    if any(abs(m - 1.0) <= STABILITY_TOL for m in mags):
        tag = "nonhyperbolic"
    elif all(m < 1.0 for m in mags):
        tag = "stable"
    else:
        tag = "unstable"
    return eig, tag


def cycle3d_key(pts):
    # exact orbit-set key; kept because bench/tracing.py times it per orbit
    return tuple(sorted(pts))


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
        # a NaN gap fails, and so does a point whose square overflows
        if not gap <= CLOSURE_TOL * max(1.0, x * x) < inf:
            raise LiftValidationFailed(
                f"source {label}: point {k} maps {gap:.3g} away from the next")
    for d in _proper_divisors(n):
        if abs(pts[d] - pts[0]) < 1e-9:
            raise LiftValidationFailed(
                f"source {label} has period {d}, not the stated {n}")


@lru_cache(maxsize=64)
def _phase_orbits(sizes: tuple, period: int) -> tuple:
    """Every orbit of minimal period `period` among the phase states that
    use all the sources, for sources of the given sizes; it depends on the
    sizes alone, so it is walked once per tuple of sizes and period.

    A state is an index triple into the sources' points laid end to end,
    and T sends (i, j, k) to (j, k, nxt[i]), where nxt[i] is the next point
    of i's cycle; T permutes the states, so each walk closes and meets no
    orbit twice.  An orbit is kept as the first indices a_0 .. a_{P-1} of
    its states in walk order: state t is (a_t, a_{t+1}, a_{t+2}), mod P.
    """
    owner, nxt = [], []
    for s, n in enumerate(sizes):
        nxt.extend(len(owner) + (k + 1) % n for k in range(n))
        owner.extend([s] * n)
    out, seen = [], set()
    for state in itertools.product(range(len(owner)), repeat=3):
        if state in seen or len({owner[i] for i in state}) < len(sizes):
            continue
        orb = []
        while state not in seen:
            seen.add(state)
            i, j, k = state
            orb.append(i)
            state = (j, k, nxt[i])
        if len(orb) == period:
            out.append(tuple(orb))
    return tuple(out)


def _lift_orbits(sources, period: int, kind: str) -> list:
    """Every 3D cycle of minimal period `period` whose coordinates run
    through all of the given scalar cycles (at one b) and no others, read
    off the phase-orbit table of their sizes as x-streams, smallest point
    first."""
    for X in sources:
        _check_source(X)
    vals = [x for X in sources for x in X.points]
    b = sources[0].b
    prov = Provenance(kind, tuple(cycle1d_label(X) for X in sources))
    out = []
    for orb in _phase_orbits(tuple(X.period for X in sources), period):
        xs = _rotate_min_first([vals[i] for i in orb])
        eig, tag = _stream_stability(xs)
        out.append(Cycle3D(b=b, period=period, stream=xs, eigenvalues=eig,
                           stability=tag, provenance=prov))
    return out


# ---------------------------------------------------------------------------
# fixed points


def fixed_point_cycles_1d(params: Params):
    """The two scalar fixed points 1/2 +- sqrt(1/4 - b) as period-1 cycles;
    bit for bit 1/2 +- (1/2)sqrt(1 - 4b), which overflows below about
    b = -4.5e307."""
    disc = 0.25 - params.b
    if disc < 0.0:
        raise NoRealFixedPoints(f"no real fixed points for b={params.b} > 1/4")
    r = sqrt(disc)
    return (cycle1d_from_orbit(params.b, (0.5 + r,)),
            cycle1d_from_orbit(params.b, (0.5 - r,)))


def fixed_points_T(params: Params):
    """Both fixed points of T, larger first: lifts of the scalar ones."""
    return tuple(map(lift_homogeneous, fixed_point_cycles_1d(params)))


# ---------------------------------------------------------------------------
# lifts


def lift_homogeneous(X: Cycle1D) -> Cycle3D:
    """The single 3D cycle of period n riding one scalar n-cycle (3 must not
    divide n), the one period-n orbit of its phase table.  With t = 3^-1
    mod n, its state k is (X[kt], X[(k+1)t], X[(k+2)t]), up to rotation,
    as X[kt + 1] = X[(k+3)t].  Raises LiftValidationFailed unless X is a
    minimal-period-n scalar cycle at its parameter X.b."""
    n = X.period
    if n % 3 == 0:
        raise PeriodDivisibleBy3(f"period {n} is divisible by 3; use the 3n lift")
    return _lift_orbits((X,), n, "homogeneous")[0]


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
    for A, B in itertools.combinations(cycles, 2):
        if A.period == B.period and \
                _sup_gap(sorted(A.points), sorted(B.points)) < ORBIT_DEDUP_TOL:
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
    # one period, and a point lies on one orbit: the order by first point
    out.sort(key=lambda c: c.stream)
    return out
