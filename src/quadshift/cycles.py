"""Periodic orbits: scalar cycles and loom lifts to 3D.

A scalar n-cycle is a root of H^n(x) = x on the lap of its word, the
signs of its points, which tells cycles apart and gives their period.

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import copysign, frexp, inf, lcm, ldexp, sqrt

import numpy as np

from .core import Params, Point3, _iterates, _jet
from .errors import LiftValidationFailed, NoRealFixedPoints, PeriodDivisibleBy3

STABILITY_TOL = 1e-9    # |lambda| this close to 1 -> nonhyperbolic
CLOSURE_TOL = 1e-10     # a source point x maps within this * max(1, x^2) of the next
ORBIT_DEDUP_TOL = 1e-9  # lift sources whose sorted points are this close are one
MAX_PERIOD = 20         # the largest period find_cycles_1d enumerates


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
    """The product of 2x over the points in sorted order, rescaled by an
    exact power of 2 after each factor: the plain sorted product bit for
    bit wherever that neither overflows nor underflows."""
    m, e = 1.0, 0
    for x in sorted(points):
        m, k = frexp(m * (2.0 * x))
        e += k
    try:
        return ldexp(m, e)
    except OverflowError:
        return copysign(inf, m)


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


def _sup_gap(p, q):
    return max(abs(a - c) for a, c in zip(p, q))


def _bisect(f, lo, hi):
    """Per entry, where f turns from + at lo to - at hi: lo if f(lo) <= 0,
    hi if f(hi) >= 0, else the bracket bisected to adjacent floats, of
    which the one with the smaller |f|."""
    flo, fhi = f(lo), f(hi)
    x = np.where(flo <= 0.0, lo, hi)
    live = np.flatnonzero((flo > 0.0) & (fhi < 0.0))
    lo, hi, flo, fhi = lo[live], hi[live], flo[live], fhi[live]
    while live.size:
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        x[live[done]] = np.where(flo <= -fhi, lo, hi)[done]
        live, lo, hi, flo, fhi, mid = (a[~done] for a in (live, lo, hi, flo, fhi, mid))
        fm = f(mid)
        right = fm > 0.0
        lo, flo = np.where(right, mid, lo), np.where(right, fm, flo)
        hi, fhi = np.where(right, hi, mid), np.where(right, fhi, fm)
    return x


def _pullback(y, words, b, n):
    """x_{n-1}, ..., x_0 back from x_n = y along each word: x_k = s_k
    sqrt(x_{k+1} - b), s_k the sign of bit k, and 0 from below b."""
    for k in reversed(range(n)):
        r = np.sqrt(np.maximum(y - b, 0.0))
        y = np.where((words >> k) & 1 == 1, r, 0.0 - r)     # +0.0 at 0
        yield y


@np.errstate(over="ignore", invalid="ignore")     # jets overflow at huge |b|
def find_cycles_1d(params: Params, n: int) -> list:
    """All minimal-period-n orbits of the scalar map, smallest point first.

    Period 1 is `fixed_point_cycles_1d`.  Above it, a cycle point x_0 is a
    root of H^n(x) = x on the lap of its word (bit k the sign of x_k):
    [-beta, beta] pulled back along the word, its end at beta widened by 2
    ulps unless the pullback put a point at 0.  One word per rotation class
    is taken, the non-primitive ones too: a cycle born by period doubling
    keeps its parent's doubled word up to its superstable b.  H has
    negative Schwarzian derivative, so (H^n)' has no positive local minimum
    on a lap, and where it is 1 on either side of its maximum cuts a rising
    lap into three pieces on which H^n(x) - x is monotone; each piece is
    bisected where it changes sign.  A cut point is a fold's double root if
    b is within about 2^-50 of the fold, |H^n(x) - x| <= 2^-50 |d/db H^n|,
    and a lap end is a root if H^n(x) = x exactly.  The other points are
    pulled back, x_k = s_k sqrt(x_{k+1} - b), or on an attracting cycle are
    forward iterates.  A root is kept if every point maps close to the next
    (`_step_gaps`).  Its word, the cycle's itinerary, decides the rest with
    no tolerance: a cycle lies on one lap, and on the lap of a primitive
    word it has period n.  `_repeat` decides the period only of forward
    iterates, of orbits with an exact 0 (an end two laps share) and on the
    lap of a repeating word, which holds at most one n-cycle, once per
    point it has there: the first root found that passes is kept.  Equal
    orbits are one.  The 2^n words are held at once: n = 18 takes about
    0.5 s and 30 MB, n = 20 about 1.7 s and 105 MB, so n is at most
    MAX_PERIOD.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if n > MAX_PERIOD:
        raise ValueError(f"period {n} is above MAX_PERIOD = {MAX_PERIOD}, "
                         "the largest the lap enumeration holds")
    b = params.b
    if b > 0.25:
        return []
    if n == 1:
        return sorted(set(fixed_point_cycles_1d(params)), key=lambda c: c.points)
    codes = rot = least = np.arange(1 << n)
    repeats = np.zeros(codes.size, dtype=bool)     # the word is not primitive
    for _ in range(n - 1):
        rot = (rot >> 1) | ((rot & 1) << (n - 1))
        least = np.minimum(least, rot)
        repeats |= rot == codes
    keep = least == codes                   # the smallest of each rotation class
    codes, repeats = codes[keep], repeats[keep]
    beta = np.full(codes.size, 0.5 + sqrt(0.25 - b))
    put_at_0 = np.zeros(codes.size, dtype=bool)
    for top, bottom in _pullback(np.stack([beta, -beta]), codes, b, n):
        put_at_0 |= top == 0.0
    rising = top > bottom                   # H^n rises: the end at beta is hi
    away = np.where(put_at_0, top, np.where(rising, inf, -inf))
    top = np.nextafter(np.nextafter(top, away), away)
    lo, hi = np.minimum(top, bottom), np.maximum(top, bottom)
    peak = _bisect(lambda x: _jet(x, b, n)[3], lo, hi)
    # (H^n)' - 1 falls from the peak to either end of the lap
    s1, s2 = np.split(_bisect(lambda x: _jet(x, b, n)[1] - 1.0, np.tile(peak, 2),
                              np.concatenate([lo, hi])), 2)
    P = np.stack([lo, np.where(rising, s1, lo), np.where(rising, s2, lo), hi], axis=1)
    v, _, vb = _jet(P, b, n)[:3]
    G = v - P       # H^n(x) - x
    fold = rising[:, None] & (np.abs(G) <= 2.0 ** -50 * np.abs(vb)) & [False, True, True, False]
    zero = (G == 0.0) | fold
    G[zero] = 0.0
    # H^n(x) - x falls on [P0, P1] and [P2, P3] and rises on [P1, P2]:
    # each piece from its positive end to its negative one
    pos, neg = [0, 2, 2], [1, 1, 3]
    cut = (G[:, pos] > 0.0) & (G[:, neg] < 0.0)
    x0 = np.concatenate([P[zero], _bisect(lambda x: _jet(x, b, n)[0] - x,
                                          P[:, pos][cut], P[:, neg][cut])])
    lap = np.concatenate([np.nonzero(zero)[0], np.nonzero(cut)[0]])    # of each x0
    orbs = np.stack([x0, *list(_pullback(x0, codes[lap], b, n))[-2::-1]], axis=1)
    attracting = np.abs(_jet(x0, b, n)[1]) < 1.0
    orbs[attracting] = np.stack(_orbit_1d(x0[attracting], b, n), axis=1)
    ok = _step_gaps(orbs, b)[1].all(axis=1)
    # a primitive word's lap holds roots of period n: their points lie on
    # the n disjoint laps of its rotations
    check = ok & (repeats[lap] | attracting | (orbs == 0.0).any(axis=1))
    ok[check] = _repeat(orbs[check]) == 0
    twice = np.flatnonzero(ok & repeats[lap])   # one n-cycle, once per point
    ok[twice] = False
    ok[twice[np.unique(lap[twice], return_index=True)[1]]] = True
    orbits = dict.fromkeys(_rotate_min_first(orb) for orb in orbs[ok].tolist())
    return [cycle1d_from_orbit(b, orb) for orb in sorted(orbits)]


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


def _step_gaps(xs, b):
    """|x_k^2 + b - x_{k+1}| at each point of the cycles xs (orbit order
    along the last axis), and whether it is at most CLOSURE_TOL * max(1,
    x_k^2): the closure rule of the finder and the lifts.  A NaN gap
    fails, and so does a square that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = xs * xs
        gap = np.abs(sq + b - np.roll(xs, -1, axis=-1))
        return gap, (gap <= CLOSURE_TOL * np.maximum(1.0, sq)) & (sq < inf)


def _repeat(xs):
    """Per cycle of xs, the smallest proper divisor d of its length with
    |x_d - x_0| < 1e-9, or 0 where there is none."""
    rep = np.zeros(xs.shape[:-1], dtype=int)
    for d in reversed(_proper_divisors(xs.shape[-1])):
        rep = np.where(np.abs(xs[..., d] - xs[..., 0]) < 1e-9, d, rep)
    return rep


@lru_cache(maxsize=256)
def _source_fault(b, pts):
    """Why the points pts, in orbit order, are not a minimal-period cycle
    of the scalar map at b, or "" if they are; cached, as a census checks
    a source again in every lift that uses it."""
    xs = np.array(pts, dtype=float)
    gap, closes = _step_gaps(xs, b)
    if not closes.all():
        k = int(np.argmin(closes))
        return f": point {k} maps {gap[k]:.3g} away from the next"
    if d := int(_repeat(xs)):
        return f" has period {d}, not the stated {len(pts)}"
    return ""


def _check_source(X: Cycle1D):
    """Raise LiftValidationFailed unless X is a cycle of minimal period
    X.period of the scalar map at its parameter X.b."""
    label = cycle1d_label(X)
    if len(X.points) != X.period:
        raise LiftValidationFailed(
            f"source {label} lists {len(X.points)} points for period {X.period}")
    if fault := _source_fault(X.b, tuple(X.points)):
        raise LiftValidationFailed(f"source {label}{fault}")


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
