"""Locating fold / flip / transcritical events and sweeping diagrams.

Flips are found by bisection on the multiplier along a continued cycle
branch; a single Newton jump across a wide parameter step can silently hop
onto a lower-period root of the iterated map, so continuation always moves
in small substeps with minimality and jump guards.  Generic folds get a
tangency polish (2D Newton on residual and slope, analytic derivatives);
a cycle born with count step 1 is a doubling birth and is pinned through
its parent branch instead, where the tangency system is singular.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params, Point3, escape_radius, h1d_n
from .cycles import _newton_1d, _orbit_1d, _sorted_multiplier, find_cycles_1d
from .errors import BranchLost, NoEventInBracket, Overflow

COUNT_BISECT_WIDTH = 1e-4   # switch from count bisection to polishing here
EVENT_B_WIDTH = 1e-12       # final parameter bracket width
JUMP_GUARD = 0.2            # max allowed point motion per continuation step


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str       # "fold" | "flip" | "transcritical"
    period: int
    b_star: float
    x_star: float


@dataclass(frozen=True)
class Branch:
    period: int
    bs: tuple
    xs: tuple           # smallest cycle point at each parameter
    multipliers: tuple


@dataclass(frozen=True)
class DiagramRow:
    b: float
    samples: tuple | None   # None when the orbit diverged


@dataclass(frozen=True)
class DiagramDataset:
    rows: tuple
    p0: Point3
    transient: int


# ---------------------------------------------------------------------------
# branch continuation machinery


def _is_minimal(x, b, n, tol=1e-8):
    p = Params(b)
    if abs(h1d_n(x, p, n) - x) > 1e-9:
        return False
    for d in range(1, n):
        if n % d == 0 and abs(h1d_n(x, p, d) - x) < tol:
            return False
    return True


def _multiplier_at(x, b, n):
    return _sorted_multiplier(_orbit_1d(x, b, n))


def _continue_to(x, b_from, b_to, n, substeps=64):
    """Walk a cycle point from one parameter to another in small steps."""
    for k in range(1, substeps + 1):
        bb = b_from + (b_to - b_from) * k / substeps
        xn = _newton_1d(x, Params(bb), n)
        if not _is_minimal(xn, bb, n) or abs(xn - x) > JUMP_GUARD:
            raise BranchLost(
                f"period-{n} branch lost near b={bb} (x {x:.6g} -> {xn:.6g})")
        x = xn
    return x


def _flip_core(n, b_bracket, interval=(-2.5, 2.5)):
    """Bisect sign(multiplier + 1) along the period-n branch in the bracket.

    Both bracket ends are tried as the tracking base: an end sitting right
    on the fold that births the cycle pair has only the tangent orbit, and
    branches tracked from it may all stay on the multiplier>1 side.

    Returns (b_star, orbit points at b_star)."""
    lo, hi = b_bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    chosen = None
    any_cycles = False
    all_lost = True
    for base, other in ((hi, lo), (lo, hi)):
        cycles = find_cycles_1d(Params(base), n, interval)
        if not cycles:
            continue
        any_cycles = True
        for c in cycles:
            lam_base = c.multiplier
            try:
                x_other = _continue_to(c.points[0], base, other, n)
            except BranchLost:
                continue
            all_lost = False
            lam_other = _multiplier_at(x_other, other, n)
            if (lam_base + 1.0) * (lam_other + 1.0) < 0.0:
                chosen = (base, other, c.points[0], x_other)
                break
        if chosen is not None:
            break
    if chosen is None:
        if not any_cycles:
            raise NoEventInBracket(
                f"no period-{n} cycle at either bracket end {b_bracket}")
        if all_lost:
            raise BranchLost(f"every period-{n} branch was lost in {b_bracket}")
        raise NoEventInBracket(
            f"no period-{n} multiplier crosses -1 inside {b_bracket}")
    base, other, x_base, x_other = chosen
    # Keep one tracked point on the branch and move it continuously from
    # midpoint to midpoint.  It starts at the multiplier<-1 end: that end is
    # always strictly inside the branch's existence window (at a fold the
    # multiplier is +1), whereas re-stepping from a tangent endpoint can hop
    # to the sibling branch and corrupt the sign test.
    if _multiplier_at(x_base, base, n) + 1.0 < 0.0:
        b_ref, x_ref = base, x_base
    else:
        b_ref, x_ref = other, x_other
    b_lo, b_hi = min(base, other), max(base, other)
    s_lo = -1.0 if b_ref == b_lo else 1.0
    while b_hi - b_lo > EVENT_B_WIDTH:
        bm = 0.5 * (b_lo + b_hi)
        xm = _continue_to(x_ref, b_ref, bm, n, substeps=16)
        sm = 1.0 if (_multiplier_at(xm, bm, n) + 1.0) > 0 else -1.0
        b_ref, x_ref = bm, xm
        if sm == s_lo:
            b_lo = bm
        else:
            b_hi = bm
    b_star = 0.5 * (b_lo + b_hi)
    x_star = _newton_1d(x_ref, Params(b_star), n)
    return b_star, _orbit_1d(x_star, b_star, n)


def find_flip(n, b_bracket, interval=(-2.5, 2.5)) -> BifurcationEvent:
    """Parameter where the period-n multiplier crosses -1 inside the bracket."""
    b_star, pts = _flip_core(n, b_bracket, interval)
    return BifurcationEvent(kind="flip", period=n, b_star=b_star,
                            x_star=min(pts))


# ---------------------------------------------------------------------------
# folds


def _tangency_polish(x, b, n, iters=60):
    """2D Newton on (H^n(x) - x, (H^n)'(x) - 1) with analytic derivatives."""
    for _ in range(iters):
        v = x
        dvx, dvb = 1.0, 0.0      # d v / dx, d v / db
        dxx, dxb = 0.0, 0.0      # d dvx / dx, d dvx / db
        for _ in range(n):
            dxx = 2.0 * (dvx * dvx + v * dxx)
            dxb = 2.0 * (dvb * dvx + v * dxb)
            dvx = 2.0 * v * dvx
            dvb = 2.0 * v * dvb + 1.0
            v = v * v + b
        f1 = v - x
        f2 = dvx - 1.0
        j11 = dvx - 1.0
        j12 = dvb
        j21 = dxx
        j22 = dxb
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        dx = (f1 * j22 - j12 * f2) / det
        db = (j11 * f2 - f1 * j21) / det
        x -= dx
        b -= db
        if abs(dx) + abs(db) < 1e-15:
            break
    return x, b


def find_fold(n, b_bracket, interval=(-2.5, 2.5)) -> BifurcationEvent:
    """Parameter where a period-n cycle is born inside the bracket.

    Bisection on the cycle count narrows the bracket; a count step of two
    is a genuine tangency and gets the 2D Newton polish, a step of one is a
    period-doubling birth and is located through the parent branch (whose
    multiplier crosses -1 at the same parameter).
    """
    lo, hi = b_bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def count(b):
        return len(find_cycles_1d(Params(b), n, interval))

    c_lo, c_hi = count(lo), count(hi)
    if c_lo == c_hi:
        raise NoEventInBracket(
            f"period-{n} cycle count is {c_lo} at both ends of {b_bracket}")
    a, c = lo, hi
    ca, cc = c_lo, c_hi
    while c - a > COUNT_BISECT_WIDTH:
        m = 0.5 * (a + c)
        cm = count(m)
        if cm == ca:
            a, ca = m, cm
        else:
            c, cc = m, cm
    rich_b = a if ca > cc else c
    # The step is taken across the whole bracket (which isolates one event):
    # a narrowed endpoint can land exactly on the event, where the tangent
    # pair counts as a single orbit and would fake a step of one.
    step = abs(c_lo - c_hi)

    if step >= 2:
        cycles = find_cycles_1d(Params(rich_b), n, interval)
        newborn = min(cycles, key=lambda cy: abs(cy.multiplier - 1.0))
        x_star, b_star = _tangency_polish(newborn.points[0], rich_b, n)
        ok = (lo - 1e-3 <= b_star <= hi + 1e-3
              and abs(h1d_n(x_star, Params(b_star), n) - x_star) <= 1e-9
              and _is_minimal(x_star, b_star, n)
              and abs(_multiplier_at(x_star, b_star, n) - 1.0) <= 1e-7)
        if ok:
            pts = _orbit_1d(x_star, b_star, n)
            return BifurcationEvent(kind="fold", period=n, b_star=b_star,
                                    x_star=min(pts))
        if n % 2 != 0:
            raise NoEventInBracket(
                f"tangency polish failed for the period-{n} fold in {b_bracket}")
        # fall through to the doubling-birth path

    if n % 2 != 0:
        raise NoEventInBracket(
            f"period-{n} count changes by {step} across {b_bracket}; "
            "not a tangency this locator can pin")
    # doubling birth: the newborn cycle collapses onto its period-n/2 parent,
    # whose multiplier crosses -1 exactly at the birth
    b_star, parent_pts = _flip_core(n // 2, b_bracket, interval)
    x_star = min(parent_pts)
    if abs(_multiplier_at(x_star, b_star, n) - 1.0) > 1e-7:
        raise NoEventInBracket(
            f"parent-branch refinement failed for the period-{n} birth")
    return BifurcationEvent(kind="fold", period=n, b_star=b_star, x_star=x_star)


def find_transcritical(b_bracket) -> BifurcationEvent:
    """Parameter where the two fixed-point branches collide at multiplier +1.

    The fixed points 1/2 +- sqrt(1/4 - b) are real iff b <= 1/4 and meet
    at x = 1/2 there, so the event is exact: b* = 1/4, x* = 1/2."""
    lo, hi = b_bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if not lo < 0.25 <= hi:
        raise NoEventInBracket(
            f"fixed-point branches do not collide inside {b_bracket}")
    return BifurcationEvent(kind="transcritical", period=1, b_star=0.25,
                            x_star=0.5)


def event_residuals(ev: BifurcationEvent):
    """(orbit-closure residual, multiplier residual) at the event."""
    p = Params(ev.b_star)
    closure = abs(h1d_n(ev.x_star, p, ev.period) - ev.x_star)
    lam = _multiplier_at(ev.x_star, ev.b_star, ev.period)
    target = -1.0 if ev.kind == "flip" else 1.0
    return closure, abs(lam - target)


# ---------------------------------------------------------------------------
# branch sweeps and diagrams


def multiplier_curve(n, b_range, steps, interval=(-2.5, 2.5)) -> list:
    """Track period-n branches across a parameter grid by nearest-point
    matching; emits one Branch per tracked cycle.  Branches die at folds
    (that is normal); when two live branches claim the same cycle the grid
    landed on their collision point, and the later claimant is retired."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    b_lo, b_hi = b_range
    live = []    # [ [bs], [xs], [lams] ]
    done = []
    for k in range(steps):
        b = b_hi if k == steps - 1 else b_lo + (b_hi - b_lo) * k / (steps - 1)
        cycles = find_cycles_1d(Params(b), n, interval)
        claimed = {}
        next_live = []
        for br in live:
            best_i, best_d = None, JUMP_GUARD
            for i, cy in enumerate(cycles):
                d = abs(cy.points[0] - br[1][-1])
                if d < best_d:
                    best_i, best_d = i, d
            if best_i is None or best_i in claimed:
                done.append(br)
                continue
            claimed[best_i] = True
            br[0].append(b)
            br[1].append(cycles[best_i].points[0])
            br[2].append(cycles[best_i].multiplier)
            next_live.append(br)
        for i, cy in enumerate(cycles):
            if i not in claimed:
                next_live.append([[b], [cy.points[0]], [cy.multiplier]])
        live = next_live
    done.extend(live)
    return [Branch(period=n, bs=tuple(br[0]), xs=tuple(br[1]),
                   multipliers=tuple(br[2])) for br in done]


def bifurcation_diagram(b_range, steps, p0=Point3(0.0, -0.5, 0.0),
                        transient=1000, samples=200) -> DiagramDataset:
    """Post-transient x-samples of one orbit per parameter; divergent
    parameters carry samples=None instead of killing the sweep.

    All parameters are iterated at once, as arrays of the three
    coordinates.  A parameter's row drops out as soon as its state leaves
    its escape ball, the test `orbit` applies, so every row holds exactly
    the x-samples `orbit(p0, Params(b), samples, transient)` records.
    One step (steps=1) samples a single parameter, b_lo == b_hi.
    """
    b_lo, b_hi = b_range
    if steps < 1 or (steps == 1 and b_lo != b_hi):
        raise ValueError("steps must be >= 2, or 1 with b_lo == b_hi")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    bs = [b_hi if k == steps - 1 else b_lo + (b_hi - b_lo) * k / (steps - 1)
          for k in range(steps)]
    b = np.array(bs)
    x = np.full(steps, p0.x)
    y = np.full(steps, p0.y)
    z = np.full(steps, p0.z)
    R = np.array([escape_radius(bv) for bv in bs])
    bounded = np.ones(steps, dtype=bool)
    xs = np.empty((steps, samples))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(transient + samples):
            bounded &= ~((np.abs(x) > R) | (np.abs(y) > R) | (np.abs(z) > R))
            if k >= transient:
                xs[:, k - transient] = x
            kick = x * x + b
            bad = bounded & ~np.isfinite(kick)
            if bad.any():
                raise Overflow(
                    f"quadratic kick overflowed at x={float(x[bad][0])!r}")
            x, y, z = y, z, kick
    rows = tuple(DiagramRow(b=bv, samples=tuple(row.tolist()) if ok else None)
                 for bv, ok, row in zip(bs, bounded.tolist(), xs))
    return DiagramDataset(rows=rows, p0=p0, transient=transient)


def distinct_sample_count(values, tol=1e-6) -> int:
    """Distinct values by 1D sort + gap threshold."""
    vs = sorted(values)
    if not vs:
        return 0
    return 1 + sum(1 for a, c in zip(vs, vs[1:]) if c - a > tol)
