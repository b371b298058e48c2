"""Locating fold / flip / transcritical events, and orbit diagrams.

A fold or flip of a period-n cycle of H(u) = u^2 + b is a point (x, b)
where x lies on a minimal period-n cycle whose multiplier (H^n)'(x) is +1
or -1: two regular equations in the two unknowns.  Both locators solve
them with one 2D Newton on (H^n(x) - x, (H^n)'(x) - target) in (x, b),
with the derivatives `core._jet` carries, started from the cycles
`find_cycles_1d` finds at the bracket ends.  A start counts only if it
lands inside the bracket with the target multiplier on a root whose orbit
is a minimal period-n cycle by the lift sources' rule (`cycles._step_gaps`,
`cycles._repeat`), as forward iterates carry no word.  A cycle born with
count step 1 is a doubling birth, where the tangency system is singular;
it is located as the flip of its period-n/2 parent, whose multiplier
crosses -1 at the same b.

An orbit diagram iterates one start at every parameter of a sweep, all
parameters at once on the batch engine `core._evolve`, and gathers every
parameter's post-transient x-samples off the scalar streams it keeps in
one read, into one read-only float64 array of 8 bytes a sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params, Point3, _check_run, _evolve, _jet
from .cycles import (_orbit_1d, _repeat, _sorted_multiplier, _step_gaps,
                     find_cycles_1d)
from .errors import NoEventInBracket


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str       # "fold" | "flip" | "transcritical"
    period: int
    b_star: float
    x_star: float


@dataclass(frozen=True, eq=False)
class DiagramRow:
    """One parameter of an orbit diagram.  `samples` is a read-only view of
    the diagram's one (steps, samples) float64 array, so rows compare and
    hash by identity; compare `samples.tolist()` for values."""
    b: float
    samples: np.ndarray | None   # read-only float64; None when it diverged


@dataclass(frozen=True)
class DiagramDataset:
    rows: tuple


# ---------------------------------------------------------------------------
# folds and flips


def _event_polish(x, b, n, target):
    """2D Newton in (x, b) on (H^n(x) - x, (H^n)'(x) - target); the Jacobian
    rows are (dvx - 1, dvb) and (dxx, dxb), read off the jet of H^n."""
    for _ in range(60):
        v, dvx, dvb, dxx, dxb = _jet(x, b, n)
        f1 = v - x
        f2 = dvx - target
        j11 = dvx - 1.0
        det = j11 * dxb - dvb * dxx
        if det == 0.0:
            break
        dx = (f1 * dxb - dvb * f2) / det
        db = (j11 * f2 - f1 * dxx) / det
        x -= dx
        b -= db
        if abs(dx) + abs(db) < 1e-15:
            break
    return x, b


def _first_event(kind, n, starts, target, b_bracket):
    """Polish each (cycle, b) start toward the target multiplier, nearest
    multiplier first; the first landing inside the bracket on a minimal
    period-n cycle with that multiplier is the event (None if none does)."""
    lo, hi = b_bracket
    for cy, b0 in sorted(starts, key=lambda s: abs(s[0].multiplier - target)):
        x, b = _event_polish(cy.points[0], b0, n, target)
        orb = _orbit_1d(x, b, n)
        xs = np.array(orb)
        if (lo <= b <= hi and _step_gaps(xs, b)[1].all() and not _repeat(xs)
                and abs(_sorted_multiplier(orb) - target) <= 1e-7):
            return BifurcationEvent(kind=kind, period=n, b_star=b,
                                    x_star=min(orb))
    return None


def _cycles_at_ends(n, b_bracket):
    lo, hi = b_bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    return [find_cycles_1d(Params(b), n) for b in (lo, hi)]


def find_flip(n, b_bracket) -> BifurcationEvent:
    """Parameter where a period-n multiplier crosses -1 inside the bracket;
    every cycle found at either end is a start for the polish."""
    ends = _cycles_at_ends(n, b_bracket)
    starts = [(cy, b) for b, cycles in zip(b_bracket, ends) for cy in cycles]
    ev = _first_event("flip", n, starts, -1.0, b_bracket)
    if ev is None:
        raise NoEventInBracket(
            f"no period-{n} multiplier reaches -1 inside {b_bracket}")
    return ev


def find_fold(n, b_bracket) -> BifurcationEvent:
    """Parameter where a period-n cycle is born inside the bracket.

    The bracket is closed: a fold on either end counts.  A count step of
    two or more is a tangency, and so is any step at odd n (a fold on a
    bracket end leaves one tangent cycle there, a step of one): the richer
    end's cycles are polished toward multiplier +1.  At even n, a step of
    one, or a step no polish resolves inside the bracket, is a
    period-doubling birth, located as the flip of the period-n/2 parent
    branch.
    """
    ends = _cycles_at_ends(n, b_bracket)
    c_lo, c_hi = (len(cycles) for cycles in ends)
    if c_lo == c_hi:
        raise NoEventInBracket(
            f"period-{n} cycle count is {c_lo} at both ends of {b_bracket}")
    step = abs(c_lo - c_hi)
    if step >= 2 or n % 2 != 0:
        rich = 0 if c_lo > c_hi else 1
        starts = [(cy, b_bracket[rich]) for cy in ends[rich]]
        ev = _first_event("fold", n, starts, 1.0, b_bracket)
        if ev is not None:
            return ev
    if n % 2 != 0:
        raise NoEventInBracket(
            f"period-{n} count changes by {step} across {b_bracket}, "
            "but no tangency was located inside it")
    parent = find_flip(n // 2, b_bracket)
    return BifurcationEvent(kind="fold", period=n, b_star=parent.b_star,
                            x_star=parent.x_star)


def find_transcritical(b_bracket) -> BifurcationEvent:
    """Parameter where the two fixed-point branches collide at multiplier +1.

    The fixed points 1/2 +- sqrt(1/4 - b) are real iff b <= 1/4 and meet
    at x = 1/2 there, so the event is exact: b* = 1/4, x* = 1/2.  The
    bracket is closed, as for the other locators."""
    lo, hi = b_bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if not lo <= 0.25 <= hi:
        raise NoEventInBracket(
            f"fixed-point branches do not collide inside {b_bracket}")
    return BifurcationEvent(kind="transcritical", period=1, b_star=0.25,
                            x_star=0.5)


def event_residuals(ev: BifurcationEvent):
    """(orbit-closure residual, multiplier residual) at the event."""
    orb = _orbit_1d(ev.x_star, ev.b_star, ev.period + 1)
    target = -1.0 if ev.kind == "flip" else 1.0
    return abs(orb[-1] - orb[0]), abs(_sorted_multiplier(orb[:-1]) - target)


# ---------------------------------------------------------------------------
# diagrams


def bifurcation_diagram(b_range, steps, p0=Point3(0.0, -0.5, 0.0),
                        transient=1000, samples=200) -> DiagramDataset:
    """Post-transient x-samples of one orbit per parameter; divergent
    parameters carry samples=None instead of killing the sweep.

    All parameters are iterated at once, as the scalar streams of the
    distinct (start value, b) pairs, and every row's samples are gathered
    off those streams in one read, into one read-only (steps, samples)
    float64 array.  A row drops out as soon as its state leaves its escape
    ball, the test `orbit` applies; every other row's `samples` is a view
    of its row of that array, bit for bit the x-samples
    `orbit(p0, Params(b), samples, transient)` records.
    One step (steps=1) samples a single parameter, b_lo == b_hi.
    """
    b_lo, b_hi = b_range
    if steps < 1 or (steps == 1 and b_lo != b_hi):
        raise ValueError("steps must be >= 2, or 1 with b_lo == b_hi")
    _check_run(p0, samples, transient, "samples")
    bs = [b_hi if k == steps - 1 else b_lo + (b_hi - b_lo) * k / (steps - 1)
          for k in range(steps)]
    escaped, streams = _evolve(
        np.full(steps, p0.x), np.full(steps, p0.y), np.full(steps, p0.z),
        np.array(bs), transient + samples - 1, samples)
    xs = streams.value(transient + np.arange(samples),
                       np.arange(steps)[:, None])
    xs.flags.writeable = False
    rows = tuple(DiagramRow(b=bv, samples=None if out else xs[i])
                 for i, (bv, out) in enumerate(zip(bs, escaped.tolist())))
    return DiagramDataset(rows=rows)


def distinct_sample_count(values, tol=1e-6) -> int:
    """Distinct values by 1D sort + gap threshold."""
    vs = sorted(values)
    if not vs:
        return 0
    return 1 + sum(1 for a, c in zip(vs, vs[1:]) if c - a > tol)
