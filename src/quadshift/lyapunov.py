"""Lyapunov spectra along orbits of the 3D map, plus the scalar exponent.

Exponents are reported per application of the 3D map (not per three-step
block).  Three steps act on each coordinate through x -> x^2 + b, so the
tangent cocycle over a block is diag(2x, 2y, 2z): step k stretches only
the stream k mod 3, by |2x_k|, and each exponent is that stream's sum of
log|2x_k| over all steps, read off `core._iterates` one stream at a time
in constant memory; the scalar exponent is that sum on one stream.  A log
argument at or below LOG_FLOOR (an exact hit on the critical point x = 0)
is floored.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import log

from .core import (Params, Point3, _check_run, _diverged, _iterates,
                   escape_radius)
from .errors import Diverged

LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class LyapunovResult:
    exponents: tuple    # three reals, descending, natural log per step
    n_used: int
    b: float


@dataclass(frozen=True)
class Exponent1D:
    value: float
    superstable: bool   # the orbit hit the critical point; log was floored
    n_used: int


def _log_sum(u, b, lo, hi, end):
    """(sum, floored): the sum of log|2 H^m(u)| over lo <= m < hi, each log
    argument floored at LOG_FLOOR, and whether one was.  Raises Diverged(m)
    at the first m < end with |H^m(u)| > escape_radius(b); keeps no stream."""
    R = escape_radius(b)
    s = 0.0
    floored = False
    for m, v in enumerate(islice(_iterates(u, b), end)):
        if abs(v) > R:
            raise Diverged(m)
        if lo <= m < hi:
            g = 2.0 * abs(v)
            if g <= LOG_FLOOR:
                g = LOG_FLOOR
                floored = True
            s += log(g)
    return s, floored


def lyapunov_spectrum(p0: Point3, params: Params, n_iter: int = 10**6,
                      transient: int = 10**4) -> LyapunovResult:
    """Per-stream averages of log|2x| along one orbit, descending.

    Step k adds log|2x_k| to stream k mod 3; every stream sum is divided
    by n_iter.  Deterministic: no randomness, fixed order.
    """
    _check_run(p0, n_iter, transient, "n_iter")
    b = params.b
    # stream r holds s_{3m+r}: the m of its summed and its tested samples
    bounds = (transient, transient + n_iter, transient + n_iter + 2)
    try:
        sums = [_log_sum(u, b, *((j - r + 2) // 3 for j in bounds))[0]
                for r, u in enumerate(p0)]
    except Diverged:
        raise _diverged(p0, b) from None
    exps = tuple(sorted((s / n_iter for s in sums), reverse=True))
    return LyapunovResult(exponents=exps, n_used=n_iter, b=b)


def lyapunov_1d(x0: float, params: Params, n_iter: int = 10**6,
                transient: int = 10**4) -> Exponent1D:
    """Average of log|2x| along the scalar orbit; floored on critical hits."""
    _check_run((x0,), n_iter, transient, "n_iter")
    end = transient + n_iter
    s, floored = _log_sum(x0, params.b, transient, end, end)
    return Exponent1D(value=s / n_iter, superstable=floored, n_used=n_iter)
