"""Lyapunov spectra along orbits of the 3D map, plus the scalar exponent.

Exponents are reported per application of the 3D map (not per three-step
block).  Three steps act on each coordinate through x -> x^2 + b, so the
tangent cocycle over a block is diag(2x, 2y, 2z): step k stretches only
the stream k mod 3, by |2x_k|, and each exponent is that stream's sum of
log|2x_k| over all steps.  A log argument at or below LOG_FLOOR (an exact
hit on the critical point x = 0) is floored, as in the scalar exponent.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log

from .core import Params, Point3, escape_radius
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


def lyapunov_spectrum(p0: Point3, params: Params, n_iter: int = 10**6,
                      transient: int = 10**4) -> LyapunovResult:
    """Per-stream averages of log|2x| along one orbit, descending.

    Step k adds log|2x_k| to stream k mod 3; every stream sum is divided
    by n_iter.  Deterministic: no randomness, fixed order.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    # NaN passes every escape test and floors every log
    if not all(map(isfinite, p0)):
        raise ValueError(f"start must be finite, got {tuple(p0)}")
    b = params.b
    R = escape_radius(b)
    x, y, z = p0.x, p0.y, p0.z
    for k in range(transient):
        if abs(x) > R or abs(y) > R or abs(z) > R:
            raise Diverged(k, Point3(x, y, z))
        x, y, z = y, z, x * x + b

    sums = [0.0, 0.0, 0.0]
    for k in range(n_iter):
        if abs(x) > R or abs(y) > R or abs(z) > R:
            raise Diverged(transient + k, Point3(x, y, z))
        g = abs(2.0 * x)
        sums[k % 3] += log(g if g > LOG_FLOOR else LOG_FLOOR)
        x, y, z = y, z, x * x + b
    exps = tuple(sorted((s / n_iter for s in sums), reverse=True))
    return LyapunovResult(exponents=exps, n_used=n_iter, b=b)


def lyapunov_1d(x0: float, params: Params, n_iter: int = 10**6,
                transient: int = 10**4) -> Exponent1D:
    """Average of log|2x| along the scalar orbit; floored on critical hits."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    if not isfinite(x0):
        raise ValueError(f"start must be finite, got {x0}")
    b = params.b
    R = escape_radius(b)
    x = x0
    for k in range(transient):
        if abs(x) > R:
            raise Diverged(k)
        x = x * x + b
    s = 0.0
    floored = False
    for k in range(n_iter):
        if abs(x) > R:
            raise Diverged(transient + k)
        g = 2.0 * abs(x)
        if g <= LOG_FLOOR:
            g = LOG_FLOOR
            floored = True
        s += log(g)
        x = x * x + b
    return Exponent1D(value=s / n_iter, superstable=floored, n_used=n_iter)
