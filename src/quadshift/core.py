"""The map itself: a cyclic coordinate shift with a quadratic kick.

One step sends (x, y, z) to (y, z, x^2 + b).  Three steps act on each
coordinate independently through the same scalar return map x -> x^2 + b,
so a 3D orbit is just three interleaved scalar orbits.  Every other
module in the package leans on that.

Past the larger scalar fixed point beta = (1 + sqrt(1 - 4b))/2 a
coordinate grows without bound, so orbits, spectra, diagrams and basins
all test escape against one radius per parameter, `escape_radius(b)`, and
the scalar cycle search covers `search_interval(b)`, which holds [-beta, beta].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, Overflow

# |x| > R grows monotonically under x -> x^2 + b iff R >= beta(b), and
# beta(b) <= 4 exactly for b >= -12; outputs keep this radius there.
ESCAPE_RADIUS = 4.0

# the cycle search interval's half-width until beta(b) passes it at b = -3.75
SEARCH_HALF_WIDTH = 2.5


@dataclass(frozen=True)
class Params:
    b: float

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise ValueError("parameter b must be finite")


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def max_abs(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


def _cover_beta(r: float, b: float) -> float:
    """max(r, beta(b)), or r for b > 1/4, where there is no fixed point.

    beta is the larger fixed point bit for bit as floats give it (0.5 +
    sqrt(0.25 - b) equals 0.5 + 0.5*sqrt(1 - 4b), and never overflows), so
    the float fixed point is covered even when rounding puts it above the
    exact beta.
    """
    if b > 0.25:
        return r
    return max(r, 0.5 + math.sqrt(0.25 - b))


def escape_radius(b: float) -> float:
    """The escape radius at parameter b: max(ESCAPE_RADIUS, beta(b)), so
    (beta, beta, beta) lies inside the ball."""
    return _cover_beta(ESCAPE_RADIUS, b)


def search_interval(b: float) -> tuple:
    """The scalar cycle search interval at parameter b: (-w, w) with
    w = max(SEARCH_HALF_WIDTH, beta(b)), so it holds [-beta, beta], where
    every bounded scalar orbit lies."""
    w = _cover_beta(SEARCH_HALF_WIDTH, b)
    return -w, w


def h1d(x: float, params: Params) -> float:
    """The scalar return map: x -> x^2 + b.  All three coordinates obey it."""
    return x * x + params.b


def h1d_n(x: float, params: Params, n: int) -> float:
    b = params.b
    for _ in range(n):
        x = x * x + b
    return x


def apply_T(p: Point3, params: Params) -> Point3:
    z = p.x * p.x + params.b
    if not math.isfinite(z):
        raise Overflow(f"quadratic kick overflowed at x={p.x!r}")
    return Point3(p.y, p.z, z)


def jacobian_T(p: Point3) -> np.ndarray:
    """One-step Jacobian: constant rows except the 2x entry.  det = 2x.
    The tests check the closed-form products against it."""
    return np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [2.0 * p.x, 0.0, 0.0],
    ])


def orbit(p0: Point3, params: Params, n: int,
          transient: int = 0) -> list[Point3]:
    """Iterate `transient` steps unrecorded, then record n consecutive states.

    Raises Diverged with the absolute step index as soon as a state leaves
    the escape ball, so callers can tell transient blowup from late escape.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    R = escape_radius(params.b)
    p = p0
    for k in range(transient):
        if p.max_abs() > R:
            raise Diverged(k, p)
        p = apply_T(p, params)
    out = []
    for k in range(n):
        if p.max_abs() > R:
            raise Diverged(transient + k, p)
        out.append(p)
        p = apply_T(p, params)
    return out
