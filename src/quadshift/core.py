"""The map itself: a cyclic coordinate shift with a quadratic kick.

One step sends (x, y, z) to (y, z, x^2 + b); a state is a `Point3`, a
plain (x, y, z) tuple with named fields.  Three steps act on each
coordinate independently through the same scalar return map H(u) = u^2 + b,
so a 3D orbit is three interleaved scalar streams, s_{3m+r} = H^m(start_r),
and state k is (s_k, s_{k+1}, s_{k+2}).  `_iterates` is the one loop that
applies H to a stream: `orbit`, `h1d_n`, the Lyapunov sums and the batch
`_evolve` (basin slices, orbit diagrams) read it, and `_diverged` owns the
escape rule.  `_jet` is the one loop that carries derivatives of H^n, for
every Newton solve in `cycles` and `bifurcations`.

Past the larger scalar fixed point beta = (1 + sqrt(1 - 4b))/2 a
coordinate grows without bound, so every loop tests every sample, the
start's included, against `escape_radius(b)`, which it reads from b; every
bounded scalar orbit lies in [-beta, beta].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import Diverged, Overflow

# |x| > R grows monotonically under x -> x^2 + b iff R >= beta(b), and
# beta(b) <= 4 exactly for b >= -12; outputs keep this radius there.
ESCAPE_RADIUS = 4.0


@dataclass(frozen=True)
class Params:
    b: float

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise ValueError("parameter b must be finite")


class Point3(NamedTuple):
    x: float
    y: float
    z: float


def escape_radius(b: float) -> float:
    """The escape radius at parameter b: max(ESCAPE_RADIUS, beta(b)), so
    (beta, beta, beta) lies inside the ball, or ESCAPE_RADIUS for b > 1/4.
    beta is the float fixed point 0.5 + sqrt(0.25 - b), which never
    overflows and is covered even where it rounds above the exact beta."""
    if b > 0.25:
        return ESCAPE_RADIUS
    return max(ESCAPE_RADIUS, 0.5 + math.sqrt(0.25 - b))


def h1d(x: float, params: Params) -> float:
    """The scalar return map: x -> x^2 + b.  All three coordinates obey it."""
    return x * x + params.b


def h1d_n(x: float, params: Params, n: int) -> float:
    """H^n(x), for a float or an ndarray x."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(_iterates(x, params.b), n, None))


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


# ---------------------------------------------------------------------------
# the scalar-stream engine


def _iterates(u, b):
    """u, H(u), H^2(u), ... for a float or an ndarray u (b a float or an
    array matching u): the one loop that applies H to a stream."""
    while True:
        yield u
        u = u * u + b


def _jet(x, b, n):
    """H^n(x) and its derivatives d/dx, d/db, d2/dx2 and d2/dxdb, for a
    float or an ndarray x: the one loop that carries derivatives of H^n."""
    dx, db, dxx, dxb = 1.0, 0.0, 0.0, 0.0
    it = _iterates(x, b)
    for v in islice(it, n):
        dxx = 2.0 * (dx * dx + v * dxx)
        dxb = 2.0 * (db * dx + v * dxb)
        dx = 2.0 * v * dx
        db = 2.0 * v * db + 1.0
    return next(it), dx, db, dxx, dxb


def _check_run(start, n, transient, name):
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    # NaN passes every escape test, and inf would escape at step 0
    if not all(map(math.isfinite, start)):
        raise ValueError(f"start must be finite, got {tuple(start)}")


def _samples(p0: Point3, b: float):
    """s_0, s_1, s_2, ... of a 3D orbit: s_{3m+r} = H^m(start_r)."""
    return chain.from_iterable(zip(*(_iterates(u, b) for u in p0)))


def _diverged(p0: Point3, b: float) -> Diverged:
    """The Diverged of an orbit that leaves the ball: state k is out iff some
    |s_j| > R, k <= j <= k+2, so the first such j gives state max(0, j-2)."""
    R = escape_radius(b)
    j = next(j for j, u in enumerate(_samples(p0, b)) if abs(u) > R)
    k = max(0, j - 2)
    return Diverged(k, Point3(*islice(_samples(p0, b), k, k + 3)))


def orbit(p0: Point3, params: Params, n: int,
          transient: int = 0) -> list[Point3]:
    """Iterate `transient` steps unrecorded, then record n consecutive states.

    The states are read off the three scalar streams of the start.  Raises
    Diverged with the absolute step index as soon as a state leaves the
    escape ball, so callers can tell transient blowup from late escape.
    """
    _check_run(p0, n, transient, "n")
    b = params.b
    R = escape_radius(b)
    s = []
    for j, u in enumerate(islice(_samples(p0, b), transient + n + 2)):
        if abs(u) > R:
            raise _diverged(p0, b)
        if j >= transient:
            s.append(u)
    return list(map(Point3, s, s[1:], s[2:]))


@dataclass(frozen=True)
class _Streams:
    """A batch's tail samples, kept as the scalar streams they are read off.

    Row m - first//3 of `kept` holds H^m of every distinct start, for the m
    that tail samples reach; `inv[r]` maps each cell to the distinct start
    of its coordinate r.  Column c of tail sample t is s_{first+t+c}."""
    kept: np.ndarray    # (rows, distinct starts)
    inv: np.ndarray     # (3, cells)
    first: int          # stream index of column 0 of tail sample 0
    samples: int        # tail samples per cell

    def value(self, j, cells):
        """s_j of `cells`, j in 3*(first//3) .. first+samples+1, broadcast."""
        return self.kept[j // 3 - self.first // 3, self.inv[j % 3, cells]]

    def sample(self, cells, t):
        """Tail sample t of `cells` as a (cells.size, 3) block, bit-equal to
        `tails[cells, t]` of the full (cells, samples, 3) tail tensor."""
        return self.value(self.first + t + np.arange(3), cells[:, None])


def _evolve(X, Y, Z, b, n_steps, tail_n):
    """Advance a batch of states n_steps (>= 0); keep the last tail_n states.

    b is a float or one value per cell.  Returns (escaped mask, _Streams of
    the last tail_n states), bit-equal to stepping the 3D map, but the
    batch is never stepped in 3D: the state after step k is (s_{k+1},
    s_{k+2}, s_{k+3}), and stream start_index*nb + b_index runs
    (n_steps+2)//3 steps of H for every distinct start value and every
    distinct b, by bit pattern (so -0.0 stays apart from 0.0); a basin
    slice (one b) and an orbit diagram (one start at every b) use every
    pair of that grid.  A cell escaped iff some |s_j| > escape_radius(b)
    for 0 <= j <= n_steps+2, the states `orbit` tests; tail sample i,
    column c is s_{first+i+c}.  Escaped streams run on toward inf, cheap
    and NaN-free.
    """
    N = X.size
    tail_n = min(tail_n, n_steps)
    first = n_steps - tail_n + 1
    s_keys, s_inv = np.unique(np.concatenate((X, Y, Z), dtype=np.float64)
                              .view(np.int64), return_inverse=True)
    b_keys, b_inv = np.unique(np.asarray(b, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    b_keys = b_keys.view(np.float64)
    ns, nb = s_keys.size, b_keys.size
    inv = s_inv.reshape(3, N)      # each cell's (start, b) stream, in place
    inv *= nb
    inv += b_inv.reshape(-1)
    w0 = np.repeat(s_keys.view(np.float64), nb)
    bw, Rw = np.tile((b_keys, list(map(escape_radius, b_keys.tolist()))), ns)
    n_iter = (n_steps + 2) // 3         # s_{n_steps+2} is H^n_iter of some start
    m_lo = first // 3                   # the first tail sample is H^m_lo of some start
    kept = np.empty((n_iter - m_lo + 1, w0.size))
    hit = np.zeros(w0.size, dtype=bool)  # |H^m(u)| > R for some m <= current
    hits_upto = {}                      # the last two m: where the streams' tests end
    with np.errstate(over="ignore", invalid="ignore"):
        for m, w in enumerate(islice(_iterates(w0, bw), n_iter + 1)):
            hit = hit | (np.abs(w) > Rw)
            if m >= m_lo:
                kept[m - m_lo] = w
            if m >= n_iter - 1:
                hits_upto[m] = hit
    escaped = np.zeros(N, dtype=bool)
    for r in range(3):
        # stream r is tested up to m = (n_steps+2-r)//3, n_iter or n_iter-1
        escaped |= hits_upto[(n_steps + 2 - r) // 3][inv[r]]
    return escaped, _Streams(kept, inv, first, tail_n)
