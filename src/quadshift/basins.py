"""Attractor catalogs and basin classification over 2D slices.

A catalog is built once from seed orbits: short-period limit sets are
detected exactly by recurrence, everything else bounded is sampled into a
point-cloud signature of consecutive states; a seed whose limit set lies
within tolerance of an earlier one is dropped, by a Hausdorff test whose
queries are bounded by the tolerance and which stops at the first
direction with a point out of it.  Grid cells are then iterated as three
scalar streams, since T^3 acts on each coordinate through H(u) = u^2 + b:
every distinct start value of the batch is iterated once under H, and
each cell's escape test is read off its three streams, bit-equal to
stepping the 3D map.  The post-transient tail is never stored per cell:
sample t of the cells still in play is gathered from the table of kept
H-iterates when it is needed.  Tails are matched against the signatures
by sup-distance nearest neighbors, bounded by each cell's best attractor
so far: against an attractor, matching stops at a cell's first tail
sample at or beyond its best distance (match_tol before any match).  A
cell's label is the best-matching attractor below the match tolerance
(the first on ties), the divergence label on escape, or undecided --
undecided cells get one retry with a larger budget before that sticks.

The same batch engine classifies single points, so a slice cell and a
lone query at the same coordinates always agree.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Params, Point3, escape_radius, orbit
from .errors import Diverged, PaletteMissingLabel

DIVERGENT = -1
UNDECIDED = -2

_SWEPT = {"z": ("x", "y"), "y": ("x", "z"), "x": ("y", "z")}

CYCLE_TOL = 1e-8     # a seed orbit within this of its start has closed
CYCLE_SEARCH = 64    # recurrence horizon for exact cycle detection
RETRY_FACTOR = 4     # undecided cells rerun transient + this * max_iter steps
TAIL_SAMPLES = 16    # post-transient states per cell matched against the catalog
MERGE_TOL = 0.3      # symmetric Hausdorff estimate for chaotic catalog dedup


@dataclass(frozen=True)
class BasinOptions:
    max_iter: int = 5000
    transient: int = 1000
    signature_samples: int = 512
    match_tol: float = 0.05        # sup-distance from tail to signature

    def __post_init__(self):
        # an empty signature cannot be matched, and no distance is below a
        # tolerance <= 0 (or NaN), so every bounded cell would stay
        # undecided; an infinite one would label every bounded cell
        if self.signature_samples < 1:
            raise ValueError("signature_samples must be >= 1, got "
                             f"{self.signature_samples}")
        if not 0 < self.match_tol < math.inf:
            raise ValueError(
                f"match_tol must be finite and > 0, got {self.match_tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.transient < 0:
            raise ValueError(f"transient must be >= 0, got {self.transient}")
        if self.max_iter + self.transient < 1:
            raise ValueError("max_iter + transient must be >= 1, got "
                             f"{self.max_iter} + {self.transient}")


@dataclass(frozen=True)
class Attractor:
    id: int
    kind: str               # "fixed_point" | "cycle" | "chaotic"
    period: int | None
    signature: np.ndarray   # (m, 3), treated as read-only
    b: float


@dataclass(frozen=True)
class SliceSpec:
    """A 2D slice: one axis pinned, the other two swept over cell centers."""
    fixed_axis: str = "z"
    fixed_value: float = 0.5
    u_range: tuple = (-2.5, 2.5)
    v_range: tuple = (-2.5, 2.5)
    nu: int = 200
    nv: int = 200

    def axes(self):
        return _SWEPT[self.fixed_axis]

    def u_centers(self):
        lo, hi = self.u_range
        return lo + (np.arange(self.nu) + 0.5) * (hi - lo) / self.nu

    def v_centers(self):
        lo, hi = self.v_range
        return lo + (np.arange(self.nv) + 0.5) * (hi - lo) / self.nv

    def cell_point(self, i, j) -> Point3:
        coords = {self.fixed_axis: self.fixed_value}
        ua, va = self.axes()
        coords[ua] = float(self.u_centers()[i])
        coords[va] = float(self.v_centers()[j])
        return Point3(coords["x"], coords["y"], coords["z"])


@dataclass(frozen=True)
class BasinGrid:
    b: float
    spec: SliceSpec
    labels: np.ndarray      # (nv, nu) ints; row j sweeps v, column i sweeps u
    attractors: tuple
    options: BasinOptions


def default_seeds() -> tuple:
    """One generic start, one with two coordinates bit-identical, one fully
    synchronized.  Exact coordinate ties persist forever (the coordinate
    streams are copies), so these reach genuinely different limit sets when
    lower-dimensional attractors coexist."""
    return (Point3(0.1, -0.55, 0.3),
            Point3(0.37, 0.37, -0.2),
            Point3(-0.4, -0.4, -0.4))


# ---------------------------------------------------------------------------
# batch orbit engine


@dataclass(frozen=True)
class _Streams:
    """A batch's tail samples, kept as the scalar streams they are read off.

    Row m - first//3 of `kept` holds H^m of every distinct start value, for
    the m that tail samples reach; `inv[r]` maps each cell to the distinct
    value of its coordinate r.  Column c of tail sample t is s_{first+t+c}.
    """
    kept: np.ndarray    # (rows, distinct start values)
    inv: np.ndarray     # (3, cells)
    first: int          # stream index of column 0 of tail sample 0
    samples: int        # tail samples per cell

    def sample(self, cells, t):
        """Tail sample t of `cells` as a (cells.size, 3) block, bit-equal to
        `tails[cells, t]` of the full (cells, samples, 3) tail tensor."""
        j = self.first + t + np.arange(3)
        return self.kept[j // 3 - self.first // 3,
                         self.inv[j % 3, cells[:, None]]]


def _evolve(X, Y, Z, b, n_steps, tail_n, R):
    """Advance a batch of states n_steps (>= 1); keep the last tail_n states.

    Returns (escaped mask, _Streams of the last tail_n states), bit-equal
    to stepping the 3D map, but the batch is never stepped in 3D.  With
    s_0, s_1, s_2 = x, y, z and s_{j+3} = H(s_j), the state after step k
    is (s_{k+1}, s_{k+2}, s_{k+3}), so s_{3m+r} = H^m(start_r): a cell is
    three scalar streams.  Every distinct start value (by bit pattern, so
    -0.0 stays apart from 0.0) is iterated once, (n_steps+2)//3 steps of H.
    A cell escaped iff some |s_j| > R for 1 <= j <= n_steps+2, and tail
    sample i, column c is s_{rec0+1+i+c}, one of the few iterates kept.
    Escaped streams keep iterating toward inf -- cheap and NaN-free.
    """
    N = X.size
    tail_n = min(tail_n, n_steps)
    rec0 = n_steps - tail_n
    starts = np.concatenate((X, Y, Z)).astype(np.float64)
    keys, inv = np.unique(starts.view(np.int64), return_inverse=True)
    inv = inv.reshape(3, N)
    w = keys.view(np.float64)
    n_iter = (n_steps + 2) // 3         # s_{n_steps+2} is H^n_iter of some start
    m_lo = (rec0 + 1) // 3              # the first tail sample is H^m_lo of some start
    kept = np.empty((n_iter - m_lo + 1, w.size))
    hit = np.zeros(w.size, dtype=bool)  # |H^m(u)| > R for some 1 <= m <= current
    hits_upto = {}                      # the last two m: where the streams' tests end
    with np.errstate(over="ignore", invalid="ignore"):
        hit0 = np.abs(w) > R
        for m in range(n_iter + 1):
            if m:
                w = w * w + b
                hit = hit | (np.abs(w) > R)
            if m >= m_lo:
                kept[m - m_lo] = w
            if m >= n_iter - 1:
                hits_upto[m] = hit
    escaped = np.zeros(N, dtype=bool)
    for r in range(3):
        # stream r is tested up to m = (n_steps+2-r)//3, n_iter or n_iter-1;
        # x is first tested after its first step, y and z already at m = 0
        esc = hits_upto[(n_steps + 2 - r) // 3]
        if r:
            esc = esc | hit0
        escaped |= esc[inv[r]]
    return escaped, _Streams(kept, inv, rec0 + 1, tail_n)


def _match_tails(streams, bounded, attractors, match_tol):
    """Best-match labels for bounded cells; UNDECIDED where nothing fits.

    A cell's distance to an attractor is the largest sup-distance from its
    tail samples to the signature, and its label is the first attractor of
    least distance below match_tol.  Each cell keeps the best distance so
    far, starting at match_tol, and sample t is queried against the next
    attractor only for cells whose running max is still below it: a cell
    that reaches its best distance cannot win there (ties go to the earlier
    attractor), and a survivor of every sample has its exact distance, so
    the labels are those of a full query's argmin.
    """
    labels = np.full(bounded.size, UNDECIDED, dtype=int)
    best = np.full(bounded.size, float(match_tol))
    cells = np.nonzero(bounded)[0]
    for att in attractors:
        alive = cells[best[cells] > 0]
        if alive.size == 0:
            break
        tree = cKDTree(att.signature)
        run = np.zeros(alive.size)
        for t in range(streams.samples):
            d, _ = tree.query(streams.sample(alive, t), k=1, p=np.inf,
                              distance_upper_bound=best[alive].max())
            run = np.maximum(run, d)
            keep = run < best[alive]
            alive, run = alive[keep], run[keep]
            if alive.size == 0:
                break
        best[alive] = run
        labels[alive] = att.id
    return labels


def _classify_batch(X0, Y0, Z0, b, attractors, options: BasinOptions):
    R = escape_radius(b)
    n_steps = options.transient + options.max_iter
    escaped, streams = _evolve(X0, Y0, Z0, b, n_steps, TAIL_SAMPLES, R)
    labels = _match_tails(streams, ~escaped, attractors, options.match_tol)
    labels[escaped] = DIVERGENT
    retry = np.nonzero(labels == UNDECIDED)[0]
    if retry.size:
        n_long = options.transient + RETRY_FACTOR * options.max_iter
        esc2, streams2 = _evolve(X0[retry], Y0[retry], Z0[retry], b, n_long,
                                 TAIL_SAMPLES, R)
        sub = _match_tails(streams2, ~esc2, attractors, options.match_tol)
        sub[esc2] = DIVERGENT
        labels[retry] = sub
    return labels


# ---------------------------------------------------------------------------
# catalog


def _limit_set_of(seed: Point3, params: Params, options: BasinOptions):
    """(kind, period, signature) of the seed's limit set, or None when a
    state it records, or one before them, leaves the escape ball."""
    try:
        probe = orbit(seed, params,
                      max(CYCLE_SEARCH + 1, options.signature_samples),
                      options.transient)
    except Diverged:
        return None
    p0 = probe[0]
    for k in range(1, CYCLE_SEARCH + 1):
        if max(abs(probe[k].x - p0.x), abs(probe[k].y - p0.y),
               abs(probe[k].z - p0.z)) < CYCLE_TOL:
            kind = "fixed_point" if k == 1 else "cycle"
            return kind, k, np.array([tuple(p) for p in probe[:k]])
    return "chaotic", None, np.array(
        [tuple(p) for p in probe[:options.signature_samples]])


def _within_hausdorff(A, B, tol):
    """Whether the symmetric sup-metric Hausdorff distance of the point sets
    A and B is below tol.  Each direction is a query bounded by tol, and the
    test stops at the first direction with a point tol or more away."""
    for P, Q in ((A, B), (B, A)):
        d, _ = cKDTree(Q).query(P, k=1, p=np.inf, distance_upper_bound=tol)
        if not np.all(d < tol):
            return False
    return True


def build_catalog(params: Params, seeds=None,
                  options: BasinOptions = BasinOptions()) -> list:
    """Deduplicated attractor list from seed orbits; divergent seeds drop out."""
    if seeds is None:
        seeds = default_seeds()
    if not seeds:
        raise ValueError("need at least one seed")
    found = []
    for seed in seeds:
        res = _limit_set_of(seed, params, options)
        if res is None:
            continue
        kind, period, sig = res
        dup = False
        for okind, operiod, osig in found:
            if kind in ("fixed_point", "cycle") and okind in ("fixed_point", "cycle"):
                if period == operiod and _cycles_equal(sig, osig):
                    dup = True
                    break
            elif kind == "chaotic" and okind == "chaotic":
                if _within_hausdorff(sig, osig, MERGE_TOL):
                    dup = True
                    break
        if not dup:
            found.append((kind, period, sig))
    return [Attractor(id=i, kind=k, period=per, signature=sig, b=params.b)
            for i, (k, per, sig) in enumerate(found)]


def _cycles_equal(sig_a, sig_b, tol=1e-6):
    # distinct orbits are disjoint point sets, so set distance is the right
    # test; sorting coordinates is not (one-ulp noise reshuffles the order)
    if len(sig_a) != len(sig_b):
        return False
    return _within_hausdorff(np.asarray(sig_a), np.asarray(sig_b), tol)


# ---------------------------------------------------------------------------
# classification


def classify_point(p0: Point3, params: Params, catalog,
                   options: BasinOptions = BasinOptions()) -> int:
    """Label of a single start; runs the identical batch engine on a batch
    of one, so it always agrees with a grid cell at the same coordinates."""
    X = np.array([p0.x])
    Y = np.array([p0.y])
    Z = np.array([p0.z])
    return int(_classify_batch(X, Y, Z, params.b, tuple(catalog), options)[0])


def basin_slice(params: Params, spec: SliceSpec, catalog,
                options: BasinOptions = BasinOptions(),
                threads: int = 1) -> BasinGrid:
    """Classify every cell center of the slice.  The cells are iterated as
    three scalar streams, one per coordinate value of the slice, so the
    iteration costs O((nu + nv + 1) * steps / 3), not O(nu * nv * steps);
    tail samples are gathered one at a time from those streams, and
    matching stops at each cell's first sample that cannot beat its best
    attractor so far.
    Output is independent of the thread count: rows are chunked, each chunk
    is pure, and the label matrix is assembled in canonical order."""
    if spec.nu < 2 or spec.nv < 2:
        raise ValueError("resolution must be >= 2 per swept axis")
    U = spec.u_centers()
    V = spec.v_centers()
    uu, vv = np.meshgrid(U, V)          # shape (nv, nu)
    coords = {spec.fixed_axis: np.full(uu.size, spec.fixed_value)}
    ua, va = spec.axes()
    coords[ua] = uu.ravel()
    coords[va] = vv.ravel()
    X0, Y0, Z0 = coords["x"], coords["y"], coords["z"]
    catalog = tuple(catalog)

    if threads <= 1:
        flat = _classify_batch(X0, Y0, Z0, params.b, catalog, options)
    else:
        bounds = np.linspace(0, uu.size, threads + 1, dtype=int)
        chunks = [(X0[a:c], Y0[a:c], Z0[a:c])
                  for a, c in zip(bounds[:-1], bounds[1:])]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda ch: _classify_batch(ch[0], ch[1], ch[2], params.b,
                                           catalog, options), chunks))
        flat = np.concatenate(parts)
    return BasinGrid(b=params.b, spec=spec, labels=flat.reshape(spec.nv, spec.nu),
                     attractors=catalog, options=options)


# ---------------------------------------------------------------------------
# rendering

_COLOR_TABLE = (
    (230, 80, 60), (70, 130, 220), (90, 190, 90), (240, 200, 70),
    (170, 90, 200), (80, 200, 200), (240, 140, 60), (150, 150, 150),
    (200, 120, 160), (120, 170, 80),
)


def _palette(grid: BasinGrid) -> dict:
    pal = {DIVERGENT: (0, 0, 0), UNDECIDED: (40, 40, 40)}
    for lab in sorted(set(int(v) for v in np.unique(grid.labels)) |
                      {a.id for a in grid.attractors}):
        if lab >= 0:
            pal[lab] = _COLOR_TABLE[lab % len(_COLOR_TABLE)]
    return pal


def render_grid(grid: BasinGrid) -> bytes:
    """Binary PPM (P6), one pixel per cell, top row = largest swept v.
    Labels below UNDECIDED have no color: a grid read from an outside CSV
    may hold one, and it raises PaletteMissingLabel."""
    palette = _palette(grid)
    nv, nu = grid.labels.shape
    img = np.zeros((nv, nu, 3), dtype=np.uint8)
    for lab in np.unique(grid.labels):
        key = int(lab)
        if key not in palette:
            raise PaletteMissingLabel(key)
        img[grid.labels == lab] = palette[key]
    img = img[::-1]     # v increases upward in the picture
    return b"P6\n%d %d\n255\n" % (nu, nv) + img.tobytes()
