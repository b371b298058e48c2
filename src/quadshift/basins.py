"""Attractor catalogs and basin classification over 2D slices.

A catalog is built once from seed orbits, all seeds iterated at once on
the batch engine `core._evolve`: a seed drops exactly where `orbit` would
raise Diverged, and the states it records are read off the stream table,
bit-equal to `orbit`'s.  Short-period limit sets are
detected exactly by recurrence, everything else bounded is sampled into a
point-cloud signature of consecutive states; a seed whose limit set lies
within tolerance of an earlier one is dropped, by a Hausdorff test on one
k-d tree per limit set whose queries are bounded by the tolerance and run
in chunks of HAUSDORFF_CHUNK points, stopping at the first chunk with a
point out of it.  Grid cells are then iterated as three
scalar streams on the batch engine `core._evolve`: every distinct start
value of the batch is iterated once under H(u) = u^2 + b, and each
cell's escape test is read off its three streams, bit-equal to stepping
the 3D map.  The post-transient tail is never stored per cell: sample t
of the cells still in play is gathered from the table of kept H-iterates
when it is needed.  Tails are matched against the signatures
by sup-distance nearest neighbors, bounded by each cell's best attractor
so far: against an attractor, matching stops at a cell's first tail
sample at or beyond its best distance (match_tol before any match).  A
cell's label is the best-matching attractor below the match tolerance
(the first on ties), the divergence label on escape, or undecided --
undecided cells get one retry with a larger budget before that sticks.

T^3 sends u and -u to the same point: (-u)*(-u) == u*u in floats, and the
escape test reads |s_j|.  From state 3 on every state is made of H-iterates
of the start, so when the tail starts there or later (transient + max_iter
>= TAIL_SAMPLES + 2; the retry's tail starts later still), cells whose
coordinates differ only in sign have the same escape test, the same tail
and the same label.  Such a batch is classified once per mirror class,
the cells of equal (|x|, |y|, |z|) bit patterns, and each label copied.

The same batch engine classifies single points, so a slice cell and a
lone query at the same coordinates always agree.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Params, Point3, _check_run, _evolve
from .errors import PaletteMissingLabel

DIVERGENT = -1
UNDECIDED = -2

_SWEPT = {"z": ("x", "y"), "y": ("x", "z"), "x": ("y", "z")}

CYCLE_TOL = 1e-8     # a seed orbit within this of its start has closed
CYCLE_SEARCH = 64    # recurrence horizon for exact cycle detection
RETRY_FACTOR = 4     # undecided cells rerun transient + this * max_iter steps
TAIL_SAMPLES = 16    # post-transient states per cell matched against the catalog
MERGE_TOL = 0.3      # symmetric Hausdorff estimate for chaotic catalog dedup
HAUSDORFF_CHUNK = 256  # points per bounded query of the catalog's dedup test


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


def _cell_centers(span, n):
    """Centers lo + (i + 0.5)*(hi - lo)/n of n equal cells over (lo, hi);
    where that overflows between finite ends, (1 - t)*lo + t*hi with
    t = (i + 0.5)/n, so finite ends give finite centers."""
    lo, hi = span
    t = np.arange(n) + 0.5
    with np.errstate(over="ignore"):
        c = lo + t * (hi - lo) / n
    if np.isfinite(c).all() or not np.isfinite(span).all():
        return c
    return (1 - t / n) * lo + t / n * hi


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
        return _cell_centers(self.u_range, self.nu)

    def v_centers(self):
        return _cell_centers(self.v_range, self.nv)

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
# batch classification


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


def _mirror_classes(X0, Y0, Z0):
    """(rep, inv) of the cells grouped by the bit patterns of (|x|, |y|,
    |z|): rep holds one cell of each group, and cell i is in the group of
    rep[inv[i]].  Codes are paired two at a time, so no key overflows."""
    mags = np.abs(np.concatenate((X0, Y0, Z0))).view(np.int64)
    keys, codes = np.unique(mags, return_inverse=True)
    cx, cy, cz = codes.reshape(3, -1)
    _, cxy = np.unique(cx * keys.size + cy, return_inverse=True)
    _, rep, inv = np.unique(cxy * keys.size + cz, return_index=True,
                            return_inverse=True)
    return rep, inv


def _classify_batch(X0, Y0, Z0, b, attractors, options: BasinOptions):
    # NaN passes every escape test, and inf would be labelled divergent
    if not all(np.isfinite(C).all() for C in (X0, Y0, Z0)):
        raise ValueError("every start must be finite; a cell center or "
                         "start is NaN or infinite")
    n_steps = options.transient + options.max_iter
    if n_steps - min(TAIL_SAMPLES, n_steps) + 1 >= 3:
        # the escape test reads |s_j|, and s_j = H^m(start) with m >= 1
        # from j = 3 on, where the tail (and the retry's later one) starts:
        # cells whose coordinates differ only in sign get one label
        rep, inv = _mirror_classes(X0, Y0, Z0)
        X0, Y0, Z0 = X0[rep], Y0[rep], Z0[rep]
    else:
        inv = slice(None)
    escaped, streams = _evolve(X0, Y0, Z0, b, n_steps, TAIL_SAMPLES)
    labels = _match_tails(streams, ~escaped, attractors, options.match_tol)
    labels[escaped] = DIVERGENT
    retry = np.nonzero(labels == UNDECIDED)[0]
    if retry.size:
        n_long = options.transient + RETRY_FACTOR * options.max_iter
        esc2, streams2 = _evolve(X0[retry], Y0[retry], Z0[retry], b, n_long,
                                 TAIL_SAMPLES)
        sub = _match_tails(streams2, ~esc2, attractors, options.match_tol)
        sub[esc2] = DIVERGENT
        labels[retry] = sub
    return labels[inv]


# ---------------------------------------------------------------------------
# catalog


def _limit_set_of(probe, options: BasinOptions):
    """(kind, period, signature) of a seed's limit set, read off its
    recorded states: probe is (n, 3), n > CYCLE_SEARCH, consecutive."""
    gap = np.abs(probe[1:CYCLE_SEARCH + 1] - probe[0]).max(axis=1)
    closed = gap < CYCLE_TOL
    if closed.any():
        k = int(closed.argmax()) + 1
        return ("fixed_point" if k == 1 else "cycle"), k, probe[:k]
    return "chaotic", None, probe[:options.signature_samples]


def _within_hausdorff(ta, tb, tol):
    """Whether the symmetric sup-metric Hausdorff distance of the point sets
    of the k-d trees ta and tb is below tol.  Each direction queries its
    points in chunks of HAUSDORFF_CHUNK, bounded by tol, and the test stops
    at the first chunk with a point tol or more away."""
    for P, tree in ((ta.data, tb), (tb.data, ta)):
        for lo in range(0, len(P), HAUSDORFF_CHUNK):
            d, _ = tree.query(P[lo:lo + HAUSDORFF_CHUNK], k=1, p=np.inf,
                              distance_upper_bound=tol)
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
    n = max(CYCLE_SEARCH + 1, options.signature_samples)
    for seed in seeds:
        _check_run(seed, n, options.transient, "n")
    # every seed at once: a seed drops where `orbit` would raise Diverged,
    # and its states transient .. transient+n-1 are those `orbit` records
    X, Y, Z = np.array(seeds, dtype=float).T
    escaped, streams = _evolve(X, Y, Z, params.b, options.transient + n - 1, n)
    at = options.transient + np.arange(n)[:, None] + np.arange(3)
    found = []      # (kind, period, signature, k-d tree of the signature)
    for s in np.nonzero(~escaped)[0]:
        kind, period, sig = _limit_set_of(streams.value(at, s), options)
        res = kind, period, sig, cKDTree(sig)
        if not any(_same_limit_set(res, f) for f in found):
            found.append(res)
    return [Attractor(id=i, kind=k, period=per, signature=sig)
            for i, (k, per, sig, _) in enumerate(found)]


def _same_limit_set(a, b):
    # distinct cycles are disjoint point sets, so set distance is the right
    # test; sorting coordinates is not (one-ulp noise reshuffles the order)
    (kind, period, _, tree), (okind, operiod, _, otree) = a, b
    if "chaotic" in (kind, okind):
        return kind == okind and _within_hausdorff(tree, otree, MERGE_TOL)
    return period == operiod and _within_hausdorff(tree, otree, 1e-6)


# ---------------------------------------------------------------------------
# classification


def classify_point(p0: Point3, params: Params, catalog,
                   options: BasinOptions = BasinOptions()) -> int:
    """Label of a single start; runs the identical batch engine on a batch
    of one, so it always agrees with a grid cell at the same coordinates."""
    X, Y, Z = np.array(p0, dtype=float)[:, None]
    return int(_classify_batch(X, Y, Z, params.b, tuple(catalog), options)[0])


def basin_slice(params: Params, spec: SliceSpec, catalog,
                options: BasinOptions = BasinOptions(),
                threads: int = 1) -> BasinGrid:
    """Classify every cell center of the slice.  The cells are iterated as
    three scalar streams, one per coordinate value of the slice, so the
    iteration costs O((nu + nv + 1) * steps / 3), not O(nu * nv * steps);
    tail samples are gathered one at a time from those streams, and
    matching stops at each cell's first sample that cannot beat its best
    attractor so far.  Matching runs once per mirror class of cells (see
    the module docstring): down to a quarter of the cells where the swept
    ranges are symmetric about 0, and about 49% on the recipe slices, where
    rounding leaves 70% of the centers on each axis a distinct magnitude.
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


_MARK_COLORS = {DIVERGENT: (0, 0, 0), UNDECIDED: (40, 40, 40)}


def render_grid(labels) -> bytes:
    """Binary PPM (P6) of an (nv, nu) label array, one pixel per cell, top
    row = largest swept v.  Attractor id k takes color k mod 10 of the
    table.  Labels below UNDECIDED have no color: a grid read from an
    outside CSV may hold one, and it raises PaletteMissingLabel."""
    nv, nu = labels.shape
    img = np.zeros((nv, nu, 3), dtype=np.uint8)
    for lab in np.unique(labels):
        key = int(lab)
        if key < UNDECIDED:
            raise PaletteMissingLabel(key)
        img[labels == lab] = (_COLOR_TABLE[key % len(_COLOR_TABLE)]
                              if key >= 0 else _MARK_COLORS[key])
    img = img[::-1]     # v increases upward in the picture
    return b"P6\n%d %d\n255\n" % (nu, nv) + img.tobytes()
