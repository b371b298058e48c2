"""Attractor catalogs, basin grids and the PPM renderer.

The strongest checks are the structural ones: the single-point classifier
and the grid engine must agree cell by cell (they share one batch kernel),
and basin labels must be locally constant away from boundaries (basins of
attracting sets are open).
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from quadshift import (DIVERGENT, UNDECIDED, Attractor, BasinGrid,
                       BasinOptions, Diverged, PaletteMissingLabel, Params,
                       Point3, SliceSpec, basin_slice, basins, build_catalog,
                       classify_point, default_seeds, escape_radius, orbit,
                       render_grid)

from conftest import BASIN_CHECK_OPTIONS


def _x2(b):
    return 0.5 - 0.5 * (1.0 - 4.0 * b) ** 0.5


# ---------------------------------------------------------------------------
# catalog construction


def test_catalog_single_fixed_point_attractor():
    params = Params(-0.4)
    cat = build_catalog(params)
    assert len(cat) == 1
    a = cat[0]
    assert a.kind == "fixed_point"
    assert a.period == 1
    assert a.id == 0
    x2 = _x2(-0.4)
    assert np.allclose(a.signature, [[x2, x2, x2]], atol=1e-8)


def test_catalog_cycle_attractors_after_doubling():
    cat = build_catalog(Params(-0.8))
    assert len(cat) >= 1
    assert all(a.kind == "cycle" for a in cat)
    assert all(a.period in (2, 6) for a in cat)


def test_catalog_deduplicates_seeds():
    # many seeds in one basin must yield one attractor
    params = Params(-0.4)
    seeds = [Point3(0.1 * k, -0.05 * k, 0.02) for k in range(1, 9)]
    cat = build_catalog(params, seeds=seeds)
    assert len(cat) == 1


def test_catalog_drops_divergent_seeds():
    params = Params(-0.4)
    cat = build_catalog(params, seeds=[Point3(5.0, 5.0, 5.0),
                                       Point3(0.1, 0.0, 0.0)])
    assert len(cat) == 1


def test_catalog_drops_a_seed_whose_last_recorded_state_escapes():
    # the orbit leaves the escape ball exactly at the last of the 67
    # signature states; the seed diverges, so it names no attractor
    params = Params(-2.0)
    options = BasinOptions(transient=0, signature_samples=67)
    seed = Point3(0.0, 0.0, 2.0000000000001195)
    with pytest.raises(Diverged) as exc:
        orbit(seed, params, 67)
    assert exc.value.step == 66
    assert build_catalog(params, seeds=[seed], options=options) == []
    cat = build_catalog(params, options=options)
    assert classify_point(seed, params, cat, options) == DIVERGENT


def test_catalog_requires_seeds():
    with pytest.raises(ValueError):
        build_catalog(Params(-0.4), seeds=[])


def test_default_seeds_shape():
    seeds = default_seeds()
    assert len(seeds) >= 3
    assert all(isinstance(s, Point3) for s in seeds)


def test_catalog_ids_are_dense():
    cat = build_catalog(Params(-1.864), options=BASIN_CHECK_OPTIONS)
    assert [a.id for a in cat] == list(range(len(cat)))


def test_catalog_stable_under_classified_seed_injection():
    # adding points already classified to an attractor must not grow the
    # catalog: their limit sets dedup onto the existing entries
    params = Params(-0.8)
    base = list(default_seeds())
    cat = build_catalog(params, seeds=base)
    extra = [p for p in (Point3(0.05, -0.3, 0.1), Point3(-0.2, 0.4, 0.0))
             if classify_point(p, params, cat) >= 0]
    assert extra
    cat2 = build_catalog(params, seeds=base + extra)
    assert len(cat2) == len(cat)


def test_catalog_from_nearby_seeds_at_minus_two():
    # three starts in the same chaotic sea: the catalog folds them together
    params = Params(-2.0)
    seeds = [Point3(-0.5, 0.0, 0.0), Point3(-0.5, -0.01, 0.0),
             Point3(-0.5, -0.5, 0.0)]
    cat = build_catalog(params, seeds=seeds,
                        options=BASIN_CHECK_OPTIONS)
    assert len(cat) >= 1
    assert all(a.kind == "chaotic" for a in cat)


# ---------------------------------------------------------------------------
# single-point classification


def test_classify_attracted_point():
    params = Params(-0.4)
    cat = build_catalog(params)
    x2 = _x2(-0.4)
    assert classify_point(Point3(x2, x2, x2), params, cat) == 0
    assert classify_point(Point3(0.2, -0.1, 0.0), params, cat) == 0


def test_classify_divergent_point():
    params = Params(-0.4)
    cat = build_catalog(params)
    assert classify_point(Point3(5.0, 5.0, 5.0), params, cat) == DIVERGENT


def test_classify_the_fixed_point_beyond_radius_four():
    params = Params(-20.0)
    fixed = Point3(5.0, 5.0, 5.0)       # beta(-20) = 5, exact in floats
    cat = build_catalog(params, seeds=[fixed])
    assert [a.kind for a in cat] == ["fixed_point"]
    assert classify_point(fixed, params, cat) == 0


def test_chaotic_signature_rows_are_consecutive_states():
    checked = 0
    for b in (-1.864, -2.0):
        for att in build_catalog(Params(b)):
            if att.kind != "chaotic":
                continue
            checked += 1
            sig = att.signature
            assert len(sig) == BasinOptions().signature_samples
            x, y, z = sig[:-1].T
            step = np.stack((y, z, x * x + b), axis=1)
            assert np.array_equal(step.view(np.int64), sig[1:].view(np.int64))
    assert checked


CATALOG_SEEDS = default_seeds() + (
    Point3(0.0, 0.0, 2.0000000000001195),   # state 66 is out at b = -2
    Point3(2.1, -0.3, 0.2),                 # out during the transient
    Point3(5.0, 5.0, 5.0),                  # beta(-20), out elsewhere
    Point3(-0.0, 0.0, -1.5))


@pytest.mark.parametrize("samples", [5, 67, 4096])
@pytest.mark.parametrize("transient", [0, 1, 2, 1000])
def test_catalog_signatures_are_orbit_states_bit_for_bit(transient, samples):
    # the catalog iterates its seeds on the batch engine; each signature
    # must be the states `orbit` records, and a seed must drop exactly
    # where `orbit` raises Diverged
    options = BasinOptions(transient=transient, signature_samples=samples)
    n = max(basins.CYCLE_SEARCH + 1, samples)
    kept = dropped = 0
    for b in (-0.4, -0.8, -1.864, -2.0, -20.0):
        params = Params(b)
        for seed in CATALOG_SEEDS:
            cat = build_catalog(params, seeds=[seed], options=options)
            try:
                probe = np.array(orbit(seed, params, n, transient))
            except Diverged:
                assert cat == [], (b, seed)
                dropped += 1
                continue
            kept += 1
            [att] = cat
            sig = att.signature
            assert len(sig) == (samples if att.kind == "chaotic"
                                else att.period)
            assert np.array_equal(sig.view(np.int64),
                                  probe[:len(sig)].view(np.int64)), (b, seed)
    assert kept and dropped


def test_classify_unmatched_is_undecided():
    # empty catalog: bounded orbits can never match and stay UNDECIDED
    params = Params(-0.4)
    fake = Attractor(id=0, kind="fixed_point", period=1,
                     signature=np.array([[9.0, 9.0, 9.0]]))
    lab = classify_point(Point3(0.1, 0.0, 0.0), params, [fake],
                         BasinOptions(max_iter=200, transient=50))
    assert lab == UNDECIDED


# ---------------------------------------------------------------------------
# grids


def _tiny_spec(n=12):
    return SliceSpec(fixed_axis="z", fixed_value=0.5,
                     u_range=(-1.2, 1.2), v_range=(-1.2, 1.2), nu=n, nv=n)


def test_grid_agrees_with_pointwise_classification():
    # a batch of one is its own mirror class, so every cell of a slice
    # whose centers pair up by sign checks the grouping against the
    # ungrouped engine; b = -1.864 puts three labels on the slice
    spec = _tiny_spec()
    X, Y = np.meshgrid(spec.u_centers(), spec.v_centers())
    rep, _ = basins._mirror_classes(X.ravel(), Y.ravel(),
                                    np.full(X.size, spec.fixed_value))
    assert rep.size == 81 < X.size      # 9 magnitudes of 12 centers per axis
    for b, options in ((-0.4, BasinOptions()), (-1.864, BASIN_CHECK_OPTIONS)):
        params = Params(b)
        cat = build_catalog(params, options=options)
        grid = basin_slice(params, spec, cat, options)
        assert grid.labels.shape == (spec.nv, spec.nu)
        for j in range(spec.nv):
            for i in range(spec.nu):
                p = spec.cell_point(i, j)
                assert grid.labels[j, i] == classify_point(
                    p, params, cat, options), (b, i, j)


def test_grid_threading_is_invisible():
    params = Params(-0.8)
    cat = build_catalog(params)
    spec = _tiny_spec(16)
    a = basin_slice(params, spec, cat, threads=1)
    b = basin_slice(params, spec, cat, threads=3)
    c = basin_slice(params, spec, cat, threads=3)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(b.labels, c.labels)


def test_grid_rejects_degenerate_resolution():
    params = Params(-0.4)
    cat = build_catalog(params)
    with pytest.raises(ValueError):
        basin_slice(params, SliceSpec(nu=1, nv=8), cat)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("axis", range(3))
def test_classify_point_rejects_a_non_finite_start(axis, bad):
    params = Params(-0.4)
    cat = build_catalog(params)
    p = [0.1, -0.2, 0.3]
    p[axis] = bad
    with pytest.raises(ValueError, match="every start must be finite"):
        classify_point(Point3(*p), params, cat)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec", [
    SliceSpec(fixed_value=np.inf, nu=4, nv=4),
    SliceSpec(fixed_value=np.nan, nu=4, nv=4),
], ids=["fixed_inf", "fixed_nan"])
def test_basin_slice_rejects_non_finite_cell_centers(spec, threads):
    params = Params(-0.4)
    cat = build_catalog(params)
    with pytest.raises(ValueError, match="every start must be finite"):
        basin_slice(params, spec, cat, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec", [
    # hi - lo overflows, but every center lies between the finite ends
    SliceSpec(u_range=(-1e308, 1e308), nu=4, nv=4),
    SliceSpec(fixed_axis="x", v_range=(-1e308, 1e308), nu=4, nv=4),
], ids=["u_overflow", "v_overflow"])
def test_basin_slice_centers_stay_finite_where_the_span_overflows(spec,
                                                                 threads):
    # centers far beyond the escape radius, none of them rejected
    params = Params(-0.4)
    grid = basin_slice(params, spec, build_catalog(params), threads=threads)
    assert np.all(grid.labels == DIVERGENT)


def test_cell_centers_are_the_span_formula_bit_for_bit():
    # lo + (i + 0.5)*(hi - lo)/n wherever that is finite: the recipe and
    # benchmark ranges, the default range, and random finite ranges
    rng = np.random.default_rng(27)
    spans = [(-2.0, 2.0), (-2.5, 2.5), (-1.2, 1.2), (-0.5, 0.5),
             (-6.0, 6.0), (-1e305, 1e305), (3e300, -4e300)]
    spans += [tuple(rng.uniform(-5.0, 5.0, size=2)) for _ in range(50)]
    spans += [tuple(rng.choice([-1.0, 1.0], size=2)
                    * 10.0 ** rng.uniform(-300.0, 300.0, size=2))
              for _ in range(50)]
    for lo, hi in spans:
        for n in (2, 3, 7, 100, 400):
            old = lo + (np.arange(n) + 0.5) * (hi - lo) / n
            assert np.isfinite(old).all()
            got = basins._cell_centers((lo, hi), n)
            assert np.array_equal(got.view(np.int64), old.view(np.int64))


@pytest.mark.parametrize("lo, hi, n", [(-1e308, 1e308, 4), (1e308, -1e308, 5),
                                       (-1e308, 7e307, 400),
                                       (-1.7976931348623157e308,
                                        1.7976931348623157e308, 2)])
def test_cell_centers_stay_finite_and_ordered_where_the_span_overflows(
        lo, hi, n):
    with np.errstate(over="ignore"):
        assert not np.isfinite(lo + (np.arange(n) + 0.5) * (hi - lo) / n).all()
    c = basins._cell_centers((lo, hi), n)
    assert np.isfinite(c).all()
    assert np.all(np.diff(c) > 0) if lo < hi else np.all(np.diff(c) < 0)
    assert min(lo, hi) < c.min() and c.max() < max(lo, hi)


def test_minimal_two_by_two_grid():
    params = Params(-0.4)
    cat = build_catalog(params)
    spec = SliceSpec(u_range=(-0.5, 0.5), v_range=(-0.5, 0.5), nu=2, nv=2)
    grid = basin_slice(params, spec, cat)
    assert grid.labels.shape == (2, 2)   # exactly 4 labels emitted


def test_basin_is_open_near_interior_points():
    # basins of attracting sets are open: tiny perturbations of interior
    # points keep the label.  Points near a basin boundary may flip, so
    # demand 95 of 100, not all.
    params = Params(-0.4)
    cat = build_catalog(params)
    rng = np.random.default_rng(11)
    same = 0
    for _ in range(100):
        p = Point3(*rng.uniform(-1.0, 1.0, size=3))
        lab = classify_point(p, params, cat)
        q = Point3(p.x + 1e-9, p.y - 1e-9, p.z + 1e-9)
        same += (classify_point(q, params, cat) == lab)
    assert same >= 95


def test_coexistence_grid_at_minus_1864(basin_grid_b1864):
    grid = basin_grid_b1864
    labs = set(np.unique(grid.labels))
    bounded = {l for l in labs if l >= 0}
    assert len(bounded) >= 2          # coexisting attractors share the slice
    assert DIVERGENT in labs
    # boundary cells with very long chaotic transients may stay unresolved;
    # anything beyond a trace amount means the classifier budget is broken
    undecided = int(np.sum(grid.labels == UNDECIDED))
    assert undecided <= grid.labels.size // 1000


def test_escape_dominates_at_minus_two(basin_grid_b2):
    grid = basin_grid_b2
    labs = set(np.unique(grid.labels))
    assert DIVERGENT in labs
    assert any(l >= 0 for l in labs)  # the chaotic interval survives


# ---------------------------------------------------------------------------
# batch kernels against the plain loops they replace


def _evolve_by_steps(X, Y, Z, b, n_steps, tail_n):
    # the 3D step loop: every cell stepped through T n_steps times, every
    # state tested against the ball, the start state included
    N = X.size
    R = escape_radius(b)
    escaped = (np.abs(X) > R) | (np.abs(Y) > R) | (np.abs(Z) > R)
    tail_n = min(tail_n, n_steps)
    tails = np.zeros((N, tail_n, 3))
    rec0 = n_steps - tail_n
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            X, Y, Z = Y, Z, X * X + b
            escaped |= (np.abs(X) > R) | (np.abs(Y) > R) | (np.abs(Z) > R)
            if k >= rec0:
                i = k - rec0
                tails[:, i, 0] = X
                tails[:, i, 1] = Y
                tails[:, i, 2] = Z
    return escaped, tails


def _match_tails_by_full_query(tails, bounded, attractors, match_tol):
    # every tail sample of every bounded cell against every attractor
    N = tails.shape[0]
    labels = np.full(N, UNDECIDED, dtype=int)
    idx = np.nonzero(bounded)[0]
    if idx.size == 0 or not attractors:
        return labels
    flat = tails[idx].reshape(-1, 3)
    dists = np.empty((len(attractors), idx.size))
    for a_i, att in enumerate(attractors):
        tree = cKDTree(att.signature)
        d, _ = tree.query(flat, k=1, p=np.inf)
        dists[a_i] = d.reshape(idx.size, -1).max(axis=1)
    best = np.argmin(dists, axis=0)
    best_d = dists[best, np.arange(idx.size)]
    ok = best_d < match_tol
    ids = np.array([a.id for a in attractors], dtype=int)
    labels[idx[ok]] = ids[best[ok]]
    return labels


def _start_batch(rng, R):
    """Random starts with signed zeros, tied coordinates, one coordinate at
    a time beyond R, values exactly at R and values that overflow to inf."""
    special = np.array([0.0, -0.0, R, -R, 1.2 * R, -1.5 * R, 1e200, -1e200])
    cols = rng.uniform(-2.2, 2.2, size=(3, 96))
    pick = rng.random((3, 96)) < 0.35
    cols[pick] = rng.choice(special, size=int(pick.sum()))
    cols[1, :12] = cols[0, :12]                 # y tied to x
    cols[2, 12:24] = cols[0, 12:24]             # z tied to x
    cols[:, 24:30] = cols[0, 24:30]             # x = y = z
    cols[:, 30:33] = 0.1
    for r in range(3):                          # only one coordinate beyond R
        cols[r, 30 + r] = 1.2 * R
    cols[:, 33:36] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]]
    return cols


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 4, 7, 32])
def test_scalar_stream_evolve_is_bitwise_the_step_loop(n_steps):
    rng = np.random.default_rng(n_steps)
    # R = 4 down to b = -12, then R = beta: 5 at b = -20, 6 at b = -30
    for b in (-1.864, -2.0, 0.25, -20.0, -30.0):
        X, Y, Z = _start_batch(rng, escape_radius(b))
        every = np.arange(X.size)
        some = np.sort(rng.permutation(X.size)[:40])
        for tail_n in (1, 2, n_steps, n_steps + 5):
            esc, streams = basins._evolve(X, Y, Z, b, n_steps, tail_n)
            esc_ref, tails_ref = _evolve_by_steps(X, Y, Z, b, n_steps, tail_n)
            assert np.array_equal(esc, esc_ref)
            assert streams.samples == tails_ref.shape[1]
            for t in range(streams.samples):
                for cells in (every, some, every[:0]):
                    got = streams.sample(cells, t)
                    assert got.shape == (cells.size, 3)
                    assert np.array_equal(got.view(np.int64),
                                          tails_ref[cells, t].view(np.int64))


@pytest.mark.parametrize("n_steps", [3, 4, 7, 18, 32])
def test_mirror_cells_share_escape_and_tail_from_state_three(n_steps):
    # (-u)*(-u) == u*u in floats and the escape test reads |s_j|, so from
    # state 3 on a cell and its sign flips are bit-equal: the premise of
    # classifying one cell per mirror class
    rng = np.random.default_rng(100 + n_steps)
    for b in (-1.864, -2.0, 0.25, -20.0):
        X, Y, Z = _start_batch(rng, escape_radius(b))
        every = np.arange(X.size)
        for tail_n in (1, 2, 16, n_steps):
            if n_steps - min(tail_n, n_steps) + 1 < 3:
                continue
            esc, streams = basins._evolve(X, Y, Z, b, n_steps, tail_n)
            for sx, sy, sz in itertools.product((1.0, -1.0), repeat=3):
                esc_f, streams_f = basins._evolve(sx * X, sy * Y, sz * Z, b,
                                                  n_steps, tail_n)
                assert np.array_equal(esc, esc_f)
                for t in range(streams.samples):
                    assert np.array_equal(
                        streams.sample(every, t).view(np.int64),
                        streams_f.sample(every, t).view(np.int64))


def test_mirror_classes_group_by_magnitude_bits():
    rng = np.random.default_rng(8)
    X, Y, Z = _start_batch(rng, 4.0)
    rep, inv = basins._mirror_classes(X, Y, Z)
    mags = np.abs(np.stack((X, Y, Z), axis=1)).view(np.int64)
    same = (mags[:, None] == mags[None, :]).all(axis=2)
    assert np.array_equal(same, inv[:, None] == inv[None, :])
    assert np.array_equal(inv[rep], np.arange(rep.size))
    assert rep.size < X.size            # signed zeros and ties pair up


@pytest.mark.parametrize("max_iter, first", [(2, 1), (17, 2), (18, 3)])
def test_a_tail_before_state_three_keeps_mirror_cells_apart(max_iter, first):
    # state k reads s_k, s_{k+1}, s_{k+2}, and s_r is coordinate r of the
    # start: a tail from state `first` < 3 sees the sign of coordinates
    # first .. 2.  The catalog is the tail of the all-positive cell, so a
    # flip of a coordinate it sees leaves that cell undecided
    params = Params(-2.0)
    options = BasinOptions(max_iter=max_iter, transient=0, match_tol=1e-9)
    p = np.array([[0.1], [0.2], [0.3]])
    _, streams = basins._evolve(*p, params.b, max_iter, basins.TAIL_SAMPLES)
    assert streams.first == first
    sig = np.concatenate([streams.sample(np.array([0]), t)
                          for t in range(streams.samples)])
    cat = (Attractor(id=0, kind="chaotic", period=None, signature=sig),)
    flips = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    X, Y, Z = flips.T * p
    labels = basins._classify_batch(X, Y, Z, params.b, cat, options)
    seen = (flips[:, first:] < 0).any(axis=1)
    assert np.array_equal(labels, np.where(seen, UNDECIDED, 0))
    for k in range(len(flips)):
        assert labels[k] == classify_point(Point3(X[k], Y[k], Z[k]), params,
                                           cat, options)


class _TensorTails:
    """A full (cells, samples, 3) tail tensor behind the per-sample gather
    that `basins._match_tails` reads."""

    def __init__(self, tails):
        self.tails = tails
        self.samples = tails.shape[1]

    def sample(self, cells, t):
        return self.tails[cells, t]


def _point_attractor(id_, pt):
    return Attractor(id=id_, kind="fixed_point", period=1,
                     signature=np.array([pt], dtype=float))


def test_early_stop_matcher_edge_cases_match_the_full_query():
    # sample 0 sits at sup-distance exactly 0.25 from attractor 0, sample
    # 1 at exactly 0.25 from attractor 1; cell 2 is equidistant (0.125)
    # from attractors 2 and 3, so the first in catalog order must win
    cats = [_point_attractor(7, (0.25, 0.0, 0.0)),
            _point_attractor(4, (0.0, 0.0, -0.25)),
            _point_attractor(9, (1.0, 1.125, 1.0)),
            _point_attractor(2, (1.0, 0.875, 1.0))]
    tails = np.array([
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.25, 0.0, 0.0], [0.25, 0.0, 0.0]],
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
        [[5.0, 5.0, 5.0], [0.25, 0.0, 0.0]],
    ])
    bounded = np.ones(4, dtype=bool)
    for tol in (0.125, 0.25, 0.2500000001, 0.5, np.inf):
        for cat in (cats, cats[::-1], cats[:1], []):
            for mask in (bounded, np.zeros(4, dtype=bool),
                         np.array([True, False, True, False])):
                got = basins._match_tails(_TensorTails(tails), mask,
                                          tuple(cat), tol)
                ref = _match_tails_by_full_query(tails, mask, tuple(cat), tol)
                assert np.array_equal(got, ref), (tol, len(cat), mask)
    labels = basins._match_tails(_TensorTails(tails), bounded, tuple(cats),
                                 0.25)
    assert labels[0] == UNDECIDED       # exactly at the tolerance is out
    assert labels[2] == 9               # tie: the first attractor wins


def test_early_stop_matcher_random_clouds_match_the_full_query():
    rng = np.random.default_rng(5)
    cats = tuple(Attractor(id=k, kind="chaotic", period=None,
                           signature=c + rng.normal(0, 0.3, size=(200, 3)))
                 for k, c in enumerate(([0, 0, 0], [0.4, 0.4, 0.4],
                                        [-0.5, 0.2, 0.1])))
    tails = rng.normal(0, 0.5, size=(500, 16, 3))
    bounded = rng.random(500) < 0.9
    for tol in (0.02, 0.1, 0.3, 1.0, np.inf):
        got = basins._match_tails(_TensorTails(tails), bounded, cats, tol)
        ref = _match_tails_by_full_query(tails, bounded, cats, tol)
        assert np.array_equal(got, ref), tol


def _hausdorff_sup_by_full_query(A, B):
    # every point of each set against the other set, unbounded
    da = cKDTree(B).query(A, k=1, p=np.inf)[0].max()
    db = cKDTree(A).query(B, k=1, p=np.inf)[0].max()
    return max(da, db)


def test_bounded_hausdorff_test_matches_the_full_query():
    # subsets make the two directions differ: A[:40] is within 0 of A, but
    # A has points far from A[:40]
    rng = np.random.default_rng(3)
    A = rng.normal(0, 0.5, size=(300, 3))
    sets = (A, A[:40], A + 0.01, np.vstack([A, [[3.0, 0.0, 0.0]]]),
            rng.normal(0, 0.5, size=(200, 3)))
    for P in sets:
        for Q in sets:
            h = _hausdorff_sup_by_full_query(P, Q)
            for tol in (0.0, h, np.nextafter(h, np.inf), 0.05, 0.3, 5.0,
                        np.inf):
                assert basins._within_hausdorff(cKDTree(P), cKDTree(Q),
                                                tol) == (h < tol)


def _within_hausdorff_by_distance_matrix(A, B, tol):
    # both directions in full: every sup-distance of every pair of points
    d = np.abs(A[:, None, :] - B[None, :, :]).max(axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max()) < tol


def test_chunked_hausdorff_test_matches_both_full_directions():
    # sizes off the chunk grid, far points in late chunks of either
    # direction, near duplicates, and a point exactly at the tolerance
    c = basins.HAUSDORFF_CHUNK
    rng = np.random.default_rng(11)
    A = np.round(rng.uniform(-2, 2, size=(2 * c + 37, 3)) * 2 ** 20) / 2 ** 20
    tol = 2.0 ** -10
    at_tol = A.copy()
    at_tol[2 * c + 5, 1] += tol         # exact: A is on a 2**-20 grid
    far_late = np.vstack([A, [[3.0, 0.0, 0.0]]])
    cases = [
        (A, A[::-1].copy(), True),
        (A, A + rng.uniform(-1e-7, 1e-7, size=A.shape), True),
        (A, at_tol, False),
        (at_tol, A, False),
        (A, far_late, False),
        (far_late, A, False),
        (A[:c + 1], A, False),          # A has points far from A[:c + 1]
        (A, A[:c + 1], False),
        (A[:c + 1], A[:c + 1] + 1e-7, True),
        (rng.normal(0, 0.5, size=(c - 3, 3)),
         rng.normal(0, 0.5, size=(3 * c + 1, 3)), None),
    ]
    for P, Q, want in cases:
        if want is not None:
            assert _within_hausdorff_by_distance_matrix(P, Q, tol) == want
        for t in (tol, 1e-6, 0.3, 1.0):
            assert basins._within_hausdorff(cKDTree(P), cKDTree(Q), t) == \
                _within_hausdorff_by_distance_matrix(P, Q, t)


@pytest.mark.parametrize("fixed_axis", ["x", "y", "z"])
def test_slice_labels_match_the_reference_kernels(monkeypatch, fixed_axis):
    params = Params(-1.864)
    options = BasinOptions(max_iter=300, transient=100, signature_samples=1024,
                           match_tol=0.3)
    cat = build_catalog(params, options=options)
    spec = SliceSpec(fixed_axis=fixed_axis, fixed_value=0.5,
                     u_range=(-2.0, 2.0), v_range=(-2.0, 2.0), nu=24, nv=20)
    grid = basin_slice(params, spec, cat, options)
    monkeypatch.setattr(basins, "_evolve", _evolve_by_steps)
    monkeypatch.setattr(basins, "_match_tails", _match_tails_by_full_query)
    ref = basin_slice(params, spec, cat, options)
    assert np.array_equal(grid.labels, ref.labels)
    assert len({int(v) for v in np.unique(ref.labels)}) >= 3


@pytest.mark.parametrize("kwargs, field", [
    ({"match_tol": float("inf")}, "match_tol"),
    ({"max_iter": -1}, "max_iter"),
    ({"transient": -1}, "transient"),
    ({"max_iter": 0, "transient": 0}, "max_iter + transient"),
    ({"signature_samples": 0}, "signature_samples"),
    ({"match_tol": 0.0}, "match_tol"),
    ({"match_tol": -0.25}, "match_tol"),
    ({"match_tol": float("nan")}, "match_tol"),
])
def test_options_reject_empty_tails(kwargs, field):
    with pytest.raises(ValueError, match=field.replace("+", r"\+")):
        BasinOptions(**kwargs)


@pytest.mark.parametrize("b, options", [(-1.864, BASIN_CHECK_OPTIONS),
                                        (-1.3, BasinOptions())])
def test_slice_traced_peak_stays_below_3mb(b, options):
    # tail samples are gathered per sample from the stream table: the
    # (cells, TAIL_SAMPLES, 3) tail tensor alone would be 3.84 MB here
    assert basins.TAIL_SAMPLES == 16
    params = Params(b)
    cat = build_catalog(params, options=options)
    spec = SliceSpec(nu=100, nv=100)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        basin_slice(params, spec, cat, options)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 3e6


# ---------------------------------------------------------------------------
# rendering


def test_render_header_and_size():
    params = Params(-0.4)
    cat = build_catalog(params)
    spec = _tiny_spec(8)
    grid = basin_slice(params, spec, cat)
    blob = render_grid(grid.labels)
    assert blob.startswith(b"P6\n8 8\n255\n")
    assert len(blob) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3


def test_render_is_deterministic():
    params = Params(-0.8)
    cat = build_catalog(params)
    grid = basin_slice(params, _tiny_spec(8), cat)
    assert render_grid(grid.labels) == render_grid(grid.labels)


def test_render_rejects_missing_palette_entry():
    # a label read from an outside CSV may be one no grid produces
    spec = SliceSpec(u_range=(0, 1), v_range=(0, 1), nu=2, nv=2)
    labels = np.array([[0, UNDECIDED], [-5, DIVERGENT]])
    grid = BasinGrid(b=-2.0, spec=spec, labels=labels, attractors=(),
                     options=BasinOptions())
    with pytest.raises(PaletteMissingLabel, match="label -5"):
        render_grid(grid.labels)


def test_render_crafted_grid_has_three_colors():
    spec = SliceSpec(u_range=(0, 1), v_range=(0, 1), nu=2, nv=2)
    labels = np.array([[0, 0], [1, DIVERGENT]])
    grid = BasinGrid(b=-2.0, spec=spec, labels=labels, attractors=(),
                     options=BasinOptions())
    blob = render_grid(grid.labels)
    assert blob.startswith(b"P6\n2 2\n255\n")
    body = blob[len(b"P6\n2 2\n255\n"):]
    pixels = {body[k:k + 3] for k in range(0, 12, 3)}
    assert len(pixels) == 3
