"""Command-line front end.

One subcommand per capability; every run echoes its parsed configuration
to stderr and embeds it in JSON outputs, so any file can be traced back
to the exact invocation.  Exit codes: 0 success, 1 usage error, 2
computation error (divergence, no event in bracket, failed lift check,
...) or an input file that does not hold what it should (a basin CSV that
does not list each grid cell once).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bifurcations, basins, critical, cycles, serialize
from .core import Params, Point3, orbit
from .errors import ToolkitError
from .lyapunov import lyapunov_spectrum

VERSION = "0.1.0"


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1 (argparse's default is 2, which we reserve
    for computation errors).  The negative-number matcher is widened so
    comma tuples like -1.8,-1.75 parse as values, not flags.  A flag must
    be spelled in full: a prefix such as `--trans` is a usage error, so a
    flag later renamed to a longer name does not keep the old one alive."""

    def __init__(self, *a, **kw):
        super().__init__(*a, allow_abbrev=False, **kw)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# flag value parsers


def _finite(text):
    """The float `text` spells, if it is finite; argparse puts the flag's
    name in front of the error."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return v


def _floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{what} needs {n} comma-separated values")
    return tuple(_finite(v) for v in parts)


def _triple(text):
    return _floats(text, 3, "point")


def _pair(text):
    return _floats(text, 2, "range")


def _int_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("resolution needs NU,NV")
    return tuple(int(v) for v in parts)


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _axis_value(text):
    axis, _, value = text.partition("=")
    if axis not in ("x", "y", "z") or not value:
        raise argparse.ArgumentTypeError("slice must look like z=0.5")
    return axis, _finite(value)


def _seed_list(text):
    return tuple(_floats(part, 3, "seed") for part in text.split(";") if part)


# ---------------------------------------------------------------------------
# helpers


def _echo(cfg):
    print("config: " + json.dumps(cfg), file=sys.stderr)


def _deliver(text, out):
    if out:
        serialize.save_text(out, text)
    else:
        serialize.write_text(sys.stdout, text)


def _cycles3d_payload(b, cfg, found):
    return {
        "b": b,
        "config": cfg,
        "count": len(found),
        "cycles": [serialize.cycle3d_payload(c) for c in found],
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fixed_points(args):
    cfg = {"subcommand": "fixed-points", "b": args.b}
    _echo(cfg)
    pair = cycles.fixed_points_T(Params(args.b))
    _deliver(serialize.dumps_17g(_cycles3d_payload(args.b, cfg, list(pair))),
             args.out)
    return 0


def _cmd_cycles_1d(args):
    cfg = {"subcommand": "cycles-1d", "b": args.b, "period": args.period}
    _echo(cfg)
    found = cycles.find_cycles_1d(Params(args.b), args.period)
    _deliver(serialize.cycles1d_csv(found), args.out)
    return 0


def _cmd_lift(args):
    periods = args.periods
    if not 1 <= len(periods) <= 3:
        raise ValueError("--periods takes 1, 2, or 3 comma-separated periods")
    if args.times3 and len(periods) != 1:
        raise ValueError("--times3 applies to a single period")
    cfg = {"subcommand": "lift", "b": args.b, "periods": list(periods),
           "times3": bool(args.times3)}
    _echo(cfg)
    by_p = {n: cycles.find_cycles_1d(Params(args.b), n) for n in set(periods)}
    if len(periods) > 1:
        found = cycles.mixed_lifts(by_p, periods)
    elif args.times3:
        found = [c for X in by_p[periods[0]]
                 for c in cycles.lift_homogeneous_3n(X)]
    else:
        found = [cycles.lift_homogeneous(X) for X in by_p[periods[0]]]
    # census's order: every run lists cycles of one period
    found.sort(key=lambda c: c.stream)
    _deliver(serialize.dumps_17g(_cycles3d_payload(args.b, cfg, found)),
             args.out)
    return 0


def _cmd_census(args):
    cfg = {"subcommand": "census", "b": args.b, "period": args.period}
    _echo(cfg)
    found = cycles.census(Params(args.b), args.period)
    homog = sum(1 for c in found
                if c.provenance.kind.startswith("homogeneous"))
    payload = {
        "b": args.b,
        "period": args.period,
        "config": cfg,
        "counts": {"total": len(found), "homogeneous": homog,
                   "mixed": len(found) - homog},
        "cycles": [serialize.cycle3d_payload(c) for c in found],
    }
    _deliver(serialize.dumps_17g(payload), args.out)
    return 0


def _cmd_bifurcations(args):
    cfg = {"subcommand": "bifurcations", "kind": args.kind,
           "period": args.period, "bracket": list(args.bracket)}
    _echo(cfg)
    if args.kind == "transcritical":
        ev = bifurcations.find_transcritical(args.bracket)
    elif args.kind == "fold":
        ev = bifurcations.find_fold(args.period, args.bracket)
    else:
        ev = bifurcations.find_flip(args.period, args.bracket)
    _deliver(serialize.events_csv([ev]), args.out)
    return 0


def _cmd_diagram(args):
    cfg = {"subcommand": "diagram", "b_min": args.b_min, "b_max": args.b_max,
           "steps": args.steps, "transient": args.transient,
           "samples": args.samples, "x0": list(args.x0)}
    _echo(cfg)
    ds = bifurcations.bifurcation_diagram(
        (args.b_min, args.b_max), args.steps, p0=Point3(*args.x0),
        transient=args.transient, samples=args.samples)
    for row in ds.rows:
        if row.samples is None:
            print(f"quadshift: diagram: orbit diverged at "
                  f"b={serialize.fmt(row.b)} (row omitted)", file=sys.stderr)
    _deliver(serialize.diagram_csv(ds), args.out)
    return 0


def _cmd_lyapunov(args):
    cfg = {"subcommand": "lyapunov", "b": args.b, "x0": list(args.x0),
           "iters": args.iters, "transient": args.transient}
    _echo(cfg)
    res = lyapunov_spectrum(Point3(*args.x0), Params(args.b),
                            n_iter=args.iters, transient=args.transient)
    _deliver(serialize.lyapunov_csv([res]), args.out)
    return 0


def _cmd_critical_planes(args):
    if args.k_max < -1:
        raise ValueError("--k-max must be >= -1")
    cfg = {"subcommand": "critical-planes", "b": args.b, "k_max": args.k_max}
    _echo(cfg)
    params = Params(args.b)
    planes = [critical.critical_plane(k, params)
              for k in range(-1, args.k_max + 1)]
    _deliver(serialize.planes_csv(planes), args.out)
    return 0


def _cmd_preimages(args):
    cfg = {"subcommand": "preimages", "b": args.b, "point": list(args.point)}
    _echo(cfg)
    params = Params(args.b)
    p = Point3(*args.point)
    pres = critical.preimages(p, params)
    payload = {
        "b": args.b,
        "config": cfg,
        "point": list(p),
        "zone": critical.zone_of(p, params),
        "region": critical.region_of(p),
        "count": len(pres),
        "preimages": [{"point": list(q.point),
                       "region": q.region} for q in pres],
    }
    _deliver(serialize.dumps_17g(payload), args.out)
    return 0


def _cmd_orbit(args):
    cfg = {"subcommand": "orbit", "b": args.b, "x0": list(args.x0),
           "n": args.n, "transient": args.transient}
    _echo(cfg)
    pts = orbit(Point3(*args.x0), Params(args.b), args.n,
                transient=args.transient)
    _deliver(serialize.orbit_csv(pts), args.out)
    return 0


def _meta_path(csv_path):
    return Path(csv_path).with_suffix(".meta.json")


def _cmd_basin(args):
    axis, value = args.slice
    cfg = {"subcommand": "basin", "b": args.b, "slice": f"{axis}={value}",
           "u_range": list(args.u_range), "v_range": list(args.v_range),
           "res": list(args.res), "max_iter": args.max_iter,
           "transient": args.transient,
           "signature_samples": args.signature_samples,
           "match_tol": args.match_tol, "merge_tol": basins.MERGE_TOL,
           "tail_samples": basins.TAIL_SAMPLES,
           "seeds": [list(t) for t in args.seeds] if args.seeds else None}
    _echo(cfg)
    params = Params(args.b)
    spec = basins.SliceSpec(fixed_axis=axis, fixed_value=value,
                            u_range=args.u_range, v_range=args.v_range,
                            nu=args.res[0], nv=args.res[1])
    opts = basins.BasinOptions(max_iter=args.max_iter,
                               transient=args.transient,
                               signature_samples=args.signature_samples,
                               match_tol=args.match_tol)
    seeds = ([Point3(*t) for t in args.seeds] if args.seeds
             else basins.default_seeds())
    catalog = basins.build_catalog(params, seeds, opts)
    grid = basins.basin_slice(params, spec, catalog, opts)
    meta = serialize.basin_sidecar(grid)
    meta["seeds"] = [list(s) for s in seeds]
    meta["config"] = cfg
    meta_text = serialize.dumps_17g(meta)   # raises before any file is written
    serialize.save_text(args.out, serialize.basin_csv(grid))
    serialize.save_text(_meta_path(args.out), meta_text)
    if args.ppm:
        serialize.save_bytes(args.ppm, basins.render_grid(grid.labels))
    kinds = ", ".join(f"#{a.id} {a.kind}" + (f"(p{a.period})" if a.period else "")
                      for a in catalog) or "none"
    print(f"quadshift: basin: {len(catalog)} attractor(s): {kinds}",
          file=sys.stderr)
    return 0


def _grid_size(meta_path):
    """The (nu, nv) that a basin sidecar's "slice" records; a ValueError
    says what the file lacks."""
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    sl = meta.get("slice") if isinstance(meta, dict) else None
    size = [sl.get(k) for k in ("nu", "nv")] if isinstance(sl, dict) else ()
    if len(size) != 2 or not all(type(n) is int and n >= 1 for n in size):
        raise ValueError(f'{meta_path} must hold a "slice" with positive '
                         f'integers "nu" and "nv"')
    return size


def _label_array(csv, nu, nv):
    """The (nv, nu) label array of a basin CSV that lists each grid cell
    once; a ValueError says how the file falls short of that."""
    try:
        with warnings.catch_warnings():     # a header-only file is reported below
            warnings.simplefilter("ignore", UserWarning)
            cells = np.loadtxt(csv, delimiter=",", skiprows=1,
                               usecols=(0, 1, 4), dtype=int, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{csv}: {exc}") from None
    must = f"{csv} must list each cell of the {nu}x{nv} grid once"
    # checked before the per-cell counts, whose length the sidecar alone sets
    if len(cells) != nu * nv:
        raise ValueError(f"{must}: it has {len(cells)} rows")
    i, j, lab = cells.T
    inside = (i >= 0) & (i < nu) & (j >= 0) & (j < nv)
    counts = np.bincount(j[inside] * nu + i[inside], minlength=nu * nv)
    if not inside.all() or (counts != 1).any():
        raise ValueError(f"{must}: {int((counts == 0).sum())} missing, "
                         f"{int((counts > 1).sum())} repeated, "
                         f"{int((~inside).sum())} outside it")
    labels = np.empty((nv, nu), dtype=int)
    labels[j, i] = lab
    return labels


def _cmd_render(args):
    cfg = {"subcommand": "render", "csv": str(args.csv), "out": str(args.out)}
    _echo(cfg)
    try:
        labels = _label_array(args.csv, *_grid_size(_meta_path(args.csv)))
    except ValueError as exc:
        print(f"quadshift: error: render: {exc}", file=sys.stderr)
        return 2
    serialize.save_bytes(args.out, basins.render_grid(labels))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="quadshift",
                     description="Orbits, bifurcations, Lyapunov spectra and "
                                 "basins of the shift-with-quadratic-kick map "
                                 "(x,y,z) -> (y,z,x^2+b).")
    parser.add_argument("--version", action="version",
                        version=f"quadshift {VERSION}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                required=True)

    def cmd(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = cmd("fixed-points", _cmd_fixed_points,
            "the two fixed points with stability (JSON)")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--out")

    p = cmd("cycles-1d", _cmd_cycles_1d,
            "periodic points of the scalar kick map (CSV), one search per "
            "lap of H^n over [-beta, beta], beta the larger fixed point")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--out")

    p = cmd("lift", _cmd_lift,
            "lift scalar cycles to 3D cycles (JSON); one period lifts "
            "homogeneously, two or three lift every coexisting combination")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--periods", type=_int_list, required=True,
                   help="comma list, e.g. 2 or 1,2 or 1,1,2")
    p.add_argument("--times3", action="store_true",
                   help="triple-period lifts of a single scalar cycle")
    p.add_argument("--out")

    p = cmd("census", _cmd_census,
            "all 3D cycles of one period, grouped by construction (JSON); "
            "scalar cycles are searched as for cycles-1d")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--out")

    p = cmd("bifurcations", _cmd_bifurcations,
            "locate a fold/flip/transcritical event in a parameter bracket "
            "(CSV), starting from the cycles found at each end as for "
            "cycles-1d")
    p.add_argument("--kind", choices=("fold", "flip", "transcritical"),
                   required=True)
    p.add_argument("--period", type=int, default=1)
    p.add_argument("--bracket", type=_pair, required=True,
                   help="parameter bracket LO,HI")
    p.add_argument("--out")

    p = cmd("diagram", _cmd_diagram, "orbit diagram over a parameter sweep (CSV)")
    p.add_argument("--b-min", type=_finite, required=True)
    p.add_argument("--b-max", type=_finite, required=True)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--transient", type=int, default=1000)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--x0", type=_triple, default=(0.0, -0.5, 0.0))
    p.add_argument("--out")

    p = cmd("lyapunov", _cmd_lyapunov, "Lyapunov spectrum along one orbit (CSV)")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--x0", type=_triple, default=(0.1, -0.55, 0.3))
    p.add_argument("--iters", type=int, default=1_000_000)
    p.add_argument("--transient", type=int, default=10_000)
    p.add_argument("--out")

    p = cmd("critical-planes", _cmd_critical_planes,
            "forward images of the fold plane (CSV)")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--out")

    p = cmd("preimages", _cmd_preimages,
            "rank-one preimages of a point with zone/region tags (JSON)")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--point", type=_triple, required=True)
    p.add_argument("--out")

    p = cmd("orbit", _cmd_orbit, "iterate one start and dump the orbit (CSV)")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--x0", type=_triple, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--transient", type=int, default=0)
    p.add_argument("--out")

    p = cmd("basin", _cmd_basin,
            "classify a 2D slice of starts into basins (CSV + JSON sidecar)")
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--slice", type=_axis_value, default=("z", 0.5),
                   help="fixed axis, e.g. z=0.5")
    p.add_argument("--u-range", type=_pair, default=(-2.5, 2.5))
    p.add_argument("--v-range", type=_pair, default=(-2.5, 2.5))
    p.add_argument("--res", type=_int_pair, default=(200, 200),
                   help="grid resolution NU,NV")
    p.add_argument("--seeds", type=_seed_list, default=None,
                   help="catalog seeds x,y,z;x,y,z;... (default: built-in)")
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--transient", type=int, default=1000)
    p.add_argument("--signature-samples", type=int, default=512)
    p.add_argument("--match-tol", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--ppm", help="also render the label grid to this PPM file")

    p = cmd("render", _cmd_render,
            "re-render a basin CSV (+sidecar) to a PPM image")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"quadshift: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"quadshift: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"quadshift: error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of `python -m quadshift` and the `quadshift`
    script: freeze the heap the imports left, then run `main`.

    The imports leave some 45k objects of numpy and scipy that the
    garbage collector tracks; every full collection walks them again,
    and interpreter shutdown runs several.  Frozen, no later collection
    visits them.  `main(argv)` is the in-process call and leaves the
    collector as it found it."""
    gc.freeze()
    return main()
