"""Traced in-process replay of a workload: the per-layer table.

The jobs are replayed in this process through `quadshift.cli.main(argv)`,
the same code path and the same output files as the subprocess runs.
Passes alternate: one untraced, one traced.  During a traced pass the
public functions the CLI reaches in each module are wrapped from outside
(module attributes swapped and restored afterwards; no package code
changes), and every call records one span: name, layer, start, end,
parent span and job.  Each job also gets a root span.  Spans stay in
memory; when the run ends the table is computed from them, and the first
traced pass's spans are written to `.bench_out/spans_<workload>_<seed>.jsonl`.

A layer is a module.  Its self time is the time of its spans minus the
time their child spans cover; its share is self time over the traced
pass's wall time.  Tracing overhead is the traced pass's wall time over
the untraced pass's, minus one.

After the replay, the run takes the fixed-input rows of the ROADMAP's
baseline table that belong to its workload, untraced, once each.  The
`tables` run also re-measures the cheapest of the known defects
(`KNOWN_DEFECTS`), which its own jobs avoid.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracles
from workloads import SRC, job_failures, last_line, quadshift_env

LAYERS = ("cli", "cycles", "bifurcations", "core", "lyapunov", "critical",
          "basins", "serialize")
STATIONS = ("b1864", "b2", "b13")
FORMATS = ("json", "cycles1d_csv", "diagram_csv", "orbit_csv", "basin_csv",
           "write")
IMPORT_SAMPLES = 3
# the ToolkitError classes each layer's wrapped functions can raise,
# their own and those of the core helpers they call unwrapped; a class
# not listed here is counted as `errors.unlisted`
LAYER_ERRORS = {
    "cycles": ("LiftValidationFailed", "CountMismatch", "NoRealFixedPoints",
               "PeriodDivisibleBy3", "Overflow"),
    "bifurcations": ("NoEventInBracket", "BranchLost", "Diverged",
                     "Overflow"),
    "core": ("Diverged", "Overflow"),
    "lyapunov": ("Diverged",),
    "basins": ("PaletteMissingLabel",),
}

# calls at b <= -2 whose oracle holds (necklace(n) real scalar cycles,
# necklace(p) 3D orbits) and which the program fails: (function, b, n,
# what it gave on the recording host, seconds it took there).  The
# traced `tables` run re-measures the first TRACED_DEFECTS of them;
# record.py measures all of them.
KNOWN_DEFECTS = (
    ("find_cycles_1d", -2.3, 12, "329 of 335 cycles", 1.8),
    ("census", -2.1, 11, "LiftValidationFailed, gap 1.32e-10", 1.0),
    ("find_cycles_1d", -2.0, 13, "629 of 630 cycles", 9.0),
    ("census", -2.1, 13, "LiftValidationFailed, gap 1.39e-10", 5.1),
    ("census", -2.1, 14, "LiftValidationFailed, gap 1.73e-8", 9.7),
    ("census", -2.0, 14, "LiftValidationFailed, gap 1.21e-10", 26.0),
)
TRACED_DEFECTS = 2

# every metric a traced run reports, in order; a layer or station the
# workload never reaches reports 0
PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "share")]
    + ["cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s",
       "cycles.find_cycles_1d_s", "cycles.find_cycles_1d_calls",
       "cycles.scalar_found", "cycles.scalar_expected",
       "cycles.census_s", "cycles.census_orbits",
       "cycles.lift_s", "cycles.lift_orbits",
       "cycles.classify_stability_s", "cycles.cycle3d_key_s"]
    + [f"{layer}.errors.{cls}" for layer, classes in LAYER_ERRORS.items()
       for cls in classes]
    + ["errors.unlisted",
       "bifurcations.locate_s", "bifurcations.diagram_s",
       "bifurcations.diagram_steps_per_s",
       "core.orbit_s", "core.orbit_steps_per_s",
       "lyapunov.spectrum_s", "lyapunov.steps_per_s",
       "critical.s",
       "basins.catalog_s", "basins.render_s", "basins.slice_s.threads2"]
    + [f"basins.{kind}.{st}" for st in STATIONS
       for kind in ("slice_s", "cells_per_s", "undecided_frac",
                    "divergent_frac")]
    + [f"serialize.{kind}.{fmt}" for fmt in FORMATS for kind in ("s", "bytes")]
    + ["roadmap.find_cycles_1d_n12_s", "roadmap.census_p18_s",
       "roadmap.lyapunov_1e5_s", "roadmap.diagram_200_s",
       "roadmap.basin_slice_100_s",
       "trace.overhead_frac", "trace.replay_s", "trace.traced_replay_s",
       "trace.spans", "failed_frac",
       "defects.scalar_missing", "defects.census_failed"]
)


def unit_of(name: str) -> str:
    qualifiers = STATIONS + FORMATS + ("threads2",)
    kind = next(p for p in reversed(name.split(".")) if p not in qualifiers)
    if kind.endswith("_per_s"):
        return "1/s"
    if kind.endswith("_s") or kind == "s":
        return "s"
    if kind == "bytes":
        return "B"
    if kind.endswith(("share", "_frac")):
        return "1"
    return "count"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int         # index into Tracer.spans, -1 for a job's root
    job: str


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = ""
        self.counts = Counter()
        self.census_results: list = []

    def call(self, layer: str, name: str, fn, args, kwargs, on_result=None):
        span = Span(name, layer, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, self.job)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # count a package error once, at the innermost span it left
            if type(exc).__module__ == "quadshift.errors" and \
                    not getattr(exc, "_bench_counted", False):
                key = f"{layer}.errors.{type(exc).__name__}"
                self.counts[key if key in PER_LAYER else "errors.unlisted"] += 1
                exc._bench_counted = True
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        if on_result is not None:
            on_result(self, span, result, args, kwargs)
        return result


# ---------------------------------------------------------------------------
# what gets wrapped, and what each call adds to the counters


def _on_find(tr, span, res, args, kwargs):
    params, n = args[0], args[1]
    tr.counts["cycles.find_cycles_1d_calls"] += 1
    if params.b <= -2.0:
        tr.counts["cycles.scalar_found"] += len(res)
        tr.counts["cycles.scalar_expected"] += oracles.necklace(n)


def _on_census(tr, span, res, args, kwargs):
    tr.counts["cycles.census_orbits"] += len(res)
    tr.census_results.append((args[0].b, res))


def _on_lift(tr, span, res, args, kwargs):
    tr.counts["cycles.lift_orbits"] += len(res) if isinstance(res, list) else 1


def _on_diagram(tr, span, res, args, kwargs):
    per_b = kwargs.get("transient", 1000) + kwargs.get("samples", 200)
    tr.counts["bifurcations.diagram_steps"] += per_b * sum(
        1 for row in res.rows if row.samples is not None)


def _on_orbit(tr, span, res, args, kwargs):
    tr.counts["core.orbit_steps"] += args[2] + kwargs.get("transient", 0)


def _on_spectrum(tr, span, res, args, kwargs):
    tr.counts["lyapunov.steps"] += kwargs["n_iter"] + kwargs["transient"]


def _on_slice(tr, span, res, args, kwargs):
    station = tr.job.removeprefix("basin_")
    labels = res.labels
    tr.counts[f"basins.cells.{station}"] += labels.size
    tr.counts[f"basins.undecided.{station}"] += int((labels == -2).sum())
    tr.counts[f"basins.divergent.{station}"] += int((labels == -1).sum())


def _on_text(tr, span, res, args, kwargs):
    tr.counts[f"serialize.bytes.{span.name.split('.')[-1]}"] += len(res)


def _on_write(tr, span, res, args, kwargs):
    tr.counts["serialize.bytes.write"] += len(args[1])


# (module, attribute, layer, span name, hook).  `find_cycles_1d` is also
# reached through the name bifurcations imported, `orbit` and
# `lyapunov_spectrum` through the names the CLI imported.
WRAPPED = (
    ("cycles", "find_cycles_1d", "cycles", "find_cycles_1d", _on_find),
    ("bifurcations", "find_cycles_1d", "cycles", "find_cycles_1d", _on_find),
    ("cycles", "census", "cycles", "census", _on_census),
    ("cycles", "lift_homogeneous", "cycles", "lift", _on_lift),
    ("cycles", "lift_homogeneous_3n", "cycles", "lift", _on_lift),
    ("cycles", "lift_mixed_pair", "cycles", "lift", _on_lift),
    ("cycles", "lift_mixed_triple", "cycles", "lift", _on_lift),
    ("bifurcations", "find_fold", "bifurcations", "locate", None),
    ("bifurcations", "find_flip", "bifurcations", "locate", None),
    ("bifurcations", "find_transcritical", "bifurcations", "locate", None),
    ("bifurcations", "bifurcation_diagram", "bifurcations", "diagram",
     _on_diagram),
    ("cli", "orbit", "core", "orbit", _on_orbit),
    ("cli", "lyapunov_spectrum", "lyapunov", "spectrum", _on_spectrum),
    ("critical", "critical_plane", "critical", "critical", None),
    ("critical", "preimages", "critical", "critical", None),
    ("critical", "zone_of", "critical", "critical", None),
    ("critical", "region_of", "critical", "critical", None),
    ("basins", "build_catalog", "basins", "catalog", None),
    ("basins", "basin_slice", "basins", "slice", _on_slice),
    ("basins", "render_grid", "basins", "render", None),
    ("serialize", "dumps_17g", "serialize", "format.json", _on_text),
    ("serialize", "cycle3d_payload", "serialize", "format.json", None),
    ("serialize", "basin_sidecar", "serialize", "format.json", None),
    ("serialize", "cycles1d_csv", "serialize", "format.cycles1d_csv", _on_text),
    ("serialize", "diagram_csv", "serialize", "format.diagram_csv", _on_text),
    ("serialize", "orbit_csv", "serialize", "format.orbit_csv", _on_text),
    ("serialize", "basin_csv", "serialize", "format.basin_csv", _on_text),
    ("serialize", "events_csv", "serialize", "format.events_csv", _on_text),
    ("serialize", "planes_csv", "serialize", "format.planes_csv", _on_text),
    ("serialize", "lyapunov_csv", "serialize", "format.lyapunov_csv",
     _on_text),
    ("serialize", "save_text", "serialize", "format.write", _on_write),
    ("serialize", "save_bytes", "serialize", "format.write", _on_write),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    saved = []
    for mod_name, attr, layer, name, hook in WRAPPED:
        mod = importlib.import_module(f"quadshift.{mod_name}")
        fn = getattr(mod, attr)

        def wrapper(*args, _fn=fn, _layer=layer, _name=f"{layer}.{name}",
                    _hook=hook, **kwargs):
            return tracer.call(_layer, _name, _fn, args, kwargs, _hook)

        saved.append((mod, attr, fn))
        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# replay


def replay(jobs, out_dir: Path, reference: dict, failures: list,
           pass_no: int, tracer: Tracer | None = None) -> float:
    """Run every job through cli.main in this process; return the wall time."""
    from quadshift import cli
    out_dir.mkdir()
    total = 0.0
    for job in jobs:
        argv = job.args(str(out_dir))
        output = io.StringIO()
        with contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output):
            t0 = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.job = job.name
                code = tracer.call("cli", "cli.main", cli.main, (argv,), {})
            total += time.perf_counter() - t0
        error = last_line(output.getvalue()) if code else ""
        failures.append((pass_no, job.name, job_failures(
            job, out_dir, code, reference, error)))
    shutil.rmtree(out_dir)
    return total


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON line per span; times in seconds from the pass's first span."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as fh:
        for i, sp in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "parent": sp.parent, "job": sp.job,
                                 "name": sp.name, "layer": sp.layer,
                                 "start": sp.start - t0,
                                 "end": sp.end - t0}) + "\n")


def layer_table(tracer: Tracer, wall: float) -> dict:
    """Per-layer self time and share, and the named totals, of one pass."""
    covered = [0.0] * len(tracer.spans)
    for sp in tracer.spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.end - sp.start
    out = Counter()
    for sp, cov in zip(tracer.spans, covered):
        dur = sp.end - sp.start
        out[f"{sp.layer}.self_s"] += dur - cov
        if sp.name == "basins.slice":
            out[f"basins.slice_s.{sp.job.removeprefix('basin_')}"] += dur
        elif sp.name.startswith("serialize.format."):
            out[f"serialize.s.{sp.name.split('.')[-1]}"] += dur
        elif sp.layer != "cli":
            out[f"{sp.name}_s"] += dur
    for layer in LAYERS:
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / wall
    out["critical.s"] = out.pop("critical.critical_s", 0.0)
    c = tracer.counts
    out.update({k: v for k, v in c.items() if k in PER_LAYER})
    for st in STATIONS:
        cells = c[f"basins.cells.{st}"]
        t = out[f"basins.slice_s.{st}"]
        if cells:
            out[f"basins.cells_per_s.{st}"] = cells / t
            out[f"basins.undecided_frac.{st}"] = c[f"basins.undecided.{st}"] / cells
            out[f"basins.divergent_frac.{st}"] = c[f"basins.divergent.{st}"] / cells
    for rate, steps, t in (
            ("bifurcations.diagram_steps_per_s", "bifurcations.diagram_steps",
             "bifurcations.diagram_s"),
            ("core.orbit_steps_per_s", "core.orbit_steps", "core.orbit_s"),
            ("lyapunov.steps_per_s", "lyapunov.steps", "lyapunov.spectrum_s")):
        if c[steps]:
            out[rate] = c[steps] / out[t]
    out["trace.spans"] = len(tracer.spans)
    return out


def probe_census_orbits(tracer: Tracer) -> dict:
    """Per-call cost of stability and dedup keys: each census orbit's
    classify_stability and cycle3d_key, re-called once from outside."""
    from quadshift import cycles
    t_stab = t_key = 0.0
    for b, found in tracer.census_results:
        for c in found:
            t0 = time.perf_counter()
            cycles.classify_stability(c.points, b)
            t1 = time.perf_counter()
            cycles.cycle3d_key(c.points)
            t2 = time.perf_counter()
            t_stab += t1 - t0
            t_key += t2 - t1
    return {"cycles.classify_stability_s": t_stab, "cycles.cycle3d_key_s": t_key}


def probe_defects(cases) -> list:
    """Run each known-defect call; report what it gives beside what its
    oracle expects."""
    from quadshift import Params, census, find_cycles_1d
    from quadshift.errors import ToolkitError
    results = []
    for fn, b, n, *_ in cases:
        scalar = fn == "find_cycles_1d"
        row = {"call": f"{fn}(b={b}, {'n' if scalar else 'p'}={n})",
               "expected": oracles.necklace(n)}
        t0 = time.perf_counter()
        try:
            found = (find_cycles_1d if scalar else census)(Params(b), n)
            row["found"] = len(found)
        except ToolkitError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["s"] = time.perf_counter() - t0
        results.append(row)
    return results


def defect_metrics(results) -> dict:
    return {
        "defects.scalar_missing": sum(
            r["expected"] - r["found"] for r in results
            if r["call"].startswith("find_cycles_1d")),
        "defects.census_failed": sum(
            1 for r in results if r["call"].startswith("census")
            and r.get("found") != r["expected"]),
    }


def import_times() -> dict:
    """Cumulative import time of quadshift, scipy.spatial and numpy in a
    fresh interpreter, from `-X importtime` (median of a few runs)."""
    wanted = {"quadshift": "cli.import_s", "scipy.spatial": "cli.import_scipy_s",
              "numpy": "cli.import_numpy_s"}
    samples = {v: [] for v in wanted.values()}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import quadshift"],
            env=quadshift_env(), capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(3) in wanted:
                samples[wanted[m.group(3)]].append(int(m.group(2)) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def roadmap_rows(workload: str) -> dict:
    """The ROADMAP baseline rows of this workload's layers, fixed inputs."""
    from quadshift import (BasinOptions, Params, Point3, SliceSpec,
                           basin_slice, bifurcation_diagram, build_catalog,
                           census, find_cycles_1d, lyapunov_spectrum)

    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        return time.perf_counter() - t0

    if workload == "tables":
        return {"roadmap.find_cycles_1d_n12_s": timed(find_cycles_1d,
                                                      Params(-2.0), 12),
                "roadmap.census_p18_s": timed(census, Params(-1.9), 18)}
    if workload == "trajectories":
        return {"roadmap.lyapunov_1e5_s": timed(
                    lyapunov_spectrum, Point3(0.3, -0.5, 0.5), Params(-2.0),
                    n_iter=10 ** 5),
                "roadmap.diagram_200_s": timed(bifurcation_diagram,
                                               (-1.99, -0.3), 200)}
    params = Params(-1.864)
    opts = BasinOptions(signature_samples=4096, match_tol=0.3)
    spec = SliceSpec(u_range=(-2.0, 2.0), v_range=(-2.0, 2.0), nu=100, nv=100)
    catalog = build_catalog(params, options=opts)
    return {"roadmap.basin_slice_100_s": timed(basin_slice, params, spec,
                                               catalog, opts, threads=1),
            "basins.slice_s.threads2": timed(basin_slice, params, spec,
                                             catalog, opts, threads=2)}


def run_traced(workload: str, jobs, seconds: float, work: Path,
               spans_path: Path) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("quadshift.cli")
    t_start = time.perf_counter()
    imports = import_times()
    reference, failures = {}, []
    plain, traced_walls, tables = [], [], []
    first_tracer, pair_s = None, 0.0
    while not tables or \
            time.perf_counter() - t_start + pair_s <= seconds:
        t_pair = time.perf_counter()
        n = len(plain) + len(traced_walls)
        plain.append(replay(jobs, work / f"pass{n}", reference, failures, n))
        tracer = Tracer()
        with traced(tracer):
            wall = replay(jobs, work / f"pass{n + 1}", reference, failures,
                          n + 1, tracer)
        traced_walls.append(wall)
        tables.append(layer_table(tracer, wall))
        first_tracer = first_tracer or tracer
        pair_s = time.perf_counter() - t_pair
    write_spans(first_tracer, spans_path)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [t[name] for t in tables if name in t]
        if values:
            metrics[name] = statistics.median(values)
    metrics.update(imports)
    metrics.update(probe_census_orbits(first_tracer))
    metrics.update(roadmap_rows(workload))
    metrics["trace.replay_s"] = statistics.median(plain)
    metrics["trace.traced_replay_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_frac"] = (metrics["trace.traced_replay_s"] /
                                      metrics["trace.replay_s"] - 1.0)
    metrics["failed_frac"] = sum(1 for *_, f in failures if f) / len(failures)
    if workload == "tables":
        metrics.update(defect_metrics(
            probe_defects(KNOWN_DEFECTS[:TRACED_DEFECTS])))
    return {**{name: metrics[name] for name in PER_LAYER},
            "_failures": failures, "_passes": len(plain) + len(traced_walls)}
