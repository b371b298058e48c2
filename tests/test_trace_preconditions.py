"""What the benchmark's traced run (`bench/run.py --trace 1`) needs of the
package, checked against `bench/tracing.py` as it stands.

The traced run swaps module attributes by name, re-calls a few functions
with fixed argument shapes, and reads the `-X importtime` lines of
`import quadshift`.  A package change that renames one of them, drops a
parameter, or takes a module off the start path breaks the traced run,
and only when the benchmark runs; these tests break in the suite first.
"""
import importlib
import inspect
import math
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

# the calls `probe_census_orbits`, `probe_defects` and `roadmap_rows`
# make: (module, function, positional argument count, keywords)
PROBE_CALLS = (
    ("quadshift.cycles", "classify_stability", 2, ()),
    ("quadshift.cycles", "cycle3d_key", 1, ()),
    ("quadshift", "find_cycles_1d", 2, ()),
    ("quadshift", "census", 2, ()),
    ("quadshift", "lyapunov_spectrum", 2, ("n_iter",)),
    ("quadshift", "bifurcation_diagram", 2, ()),
    ("quadshift", "build_catalog", 1, ("options",)),
    ("quadshift", "basin_slice", 4, ("threads",)),
)


def test_every_wrapped_attribute_resolves():
    missing = [f"quadshift.{mod}.{attr}"
               for mod, attr, *_ in tracing.WRAPPED
               if not callable(getattr(
                   importlib.import_module(f"quadshift.{mod}"), attr, None))]
    assert missing == []


def test_probe_calls_bind_to_the_package_signatures():
    for module, name, n_args, keywords in PROBE_CALLS:
        fn = getattr(importlib.import_module(module), name)
        # raises TypeError if the call shape no longer fits
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))


def test_import_times_reports_every_module():
    times = tracing.import_times()
    assert sorted(times) == ["cli.import_numpy_s", "cli.import_s",
                             "cli.import_scipy_s"]
    assert all(isinstance(t, float) and math.isfinite(t) and t >= 0
               for t in times.values())


def test_the_census_probe_reads_every_census_orbit():
    # the traced `tables` run re-calls classify_stability and cycle3d_key
    # on the points of every orbit that census returned
    from quadshift import Params, census
    tracer = SimpleNamespace(census_results=[(-1.0, census(Params(-1.0), 6))])
    times = tracing.probe_census_orbits(tracer)
    assert sorted(times) == ["cycles.classify_stability_s",
                             "cycles.cycle3d_key_s"]
    assert all(isinstance(t, float) and math.isfinite(t) and t >= 0
               for t in times.values())


def test_census_reaches_the_lifts_through_the_module_attributes(monkeypatch):
    # the traced run times the `cycles.lift` layer by swapping these module
    # attributes; a census that bypassed them would read 0 there
    from quadshift import Params, cycles
    calls = dict.fromkeys(("lift_homogeneous_3n", "lift_mixed_pair",
                           "lift_mixed_triple"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(cycles, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cycles, name, counting)
    # b = -1: two fixed points and one 2-cycle, so period 6 takes the 3n
    # lift of the 2-cycle, pairs over (1, 2) and the triple over (1, 1, 2)
    cycles.census(Params(-1.0), 6)
    assert all(calls.values()), calls
