"""Run every workload at one seed and write the benchmark's records.

    python3 bench/record.py

Runs at the default seed and the benchmark's own run length.  Writes
`BENCHMARK.json` at the repository root (the benchmark's definition:
command, workloads, metrics and their bounds) and
`bench/baseline.json` (this machine, the end-to-end metrics and the
traced layer table of each workload at the seed, the jobs that failed
their oracle and why, the known defects that the workloads avoid,
each measured, the ROADMAP's baseline rows re-measured, and which
end-to-end metric each layer metric should move on which workload).
Each run is a fresh `bench/run.py` process.
"""
from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from run import RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WHY = {
    "tables": "cycles module (root finding, O(K^2) dedup, lifts, stability, "
              "dedup keys) is most of the wall time; no basin or Lyapunov code",
    "trajectories": "15 short jobs: startup plus sequential pure-Python "
                    "stream iteration; many small cycle-finder calls in the "
                    "fold and flip locators",
    "basins": "basin_slice is most of the wall time, tail matching on the "
              "chaotic stations and evolve plus retry at b=-1.3; the only "
              "jobs that use scipy",
}

# (name, unit, bound): a later change may worsen the median by at most
# `bound` of the parent's median; set-up gets the widest bound
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
)

# ROADMAP baseline rows (single runs, 2026-10-17) and the metric that
# re-measures each
ROADMAP_ROWS = {
    "import quadshift": (0.85, "trajectories", "cli.import_s"),
    "find_cycles_1d(b=-2, n=12)": (3.1, "tables",
                                   "roadmap.find_cycles_1d_n12_s"),
    "census(b=-1.9, p=18)": (0.89, "tables", "roadmap.census_p18_s"),
    "lyapunov_spectrum, 1e5 steps": (0.19, "trajectories",
                                     "roadmap.lyapunov_1e5_s"),
    "bifurcation_diagram, 200 steps": (0.29, "trajectories",
                                       "roadmap.diagram_200_s"),
    "basin_slice 100x100, b=-1.864": (1.59, "basins",
                                      "roadmap.basin_slice_100_s"),
    "basin_slice 100x100, b=-1.864, threads=2": (1.66, "basins",
                                                 "basins.slice_s.threads2"),
}

# which end-to-end metric each layer metric should move, on which
# workloads (metric-name prefix -> (metrics, workloads)); first match wins
MOVES = (
    ("cli.import_scipy_s", ["setup_s", "wall_s"], ["trajectories", "tables"]),
    ("cli.import_numpy_s", [], ["tables", "trajectories", "basins"]),
    ("cli.", ["setup_s", "wall_s"], ["trajectories", "tables", "basins"]),
    ("cycles.scalar_", ["failed_frac"], ["tables"]),
    ("cycles.errors.", ["failed_frac"], ["tables"]),
    ("bifurcations.errors.", ["failed_frac"], ["trajectories"]),
    ("core.errors.", ["failed_frac"], ["trajectories"]),
    ("lyapunov.errors.", ["failed_frac"], ["trajectories"]),
    ("basins.errors.", ["failed_frac"], ["basins"]),
    ("errors.", ["failed_frac"], ["tables", "trajectories", "basins"]),
    ("cycles.find_cycles_1d", ["wall_s"], ["tables", "trajectories"]),
    ("cycles.", ["wall_s"], ["tables"]),
    ("bifurcations.", ["wall_s"], ["trajectories"]),
    ("core.", ["wall_s"], ["trajectories"]),
    ("lyapunov.", ["wall_s"], ["trajectories"]),
    ("critical.", [], ["trajectories"]),
    ("basins.slice_s.threads2", [], ["basins"]),
    ("basins.slice_s", ["wall_s", "cpu_s"], ["basins"]),
    ("basins.cells_per_s", ["wall_s", "cpu_s"], ["basins"]),
    ("basins.undecided_frac", ["failed_frac", "wall_s"], ["basins"]),
    ("basins.divergent_frac", ["failed_frac", "wall_s"], ["basins"]),
    ("basins.", ["wall_s"], ["basins"]),
    ("serialize.", ["wall_s"], ["tables", "basins", "trajectories"]),
    ("roadmap.find_cycles", ["wall_s"], ["tables"]),
    ("roadmap.census", ["wall_s"], ["tables"]),
    ("roadmap.basin", ["wall_s"], ["basins"]),
    ("roadmap.", ["wall_s"], ["trajectories"]),
    ("trace.", [], []),
    ("defects.", [], ["tables"]),
    ("failed_frac", ["failed_frac"], ["tables", "trajectories", "basins"]),
)


def moves(name: str) -> dict:
    metrics, where = next((m, w) for prefix, m, w in MOVES
                          if name.startswith(prefix))
    return {"moves": metrics, "workloads": where}


def better(name: str) -> str:
    """Rates and result counts are better higher; times, sizes, failures,
    errors and shares of wall time lower."""
    if tracing.unit_of(name) == "1/s" or \
            name.endswith(("scalar_found", "_orbits")):
        return "higher"
    return "lower"


def benchmark_definition() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": tracing.unit_of(n),
                       "better": better(n)}
                      for n in tracing.PER_LAYER],
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    info = json.loads(proc.stderr.splitlines()[-1])
    commands = {job.name: "quadshift " + " ".join(job.args("out"))
                for job in workloads.build(workload, seed)}
    failing = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"FAIL pass 0 (\S+): (.*)$", line)
        if m:
            name = m.group(1)
            entry = failing.setdefault(
                name, {"command": commands[name], "failures": []})
            entry["failures"].append(m.group(2))
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "failing_jobs": failing,
        "load_before": info["load_before"],
        "load_after": info["load_after"],
        "loaded_host": info["loaded_host"],
        "passes": info["_passes"],
        **({"job_wall_s": info["_job_wall_s"]} if "_job_wall_s" in info else {}),
    }


def machine() -> dict:
    import numpy
    import scipy
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "note": "Shared host: CPU frequency is not pinned and cores are not "
                "isolated, and no kernel or cgroup setting was changed to "
                "steady the numbers. A run is flagged loaded_host when the "
                "1-minute load average before or after it exceeds nproc.",
    }


def layer_table(metrics: dict) -> dict:
    return {layer: {"self_s": metrics[f"{layer}.self_s"],
                    "share": metrics[f"{layer}.share"]}
            for layer in tracing.LAYERS}


def main() -> int:
    seed = workloads.DEFAULT_SEED
    runs = {}
    for w in workloads.WORKLOADS:
        e2e = run_once(w, seed, RUN_SECONDS, 0)
        traced = run_once(w, seed, RUN_SECONDS, 1)
        m = traced.pop("metrics")
        runs[w] = {
            "end_to_end": e2e,
            "traced": {
                "layers": layer_table(m),
                "tracing_overhead_frac": m["trace.overhead_frac"],
                "replay_s": m["trace.replay_s"],
                "traced_replay_s": m["trace.traced_replay_s"],
                "metrics": {k: v for k, v in m.items() if not (
                    k.endswith((".self_s", ".share")) and
                    k.split(".")[0] in tracing.LAYERS)},
                **traced,
            },
        }
    if str(workloads.SRC) not in sys.path:
        sys.path.insert(0, str(workloads.SRC))
    defects = tracing.probe_defects(tracing.KNOWN_DEFECTS)
    rows = {
        row: {"roadmap_s": old, "workload": w, "metric": name,
              "now_s": runs[w]["traced"]["metrics"][name]}
        for row, (old, w, name) in ROADMAP_ROWS.items()
    }
    baseline = {
        "seed": seed,
        "run_seconds": RUN_SECONDS,
        "command": "python3 bench/run.py --workload <w> --seed <seed> "
                   "--seconds <s> --trace <0|1>",
        "machine": machine(),
        "workloads": runs,
        "known_defects": defects,
        "roadmap_rows": rows,
        "layer_metrics": {n: moves(n) for n in tracing.PER_LAYER},
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_definition(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
