"""Oracle-checked benchmark of the quadshift CLI.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One client runs the workload's jobs in a fixed order,
one at a time, each a fresh `python -m quadshift` subprocess (a closed
loop), and repeats the list while another pass fits in `--seconds` (at
least twice, so every output can be compared byte for byte with the
first pass).  Every output is checked by its oracle.  On a 2-vCPU shared
host the end-to-end times spread 3.9% to 11.6% from run to run
(interquartile range over median, README.md); the host's own speed
swings that much.

With `--trace 0` the last stdout line reports the end-to-end metrics;
with `--trace 1` the jobs are replayed in-process instead and the line
reports the per-layer table (see tracing.py).  Scratch files go under
`.bench_out/` in the checkout and are removed on exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import ROOT, SRC, job_failures, last_line, quadshift_env

RUN_SECONDS = 30
MIN_PASSES = 2
SETUP_PER_PASS = 3      # `--version` runs per pass; one sample spreads ~20%


def run_job(argv: list, env: dict, log_path: Path):
    """Run `python -m quadshift argv` with its output in log_path; return
    (exit code, wall s, cpu s, max RSS MB) of that child alone, from
    wait4's resource usage."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "quadshift", *argv],
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=log, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def load_average() -> list:
    return [round(v, 2) for v in os.getloadavg()]


def measure_setup(env: dict, log: Path, samples: int) -> list:
    walls = []
    for _ in range(samples):
        code, wall, _cpu, _rss = run_job(["--version"], env, log)
        if code != 0:
            raise RuntimeError("`python -m quadshift --version` failed")
        walls.append(wall)
    return walls


def run_e2e(jobs, seconds: float, work: Path) -> dict:
    """Run the job list in passes, at least MIN_PASSES, and no further pass
    once the last pass's length would take the run past `seconds`.  Each job's wall time, CPU time and max RSS are taken as
    the median over passes; wall_s and cpu_s sum those medians over the
    list."""
    env = quadshift_env()
    log = work / "jobs.log"
    measure_setup(env, log, 1)          # warm-up: compiles the package once
    setup, failures, reference = [], [], {}
    per_job = {job.name: [] for job in jobs}
    passes, pass_s = 0, 0.0
    t_start = time.perf_counter()
    while passes < MIN_PASSES or \
            time.perf_counter() - t_start + pass_s <= seconds:
        t_pass = time.perf_counter()
        setup += measure_setup(env, log, SETUP_PER_PASS)
        out_dir = work / f"pass{passes}"
        out_dir.mkdir()
        for job in jobs:
            code, wall, cpu, rss = run_job(job.args(str(out_dir)), env, log)
            per_job[job.name].append((wall, cpu, rss))
            error = last_line(log.read_text(errors="replace")) if code else ""
            failures.append((passes, job.name, job_failures(
                job, out_dir, code, reference, error)))
        passes += 1
        shutil.rmtree(out_dir)
        pass_s = time.perf_counter() - t_pass

    def med(k):
        return {name: statistics.median(r[k] for r in runs)
                for name, runs in per_job.items()}

    return {
        "wall_s": sum(med(0).values()),
        "setup_s": statistics.median(setup),
        "cpu_s": sum(med(1).values()),
        "peak_rss_mb": max(med(2).values()),
        "_passes": passes,
        "_job_wall_s": {k: round(v, 4) for k, v in med(0).items()},
        "_failures": failures,
    }


UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its job and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "quadshift" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'quadshift'}; run from a "
              "quadshift checkout", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    load_before = load_average()
    try:
        if args.trace:
            res = tracing.run_traced(
                args.workload, jobs, args.seconds, work,
                work.parent / f"spans_{args.workload}_{args.seed}.jsonl")
        else:
            res = run_e2e(jobs, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = load_average()

    failures = res.pop("_failures")
    failed = sum(1 for _, _, f in failures if f)
    for pass_no, name, fails in failures:
        for msg in fails:
            print(f"FAIL pass {pass_no} {name}: {msg}", file=sys.stderr)
    info = {k: res.pop(k) for k in list(res) if k.startswith("_")}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "load_before": load_before, "load_after": load_after,
                      "loaded_host": max(load_before[0], load_after[0]) >
                      os.cpu_count(), **info}), file=sys.stderr)
    metrics = {name: {"value": value,
                      "unit": UNITS.get(name) or tracing.unit_of(name)}
               for name, value in res.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(failures),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
