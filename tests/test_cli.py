"""End-to-end CLI runs in a subprocess: exit codes, output bytes, files.

Everything here goes through `python -m quadshift` so the argv plumbing,
not just the command functions, is on the hook.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CMD = [sys.executable, "-m", "quadshift"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, **kw):
    # the subprocess imports this checkout's package, installed or not
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          timeout=300, env=env, **kw)


# ---------------------------------------------------------------------------
# exit codes


def test_version_exits_zero():
    r = run("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == "quadshift 0.1.0"


def test_help_exits_zero():
    assert run("--help").returncode == 0


def test_no_subcommand_is_usage_error():
    assert run().returncode == 1


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate").returncode == 1


def test_missing_required_flag_is_usage_error():
    assert run("fixed-points").returncode == 1


def test_malformed_triple_is_usage_error():
    r = run("orbit", "--b", "-1", "--x0", "1,2", "--n", "5")
    assert r.returncode == 1


def test_divergent_orbit_is_computation_error():
    r = run("orbit", "--b", "1.0", "--x0", "9,9,9", "--n", "10")
    assert r.returncode == 2


def test_no_event_is_computation_error():
    r = run("bifurcations", "--kind", "fold", "--period", "1",
            "--bracket", "-0.5,-0.4")
    assert r.returncode == 2


def test_negative_values_parse_in_pair_flags():
    r = run("bifurcations", "--kind", "flip", "--period", "1",
            "--bracket", "-0.8,-0.7")
    assert r.returncode == 0


# ---------------------------------------------------------------------------
# stdout payloads


def test_fixed_points_payload():
    r = run("fixed-points", "--b", "-0.4")
    assert r.returncode == 0
    pay = json.loads(r.stdout)
    assert pay["b"] == -0.4
    assert pay["count"] == 2
    assert len(pay["cycles"]) == 2
    assert all(c["period"] == 1 for c in pay["cycles"])
    assert "config" in pay


def test_census_period_six():
    r = run("census", "--b", "-1", "--period", "6")
    assert r.returncode == 0
    pay = json.loads(r.stdout)
    assert pay["counts"] == {"total": 9, "homogeneous": 1, "mixed": 8}
    assert len(pay["cycles"]) == 9
    assert all(c["period"] == 6 for c in pay["cycles"])


def test_census_past_the_scalar_wrap():
    # at b = -2.1 all necklace(11) = 186 scalar 11-cycles are real
    r = run("census", "--b", "-2.1", "--period", "11")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["counts"]["total"] == 186


def test_flip_three_location():
    r = run("bifurcations", "--kind", "flip", "--period", "3",
            "--bracket", "-1.8,-1.75")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "kind,period,b_star,x_star"
    kind, period, b_star, _ = lines[1].split(",")
    assert kind == "flip" and period == "3"
    assert abs(float(b_star) - (-1.768529152)) < 1e-6


def test_critical_planes_row_count():
    r = run("critical-planes", "--b", "-1.3", "--k-max", "6")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "k,axis,offset"
    assert len(lines) == 1 + 8          # k = -1 .. 6


def test_stdout_is_byte_identical_between_runs():
    a = run("cycles-1d", "--b", "-1.76", "--period", "3")
    b = run("cycles-1d", "--b", "-1.76", "--period", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_config_echo_goes_to_stderr():
    r = run("fixed-points", "--b", "-0.4")
    assert r.stderr.startswith("config: ")
    assert json.loads(r.stderr[len("config: "):])["b"] == -0.4


def test_preimages_of_fold_point():
    r = run("preimages", "--b", "-1.3", "--point", "0.4,-0.2,0.7")
    pay = json.loads(r.stdout)
    assert pay["zone"] == "Z2"
    assert len(pay["preimages"]) == 2


# ---------------------------------------------------------------------------
# file outputs


def test_orbit_csv_to_file(tmp_path):
    out = tmp_path / "orbit.csv"
    r = run("orbit", "--b", "-1", "--x0", "0,-1,0", "--n", "4",
            "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,x,y,z"
    assert len(lines) == 5


def test_basin_files_and_render_round_trip(tmp_path):
    csv = tmp_path / "basin.csv"
    ppm = tmp_path / "basin.ppm"
    r = run("basin", "--b", "-0.4", "--res", "12,10",
            "--u-range", "-1.2,1.2", "--v-range", "-1.2,1.2",
            "--out", str(csv), "--ppm", str(ppm))
    assert r.returncode == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "i,j,x,y,label"
    assert len(lines) == 1 + 12 * 10

    meta = json.loads((tmp_path / "basin.meta.json").read_text())
    assert meta["b"] == -0.4
    assert meta["slice"]["nu"] == 12 and meta["slice"]["nv"] == 10
    assert "seeds" in meta and "config" in meta

    blob = ppm.read_bytes()
    assert blob.startswith(b"P6\n12 10\n255\n")

    # render from the files alone must reproduce the image bytes
    out2 = tmp_path / "again.ppm"
    r2 = run("render", "--csv", str(csv), "--out", str(out2))
    assert r2.returncode == 0
    assert out2.read_bytes() == blob


@pytest.mark.parametrize("flags, field", [
    (("--tail-samples", "0"), "tail_samples"),
    (("--max-iter", "0", "--transient", "0"), "max_iter + transient"),
])
def test_basin_rejects_empty_tails_by_field(tmp_path, flags, field):
    csv = tmp_path / "basin.csv"
    r = run("basin", "--b", "-0.4", "--res", "4,4", *flags, "--out", str(csv))
    assert r.returncode == 1
    assert field in r.stderr
    assert not csv.exists()


def test_diagram_csv_shape(tmp_path):
    out = tmp_path / "diag.csv"
    r = run("diagram", "--b-min", "-1.3", "--b-max", "-1.2", "--steps", "3",
            "--samples", "8", "--transient", "200", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "b,x"
    assert len(lines) == 1 + 3 * 8


def test_lyapunov_cli_short_run():
    r = run("lyapunov", "--b", "-2", "--x0", "0.3,-0.5,0.5",
            "--iters", "20000", "--transient", "2000")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "b,l1,l2,l3,n_iter"
    cells = lines[1].split(",")
    assert cells[0] == "-2" and cells[4] == "20000"
    assert all(abs(float(c) - 0.231) < 0.02 for c in cells[1:4])


def test_lift_pairs_and_triple_period_lifts():
    r = run("lift", "--b", "-1", "--periods", "1,2")
    assert r.returncode == 0
    pay = json.loads(r.stdout)
    # pairs (x1,c2) and (x2,c2): three period-6 orbits each
    assert pay["count"] == len(pay["cycles"]) == 6
    r3 = run("lift", "--b", "-1", "--periods", "2", "--times3")
    pay3 = json.loads(r3.stdout)
    assert pay3["count"] == 1
    assert pay3["cycles"][0]["period"] == 6


def test_times3_needs_single_period():
    assert run("lift", "--b", "-1", "--periods", "1,2", "--times3")\
        .returncode == 1
