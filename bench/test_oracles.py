"""Tests of the benchmark's oracles: the closed forms, and that a real
output passes its check while a corrupted copy of it fails.  Also that
the tracer counts every package error, and the known-defect probe
counts every miss."""
import contextlib
import io
import json

import pytest

import oracles
import tracing
from quadshift import cli, errors


def test_necklace_counts():
    assert [oracles.necklace(n) for n in range(1, 17)] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080]


def test_orbit_count_3d():
    horseshoe = {j: oracles.necklace(j) for j in range(1, 19)}
    for p in range(1, 19):
        assert oracles.orbit_count_3d(p, horseshoe) == oracles.necklace(p)
    assert oracles.orbit_count_3d(6, {1: 2, 2: 1}) == 9


def test_real_fixed_points():
    for k in (1, 2, 3, 6):
        assert oracles.real_fixed_points(-2.1, k) == 2 ** k
    scalar = oracles.scalar_cycle_counts(-1.9, oracles.scalar_periods(18))
    assert scalar == {1: 2, 2: 1, 3: 2, 6: 3}
    assert oracles.orbit_count_3d(18, scalar) == 1188
    with pytest.raises(ValueError, match="tangent"):
        oracles.real_fixed_points(-1.75, 3)     # the period-3 saddle-node


def test_lift_count():
    scalar = oracles.scalar_cycle_counts(-1.0, (1, 2))
    assert scalar == {1: 2, 2: 1}
    assert oracles.lift_count((1, 2), False, scalar) == 6
    assert oracles.lift_count((2,), True, scalar) == 1
    assert oracles.lift_count((2,), False, scalar) == 1


def run_cli(*argv):
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def edit_line(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def set_field(line, k, value):
    cells = line.rstrip("\n").split(",")
    cells[k] = value
    return ",".join(cells) + "\n"


def check_then_corrupt(check, path, corrupt):
    assert check() == []
    corrupt(path)
    assert check() != []


def test_cycles1d(tmp_path):
    out = tmp_path / "c.csv"
    run_cli("cycles-1d", "--b", -2.1, "--period", 5, "--out", out)
    check = lambda: oracles.check_cycles1d(out, -2.1, 5)
    assert check() == []
    edit_line(out, 1, lambda ln: set_field(ln, 2, "0.125"))
    assert check() != []
    run_cli("cycles-1d", "--b", -2.1, "--period", 5, "--out", out)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-5]))          # drop one whole cycle
    assert any("necklace(5) = 6" in f for f in check())


@pytest.mark.parametrize("b,p", [(-2.1, 6), (-2.1, 5), (-1.0, 6), (-1.9, 6)])
def test_census(tmp_path, b, p):
    out = tmp_path / "census.json"
    run_cli("census", "--b", b, "--period", p, "--out", out)
    check = lambda: oracles.check_census(out, b, p)
    assert check() == []
    data = json.loads(out.read_text())
    broken = dict(data, cycles=data["cycles"][1:])
    broken["counts"] = dict(data["counts"], total=len(broken["cycles"]))
    out.write_text(json.dumps(broken))
    assert check() != []
    bad_eig = json.loads(json.dumps(data))
    eig = max((c["eigenvalues"] for c in bad_eig["cycles"]),
              key=lambda e: abs(e[0]))
    eig[0] *= 1.001
    out.write_text(json.dumps(bad_eig))
    assert check() != []


def test_lift(tmp_path):
    out = tmp_path / "lift.json"
    run_cli("lift", "--b", -1, "--periods", "1,2", "--out", out)

    def nudge_point(path):
        data = json.loads(path.read_text())
        data["cycles"][0]["points"][1][2] += 1e-6
        path.write_text(json.dumps(data))

    check_then_corrupt(lambda: oracles.check_lift(out, -1.0, (1, 2), False),
                       out, nudge_point)


def test_event(tmp_path):
    out = tmp_path / "ev.csv"
    run_cli("bifurcations", "--kind", "flip", "--period", 2,
            "--bracket", "-1.31,-1.19", "--out", out)
    check_then_corrupt(
        lambda: oracles.check_event(out, "flip", 2, -1.25, 1e-10), out,
        lambda p: edit_line(p, 1, lambda ln: set_field(ln, 2, "-1.2500001")))


def test_lyapunov(tmp_path):
    out = tmp_path / "ly.csv"
    x0 = (0.31, -0.52, 0.47)
    run_cli("lyapunov", "--b", -2, "--x0", "0.31,-0.52,0.47", "--iters", 3000,
            "--transient", 100, "--out", out)
    check_then_corrupt(
        lambda: oracles.check_lyapunov(out, -2.0, x0, 3000, 100), out,
        lambda p: edit_line(p, 1, lambda ln: set_field(ln, 3, "0.2309")))


def test_lyapunov_on_fixed_point_fails(tmp_path):
    out = tmp_path / "ly.csv"
    # this start's x-stream lands exactly on the fixed point 2 at b = -2:
    # the spectrum is the fixed point's, not ln2/3 three times
    run_cli("lyapunov", "--b", -2, "--x0", "0,-0.5,0.5", "--iters", 3000,
            "--transient", 100, "--out", out)
    fails = oracles.check_lyapunov(out, -2.0, (0.0, -0.5, 0.5), 3000, 100)
    assert len(fails) == 1 and "tolerance" in fails[0]


def test_orbit(tmp_path):
    out = tmp_path / "orbit.csv"
    run_cli("orbit", "--b", -1.864, "--x0", "0.1,-0.2,0.3", "--n", 200,
            "--out", out)
    check_then_corrupt(
        lambda: oracles.check_orbit(out, -1.864, 200), out,
        lambda p: edit_line(p, 50, lambda ln: set_field(ln, 3, "0.5")))


def test_diagram(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("diagram", "--b-min", -1.99, "--b-max", -0.3, "--steps", 40,
            "--samples", 20, "--out", out)
    check = lambda: oracles.check_diagram(out, (-1.99, -0.3), 40, 20)
    # the last row sits at b = -0.3, on the attracting fixed point
    check_then_corrupt(check, out, lambda p: edit_line(
        p, -1, lambda ln: set_field(ln, 1, "-0.26")))


def test_planes(tmp_path):
    out = tmp_path / "planes.csv"
    run_cli("critical-planes", "--b", -1.3, "--k-max", 8, "--out", out)
    check_then_corrupt(
        lambda: oracles.check_planes(out, -1.3, 8), out,
        lambda p: edit_line(p, 5, lambda ln: set_field(ln, 2, "0.4")))


def test_preimages(tmp_path):
    out = tmp_path / "pre.json"
    run_cli("preimages", "--b", -1.3, "--point", "0.4,-0.2,0.7", "--out", out)

    def drop_one(path):
        data = json.loads(path.read_text())
        data["preimages"] = data["preimages"][:1]
        path.write_text(json.dumps(data))

    check_then_corrupt(
        lambda: oracles.check_preimages(out, -1.3, (0.4, -0.2, 0.7)), out,
        drop_one)


def test_basin_and_render(tmp_path):
    csv_path = tmp_path / "basin.csv"
    meta = tmp_path / "basin.meta.json"
    ppm = tmp_path / "basin.ppm"
    again = tmp_path / "again.ppm"
    run_cli("basin", "--b", -1.3, "--slice", "z=0.45", "--res", "24,20",
            "--max-iter", 300, "--transient", 100, "--out", csv_path,
            "--ppm", ppm)
    run_cli("render", "--csv", csv_path, "--out", again)
    check = lambda: oracles.check_basin(csv_path, meta, ppm)
    assert oracles.check_render(again, ppm) == []
    assert check() == []
    lines = csv_path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.endswith(",-1"))
    edit_line(csv_path, k, lambda ln: set_field(ln, 4, "-2"))
    assert any("escape mask" in f for f in check())
    blob = bytearray(again.read_bytes())
    blob[-1] ^= 0xFF
    again.write_bytes(bytes(blob))
    assert oracles.check_render(again, ppm) != []


def test_tracer_counts_every_error():
    def fail(exc):
        raise exc

    tracer = tracing.Tracer()
    for layer, exc in (("cycles", errors.PeriodDivisibleBy3("p=6")),
                       ("lyapunov", errors.Diverged(3)),
                       ("critical", errors.NoEventInBracket("none"))):
        with pytest.raises(type(exc)):
            tracer.call(layer, f"{layer}.x", fail, (exc,), {})
    assert tracer.counts == {"cycles.errors.PeriodDivisibleBy3": 1,
                             "lyapunov.errors.Diverged": 1,
                             "errors.unlisted": 1}


def test_defect_probe_counts_misses_and_errors():
    passing = tracing.probe_defects((("find_cycles_1d", -2.0, 5),
                                     ("census", -2.0, 4)))
    assert [r["found"] for r in passing] == [6, 3]
    assert tracing.defect_metrics(passing) == {
        "defects.scalar_missing": 0, "defects.census_failed": 0}
    failing = [
        {"call": "find_cycles_1d(b=-2.3, n=12)", "expected": 335, "found": 329},
        {"call": "census(b=-2.1, p=11)", "expected": 186,
         "error": "LiftValidationFailed: gap"},
        {"call": "census(b=-2.0, p=5)", "expected": 6, "found": 5},
    ]
    assert tracing.defect_metrics(failing) == {
        "defects.scalar_missing": 6, "defects.census_failed": 2}
