"""End-to-end CLI runs in a subprocess: exit codes, output bytes, files.

Everything here goes through `python -m quadshift` so the argv plumbing,
not just the command functions, is on the hook.
"""
import argparse
import ast
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quadshift import BasinOptions, serialize
from quadshift import __main__ as entry
from quadshift import cli
from quadshift.cli import build_parser, main

CMD = [sys.executable, "-m", "quadshift"]
ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run(*args, text=True, **kw):
    # the subprocess imports this checkout's package, installed or not
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(CMD + list(args), capture_output=True, text=text,
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


def test_an_abbreviated_flag_is_usage_error():
    # `--trans` is a prefix of `--transient` only; it must not stand for it
    r = run("orbit", "--b", "-1", "--x0", "0.1,0.2,0.3", "--n", "3",
            "--trans", "2")
    assert r.returncode == 1
    assert "unrecognized arguments: --trans 2" in r.stderr
    assert r.stdout == ""


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


# every float flag but --match-tol, which BasinOptions checks by field name
NON_FINITE = [
    (("lyapunov", "--b", "-1", "--x0", "nan,0,0", "--iters", "10",
      "--transient", "0"), "--x0"),
    (("lyapunov", "--b", "nan", "--iters", "10"), "--b"),
    (("orbit", "--b", "-1", "--x0", "0,inf,0", "--n", "5"), "--x0"),
    (("preimages", "--b", "-1.3", "--point", "0.4,-inf,0.7"), "--point"),
    (("diagram", "--b-min", "nan", "--b-max", "-0.4", "--steps", "2"),
     "--b-min"),
    (("diagram", "--b-min", "-0.5", "--b-max", "inf", "--steps", "2"),
     "--b-max"),
    (("bifurcations", "--kind", "flip", "--bracket", "nan,-0.7"),
     "--bracket"),
    (("census", "--b", "inf", "--period", "6"), "--b"),
    (("lift", "--b", "nan", "--periods", "1,2"), "--b"),
    (("basin", "--b", "-0.4", "--u-range", "nan,1"), "--u-range"),
    (("basin", "--b", "-0.4", "--v-range", "-1,inf"), "--v-range"),
    (("basin", "--b", "-0.4", "--slice", "z=nan"), "--slice"),
    (("basin", "--b", "-0.4", "--seeds", "0.1,0.2,nan"), "--seeds"),
]


@pytest.mark.parametrize("argv, flag", NON_FINITE,
                         ids=[f"{argv[0]}{flag}" for argv, flag in NON_FINITE])
def test_non_finite_floats_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a finite number" in err
    assert "config:" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# stdout payloads


def test_fixed_points_where_one_minus_4b_overflows():
    # 1 - 4b is inf at b = -1e308; the fixed points are +-1e154
    r = run("fixed-points", "--b", "-1e308")
    assert r.returncode == 0, r.stderr
    pay = json.loads(r.stdout)
    assert [c["points"] for c in pay["cycles"]] == \
        [[[1e154, 1e154, 1e154]], [[-1e154, -1e154, -1e154]]]


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


def test_census_searches_out_to_beta():
    # beta(-4) = 2.56: the search interval, echoed in the config, holds
    # both fixed points
    r = run("census", "--b", "-4", "--period", "1")
    assert r.returncode == 0, r.stderr
    pay = json.loads(r.stdout)
    beta = 0.5 + math.sqrt(4.25)
    assert pay["config"]["interval"] == [-beta, beta]
    assert pay["counts"]["total"] == 2


@pytest.mark.parametrize("argv", [
    ("cycles-1d", "--b", "-1", "--period", "2", "--grid-points", "5"),
    ("cycles-1d", "--b", "-1", "--period", "2", "--interval", "-2,2"),
    ("census", "--b", "-1", "--period", "6", "--interval", "-2,2"),
    ("bifurcations", "--kind", "flip", "--bracket", "-0.8,-0.7",
     "--interval", "-2,2"),
])
def test_search_settings_are_unknown_flags(argv, capsys):
    assert main(list(argv)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("period", ["0", "-3"])
def test_census_rejects_a_period_below_one(tmp_path, capsys, period):
    out = tmp_path / "census.json"
    assert main(["census", "--b", "-1", "--period", period,
                 "--out", str(out)]) == 1
    assert "period must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_census_past_the_scalar_wrap():
    # at b = -2.1 all necklace(11) = 186 scalar 11-cycles are real
    r = run("census", "--b", "-2.1", "--period", "11")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["counts"]["total"] == 186


def test_flip_three_location():
    # (-1.8, -1.7) is the recipe's fold-3 bracket: no 3-cycle is alive at
    # its high end
    for bracket in ("-1.8,-1.75", "-1.8,-1.7"):
        r = run("bifurcations", "--kind", "flip", "--period", "3",
                "--bracket", bracket)
        assert r.returncode == 0, r.stderr
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


@pytest.mark.parametrize("k_max", ["-2", "-5"])
def test_critical_planes_rejects_k_max_below_minus_one(tmp_path, capsys,
                                                       k_max):
    out = tmp_path / "planes.csv"
    assert main(["critical-planes", "--b", "-1", "--k-max", k_max,
                 "--out", str(out)]) == 1
    assert "--k-max must be >= -1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.fixture(scope="module")
def basin_6x5(tmp_path_factory):
    csv = tmp_path_factory.mktemp("basin") / "basin.csv"
    r = run("basin", "--b", "-0.4", "--res", "6,5", "--out", str(csv))
    assert r.returncode == 0, r.stderr
    return csv


def _cut_last_grid_row(lines):
    return lines[:-6]


def _move_a_row_off_grid(lines):
    i, j, *rest = lines[5].split(",")
    return lines[:5] + [",".join([i, "-4", *rest])] + lines[6:]


def _repeat_a_row(lines):
    return lines + [lines[3]]


def _header_only(lines):
    return lines[:1]


def _label_minus_five(lines):
    *cell, _ = lines[7].split(",")
    return lines[:7] + [",".join([*cell, "-5"])] + lines[8:]


_NOT_COVERED = "each cell of the 6x5 grid once"
_RENDER_REJECTS = [(_cut_last_grid_row, _NOT_COVERED),
                   (_move_a_row_off_grid, _NOT_COVERED),
                   (_repeat_a_row, _NOT_COVERED),
                   (_header_only, _NOT_COVERED),
                   (_label_minus_five, "palette has no color for label -5")]


@pytest.mark.parametrize("edit, message", _RENDER_REJECTS,
                         ids=[edit.__name__ for edit, _ in _RENDER_REJECTS])
def test_render_rejects_a_csv_that_does_not_cover_the_grid(tmp_path, basin_6x5,
                                                           edit, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(basin_6x5.read_text().splitlines())) + "\n")
    (tmp_path / "bad.meta.json").write_bytes(
        basin_6x5.with_suffix(".meta.json").read_bytes())
    out = tmp_path / "bad.ppm"
    r = run("render", "--csv", str(bad), "--out", str(out))
    assert r.returncode == 2
    assert message in r.stderr
    assert not out.exists()


def _render_with_sidecar(tmp_path, basin_6x5, capsys, sidecar):
    # in-process, so an exception that escapes `main` fails the test
    csv = tmp_path / "basin.csv"
    csv.write_bytes(basin_6x5.read_bytes())
    (tmp_path / "basin.meta.json").write_text(sidecar)
    out = tmp_path / "basin.ppm"
    code = main(["render", "--csv", str(csv), "--out", str(out)])
    _config, *errors = capsys.readouterr().err.splitlines()
    assert not out.exists()
    return code, errors


_BAD_SIDECARS = {"no_slice": '{"b": -0.4}',
                 "a_list": "[1, 2]",
                 "no_nv": '{"slice": {"nu": 6}}',
                 "nu_not_an_integer": '{"slice": {"nu": 6.5, "nv": 5}}',
                 "nu_a_string": '{"slice": {"nu": "6", "nv": 5}}',
                 "nu_zero": '{"slice": {"nu": 0, "nv": 5}}',
                 "not_json": '{"slice": '}


@pytest.mark.parametrize("sidecar", _BAD_SIDECARS.values(),
                         ids=_BAD_SIDECARS.keys())
def test_render_rejects_a_sidecar_without_a_grid_size(tmp_path, basin_6x5,
                                                      capsys, sidecar):
    code, errors = _render_with_sidecar(tmp_path, basin_6x5, capsys, sidecar)
    assert code == 2
    assert len(errors) == 1
    assert errors[0].startswith("quadshift: error: render: ")
    assert "basin.meta.json" in errors[0]


def test_render_checks_the_row_count_before_sizing_the_grid(tmp_path,
                                                            basin_6x5, capsys):
    # 10^16 cells would not fit in memory; the 30-row file is refused first
    code, errors = _render_with_sidecar(
        tmp_path, basin_6x5, capsys,
        '{"slice": {"nu": 100000000, "nv": 100000000}}')
    assert code == 2
    assert len(errors) == 1
    assert errors[0].endswith("must list each cell of the "
                              "100000000x100000000 grid once: it has 30 rows")


@pytest.mark.parametrize("flags, field", [
    (("--match-tol", "inf"), "match_tol"),
    (("--max-iter", "0", "--transient", "0"), "max_iter + transient"),
    (("--signature-samples", "0"), "signature_samples"),
    (("--match-tol", "0"), "match_tol"),
    (("--match-tol", "nan"), "match_tol"),
])
def test_basin_rejects_empty_tails_by_field(tmp_path, flags, field):
    csv = tmp_path / "basin.csv"
    r = run("basin", "--b", "-0.4", "--res", "4,4", *flags, "--out", str(csv))
    assert r.returncode == 1
    assert field in r.stderr
    assert not csv.exists()


@pytest.mark.parametrize("flag", ["--u-range=-1e308,1e308",
                                  "--v-range=-1e308,1e308"])
def test_basin_cell_centers_stay_finite_where_the_span_overflows(tmp_path,
                                                                 flag):
    # hi - lo is inf, but every center lies between the finite ends; the
    # centers on that axis are far beyond the escape radius
    csv = tmp_path / "basin.csv"
    r = run("basin", "--b", "-0.4", "--res", "4,4", flag, "--out", str(csv),
            "--ppm", str(tmp_path / "basin.ppm"))
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert len(rows) == 16
    for _i, _j, u, v, label in rows:
        assert math.isfinite(float(u)) and math.isfinite(float(v))
        assert label == "-1"
    big = [float(row[2 if flag.startswith("--u") else 3]) for row in rows]
    assert min(map(abs, big)) > 1e307


@pytest.mark.parametrize("argv", [
    ("diagram", "--b-min", "-0.5", "--b-max", "-0.4", "--steps", "2",
     "--transient", "-3", "--samples", "6"),
    ("orbit", "--b", "-1", "--x0", "3,3,3", "--n", "5", "--transient", "-2"),
    ("lyapunov", "--b", "-1", "--x0", "5,0,0", "--transient", "-5"),
], ids=lambda argv: argv[0])
def test_negative_transient_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "out.csv"
    r = run(*argv, "--out", str(out))
    assert r.returncode == 1
    assert "transient must be >= 0, got -" in r.stderr
    assert not out.exists()


def _basin_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices["basin"]._actions}


def test_basin_options_are_exactly_the_basin_flags():
    flags = _basin_flags()
    not_options = {"help", "b", "slice", "u_range", "v_range", "res", "seeds",
                   "out", "ppm"}
    assert {f.name for f in dataclasses.fields(BasinOptions)} == \
        flags - not_options


def test_basin_config_echoes_every_basin_flag(tmp_path):
    csv = tmp_path / "basin.csv"
    base = ("basin", "--b", "-0.4", "--res", "4,3", "--out", str(csv))
    configs = []
    for extra in ((), ("--match-tol", "0.2", "--seeds", "0.1,0.2,0.3")):
        r = run(*base, *extra)
        assert r.returncode == 0, r.stderr
        cfg = json.loads(r.stderr.splitlines()[0][len("config: "):])
        assert json.loads((tmp_path / "basin.meta.json").read_text())[
            "config"] == cfg
        # the two former flags, now constants, keep their keys
        assert set(cfg) - {"subcommand"} == _basin_flags() - {
            "help", "out", "ppm"} | {"merge_tol", "tail_samples"}
        configs.append(cfg)
    default, custom = configs
    assert (default["match_tol"], default["seeds"]) == (0.05, None)
    assert (custom["match_tol"], custom["seeds"]) == (0.2, [[0.1, 0.2, 0.3]])
    assert (custom["merge_tol"], custom["tail_samples"]) == (0.3, 16)


def test_diagram_csv_shape(tmp_path):
    out = tmp_path / "diag.csv"
    r = run("diagram", "--b-min", "-1.3", "--b-max", "-1.2", "--steps", "3",
            "--samples", "8", "--transient", "200", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "b,x"
    assert len(lines) == 1 + 3 * 8


def test_diagram_to_file_and_to_stdout_are_the_same_bytes(tmp_path):
    out = tmp_path / "diag.csv"
    args = ("diagram", "--b-min", "-1.9", "--b-max", "-1.2", "--steps", "40",
            "--samples", "200", "--transient", "50")
    r = run(*args, "--out", str(out))
    assert r.returncode == 0
    blob = out.read_bytes()
    assert len(blob) > serialize.WRITE_SLICE
    r2 = run(*args, text=False)
    assert r2.returncode == 0
    assert r2.stdout == blob


# Identical command lines give byte-identical files, release after release:
# SHA-256 of each output: the first three pinned from the per-value writers
# these outputs were first written with, the rest from the lift and census
# enumeration that preceded `cycles.mixed_lifts`.
PINNED = [
    ("diagram",
     ("diagram", "--b-min", "-1.99", "--b-max", "-0.3", "--steps", "800",
      "--x0", "0,-0.5,0", "--transient", "1000", "--samples", "200",
      "--out", "diagram.csv"),
     {"diagram.csv": "0e389b85f1bdbe727763fee8199596a8"
                     "f9daebfc4e4122cf6d55777448fa54f8"}),
    ("census",
     ("census", "--b", "-2", "--period", "11", "--out", "census.json"),
     {"census.json": "2df55d1c48a5765f9ed90bbd47070d8c"
                     "d135e019939c16373a5856e6ef7371a8"}),
    ("basin",
     ("basin", "--b", "-1.864", "--slice", "z=0.5", "--u-range", "-2,2",
      "--v-range", "-2,2", "--res", "20,20", "--signature-samples", "4096",
      "--match-tol", "0.3", "--out", "basin.csv", "--ppm", "basin.ppm"),
     {"basin.csv": "ef7357c628a21fa3be860d1104b3be62"
                   "88d1edf8fde4c731171ac32be7966fd8",
      "basin.meta.json": "0d030ad9cb771b09eff2d8a35720ef9a"
                         "c7106c74d134646fc823d7a374f76102",
      "basin.ppm": "c39099f7c4b4808f456139dc9a8d6886"
                   "ad5a26044969eda528897f220576aae2"}),
    ("lift_pairs", ("lift", "--b", "-1", "--periods", "1,2",
                    "--out", "lift_pairs.json"),
     {"lift_pairs.json": "4708962ff3571803cdc2f3ecb70132b3"
                         "41ddca8333ed806078c3840994f0135f"}),
    ("lift_3n", ("lift", "--b", "-1", "--periods", "2", "--times3",
                 "--out", "lift_3n.json"),
     {"lift_3n.json": "e9dfbd8db5ab4bcbbc6bc4c621c63a20"
                      "db02276331dc75d1be5ec4de494f2b4c"}),
    ("census6", ("census", "--b", "-1", "--period", "6",
                 "--out", "census6.json"),
     {"census6.json": "0225a0765614f874d79fbe8ef880187b"
                      "e240fd387204eabc72a4692f8179aa6d"}),
    # 3n lifts of the 4-cycle, mixed pairs over (1, 4) and (2, 4), mixed
    # triples over (1, 1, 4) and (1, 2, 4)
    ("census12", ("census", "--b", "-1.3", "--period", "12",
                  "--out", "census12.json"),
     {"census12.json": "3caf0e811d7320abfe9028f92f6652a8"
                       "1d60254091fe5fc520141b0e37240f5c"}),
    ("fixed_points", ("fixed-points", "--b", "-1.3",
                      "--out", "fixed_points.json"),
     {"fixed_points.json": "566fb48a2a6ee91399eea749944013e9"
                           "0a53208e470744bca9cda6f6ded48417"}),
    # the recipe's chaotic orbit and its preimages line, written to a file
    ("orbit_chaos", ("orbit", "--b", "-1.864", "--x0", "0,-0.5,0.5",
                     "--n", "4000", "--transient", "1000",
                     "--out", "orbit_chaos.csv"),
     {"orbit_chaos.csv": "4ef6f99c6d42abbea54a4f20f3f1cdb4"
                         "8b1aff665cc207d3908e59da3cc68d8a"}),
    ("preimages", ("preimages", "--b", "-1.3", "--point", "0.4,-0.2,0.7",
                   "--out", "preimages.json"),
     {"preimages.json": "2d032a645f4bc9544531d2b2d61e7d00"
                        "7ebd2c206d9d3c6f80fe5c7a416d0aca"}),
    # the recipe's scalar 3-cycles and its seven locator lines, to files,
    # pinned while the finder and the locators had their own closure tests
    ("cycles3_b176", ("cycles-1d", "--b", "-1.76", "--period", "3",
                      "--out", "cycles3_b176.csv"),
     {"cycles3_b176.csv": "4e37ea9f36836907248575093b88d9ff"
                          "784a12ef713cd7ad7f29eaad70f2daa8"}),
    ("fold1", ("bifurcations", "--kind", "fold", "--period", "1",
               "--bracket", "0.2,0.3", "--out", "fold1.csv"),
     {"fold1.csv": "a76a4d3dc0e4e31421d6c85f0d8e187f"
                   "9280f15e2852fe86e8d26b837b8daa96"}),
    ("flip1", ("bifurcations", "--kind", "flip", "--period", "1",
               "--bracket", "-0.8,-0.7", "--out", "flip1.csv"),
     {"flip1.csv": "0eb83b398fd0f4f74fe1321088e878f8"
                   "76210aba08be8d494dd04d8132fd5227"}),
    ("flip2", ("bifurcations", "--kind", "flip", "--period", "2",
               "--bracket", "-1.3,-1.2", "--out", "flip2.csv"),
     {"flip2.csv": "77790edd4d328cb710a8f976242b8bd1"
                   "1ce38690917f242d8e7e3641f073922c"}),
    ("flip4", ("bifurcations", "--kind", "flip", "--period", "4",
               "--bracket", "-1.45,-1.3", "--out", "flip4.csv"),
     {"flip4.csv": "2a59e27ec368e092288f3ba299aa7689"
                   "c00f715c1a4469101f409d148b2134e8"}),
    ("fold3", ("bifurcations", "--kind", "fold", "--period", "3",
               "--bracket", "-1.8,-1.7", "--out", "fold3.csv"),
     {"fold3.csv": "860f38774d8494eddf5eadd61af17d03"
                   "1c95ac7bde4e19f8758abaafb375c06b"}),
    ("flip3", ("bifurcations", "--kind", "flip", "--period", "3",
               "--bracket", "-1.8,-1.75", "--out", "flip3.csv"),
     {"flip3.csv": "625c7d9ba78824dc0b0f9b144c8955116"
                   "372bf8cebd0623f1891f392f2315e26"}),
    ("transcritical", ("bifurcations", "--kind", "transcritical",
                       "--bracket", "0.2,0.3", "--out", "transcritical.csv"),
     {"transcritical.csv": "89b5c4fe5366945d32c623740194a309"
                           "a842a1a3593444fe73ea52fdd5906f5f"}),
    # the two `tables` census jobs not pinned above, and the one CLI path
    # through lift_mixed_triple, pinned while each lift built its points
    ("census18_b19", ("census", "--b", "-1.9", "--period", "18",
                      "--out", "census18_b19.json"),
     {"census18_b19.json": "f5c56c7839ff132316875b3f03ab81db"
                           "06e03ad5fea3db3832fcf3ab1e951bde"}),
    ("census15_b2", ("census", "--b", "-2", "--period", "15",
                     "--out", "census15_b2.json"),
     {"census15_b2.json": "2c0a6e4ac13ae6fbd905e57e1bcd3e05"
                          "300df45a519447f57f2232d803e9cd14"}),
    ("lift_triple", ("lift", "--b", "-1.3", "--periods", "1,1,4",
                     "--out", "lift_triple.json"),
     {"lift_triple.json": "5bb5cfddec0bd589d304d4cc85c079b6"
                          "88d38d5c503a51795f376d4f2f42c1ab"}),
]


@pytest.mark.parametrize("argv, digests", [pin[1:] for pin in PINNED],
                         ids=[pin[0] for pin in PINNED])
def test_outputs_match_pinned_digests(tmp_path, argv, digests):
    r = run(*argv, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


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


def _lift_orbit_sets(capsys, b, periods):
    assert main(["lift", "--b", b, "--periods", periods]) == 0
    pay = json.loads(capsys.readouterr().out)
    assert pay["count"] == len(pay["cycles"])
    return {frozenset(map(tuple, c["points"])) for c in pay["cycles"]}


@pytest.mark.parametrize("orders", [("1,1,3", "1,3,1", "3,1,1"),
                                    ("1,3", "3,1")])
def test_lift_counts_and_orbits_do_not_depend_on_period_order(capsys,
                                                              orders):
    # at b = -1.9 both fixed points and both 3-cycles are real
    real = {1: 2, 3: 2}
    periods = [int(n) for n in orders[0].split(",")]
    source_sets = math.prod(math.comb(real[n], k)
                            for n, k in Counter(periods).items())
    # 2nmp/lcm orbits per triple of sources, (n+m)nm/lcm per pair
    weave = 2 if len(periods) == 3 else sum(periods)
    per_set = weave * math.prod(periods) // math.lcm(*periods)
    found = [_lift_orbit_sets(capsys, "-1.9", order) for order in orders]
    assert all(len(orbits) == source_sets * per_set for orbits in found)
    assert all(orbits == found[0] for orbits in found)


def test_times3_needs_single_period():
    assert run("lift", "--b", "-1", "--periods", "1,2", "--times3")\
        .returncode == 1


# ---------------------------------------------------------------------------
# process entry


def test_run_freezes_the_heap_then_runs_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["quadshift", "--version"])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "quadshift 0.1.0\n"


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert main(["fixed-points", "--b", "-0.4"]) == 0
    assert gc.get_freeze_count() == before


def test_process_stdout_matches_in_process_file(tmp_path, capsys,
                                                monkeypatch):
    # nothing buffered is lost when the process entry exits
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    args = ["census", "--b", "-1", "--period", "6"]
    out = tmp_path / "census.json"
    assert main([*args, "--out", str(out)]) == 0
    r = run(*args, text=False)
    assert r.returncode == 0
    assert r.stdout == out.read_bytes()


def test_script_entry_is_what_python_m_calls():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = target["quadshift"].partition(":")
    # `raise SystemExit(f())`: the name of f
    called = [node.exc.args[0].func.id
              for node in ast.walk(ast.parse(Path(entry.__file__).read_text()))
              if isinstance(node, ast.Raise)]
    assert len(called) == 1
    assert getattr(importlib.import_module(module), name) \
        is getattr(entry, called[0])


# ---------------------------------------------------------------------------
# documented command lines


def _recipe_lines(subcommand=None, path=ROOT / "recipes" / "README.md"):
    """The `quadshift ...` lines of a markdown file as argv lists without
    the program name, continuation lines joined; with `subcommand`, only
    the lines that run it."""
    text = path.read_text().replace("\\\n", " ")
    return [line.split()[1:] for line in text.splitlines()
            if line.startswith("quadshift ")
            and subcommand in (None, line.split()[1])]


def test_every_documented_command_line_parses():
    # recipes/README.md and the README's CLI quickstart, parsed only: a
    # flag removed or renamed in the CLI fails here, not in a user's shell
    lines = _recipe_lines() + _recipe_lines(path=ROOT / "README.md")
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"does not parse: quadshift {' '.join(argv)}")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in lines} == set(sub.choices)


def test_every_benchmark_command_line_parses():
    # the jobs of bench/workloads.py, parsed only: a flag removed or renamed
    # in the CLI fails here, not as a failed benchmark run
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    seen = set()
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for job in workloads.build(workload, seed):
                argv = job.args("out")
                try:
                    parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"{workload} seed {seed} job {job.name} does "
                                f"not parse: quadshift {' '.join(argv)}")
                seen.add(argv[0])
    assert {"census", "basin", "render", "diagram"} <= seen
