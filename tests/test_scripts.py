"""The scripts in scripts/ run end to end at tiny sizes and write exactly
the files of the recipes/README.md lines they stand for, and every
documented `quadshift` command line parses."""
import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadshift.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
RES = 12


def run(*args, cwd=None):
    # the subprocess imports this checkout's package, installed or not
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300, env=env)


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("script, flags, names", [
    ("attractor_gallery.py", ("--n", "50", "--transient", "100"),
     {f"orbit_{s}.csv" for s in ("fixed", "order6", "3cycle", "chaos",
                                 "b2_s1", "b2_s2", "b2_s3")}),
    ("diagram_figure.py", ("--steps", "20", "--samples", "10",
                           "--transient", "100"), {"diagram.csv"}),
    ("basin_figures.py", ("--res", str(RES)),
     {f"basin_{s}{ext}" for s in ("b1864", "b2")
      for ext in (".csv", ".meta.json", ".ppm")}),
])
def test_script_writes_its_files(tmp_path, script, flags, names):
    r = run(ROOT / "scripts" / script, *flags, "--out-dir", tmp_path)
    assert r.returncode == 0, r.stderr
    assert set(_files(tmp_path)) == names


def _recipe_lines(subcommand=None, path=ROOT / "recipes" / "README.md"):
    """The `quadshift ...` lines of a markdown file as argv lists without
    the program name, continuation lines joined; with `subcommand`, only
    the lines that run it."""
    text = path.read_text().replace("\\\n", " ")
    return [line.split()[1:] for line in text.splitlines()
            if line.startswith("quadshift ")
            and subcommand in (None, line.split()[1])]


def _at(argv, values, out_dir):
    """argv with the flags in `values` set to theirs and each out/ path
    moved into out_dir."""
    return [values[prev] if prev in values else
            str(out_dir / Path(a).name) if a.startswith("out/") else a
            for prev, a in zip([None] + argv, argv)]


def _check_script_writes_the_recipe_files(tmp_path, script, subcommand,
                                          values, script_flags, n_files):
    lines = _recipe_lines(subcommand)
    cli_dir, script_dir = tmp_path / "cli", tmp_path / "script"
    cli_dir.mkdir()
    for argv in lines:
        assert main(_at(argv, values, cli_dir)) == 0
    r = run(ROOT / "scripts" / script, *script_flags, "--out-dir", script_dir)
    assert r.returncode == 0, r.stderr
    cli, script = _files(cli_dir), _files(script_dir)
    assert len(cli) == n_files
    assert script == cli


def test_basin_script_writes_the_recipe_files(tmp_path):
    _check_script_writes_the_recipe_files(
        tmp_path, "basin_figures.py", "basin", {"--res": f"{RES},{RES}"},
        ("--res", RES), 6)


def test_gallery_script_writes_the_recipe_files(tmp_path):
    _check_script_writes_the_recipe_files(
        tmp_path, "attractor_gallery.py", "orbit",
        {"--n": "50", "--transient": "100"},
        ("--n", 50, "--transient", 100), 7)


def test_diagram_script_writes_the_recipe_files(tmp_path):
    _check_script_writes_the_recipe_files(
        tmp_path, "diagram_figure.py", "diagram",
        {"--steps": "20", "--samples": "10", "--transient": "100"},
        ("--steps", 20, "--samples", 10, "--transient", 100), 1)


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
