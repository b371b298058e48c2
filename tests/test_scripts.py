"""The scripts in scripts/ run end to end at tiny sizes, and the basin
script writes exactly the files of the recipes/README.md basin lines."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
     {f"orbit_{s}.csv" for s in (
         "fixed_point_b-0.40", "order6_b-0.80", "threecycle_b-1.76",
         "chaos_b-1.864", "chaos_b-2.00_s1", "chaos_b-2.00_s2",
         "chaos_b-2.00_s3")}),
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


def _recipe_basin_lines():
    text = (ROOT / "recipes" / "README.md").read_text().replace("\\\n", " ")
    return [line.split()[1:] for line in text.splitlines()
            if line.startswith("quadshift basin ")]


def test_basin_script_writes_the_recipe_files(tmp_path):
    lines = _recipe_basin_lines()
    assert len(lines) == 2
    cli_dir, script_dir = tmp_path / "cli", tmp_path / "script"
    cli_dir.mkdir()
    for argv in lines:
        # the recipe line at the script's resolution, into cli_dir
        argv = [f"{RES},{RES}" if prev == "--res" else
                str(cli_dir / Path(a).name) if a.startswith("out/") else a
                for prev, a in zip([None] + argv, argv)]
        r = run("-m", "quadshift", *argv)
        assert r.returncode == 0, r.stderr
    r = run(ROOT / "scripts" / "basin_figures.py", "--res", RES,
            "--out-dir", script_dir)
    assert r.returncode == 0, r.stderr
    cli, script = _files(cli_dir), _files(script_dir)
    assert len(cli) == 6
    assert script == cli
