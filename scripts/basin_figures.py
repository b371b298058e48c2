"""Basin-of-attraction slices at the two chaotic stations.

For b = -1.864 (several coexisting chaotic attractors) and b = -2 (one
chaotic set plus a large escape region) this runs the two basin lines of
recipes/README.md through the CLI, so it writes the same files, byte for
byte: per station the label grid CSV, the JSON sidecar and a PPM image in
the default palette (basin_b1864.* and basin_b2.*).

The 400x400 default takes about 5 s per station on a 2-CPU machine; use
--res for a quick look.

Usage: python3 scripts/basin_figures.py [--res 400] [--out-dir out]
"""
import argparse
import pathlib

from quadshift.cli import main as cli_main

STATIONS = (("-1.864", "basin_b1864"), ("-2", "basin_b2"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--res", type=int, default=400)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for b, stem in STATIONS:
        # chaotic tails need a dense signature cloud to land close to; the
        # interactive defaults are tuned for cycles and are too strict here
        code = cli_main([
            "basin", "--b", b, "--slice", "z=0.5",
            "--u-range", "-2,2", "--v-range", "-2,2",
            "--res", f"{args.res},{args.res}",
            "--signature-samples", "4096", "--match-tol", "0.3",
            "--out", str(out / f"{stem}.csv"),
            "--ppm", str(out / f"{stem}.ppm")])
        if code:
            return code
        print(f"wrote {out / stem}.csv/.meta.json/.ppm")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
