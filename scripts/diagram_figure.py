"""Full-range orbit diagram: post-transient x-samples against b.

Runs the diagram line of recipes/README.md through the CLI, so it writes
the same out/diagram.csv (columns b,x), byte for byte; --steps, --samples
and --transient replace the line's values.  It then prints a small
console summary of the distinct-sample counts at a few waypoint
parameters, which is the quickest way to see the doubling cascade without
plotting anything.

Usage: python3 scripts/diagram_figure.py [--steps 800] [--out-dir out]
"""
import argparse
import pathlib

from quadshift import Point3, bifurcation_diagram, distinct_sample_count
from quadshift.cli import main as cli_main

X0 = Point3(0.0, -0.5, 0.0)
WAYPOINTS = (-0.4, -0.78, -1.26, -1.6)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=800)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--transient", type=int, default=1000)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    path = out / "diagram.csv"
    code = cli_main(["diagram", "--b-min", "-1.99", "--b-max", "-0.3",
                     "--steps", str(args.steps), "--x0", "0,-0.5,0",
                     "--transient", str(args.transient),
                     "--samples", str(args.samples), "--out", str(path)])
    if code:
        return code
    print(f"wrote {path}")

    for b in WAYPOINTS:
        row = bifurcation_diagram((b, b), 1, p0=X0,
                                  transient=args.transient,
                                  samples=args.samples).rows[0]
        n = ("diverged" if row.samples is None
             else distinct_sample_count(row.samples))
        print(f"  b = {b:+.3f}: {n} distinct samples")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
