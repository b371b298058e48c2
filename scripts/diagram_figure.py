"""Full-range orbit diagram: post-transient x-samples against b.

Writes out/diagram.csv (columns b,x) plus a small console summary of the
distinct-sample counts at a few waypoint parameters, which is the quickest
way to see the doubling cascade without plotting anything.

Usage: python3 scripts/diagram_figure.py [--steps 800] [--out-dir out]
"""
import argparse
import pathlib

from quadshift import (Params, Point3, bifurcation_diagram,
                       distinct_sample_count)
from quadshift.serialize import diagram_csv, save_text

B_RANGE = (-1.99, -0.3)
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

    data = bifurcation_diagram(B_RANGE, args.steps, p0=X0,
                               transient=args.transient,
                               samples=args.samples)
    path = out / "diagram.csv"
    save_text(path, diagram_csv(data))
    divergent = sum(1 for r in data.rows if r.samples is None)
    print(f"wrote {path}  ({len(data.rows)} parameters, "
          f"{divergent} divergent)")

    for b in WAYPOINTS:
        row = bifurcation_diagram((b, b), 1, p0=X0,
                                  transient=args.transient,
                                  samples=args.samples).rows[0]
        n = ("diverged" if row.samples is None
             else distinct_sample_count(row.samples))
        print(f"  b = {b:+.3f}: {n} distinct samples")


if __name__ == "__main__":
    main()
