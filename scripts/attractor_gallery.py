"""Orbit samples of the named attractors, one CSV each.

Covers the parameter stations of the attractor story: a fixed point at
b = -0.4, the order-6 cycle at b = -0.8, a 3-cycle lift at b = -1.76,
broad chaos at b = -1.864, and the boundary case b = -2 sampled from
three nearby starts that all land on the same third-order chaotic set.

This runs the seven orbit lines of recipes/README.md through the CLI, so
it writes the same files, byte for byte (orbit_fixed.csv, orbit_order6.csv,
orbit_3cycle.csv, orbit_chaos.csv and orbit_b2_s1/s2/s3.csv); --n and
--transient replace the lines' values.

Usage: python3 scripts/attractor_gallery.py [--n 4000] [--out-dir out]
"""
import argparse
import pathlib

from quadshift.cli import main as cli_main

STATIONS = (
    ("-0.4", "0,-0.5,0", "orbit_fixed"),
    ("-0.8", "0,-0.5,0", "orbit_order6"),
    ("-1.76", "0,-0.5,0.5", "orbit_3cycle"),
    ("-1.864", "0,-0.5,0.5", "orbit_chaos"),
    ("-2", "-0.5,0,0", "orbit_b2_s1"),
    ("-2", "-0.5,-0.01,0", "orbit_b2_s2"),
    ("-2", "-0.5,-0.5,0", "orbit_b2_s3"),
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4000,
                    help="post-transient samples per orbit")
    ap.add_argument("--transient", type=int, default=1000)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for b, x0, stem in STATIONS:
        path = out / f"{stem}.csv"
        code = cli_main(["orbit", "--b", b, "--x0", x0, "--n", str(args.n),
                         "--transient", str(args.transient),
                         "--out", str(path)])
        if code:
            return code
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
