"""Basin-of-attraction slices at the two chaotic stations.

For b = -1.864 (several coexisting chaotic attractors) and b = -2 (one
chaotic set plus a large escape region) this classifies a z = 0.5 slice
over [-2, 2]^2 and writes, per station: the label grid CSV, the JSON
sidecar, and a PPM image in the default palette.

The 400x400 default takes about 5 s per station on a 2-CPU machine; use
--res for a quick look.

Usage: python3 scripts/basin_figures.py [--res 400] [--out-dir out]
"""
import argparse
import pathlib

from quadshift import (BasinOptions, Params, SliceSpec, basin_slice,
                       build_catalog, render_grid)
from quadshift.serialize import (basin_csv, basin_sidecar, dumps_17g,
                                 save_bytes, save_text)

STATIONS = (-1.864, -2.0)

# chaotic tails need a dense signature cloud to land close to; the
# interactive defaults are tuned for cycles and are too strict here
OPTIONS = BasinOptions(signature_samples=4096, match_tol=0.3)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--res", type=int, default=400)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec = SliceSpec(fixed_axis="z", fixed_value=0.5,
                     u_range=(-2.0, 2.0), v_range=(-2.0, 2.0),
                     nu=args.res, nv=args.res)
    for b in STATIONS:
        params = Params(b)
        catalog = build_catalog(params, options=OPTIONS)
        grid = basin_slice(params, spec, catalog, OPTIONS,
                           threads=args.threads)
        stem = out / f"basin_b{b:+.3f}"       # '.' in the name: no with_suffix
        save_text(f"{stem}.csv", basin_csv(grid))
        save_text(f"{stem}.meta.json", dumps_17g(basin_sidecar(grid)))
        save_bytes(f"{stem}.ppm", render_grid(grid))
        kinds = ", ".join(f"{a.id}:{a.kind}" for a in catalog)
        print(f"wrote {stem}.csv/.meta.json/.ppm  "
              f"({len(catalog)} attractors: {kinds})")


if __name__ == "__main__":
    main()
