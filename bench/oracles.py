"""Closed-form oracles for every benchmark job's output files.

Each `check_*` function reads one job's files and returns a list of
failure messages, empty when the output passes.  The checks rest on the
package's central fact, T^3 = H x H x H with H(u) = u^2 + b, and never on
the package's own code:

* counts: for b <= -2 every scalar period-n cycle is real, so there are
  necklace(n) of them, and T has necklace(p) orbits of period p;
  elsewhere the Moebius sum over the scalar cycles gives the census total
  and the lift-count formulas give each lift's size;
* cycle points close under T and their eigenvalues are the three
  per-stream products of 2u;
* spectra are the per-stream averages of log|2u|;
* event locations, diagram windows and critical planes have closed forms;
* the divergent cells of a basin slice are the union of three scalar
  escape masks.
"""
from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from math import gcd

import numpy as np

LN2_OVER_3 = math.log(2.0) / 3.0
# bound on |exponent - ln2/3| at b = -2 and on |exponent - lambda_1d/3| at
# b = -1.864 for 2e5-step spectra from generic starts; over 40 seeds the
# largest deviations were 2.4e-5 and 2.1e-3
LYAPUNOV_TOL = 0.01
STABILITY_TOL = 1e-9
# smallest |H^k(u) - u| allowed at a local extremum when counting real
# fixed points on a grid; at b = -1.9 the smallest for k <= 6 is 4.7e-3
TANGENCY_MARGIN = 1e-6
FIXED_POINT_GRID = 2 ** 20


def mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def necklace(n: int) -> int:
    """Real period-n cycles of u -> u^2 + b for b <= -2: (1/n) sum mu(n/d) 2^d."""
    return sum(mobius(n // d) * 2 ** d for d in divisors(n)) // n


def orbit_count_3d(p: int, scalar_cycles: dict) -> int:
    """Period-p orbits of T built on the given scalar cycle counts
    {period: number of cycles}.  T^d fixes N(d) points when 3 does not
    divide d and N(d/3)^3 when it does, N(k) being the number of real
    solutions of H^k(u) = u; Moebius inversion gives the minimal ones."""
    def n_fixed(k):
        return sum(j * c for j, c in scalar_cycles.items() if k % j == 0)

    def t_fixed(d):
        return n_fixed(d // 3) ** 3 if d % 3 == 0 else n_fixed(d)

    return sum(mobius(p // d) * t_fixed(d) for d in divisors(p)) // p


def scalar_periods(p: int) -> list:
    """The scalar periods whose cycles make T's period-p orbits: T^d draws
    on H^d when 3 does not divide d and on H^(d/3) when it does."""
    return sorted({j for d in divisors(p)
                   for j in divisors(d // 3 if d % 3 == 0 else d)})


def real_fixed_points(b: float, k: int) -> int:
    """Real solutions of H^k(u) = u, counted as sign changes of
    g(u) = H^k(u) - u on a grid over the invariant interval [-beta, beta]
    (padded; outside it g > 0).  H^k has at most 2^k monotone laps, so the
    grid resolves them for small k.  The count is refused if it changes
    with the grid or if g has a local extremum within TANGENCY_MARGIN of
    0, where a grid could miss a pair of roots or invent one."""
    if 2 ** k * 64 > FIXED_POINT_GRID:
        raise ValueError(f"grid of {FIXED_POINT_GRID} points too coarse "
                         f"for H^{k}")
    beta = (1.0 + math.sqrt(1.0 - 4.0 * b)) / 2.0
    counts = []
    for n in (FIXED_POINT_GRID // 4, FIXED_POINT_GRID):
        u = np.linspace(-beta - 1e-3, beta + 1e-3, n)
        x = u.copy()
        for _ in range(k):
            x = x * x + b
        g = x - u
        neg = np.signbit(g)
        counts.append(int(np.count_nonzero(neg[1:] != neg[:-1])))
        slope = np.signbit(np.diff(g))
        extrema = np.nonzero(slope[1:] != slope[:-1])[0] + 1
        if extrema.size and np.abs(g[extrema]).min() < TANGENCY_MARGIN:
            raise ValueError(f"H^{k} - id is nearly tangent to 0 at b={b!r}")
    if counts[0] != counts[1]:
        raise ValueError(f"H^{k} fixed points at b={b!r}: {counts} on two grids")
    return counts[1]


def scalar_cycle_counts(b: float, periods) -> dict:
    """Real scalar cycles per period ({period: count}; `periods` must hold
    the divisors of each of its members).  Closed forms where known: all
    necklace(n) for b <= -2; fixed points and the 2-cycle only for
    -1.25 < b < -0.75.  Elsewhere Moebius inversion of real_fixed_points."""
    if b <= -2.0:
        return {j: necklace(j) for j in periods}
    if -1.25 < b < -0.75:
        return {j: {1: 2, 2: 1}.get(j, 0) for j in periods}
    fixed = {j: real_fixed_points(b, j) for j in periods}
    return {n: sum(mobius(n // d) * fixed[d] for d in divisors(n)) // n
            for n in periods}


def _close(a: float, e: float, rel: float) -> bool:
    return abs(a - e) <= rel * max(1.0, abs(e))


# ---------------------------------------------------------------------------
# periodic orbits


def check_cycles1d(path, b: float, n: int) -> list:
    rows = _csv_rows(path)
    cycles, fails = [], []
    for period, i, x, mult in rows:
        if int(i) == 0:
            cycles.append([int(period), float(mult), []])
        cycles[-1][2].append(float(x))
    for period, mult, pts in cycles:
        if period != n or len(pts) != n or len(set(pts)) != n:
            fails.append(f"cycle at {pts[0]!r} is not a period-{n} orbit")
            continue
        gap = max(abs(pts[(i + 1) % n] - (pts[i] * pts[i] + b))
                  for i in range(n))
        if gap > 1e-9:
            fails.append(f"cycle at {pts[0]!r} does not close (gap {gap:.3g})")
        expected = 1.0
        for x in sorted(pts):
            expected *= 2.0 * x
        if not _close(mult, expected, 1e-9):
            fails.append(f"cycle at {pts[0]!r}: multiplier {mult!r}, "
                         f"product of 2x is {expected!r}")
    keys = {tuple(round(x, 7) for x in sorted(pts)) for _, _, pts in cycles}
    if len(keys) != len(cycles):
        fails.append(f"{len(cycles) - len(keys)} duplicate cycles")
    if b <= -2.0 and len(cycles) != necklace(n):
        fails.append(f"found {len(cycles)} period-{n} cycles at b={b!r}, "
                     f"necklace({n}) = {necklace(n)}")
    return fails


def _stream_products(points, p):
    # T^L at a period-p cycle (L = p or 3p, a multiple of 3) is diagonal;
    # its entries are the products of 2x over the steps in each residue
    L = p if p % 3 == 0 else 3 * p
    prods = [1.0, 1.0, 1.0]
    for k in range(L):
        prods[k % 3] *= 2.0 * points[k % p][0]
    return sorted(prods, reverse=True)


def _check_cycles3d(cycles, b: float, period: int) -> list:
    fails = []
    for c in cycles:
        pts = c["points"]
        tag = f"orbit at {pts[0]}"
        if c["period"] != period or len(pts) != period:
            fails.append(f"{tag}: period {c['period']} with {len(pts)} points, "
                         f"expected {period}")
            continue
        gap = 0.0
        for i, (x, y, z) in enumerate(pts):
            nx, ny, nz = pts[(i + 1) % period]
            gap = max(gap, abs(nx - y), abs(ny - z), abs(nz - (x * x + b)))
        if gap > 1e-9:
            fails.append(f"{tag}: does not close under T (gap {gap:.3g})")
        expected = _stream_products(pts, period)
        if not all(_close(a, e, 1e-9) for a, e in zip(c["eigenvalues"], expected)):
            fails.append(f"{tag}: eigenvalues {c['eigenvalues']}, "
                         f"stream products {expected}")
        mags = [abs(e) for e in expected]
        if any(abs(m - 1.0) <= STABILITY_TOL for m in mags):
            tag_expected = "nonhyperbolic"
        elif all(m < 1.0 for m in mags):
            tag_expected = "stable"
        else:
            tag_expected = "unstable"
        if c["stability"] != tag_expected:
            fails.append(f"{tag}: stability {c['stability']}, "
                         f"expected {tag_expected}")
    keys = {tuple(sorted(tuple(round(v, 7) for v in q) for q in c["points"]))
            for c in cycles}
    if len(keys) != len(cycles):
        fails.append(f"{len(cycles) - len(keys)} duplicate orbits")
    return fails


def check_census(path, b: float, p: int) -> list:
    with open(path) as fh:
        data = json.load(fh)
    cycles = data["cycles"]
    fails = _check_cycles3d(cycles, b, p)
    total = data["counts"]["total"]
    if total != len(cycles):
        fails.append(f"counts.total {total} but {len(cycles)} cycles listed")
    expected = orbit_count_3d(p, scalar_cycle_counts(b, scalar_periods(p)))
    if len(cycles) != expected:
        fails.append(f"census found {len(cycles)} period-{p} orbits at "
                     f"b={b!r}; the scalar cycle counts give {expected}")
    return fails


def lift_count(periods, times3: bool, scalar: dict) -> int:
    """Closed-form size of one `lift` run: one homogeneous orbit per cycle,
    (n^2 - 1)/3 (3 not dividing n) or n^2/3 triple-period orbits per
    cycle, and (n + m)nm/lcm(n, m) mixed orbits per pair of cycles."""
    if len(periods) == 1:
        n = periods[0]
        per_cycle = (n * n - 1) // 3 if n % 3 else n * n // 3
        return scalar[n] * (per_cycle if times3 else 1)
    if len(periods) == 2:
        n, m = periods
        s = n * m // gcd(n, m)
        pairs = (scalar[n] * (scalar[n] - 1) // 2 if n == m
                 else scalar[n] * scalar[m])
        return pairs * (n + m) * n * m // s
    raise ValueError("lift oracle covers one or two periods")


def check_lift(path, b: float, periods, times3: bool) -> list:
    with open(path) as fh:
        data = json.load(fh)
    cycles = data["cycles"]
    scalar = scalar_cycle_counts(b, periods)
    if len(periods) == 1:
        period = 3 * periods[0] if times3 else periods[0]
    else:
        period = 3 * periods[0] * periods[1] // gcd(*periods)
    fails = _check_cycles3d(cycles, b, period)
    expected = lift_count(tuple(periods), times3, scalar)
    if len(cycles) != expected or data["count"] != expected:
        fails.append(f"lift found {len(cycles)} orbits, formula gives {expected}")
    return fails


# ---------------------------------------------------------------------------
# bifurcations, trajectories, fold geometry


def check_event(path, kind: str, period: int, b_star: float, tol: float) -> list:
    rows = _csv_rows(path)
    if len(rows) != 1:
        return [f"{len(rows)} event rows, expected 1"]
    k, per, b, _x = rows[0]
    fails = []
    if k != kind or int(per) != period:
        fails.append(f"event {k} p{per}, expected {kind} p{period}")
    if abs(float(b) - b_star) > tol:
        fails.append(f"{kind} p{period} at b={b}, expected {b_star} "
                     f"within {tol:g} (off by {abs(float(b) - b_star):.3g})")
    return fails


def stream_exponents(x0, b: float, n_iter: int, transient: int):
    """Spectrum of T along the orbit of x0, per step, from the three scalar
    streams: the tangent cocycle over each 3-step block is diagonal, so each
    exponent is one stream's sum of log|2u| divided by n_iter."""
    x, y, z = x0
    for _ in range(transient):
        x, y, z = y, z, x * x + b
    sums = [0.0, 0.0, 0.0]
    for k in range(n_iter):
        sums[k % 3] += math.log(max(abs(2.0 * x), 1e-300))
        x, y, z = y, z, x * x + b
    return sorted((s / n_iter for s in sums), reverse=True)


@lru_cache(maxsize=None)
def scalar_exponent(b: float, n_iter: int = 10 ** 6, x0: float = 0.3) -> float:
    """Long-run average of log|2u| along one scalar orbit (lyapunov_1d)."""
    x = x0
    for _ in range(10_000):
        x = x * x + b
    s = 0.0
    for _ in range(n_iter):
        s += math.log(max(abs(2.0 * x), 1e-300))
        x = x * x + b
    return s / n_iter


def check_lyapunov(path, b: float, x0, n_iter: int, transient: int) -> list:
    rows = _csv_rows(path)
    if len(rows) != 1:
        return [f"{len(rows)} spectrum rows, expected 1"]
    rb, l1, l2, l3, n_used = rows[0]
    got = [float(l1), float(l2), float(l3)]
    fails = []
    if float(rb) != b or int(n_used) != n_iter:
        fails.append(f"row for b={rb}, n_iter={n_used}")
    streams = stream_exponents(x0, b, n_iter, transient)
    if not all(abs(g - s) <= 1e-9 for g, s in zip(got, streams)):
        fails.append(f"exponents {got} differ from stream averages {streams}")
    target = LN2_OVER_3 if b == -2.0 else scalar_exponent(b) / 3.0
    off = max(abs(g - target) for g in got)
    if off > LYAPUNOV_TOL:
        fails.append(f"exponents {got} are {off:.3g} from {target:.6f} "
                     f"(tolerance {LYAPUNOV_TOL})")
    return fails


def check_orbit(path, b: float, n: int) -> list:
    rows = [tuple(float(v) for v in r[1:]) for r in _csv_rows(path)]
    if len(rows) != n:
        return [f"{len(rows)} orbit rows, expected {n}"]
    for k, ((x, y, z), nxt) in enumerate(zip(rows, rows[1:])):
        if nxt != (y, z, x * x + b):
            return [f"row {k + 1} is not T(row {k})"]
    return []


def check_diagram(path, b_range, steps: int, samples: int) -> list:
    b_lo, b_hi = b_range
    grid = [b_hi if k == steps - 1 else b_lo + (b_hi - b_lo) * k / (steps - 1)
            for k in range(steps)]
    by_b = {}
    for b, x in _csv_rows(path):
        by_b.setdefault(float(b), []).append(float(x))
    fails = []
    if not set(by_b) <= set(grid):
        fails.append("rows at parameters off the sweep grid")
    if any(len(xs) != samples for xs in by_b.values()):
        fails.append(f"a parameter without exactly {samples} samples")
    for b, xs in by_b.items():
        if -0.7 <= b <= -0.3:        # attracting fixed point
            targets = [(1.0 - math.sqrt(1.0 - 4.0 * b)) / 2.0]
        elif -1.2 <= b <= -0.8:      # attracting 2-cycle: u^2 + u + b + 1 = 0
            r = math.sqrt(-3.0 - 4.0 * b)
            targets = [(-1.0 - r) / 2.0, (-1.0 + r) / 2.0]
        else:
            continue
        off = max(min(abs(x - t) for t in targets) for x in xs)
        if off > 1e-6:
            fails.append(f"b={b!r}: samples {off:.3g} from the attractor")
    if len(by_b) != steps:
        # every start inside [-beta, beta] stays bounded for -2 <= b <= 1/4
        fails.append(f"{len(by_b)} of {steps} parameters kept")
    return fails


def check_planes(path, b: float, k_max: int) -> list:
    rows = _csv_rows(path)
    if len(rows) != k_max + 2:
        return [f"{len(rows)} planes, expected {k_max + 2}"]
    # {x=0} first; T sends {x=c} to {z=c^2+b}, {z=c} to {y=c}, {y=c} to {x=c}
    k, axis, off = -1, "x", 0.0
    for row in rows:
        if (int(row[0]), row[1], float(row[2])) != (k, axis, off):
            return [f"plane {row} is not the image of plane {k - 1}"]
        k += 1
        axis, off = {"x": ("z", off * off + b), "z": ("y", off),
                     "y": ("x", off)}[axis]
    return []


def check_preimages(path, b: float, point) -> list:
    with open(path) as fh:
        data = json.load(fh)
    px, py, pz = point
    expected_n = 2 if pz - b > 1e-12 else (0 if pz - b < -1e-12 else 1)
    fails = []
    if data["count"] != expected_n or len(data["preimages"]) != expected_n:
        fails.append(f"{data['count']} preimages, expected {expected_n}")
    for q in data["preimages"]:
        qx, qy, qz = q["point"]
        if (qy, qz) != (px, py) or abs(qx * qx + b - pz) > 1e-12:
            fails.append(f"T({q['point']}) is not {list(point)}")
    return fails


# ---------------------------------------------------------------------------
# basins


def scalar_escape(w, b: float, steps: int, radius: float) -> np.ndarray:
    """Mask of scalar starts whose orbit leaves |u| <= radius within the
    given number of steps of H."""
    w = np.array(w, dtype=float)
    esc = np.abs(w) > radius
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            w = w * w + b
            esc |= np.abs(w) > radius
    return esc


def basin_escape_mask(meta: dict) -> np.ndarray:
    """The divergent cells of a slice from three scalar runs.

    n steps of T advance the coordinate streams started in the x, y and z
    slots by (n+2)//3, (n+1)//3 and n//3 steps of H, so a cell escapes iff
    its x-, y- or z-start escapes within that many scalar steps."""
    sl, opts, b = meta["slice"], meta["options"], meta["b"]
    n = opts["transient"] + opts["max_iter"]
    R = opts["escape_radius"]
    steps = {"x": (n + 2) // 3, "y": (n + 1) // 3, "z": n // 3}

    def centers(lo_hi, count):
        lo, hi = lo_hi
        return lo + (np.arange(count) + 0.5) * (hi - lo) / count

    esc_u = scalar_escape(centers(sl["u_range"], sl["nu"]), b,
                          steps[sl["u_axis"]], R)
    esc_v = scalar_escape(centers(sl["v_range"], sl["nv"]), b,
                          steps[sl["v_axis"]], R)
    esc_c = bool(scalar_escape([sl["fixed_value"]], b,
                               steps[sl["fixed_axis"]], R)[0])
    return esc_v[:, None] | esc_u[None, :] | esc_c


def read_basin_labels(csv_path, nu: int, nv: int) -> np.ndarray:
    labels = np.full((nv, nu), -99, dtype=int)
    for i, j, _u, _v, lab in _csv_rows(csv_path):
        labels[int(j), int(i)] = int(lab)
    return labels


def check_basin(csv_path, meta_path, ppm_path=None) -> list:
    with open(meta_path) as fh:
        meta = json.load(fh)
    sl = meta["slice"]
    labels = read_basin_labels(csv_path, sl["nu"], sl["nv"])
    fails = []
    allowed = {meta["labels"]["divergent"], meta["labels"]["undecided"]} | \
        {a["id"] for a in meta["attractors"]}
    if not set(np.unique(labels).tolist()) <= allowed:
        fails.append(f"labels {sorted(set(np.unique(labels).tolist()) - allowed)} "
                     "are neither cells' outcomes nor catalog ids")
    divergent = labels == meta["labels"]["divergent"]
    expected = basin_escape_mask(meta)
    if not np.array_equal(divergent, expected):
        fails.append(f"{int((divergent != expected).sum())} cells differ from "
                     "the scalar escape mask")
    if ppm_path is not None:
        with open(ppm_path, "rb") as fh:
            blob = fh.read()
        header = b"P6\n%d %d\n255\n" % (sl["nu"], sl["nv"])
        if not blob.startswith(header) or \
                len(blob) != len(header) + 3 * sl["nu"] * sl["nv"]:
            fails.append("PPM header or size does not match the slice")
        else:
            pix = np.frombuffer(blob[len(header):], dtype=np.uint8)
            black = (pix.reshape(sl["nv"], sl["nu"], 3)[::-1] == 0).all(axis=2)
            if not np.array_equal(black, divergent):
                fails.append("black pixels differ from divergent cells")
    return fails


def check_render(again_path, original_path) -> list:
    with open(again_path, "rb") as a, open(original_path, "rb") as o:
        if a.read() != o.read():
            return ["re-rendered PPM differs from the basin run's PPM"]
    return []


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]
