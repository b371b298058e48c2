"""Text output: CSV tables and JSON payloads.

All floating-point values are written with 17 significant digits so that
files round-trip bit-exactly and reruns produce byte-identical output.
The JSON emitter is hand-rolled for exactly that reason: the stdlib
serializer formats floats with repr, which round-trips but does not match
the 17-digit convention used by the CSV writers.
"""
from __future__ import annotations

import json

from .basins import DIVERGENT, RETRY_FACTOR, UNDECIDED, BasinGrid
from .core import escape_radius

INDENT = "  "    # per JSON nesting level


def fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# JSON


def dumps_17g(obj) -> str:
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out, level):
    pad = INDENT * (level + 1)
    end = INDENT * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(k))}: ")
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            out.append("[" + ", ".join(_num(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(end + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(_num(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def _num(v) -> str:
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    return fmt(v)


# ---------------------------------------------------------------------------
# CSV tables


def orbit_csv(points) -> str:
    lines = ["n,x,y,z"]
    for n, p in enumerate(points):
        lines.append(f"{n},{fmt(p.x)},{fmt(p.y)},{fmt(p.z)}")
    return "\n".join(lines) + "\n"


def cycles1d_csv(cycles) -> str:
    lines = ["period,i,x_i,multiplier"]
    for c in cycles:
        for i, x in enumerate(c.points):
            lines.append(f"{c.period},{i},{fmt(x)},{fmt(c.multiplier)}")
    return "\n".join(lines) + "\n"


def events_csv(events) -> str:
    lines = ["kind,period,b_star,x_star"]
    for ev in events:
        lines.append(f"{ev.kind},{ev.period},{fmt(ev.b_star)},{fmt(ev.x_star)}")
    return "\n".join(lines) + "\n"


def planes_csv(planes) -> str:
    lines = ["k,axis,offset"]
    for pl in planes:
        lines.append(f"{pl.index},{pl.axis},{fmt(pl.offset)}")
    return "\n".join(lines) + "\n"


def diagram_csv(dataset) -> str:
    """Long-form (b, x) rows; rows whose orbit escaped carry no samples and
    are skipped here -- callers that care report them separately."""
    lines = ["b,x"]
    for row in dataset.rows:
        if row.samples is None:
            continue
        for x in row.samples:
            lines.append(f"{fmt(row.b)},{fmt(x)}")
    return "\n".join(lines) + "\n"


def lyapunov_csv(results) -> str:
    lines = ["b,l1,l2,l3,n_iter"]
    for r in results:
        l1, l2, l3 = r.exponents
        lines.append(f"{fmt(r.b)},{fmt(l1)},{fmt(l2)},{fmt(l3)},{r.n_used}")
    return "\n".join(lines) + "\n"


def basin_csv(grid: BasinGrid) -> str:
    spec = grid.spec
    U = spec.u_centers()
    V = spec.v_centers()
    ua, va = spec.axes()
    lines = [f"i,j,{ua},{va},label"]
    for j in range(spec.nv):
        for i in range(spec.nu):
            lines.append(f"{i},{j},{fmt(U[i])},{fmt(V[j])},"
                         f"{int(grid.labels[j, i])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structured payloads


def cycle3d_payload(c) -> dict:
    return {
        "period": c.period,
        "stability": c.stability,
        "eigenvalues": [float(e) for e in c.eigenvalues],
        "points": [[p.x, p.y, p.z] for p in c.points],
        "provenance": {
            "kind": c.provenance.kind,
            "sources": list(c.provenance.sources),
            "seed": list(c.provenance.seed),
        },
    }


def basin_sidecar(grid: BasinGrid) -> dict:
    spec = grid.spec
    opts = grid.options
    ua, va = spec.axes()
    return {
        "b": grid.b,
        "slice": {
            "fixed_axis": spec.fixed_axis,
            "fixed_value": spec.fixed_value,
            "u_axis": ua,
            "v_axis": va,
            "u_range": list(spec.u_range),
            "v_range": list(spec.v_range),
            "nu": spec.nu,
            "nv": spec.nv,
        },
        "options": {
            "max_iter": opts.max_iter,
            "transient": opts.transient,
            "escape_radius": escape_radius(grid.b),
            "signature_samples": opts.signature_samples,
            "match_tol": opts.match_tol,
            "merge_tol": opts.merge_tol,
            "tail_samples": opts.tail_samples,
            "retry_factor": RETRY_FACTOR,
        },
        "labels": {
            "divergent": DIVERGENT,
            "undecided": UNDECIDED,
        },
        "attractors": [
            {
                "id": a.id,
                "kind": a.kind,
                "period": a.period,
                "signature_size": int(a.signature.shape[0]),
                "representative": [float(v) for v in a.signature[0]],
            }
            for a in grid.attractors
        ],
    }


def save_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def save_bytes(path, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)
