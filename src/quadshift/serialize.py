"""Text output: CSV tables and JSON payloads.

One rule formats every float in every file: 17 significant digits,
`"%.17g" % v`, which is byte for byte `fmt(v)`.  Files round-trip
bit-exactly and reruns produce byte-identical output.  The writers apply
the rule to whole row blocks: a diagram parameter, a basin grid row, an
orbit or a scalar cycle is one `%` template filled from one tuple, not one
call per value.  The JSON emitter is hand-rolled for the same reason: the
stdlib serializer formats floats with repr, which round-trips but does
not match the 17-digit convention.  JSON has no token for NaN or
infinity, so `dumps_17g` raises ValueError on a non-finite float rather
than write a file that JSON readers reject; the check runs once per
formatted number block, not per value.  CSV files write them as `nan`,
`inf` and `-inf`.

`save_text` writes in slices of WRITE_SLICE characters, so the file layer
never encodes a full-size copy of a large table.
"""
from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .basins import (DIVERGENT, MERGE_TOL, RETRY_FACTOR, TAIL_SAMPLES,
                     UNDECIDED, BasinGrid)
from .core import escape_radius

INDENT = "  "    # per JSON nesting level
WRITE_SLICE = 1 << 18   # characters per write of save_text / write_text


def fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# JSON


def dumps_17g(obj) -> str:
    """JSON text of nested dicts, lists and tuples (a `Point3` included) of
    str, bool, None, ints and floats (numpy integer and float scalars
    included); any other type raises TypeError, and a NaN or infinite float
    raises ValueError."""
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out, level):
    t = type(obj)
    if t is float:
        out.append(_finite("%.17g" % obj))
    elif t is str:
        out.append(_quote(obj))
    elif t is list or t is tuple:
        _emit_seq(obj, out, level)
    elif t is dict:
        _emit_dict(obj, out, level)
    elif t is int:
        out.append(str(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif _is_number(t):
        out.append(_finite(_num(obj)))
    elif isinstance(obj, str):
        out.append(_quote(str(obj)))
    elif isinstance(obj, dict):
        _emit_dict(obj, out, level)
    elif isinstance(obj, (list, tuple)):
        _emit_seq(obj, out, level)
    else:
        raise TypeError(f"dumps_17g cannot write a {t.__name__}")


def _emit_dict(obj, out, level):
    if not obj:
        out.append("{}")
        return
    pad = INDENT * (level + 1)
    out.append("{\n")
    for k, v in obj.items():
        out.append(f"{pad}{_quote(str(k))}: ")
        _emit(v, out, level + 1)
        out.append(",\n")
    out[-1] = "\n"
    out.append(INDENT * level + "}")


def _emit_seq(seq, out, level):
    """A list of numbers goes on one line; an all-float list through one
    cached template.  Each item of a longer list is joined into one string
    before the next starts, so a large payload never holds all of its
    small pieces at once."""
    if not seq:
        out.append("[]")
        return
    types = set(map(type, seq))
    if types == {float}:
        out.append(_finite(_float_list(len(seq)) % tuple(seq)))
        return
    if all(map(_is_number, types)):
        out.append(_finite("[" + ", ".join(map(_num, seq)) + "]"))
        return
    pad = INDENT * (level + 1)
    out.append("[\n")
    for v in seq:
        item = []
        _emit(v, item, level + 1)
        out.append(pad)
        out.append("".join(item))
        out.append(",\n")
    out[-1] = "\n"
    out.append(INDENT * level + "]")


@functools.lru_cache(maxsize=64)
def _float_list(n: int) -> str:
    return "[" + ", ".join(["%.17g"] * n) + "]"


def _finite(text: str) -> str:
    """`text`, a block of formatted numbers, if none of them is NaN or
    infinite: those format as nan, inf and -inf, and no finite number
    contains an "n"."""
    if "n" in text:
        raise ValueError("dumps_17g cannot write a NaN or infinite float: "
                         "JSON has no token for it")
    return text


def _is_number(t: type) -> bool:
    return t is not bool and issubclass(t, (int, float, np.integer,
                                            np.floating))


def _num(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt(v)


# ---------------------------------------------------------------------------
# CSV tables


def _rows(template: str, *columns) -> str:
    """`template` (one row) filled once per row; one column per
    placeholder, all of the same length."""
    n = len(columns[0])
    args = [None] * (n * len(columns))
    for k, col in enumerate(columns):
        args[k::len(columns)] = col
    return template * n % tuple(args)


def orbit_csv(points) -> str:
    pts = list(points)
    return "n,x,y,z\n" + _rows("%d,%.17g,%.17g,%.17g\n", range(len(pts)),
                                *zip(*pts))


def cycles1d_csv(cycles) -> str:
    blocks = ["period,i,x_i,multiplier\n"]
    for c in cycles:
        blocks.append(_rows(f"{c.period},%d,%.17g,{fmt(c.multiplier)}\n",
                            range(len(c.points)), c.points))
    return "".join(blocks)


def events_csv(events) -> str:
    blocks = ["kind,period,b_star,x_star\n"]
    for ev in events:
        blocks.append("%s,%s,%.17g,%.17g\n"
                      % (ev.kind, ev.period, ev.b_star, ev.x_star))
    return "".join(blocks)


def planes_csv(planes) -> str:
    blocks = ["k,axis,offset\n"]
    for pl in planes:
        blocks.append("%s,%s,%.17g\n" % (pl.index, pl.axis, pl.offset))
    return "".join(blocks)


def diagram_csv(dataset) -> str:
    """Long-form (b, x) rows; rows whose orbit escaped carry no samples and
    are skipped here -- callers that care report them separately.  A row's
    samples (a float64 array, or any sequence of numbers) are read out as
    Python floats in one call, which `%.17g` formats fastest."""
    blocks = ["b,x\n"]
    for row in dataset.rows:
        if row.samples is not None:
            xs = np.asarray(row.samples, dtype=float).tolist()
            blocks.append(_rows(fmt(row.b) + ",%.17g\n", xs))
    return "".join(blocks)


def lyapunov_csv(results) -> str:
    blocks = ["b,l1,l2,l3,n_iter\n"]
    for r in results:
        l1, l2, l3 = r.exponents
        blocks.append("%.17g,%.17g,%.17g,%.17g,%s\n"
                      % (r.b, l1, l2, l3, r.n_used))
    return "".join(blocks)


def basin_csv(grid: BasinGrid) -> str:
    """One row per cell, j outer; each U and V center is formatted once."""
    spec = grid.spec
    U = spec.u_centers()
    V = spec.v_centers()
    ua, va = spec.axes()
    row = "".join(f"{i},%d,{fmt(U[i])},%s,%d\n" for i in range(spec.nu))
    blocks = [f"i,j,{ua},{va},label\n"]
    for j in range(spec.nv):
        args = [j, fmt(V[j]), 0] * spec.nu
        args[2::3] = grid.labels[j].tolist()
        blocks.append(row % tuple(args))
    return "".join(blocks)


# ---------------------------------------------------------------------------
# structured payloads


def cycle3d_payload(c) -> dict:
    pts = c.points      # built from the stream on each read
    return {
        "period": c.period,
        "stability": c.stability,
        "eigenvalues": [float(e) for e in c.eigenvalues],
        "points": [list(p) for p in pts],
        "provenance": {
            "kind": c.provenance.kind,
            "sources": list(c.provenance.sources),
            "seed": list(pts[0]),
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
            "merge_tol": MERGE_TOL,
            "tail_samples": TAIL_SAMPLES,
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


def write_text(fh, text: str) -> None:
    """Write `text` to the text stream `fh` in slices of WRITE_SLICE
    characters, so no full-size encoded copy is ever made."""
    for start in range(0, len(text), WRITE_SLICE):
        fh.write(text[start:start + WRITE_SLICE])


def save_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        write_text(fh, text)


def save_bytes(path, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)
