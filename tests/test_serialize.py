"""Text output formats: 17-significant-digit floats, deterministic JSON,
pinned CSV headers.  Readers parse these files, so headers and float
round-trip fidelity are contract, not cosmetics.
"""
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadshift import (BasinGrid, BasinOptions, DiagramDataset, DiagramRow,
                       Params, Point3, SliceSpec, basin_slice,
                       bifurcation_diagram, build_catalog, census,
                       critical_plane, find_cycles_1d, find_flip,
                       lyapunov_spectrum, orbit)
from quadshift.serialize import (WRITE_SLICE, basin_csv, basin_sidecar,
                                 cycle3d_payload, cycles1d_csv, diagram_csv,
                                 dumps_17g, events_csv, fmt, lyapunov_csv,
                                 orbit_csv, planes_csv, save_text)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_every_float(v):
    assert float(fmt(v)) == v


def test_fmt_is_compact_for_binary_exact_values():
    assert fmt(0.25) == "0.25"
    assert fmt(-1.0) == "-1"
    assert fmt(1536.0) == "1536"
    # non-dyadic decimals show their true stored value
    assert fmt(0.1) == "0.10000000000000001"


def test_dumps_17g_round_trips_and_is_deterministic():
    obj = {"b": -1.768529152467683, "xs": [0.1, 0.2, 1 / 3], "n": 7,
           "ok": True, "none": None, "name": "flip"}
    s1 = dumps_17g(obj)
    s2 = dumps_17g(obj)
    assert s1 == s2
    assert s1.endswith("\n")
    back = json.loads(s1)
    assert back["b"] == obj["b"]
    assert back["xs"] == obj["xs"]
    assert back["n"] == 7 and back["ok"] is True and back["none"] is None


def test_dumps_17g_inlines_numeric_lists():
    s = dumps_17g({"v": [1.0, 2.0, 3.0]})
    assert "[1, 2, 3]" in s


# ---------------------------------------------------------------------------
# CSV formats: headers are pinned


def test_orbit_csv_exact():
    params = Params(-1.0)
    pts = orbit(Point3(0.0, -1.0, 0.0), params, 3)
    text = orbit_csv(pts)
    assert text == ("n,x,y,z\n"
                    "0,0,-1,0\n"
                    "1,-1,0,-1\n"
                    "2,0,-1,0\n")


def test_cycles1d_csv_header_and_shape():
    cycles = find_cycles_1d(Params(-1.0), 2)
    text = cycles1d_csv(cycles)
    lines = text.splitlines()
    assert lines[0] == "period,i,x_i,multiplier"
    assert len(lines) == 3
    assert lines[1].startswith("2,0,")


def test_events_csv_header():
    ev = find_flip(1, (-0.8, -0.7))
    lines = events_csv([ev]).splitlines()
    assert lines[0] == "kind,period,b_star,x_star"
    assert lines[1].startswith("flip,1,")


def test_planes_csv_header_and_rows():
    params = Params(-1.3)
    planes = [critical_plane(k, params) for k in range(-1, 3)]
    lines = planes_csv(planes).splitlines()
    assert lines[0] == "k,axis,offset"
    assert lines[1] == "-1,x,0"
    assert lines[2] == "0,z,-1.3"


def test_diagram_csv_skips_divergent_rows():
    d = bifurcation_diagram((0.3, 0.31), 2, samples=5)
    text = diagram_csv(d)
    assert text == "b,x\n"          # both rows divergent -> header only
    d2 = bifurcation_diagram((-0.4, -0.39), 2, samples=5)
    lines = diagram_csv(d2).splitlines()
    assert len(lines) == 1 + 2 * 5


def test_lyapunov_csv_header():
    r = lyapunov_spectrum(Point3(0.3, -0.5, 0.5), Params(-2.0), n_iter=2000,
                          transient=200)
    lines = lyapunov_csv([r]).splitlines()
    assert lines[0] == "b,l1,l2,l3,n_iter"
    assert lines[1].startswith("-2,")
    assert lines[1].endswith(",2000")


def test_cycle3d_payload_keys():
    found = census(Params(-1.0), 6)
    pay = cycle3d_payload(found[0])
    assert set(pay) == {"period", "stability", "eigenvalues", "points",
                        "provenance"}
    assert set(pay["provenance"]) == {"kind", "sources", "seed"}
    assert pay["provenance"]["seed"] == pay["points"][0]
    assert len(pay["points"]) == pay["period"]


# ---------------------------------------------------------------------------
# basin grid round trip


def _small_grid(fixed_axis="z"):
    params = Params(-0.4)
    cat = build_catalog(params)
    spec = SliceSpec(fixed_axis=fixed_axis, fixed_value=0.5,
                     u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), nu=4, nv=3)
    return basin_slice(params, spec, cat)


def test_basin_csv_header_names_swept_axes():
    grid = _small_grid("z")
    assert basin_csv(grid).splitlines()[0] == "i,j,x,y,label"
    grid_y = _small_grid("y")
    assert basin_csv(grid_y).splitlines()[0] == "i,j,x,z,label"


def test_basin_csv_is_row_major_and_complete():
    grid = _small_grid()
    lines = basin_csv(grid).splitlines()
    assert len(lines) == 1 + 4 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    # j is the outer loop
    assert [l.split(",")[1] for l in lines[1:]] == \
        ["0"] * 4 + ["1"] * 4 + ["2"] * 4
    # labels in the file match the grid array
    for line in lines[1:]:
        i, j, _, _, lab = line.split(",")
        assert int(lab) == int(grid.labels[int(j), int(i)])


def test_basin_sidecar_keys():
    grid = _small_grid()
    side = basin_sidecar(grid)
    assert set(side) == {"b", "slice", "options", "labels", "attractors"}
    assert side["slice"]["fixed_axis"] == "z"
    assert side["slice"]["u_axis"] == "x"
    assert side["slice"]["v_axis"] == "y"
    assert side["labels"] == {"divergent": -1, "undecided": -2}
    assert len(side["attractors"]) == 1
    a = side["attractors"][0]
    assert set(a) == {"id", "kind", "period", "signature_size",
                      "representative"}
    # sidecar must survive the 17g emitter + json round trip
    back = json.loads(dumps_17g(side))
    assert back["b"] == -0.4


# ---------------------------------------------------------------------------
# the block writers against the per-value writers they replaced
#
# The reference below formats one value per call, as the package did before
# its writers filled one `%` template per row block; every writer must give
# the same bytes.


def _ref_num(v) -> str:
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    if not math.isfinite(v):
        raise ValueError("non-finite")
    return fmt(v)


def _ref_emit(obj, out, level):
    pad = "  " * (level + 1)
    end = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(k))}: ")
            _ref_emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in seq):
            out.append("[" + ", ".join(_ref_num(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad)
            _ref_emit(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(end + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(_ref_num(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def _ref_dumps_17g(obj) -> str:
    out = []
    _ref_emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _ref_orbit_csv(points) -> str:
    lines = ["n,x,y,z"]
    for n, p in enumerate(points):
        lines.append(f"{n},{fmt(p.x)},{fmt(p.y)},{fmt(p.z)}")
    return "\n".join(lines) + "\n"


def _ref_cycles1d_csv(cycles) -> str:
    lines = ["period,i,x_i,multiplier"]
    for c in cycles:
        for i, x in enumerate(c.points):
            lines.append(f"{c.period},{i},{fmt(x)},{fmt(c.multiplier)}")
    return "\n".join(lines) + "\n"


def _ref_events_csv(events) -> str:
    lines = ["kind,period,b_star,x_star"]
    for ev in events:
        lines.append(f"{ev.kind},{ev.period},{fmt(ev.b_star)},{fmt(ev.x_star)}")
    return "\n".join(lines) + "\n"


def _ref_planes_csv(planes) -> str:
    lines = ["k,axis,offset"]
    for pl in planes:
        lines.append(f"{pl.index},{pl.axis},{fmt(pl.offset)}")
    return "\n".join(lines) + "\n"


def _ref_diagram_csv(dataset) -> str:
    lines = ["b,x"]
    for row in dataset.rows:
        if row.samples is None:
            continue
        for x in row.samples:
            lines.append(f"{fmt(row.b)},{fmt(x)}")
    return "\n".join(lines) + "\n"


def _ref_lyapunov_csv(results) -> str:
    lines = ["b,l1,l2,l3,n_iter"]
    for r in results:
        l1, l2, l3 = r.exponents
        lines.append(f"{fmt(r.b)},{fmt(l1)},{fmt(l2)},{fmt(l3)},{r.n_used}")
    return "\n".join(lines) + "\n"


def _ref_basin_csv(grid) -> str:
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


EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
               0.1, 1 / 3, -1.75, 1.7976931348623157e308)
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# what a float column may be handed: floats, numpy floats, ints and bools
values = st.one_of(floats, floats.map(np.float64),
                   st.integers(-2 ** 62, 2 ** 62), st.booleans())
ints = st.integers(-10 ** 6, 10 ** 6)
small = dict(max_size=12)


@settings(max_examples=300, deadline=None)
@given(values)
def test_percent_17g_is_fmt(v):
    assert "%.17g" % v == fmt(v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(values, values, values), **small))
def test_orbit_csv_matches_reference(coords):
    pts = [Point3(*c) for c in coords]
    assert orbit_csv(pts) == _ref_orbit_csv(pts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ints, st.lists(values, **small), values), **small))
def test_cycles1d_csv_matches_reference(rows):
    cycles = [SimpleNamespace(period=n, points=tuple(xs), multiplier=m)
              for n, xs, m in rows]
    assert cycles1d_csv(cycles) == _ref_cycles1d_csv(cycles)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fold", "flip"]), ints, values,
                          values), **small),
       st.lists(st.tuples(ints, st.sampled_from("xyz"), values), **small))
def test_events_and_planes_csv_match_reference(evs, pls):
    events = [SimpleNamespace(kind=k, period=n, b_star=b, x_star=x)
              for k, n, b, x in evs]
    planes = [SimpleNamespace(index=k, axis=a, offset=o) for k, a, o in pls]
    assert events_csv(events) == _ref_events_csv(events)
    assert planes_csv(planes) == _ref_planes_csv(planes)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(values, st.none() | st.lists(values, **small)),
                **small))
def test_diagram_csv_matches_reference(rows):
    # None rows are divergent parameters; [] is a row with no samples.
    # Rows are tuples of numbers, or read-only float64 arrays as
    # `bifurcation_diagram` gives them
    def frozen(xs):
        a = np.array(xs, dtype=np.float64)
        a.flags.writeable = False
        return a

    for cast in (tuple, frozen):
        ds = DiagramDataset(
            rows=tuple(DiagramRow(b=b, samples=None if xs is None else cast(xs))
                       for b, xs in rows))
        assert diagram_csv(ds) == _ref_diagram_csv(ds)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(values, st.tuples(values, values, values), ints),
                **small))
def test_lyapunov_csv_matches_reference(rows):
    results = [SimpleNamespace(b=b, exponents=e, n_used=n) for b, e, n in rows]
    assert lyapunov_csv(results) == _ref_lyapunov_csv(results)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from("xyz"), st.tuples(floats, floats),
       st.tuples(floats, floats), st.integers(1, 7), st.integers(1, 7),
       st.data())
def test_basin_csv_matches_reference(axis, u_range, v_range, nu, nv, data):
    labels = np.array(data.draw(st.lists(st.integers(-2, 9), min_size=nu * nv,
                                         max_size=nu * nv))).reshape(nv, nu)
    spec = SliceSpec(fixed_axis=axis, u_range=u_range, v_range=v_range,
                     nu=nu, nv=nv)
    grid = BasinGrid(b=-1.0, spec=spec, labels=labels, attractors=(),
                     options=BasinOptions())
    with np.errstate(all="ignore"):
        assert basin_csv(grid) == _ref_basin_csv(grid)


json_leaves = st.one_of(values, st.none(), st.text(max_size=8))
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(st.text(max_size=5) | ints, kids,
                                           max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_dumps_17g_matches_reference(obj):
    _assert_matches_reference(obj)


def _assert_matches_reference(obj):
    # the reference raises ValueError on the first non-finite float
    try:
        ref = _ref_dumps_17g(obj)
    except ValueError:
        with pytest.raises(ValueError, match="NaN or infinite"):
            dumps_17g(obj)
    else:
        assert dumps_17g(obj) == ref


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(values, st.integers()), min_size=1, max_size=8))
def test_dumps_17g_number_lists_match_reference(xs):
    # ints past 2**53 are written in full, not rounded to 17 digits
    _assert_matches_reference(xs)


finite = st.floats(allow_nan=False, allow_infinity=False)
finite_trees = st.recursive(
    st.one_of(finite, finite.map(np.float64), st.integers(), st.booleans(),
              st.none(), st.text(max_size=8)),
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(st.text(max_size=5) | ints, kids,
                                           max_size=5)),
    max_leaves=30)


def _as_json_reads_it(obj):
    if isinstance(obj, dict):
        return {str(k): _as_json_reads_it(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_json_reads_it(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _no_constants(name):
    raise AssertionError(f"JSON readers reject {name}")


@settings(max_examples=300, deadline=None)
@given(finite_trees)
def test_dumps_17g_round_trips_through_a_strict_json_reader(obj):
    back = json.loads(dumps_17g(obj), parse_constant=_no_constants)
    assert back == _as_json_reads_it(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda v: v,                       # a lone float
    lambda v: {"x": [0.5, v, 1.5]},    # an all-float list
    lambda v: [1, v],                  # a mixed number list
    lambda v: {"x": np.float64(v)},    # a numpy float
    lambda v: [[0.25], {"y": (v,)}],   # nested
])
def test_dumps_17g_rejects_non_finite_floats(bad, wrap):
    with pytest.raises(ValueError, match="NaN or infinite"):
        dumps_17g(wrap(bad))


def test_dumps_17g_writes_numpy_scalars_as_numbers():
    text = dumps_17g({"n": np.int64(3), "f": np.float32(0.1),
                      "xs": [np.int32(-2), np.float64(0.5), 1]})
    assert text == ('{\n  "n": 3,\n  "f": 0.10000000149011612,\n'
                    '  "xs": [-2, 0.5, 1]\n}\n')


@pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.bool_(True),
                                 object(), 1j, {1, 2}, b"bytes"])
def test_dumps_17g_rejects_other_types(bad):
    with pytest.raises(TypeError):
        dumps_17g({"v": [bad]})
    with pytest.raises(TypeError):
        dumps_17g(bad)


def test_save_text_writes_every_slice(tmp_path):
    text = "".join(f"{k},{k / 7!r}\n" for k in range(WRITE_SLICE // 8))
    assert len(text) > 2 * WRITE_SLICE
    path = tmp_path / "t.csv"
    save_text(path, text)
    assert path.read_bytes() == text.encode()
