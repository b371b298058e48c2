"""Locating fold / flip / transcritical events and parameter sweeps.

Closed forms pin every event location: the fixed-point pair exists for
b <= 1/4, flips at b = -3/4; the 2-cycle multiplier is 4(b+1), so it
flips at b = -5/4.  The 3-cycle multipliers solve
lambda^2 - (16+8b) lambda + 64(b^3+2b^2+b+1) = 0: lambda = +1 gives
(4b+7)(16b^2+4b+7), the tangent birth at b = -7/4, and lambda = -1 gives
64b^3 + 128b^2 + 72b + 81, whose real root is the period-3 flip.  The
period-4 flip is the root near -1.368 of
4096b^6 + 12288b^5 + 12032b^4 + 12032b^3 + 8432b^2 + 4913.  Both roots
are bisected here in exact rational arithmetic.
"""
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mp_reference import polish_event, ulps
from quadshift.cli import build_parser
from quadshift import (Diverged, NoEventInBracket, Params, Point3,
                       bifurcation_diagram, distinct_sample_count,
                       event_residuals, find_cycles_1d, find_flip, find_fold,
                       find_transcritical, orbit)


def _real_root(coeffs, lo, hi):
    """The root of the integer polynomial (highest power first) in [lo, hi],
    bisected on exact rationals to well below one ulp."""
    def sign(b):
        v = Fraction(0)
        for c in coeffs:
            v = v * b + c
        return v > 0
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = sign(lo)
    assert sign(hi) != s_lo
    for _ in range(70):
        mid = (lo + hi) / 2
        if sign(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


FLIP3_B = _real_root((64, 128, 72, 81), "-1.8", "-1.75")
FLIP4_B = _real_root((4096, 12288, 12032, 12032, 8432, 0, 4913),
                     "-1.37", "-1.36")
EXACT = 1e-14   # every located event sits this close to its closed form


def _check_residuals(ev, closure_tol=1e-9, mult_tol=1e-7):
    closure, mult = event_residuals(ev)
    assert closure <= closure_tol
    assert mult <= mult_tol


def _check_event(ev, kind, period, b_star, bracket):
    assert (ev.kind, ev.period) == (kind, period)
    assert abs(ev.b_star - b_star) <= EXACT, bracket
    _check_residuals(ev)


# ---------------------------------------------------------------------------
# events at their closed-form locations


def test_fold_of_fixed_points():
    ev = find_fold(1, (0.2, 0.3))
    _check_event(ev, "fold", 1, 0.25, (0.2, 0.3))
    assert abs(ev.x_star - 0.5) <= 1e-6


def test_flip_of_fixed_point():
    for bracket in ((-0.8, -0.7), (-1.0, 0.0)):
        ev = find_flip(1, bracket)
        _check_event(ev, "flip", 1, -0.75, bracket)
        # at b = -3/4 the pair is 1/2 +- 1; the one with multiplier 2x = -1
        assert abs(ev.x_star - (-0.5)) <= 1e-6


def test_flip_of_two_cycle():
    for bracket in ((-1.3, -1.2), (-1.5, -0.8)):
        _check_event(find_flip(2, bracket), "flip", 2, -1.25, bracket)


def test_fold_of_three_cycle():
    _check_event(find_fold(3, (-1.8, -1.7)), "fold", 3, -1.75, (-1.8, -1.7))


@pytest.mark.parametrize("n, bracket, b_star", [
    (3, (-1.8, -1.75), -1.75), (3, (-1.75, -1.7), -1.75),
    (1, (0.2, 0.25), 0.25), (1, (0.25, 0.3), 0.25)])
def test_fold_on_a_bracket_end(n, bracket, b_star):
    # the tangent orbit counts as one cycle at the end that holds the
    # fold, so the count steps by one at odd n; the bracket is closed
    _check_event(find_fold(n, bracket), "fold", n, b_star, bracket)


def test_transcritical_exchange():
    ev = find_transcritical((0.2, 0.3))
    assert ev.kind == "transcritical"
    assert abs(ev.b_star - 0.25) <= 1e-9
    assert abs(ev.x_star - 0.5) <= 1e-9


def test_transcritical_is_exact():
    for bracket in ((0.2, 0.3), (0.0, 0.25), (0.25, 0.3), (-1.0, 7.0)):
        ev = find_transcritical(bracket)
        assert (ev.b_star, ev.x_star) == (0.25, 0.5)
        assert event_residuals(ev) == (0.0, 0.0)


def test_flip_of_three_cycle():
    # (-1.8, -1.7) holds the fold at -7/4 as well: the cycles alive at its
    # low end are polished straight to the flip
    assert abs(FLIP3_B - (-1.76852915246768502)) <= 1e-16
    for bracket in ((-1.8, -1.75), (-1.9, -1.75), (-1.8, -1.7)):
        _check_event(find_flip(3, bracket), "flip", 3, FLIP3_B, bracket)


def test_flip_of_four_cycle():
    assert abs(FLIP4_B - (-1.36809893939125803)) <= 1e-16
    for bracket in ((-1.45, -1.3), (-1.5, -1.26)):
        _check_event(find_flip(4, bracket), "flip", 4, FLIP4_B, bracket)


def test_fold_of_two_cycle_is_doubling_birth():
    # the 2-cycle is born when the fixed point flips, not at a tangency;
    # the locator must route through the parent branch and still call it
    # a birth of period-2 orbits; likewise periods 4 and 6 at the flips
    # of the 2- and 3-cycles
    for n, bracket, b_star in ((2, (-0.8, -0.7), -0.75),
                               (4, (-1.3, -1.2), -1.25),
                               (6, (-1.8, -1.7), FLIP3_B)):
        _check_event(find_fold(n, bracket), "fold", n, b_star, bracket)


def test_flips_where_a_bracket_end_has_no_live_branch():
    # the flipping branch is born or ends inside these brackets, so no
    # branch runs from end to end; the event must still be found
    wide = find_flip(5, (-1.7, -1.6))
    assert -1.7 <= wide.b_star <= -1.6
    _check_residuals(wide)
    narrow = find_flip(5, (-1.63, -1.626))
    assert abs(wide.b_star - narrow.b_star) <= 1e-12
    ev = find_flip(8, (-1.43, -1.35))
    assert -1.43 <= ev.b_star <= -1.35
    _check_residuals(ev)


def test_event_ordering_chain():
    bs = [
        find_flip(3, (-1.8, -1.75)).b_star,
        find_fold(3, (-1.8, -1.7)).b_star,
        find_flip(2, (-1.3, -1.2)).b_star,
        find_flip(1, (-0.8, -0.7)).b_star,
        find_fold(1, (0.2, 0.3)).b_star,
    ]
    assert bs == sorted(bs)
    assert bs[0] < -1.75 < -1.25 < -0.75 < 0.25 + 1e-9


def _recipe_events():
    """(kind, period, bracket) of every fold and flip line of the recipes."""
    recipes = Path(__file__).resolve().parent.parent / "recipes" / "README.md"
    parser = build_parser()
    args = [parser.parse_args(line.split()[1:])
            for line in recipes.read_text().splitlines()
            if line.startswith("quadshift bifurcations ")]
    return [(a.kind, a.period, a.bracket) for a in args
            if a.kind != "transcritical"]


def test_the_recipes_locate_six_folds_and_flips():
    assert len(_recipe_events()) == 6


@pytest.mark.parametrize("kind, period, bracket",
                         _recipe_events() + [("flip", 5, (-1.99, -1.98))],
                         ids=lambda v: str(v).replace(" ", ""))
def test_event_is_within_two_ulps_of_the_60_digit_event(kind, period,
                                                        bracket):
    # largest gaps measured: 1.44 ulp in b_star, 1.55 in x_star (flip 4)
    ev = (find_fold if kind == "fold" else find_flip)(period, bracket)
    x, b = polish_event(ev.x_star, ev.b_star, period,
                        1 if kind == "fold" else -1)
    assert ulps(ev.b_star, b) <= 2
    assert ulps(ev.x_star, x) <= 2


# ---------------------------------------------------------------------------
# failure modes


def test_no_fold_in_quiet_bracket():
    with pytest.raises(NoEventInBracket):
        find_fold(1, (-0.5, -0.4))


def test_no_flip_in_quiet_bracket():
    with pytest.raises(NoEventInBracket):
        find_flip(1, (-0.5, -0.4))


def test_no_flip_without_cycles():
    with pytest.raises(NoEventInBracket):
        find_flip(3, (-1.2, -1.1))


def test_bad_bracket_order():
    with pytest.raises(ValueError):
        find_fold(1, (0.3, 0.2))


def test_no_transcritical_in_quiet_bracket():
    for bracket in ((0.0, 0.2), (0.26, 0.3)):
        with pytest.raises(NoEventInBracket):
            find_transcritical(bracket)


# ---------------------------------------------------------------------------
# orbit diagram


def test_diagram_row_shape():
    d = bifurcation_diagram((-1.6, -0.4), 25)
    assert len(d.rows) == 25
    assert d.rows[0].b == -1.6
    assert d.rows[-1].b == -0.4
    assert all(r.samples is None or len(r.samples) == 200 for r in d.rows)


def _count_at(b, **kw):
    d = bifurcation_diagram((b, b), 1, **kw)
    row = d.rows[0]
    assert row.samples is not None
    return distinct_sample_count(row.samples)


def test_diagram_attractor_counts():
    assert _count_at(-0.4) == 1
    assert _count_at(-0.78) == 2
    assert _count_at(-1.26) == 4
    assert _count_at(-1.6) > 64


def test_diagram_single_parameter():
    d = bifurcation_diagram((-1.26, -1.26), 1, samples=50)
    assert len(d.rows) == 1
    assert d.rows[0].b == -1.26
    assert len(d.rows[0].samples) == 50
    with pytest.raises(ValueError):
        bifurcation_diagram((-1.3, -1.2), 1)
    with pytest.raises(ValueError):
        bifurcation_diagram((-1.3, -1.3), 0)
    with pytest.raises(ValueError, match="transient must be >= 0, got -3"):
        bifurcation_diagram((-1.26, -1.26), 1, transient=-3, samples=6)


def test_diagram_rows_are_the_orbit_samples():
    # the parameters run in lockstep as arrays; each row must still be
    # exactly what the one-orbit path records, and None where it diverges
    for b_range, steps, p0, transient, samples in [
        ((-2.5, 0.5), 31, Point3(0.1, -0.5, 0.2), 300, 40),
        # state 0 alone, its x beyond R for b > -16; R = beta(b) below -12
        ((-16.0, -10.0), 7, Point3(4.5, -0.5, 0.1), 0, 1),
        # z beyond R = 4 for b >= -12; at b = -20, -4 and 5 are fixed points
        ((-20.0, 0.5), 9, Point3(-4.0, -4.0, 5.0), 300, 40),
    ]:
        d = bifurcation_diagram(b_range, steps, p0=p0, transient=transient,
                                samples=samples)
        kinds = set()
        for row in d.rows:
            try:
                want = tuple(q.x for q in orbit(p0, Params(row.b), samples,
                                                transient))
            except Diverged:
                want = None
            kinds.add(want is None)
            if want is None:
                assert row.samples is None
            else:
                assert row.samples.tolist() == list(want)
                assert [v.hex() for v in row.samples.tolist()] == \
                    [v.hex() for v in want]
        assert kinds == {True, False}


def test_diagram_holds_the_fixed_point_beyond_radius_four():
    d = bifurcation_diagram((-20.0, -20.0), 1, p0=Point3(5.0, 5.0, 5.0))
    assert d.rows[0].samples.tolist() == [5.0] * 200


def test_diagram_rows_are_read_only_views_of_one_array():
    d = bifurcation_diagram((-2.5, 0.5), 31, samples=40)
    kept = [r.samples for r in d.rows if r.samples is not None]
    assert 0 < len(kept) < len(d.rows)
    base = kept[0].base
    assert base is not None and base.dtype == np.float64
    assert base.shape == (31, 40)
    for xs in kept:
        assert xs.base is base and xs.dtype == np.float64
        with pytest.raises(ValueError):
            xs[0] = 1.0
    # rows hold arrays, so they compare and hash by identity
    row = d.rows[0]
    assert row == row and row != d.rows[1]
    assert hash(row) == hash(row)


def test_diagram_holds_eight_bytes_a_sample():
    # 800 x 200 samples are 1.28 MB as float64, and 5 MB as tuples of
    # Python floats
    sweep = dict(b_range=(-1.99, -0.3), steps=800, p0=Point3(0, -0.5, 0))
    bifurcation_diagram(**sweep)
    tracemalloc.start()
    try:
        d = bifurcation_diagram(**sweep)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(r.samples is not None for r in d.rows) > 700
    assert held <= 2_000_000, held


def test_diagram_divergent_row():
    d = bifurcation_diagram((0.3, 0.31), 2)
    assert all(r.samples is None for r in d.rows)


def test_distinct_sample_count_edges():
    assert distinct_sample_count([]) == 0
    assert distinct_sample_count([1.0] * 50) == 1
    assert distinct_sample_count([0.0, 1.0, 1.0 + 1e-9, 2.0]) == 3
