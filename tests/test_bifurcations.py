"""Locating fold / flip / transcritical events and parameter sweeps.

Closed forms pin most expectations: the fixed-point pair exists for
b <= 1/4, flips at b = -3/4; the 2-cycle multiplier is 4(b+1), so it
flips at b = -5/4; the period-3 pair is born tangent at b = -7/4.
The two events without a usable closed form (period-3 and period-4
flips) are pinned against values frozen from an independent run of the
tracker at 1e-12 bracket width.
"""
import math

import pytest

from quadshift import (Diverged, NoEventInBracket, Params, Point3,
                       bifurcation_diagram, distinct_sample_count,
                       event_residuals, find_cycles_1d, find_flip, find_fold,
                       find_transcritical, multiplier_curve, orbit)

FLIP3_B = -1.7685291524676847      # frozen: period-3 flip
FLIP4_B = -1.3680989393912575      # frozen: period-4 flip


def _check_residuals(ev, closure_tol=1e-9, mult_tol=1e-7):
    closure, mult = event_residuals(ev)
    assert closure <= closure_tol
    assert mult <= mult_tol


# ---------------------------------------------------------------------------
# events with closed-form locations


def test_fold_of_fixed_points():
    ev = find_fold(1, (0.2, 0.3))
    assert ev.kind == "fold"
    assert ev.period == 1
    assert abs(ev.b_star - 0.25) <= 1e-9
    assert abs(ev.x_star - 0.5) <= 1e-6
    _check_residuals(ev)


def test_flip_of_fixed_point():
    ev = find_flip(1, (-0.8, -0.7))
    assert abs(ev.b_star - (-0.75)) <= 1e-9
    # at b = -3/4 the pair is 1/2 +- 1; the one with multiplier 2x = -1
    assert abs(ev.x_star - (-0.5)) <= 1e-6
    _check_residuals(ev)


def test_flip_of_two_cycle():
    ev = find_flip(2, (-1.3, -1.2))
    assert abs(ev.b_star - (-1.25)) <= 1e-9
    _check_residuals(ev)


def test_fold_of_three_cycle():
    ev = find_fold(3, (-1.8, -1.7))
    assert ev.kind == "fold"
    assert ev.period == 3
    assert abs(ev.b_star - (-1.75)) <= 1e-9
    _check_residuals(ev)


def test_transcritical_exchange():
    ev = find_transcritical((0.2, 0.3))
    assert ev.kind == "transcritical"
    assert abs(ev.b_star - 0.25) <= 1e-9
    assert abs(ev.x_star - 0.5) <= 1e-9


def test_transcritical_is_exact():
    for bracket in ((0.2, 0.3), (0.0, 0.25), (-1.0, 7.0)):
        ev = find_transcritical(bracket)
        assert (ev.b_star, ev.x_star) == (0.25, 0.5)
        assert event_residuals(ev) == (0.0, 0.0)
    with pytest.raises(NoEventInBracket):
        find_transcritical((0.25, 0.3))


# ---------------------------------------------------------------------------
# events pinned against frozen values


def test_flip_of_three_cycle():
    ev = find_flip(3, (-1.8, -1.75))
    assert abs(ev.b_star - FLIP3_B) <= 1e-6
    _check_residuals(ev)


def test_flip_of_four_cycle_frozen():
    ev = find_flip(4, (-1.45, -1.3))
    assert abs(ev.b_star - FLIP4_B) <= 1e-9
    _check_residuals(ev)


def test_fold_of_two_cycle_is_doubling_birth():
    # the 2-cycle is born when the fixed point flips, not at a tangency;
    # the locator must route through the parent branch and still call it
    # a birth of period-2 orbits
    ev = find_fold(2, (-0.8, -0.7))
    assert ev.kind == "fold"
    assert ev.period == 2
    assert abs(ev.b_star - (-0.75)) <= 1e-9


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
    with pytest.raises(NoEventInBracket):
        find_transcritical((0.0, 0.2))


# ---------------------------------------------------------------------------
# multiplier curves vs closed forms


def test_multiplier_curve_fixed_points():
    branches = multiplier_curve(1, (-0.7, 0.2), 10)
    assert len(branches) == 2
    for br in branches:
        assert len(br.bs) == 10
        for b, x, lam in zip(br.bs, br.xs, br.multipliers):
            disc = math.sqrt(1.0 - 4.0 * b)
            assert min(abs(x - 0.5 - 0.5 * disc),
                       abs(x - 0.5 + 0.5 * disc)) <= 1e-9
            assert abs(lam - 2.0 * x) <= 1e-9


def test_multiplier_curve_two_cycle_closed_form():
    branches = multiplier_curve(2, (-1.2, -0.8), 9)
    assert len(branches) == 1
    (br,) = branches
    for b, lam in zip(br.bs, br.multipliers):
        assert abs(lam - 4.0 * (b + 1.0)) <= 1e-9
    # superstable point of the branch: multiplier 0 at b = -1
    assert any(abs(b + 1.0) < 1e-12 and abs(lam) < 1e-12
               for b, lam in zip(br.bs, br.multipliers))


def test_multiplier_curve_survives_fold_death():
    # sweep across b = 1/4 going up: both fixed-point branches die (one may
    # end exactly on the tangency if a grid point lands there)
    branches = multiplier_curve(1, (0.2, 0.3), 11)
    assert len(branches) == 2
    assert all(br.bs[-1] <= 0.25 + 1e-9 for br in branches)


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


def test_diagram_rows_are_the_orbit_samples():
    # the parameters run in lockstep as arrays; each row must still be
    # exactly what the one-orbit path records, and None where it diverges
    p0 = Point3(0.1, -0.5, 0.2)
    d = bifurcation_diagram((-2.5, 0.5), 31, p0=p0, transient=300,
                            samples=40)
    kinds = set()
    for row in d.rows:
        try:
            want = tuple(q.x for q in orbit(p0, Params(row.b), 40, 300))
        except Diverged:
            want = None
        kinds.add(want is None)
        assert row.samples == want
        if want is not None:
            assert [v.hex() for v in row.samples] == [v.hex() for v in want]
    assert kinds == {True, False}


def test_diagram_holds_the_fixed_point_beyond_radius_four():
    d = bifurcation_diagram((-20.0, -20.0), 1, p0=Point3(5.0, 5.0, 5.0))
    assert d.rows[0].samples == (5.0,) * 200


def test_diagram_divergent_row():
    d = bifurcation_diagram((0.3, 0.31), 2)
    assert all(r.samples is None for r in d.rows)


def test_distinct_sample_count_edges():
    assert distinct_sample_count([]) == 0
    assert distinct_sample_count([1.0] * 50) == 1
    assert distinct_sample_count([0.0, 1.0, 1.0 + 1e-9, 2.0]) == 3
