"""60-digit references for the floats the package reports, with mpmath.

A reported value is checked against the root it approximates, polished
at 60 significant digits from the value itself, so the reference is the
nearby exact root and not the package's own arithmetic.  `ulps(v, ref)`
measures the gap in units in the last place of the reported float.
"""
import math

import mpmath

DIGITS = 60


def _jet(x, b, n):
    """H^n(x) and its derivatives d/dx, d/db, d2/dx2, d2/dxdb, for mpf x
    and b, at the working precision; written out here so that the
    reference shares no code with the package's `core._jet`."""
    v, dx, db, dxx, dxb = x, 1, 0, 0, 0
    for _ in range(n):
        dxx = 2 * (dx * dx + v * dxx)
        dxb = 2 * (db * dx + v * dxb)
        dx = 2 * v * dx
        db = 2 * v * db + 1
        v = v * v + b
    return v, dx, db, dxx, dxb


def polish_event(x, b, n, target, rounds=30):
    """The fold (target +1) or flip (target -1) of a period-n cycle of
    H(u) = u^2 + b nearest the float point (x, b): 2D Newton at DIGITS
    digits on (H^n(x) - x, (H^n)'(x) - target) in (x, b).  Returns mpf
    (x*, b*)."""
    with mpmath.workdps(DIGITS):
        x, b = mpmath.mpf(x), mpmath.mpf(b)
        for _ in range(rounds):
            v, dvx, dvb, dxx, dxb = _jet(x, b, n)
            f1, f2 = v - x, dvx - target
            j11 = dvx - 1
            det = j11 * dxb - dvb * dxx
            x -= (f1 * dxb - dvb * f2) / det
            b -= (j11 * f2 - f1 * dxx) / det
        v, dvx, *_ = _jet(x, b, n)
        # converged to well below one double ulp, or the polish failed
        assert abs(v - x) < mpmath.mpf(10) ** (-DIGITS + 10)
        assert abs(dvx - target) < mpmath.mpf(10) ** (-DIGITS + 10)
        return x, b


def ulps(value, ref):
    """|value - ref| in units in the last place of the float value."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - ref)) / math.ulp(value)
