"""Degeneracy planes, their forward images, the preimage zones and the
two inverse branches.

The one-step Jacobian determinant is 2x, so the map folds space along
{x = 0}.  Every forward image of that plane is again an axis-aligned
plane, cycling through the z, y, x axes while the offset walks the
forward orbit of the critical value 0 -- so planes are stored as
(axis, offset) pairs, never as point clouds.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

from .core import Params, Point3, h1d, h1d_n

TIE_TOL = 1e-12     # boundary tolerance for zone / region classification


@dataclass(frozen=True)
class AxisPlane:
    axis: str       # "x" | "y" | "z"
    offset: float
    index: int      # k >= -1


@dataclass(frozen=True)
class Preimage:
    point: Point3
    region: str     # "R1" | "R2" | "on_PC_minus1"


_IMAGE_AXIS = {"x": "z", "z": "y", "y": "x"}


def critical_plane(k: int, params: Params) -> AxisPlane:
    """The k-th forward image of the degeneracy plane {x = 0}.

    k = -1 is the plane itself; images cycle z -> y -> x in axis while the
    offset advances one scalar-map step every three images.
    """
    if k < -1:
        raise ValueError("plane index must be >= -1")
    if k == -1:
        return AxisPlane(axis="x", offset=0.0, index=-1)
    m, r = divmod(k, 3)
    offset = h1d_n(0.0, params, m + 1)
    axis = ("z", "y", "x")[r]
    return AxisPlane(axis=axis, offset=offset, index=k)


def plane_image(plane: AxisPlane, params: Params) -> AxisPlane:
    """Forward image of an axis plane under one map step.

    {x=c} maps onto {z=c^2+b}; {z=c} onto {y=c}; {y=c} onto {x=c}.
    """
    if plane.axis == "x":
        return AxisPlane(axis="z", offset=h1d(plane.offset, params),
                         index=plane.index + 1)
    return AxisPlane(axis=_IMAGE_AXIS[plane.axis], offset=plane.offset,
                     index=plane.index + 1)


def _check_finite(p: Point3):
    if not all(map(isfinite, p)):
        raise ValueError(f"point must be finite, got {tuple(p)}")


def zone_of(p: Point3, params: Params) -> str:
    """"Z2" if z - b > 0 (two preimages), "Z0" if < 0, "on_PC0" at the fold."""
    _check_finite(p)
    d = p.z - params.b
    if abs(d) <= TIE_TOL:
        return "on_PC0"
    return "Z2" if d > 0.0 else "Z0"


def region_of(p: Point3) -> str:
    _check_finite(p)
    if abs(p.x) <= TIE_TOL:
        return "on_PC_minus1"
    return "R1" if p.x > 0.0 else "R2"


def preimages(p: Point3, params: Params) -> list:
    """The rank-one preimages of p: two in Z2 (one per half-space), one
    merged preimage on the fold plane, none in Z0."""
    zone = zone_of(p, params)
    if zone == "on_PC0":
        q = Point3(0.0, p.x, p.y)
        return [Preimage(point=q, region=region_of(q))]
    if zone == "Z0":
        return []
    r = sqrt(p.z - params.b)
    return [Preimage(point=Point3(r, p.x, p.y), region="R1"),
            Preimage(point=Point3(-r, p.x, p.y), region="R2")]
