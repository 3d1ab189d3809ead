"""Measurable regions with closed-form measures, boundary distances, and
tube measures ``psi(t) = |{x : dist(x, boundary) <= t}|``.

Two kinds: boxes on T^d, a corner ``lo`` and per-axis sides that may wrap
around (an arc of T^1 is the box with d = 1), and geodesic caps on S^2.  Both
have boundary tube exponent beta = 1 at small t; the tube measures
themselves are exact for every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import (SPHERE2, TORUS, SpaceDescriptor, box_distance, distance, make_space,
                    unit_direction)

TORUS_BOX = "torus_box"
SPHERE_CAP = "sphere_cap"

_SPHERE = make_space(SPHERE2)


@dataclass(frozen=True)
class SetDescriptor:
    kind: str
    space_kind: str
    params: dict
    measure: float
    beta: float


def make_arc(start: float, length: float) -> SetDescriptor:
    """Arc [start, start + length) on the circle, 0 < length < 1: a T^1 box."""
    if not math.isfinite(start):
        raise ValueError(f"arc start must be finite, got {start}")
    if not 0.0 < length < 1.0:
        raise ValueError(f"arc length must be in (0, 1), got {length}")
    return SetDescriptor(TORUS_BOX, TORUS, {"lo": (start % 1.0,), "side": (length,)},
                         length, 1.0)


def make_box(lo, hi) -> SetDescriptor:
    """Axis box prod [lo_i, hi_i) inside the unit cube, with sides hi - lo."""
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    if len(lo) != len(hi):
        raise ValueError("lo and hi must have equal length")
    if any(not 0.0 <= a < b <= 1.0 for a, b in zip(lo, hi)):
        raise ValueError("need 0 <= lo < hi <= 1 per coordinate")
    side = tuple(b - a for a, b in zip(lo, hi))
    return SetDescriptor(TORUS_BOX, TORUS, {"lo": lo, "side": side},
                         float(np.prod(side)), 1.0)


def make_cap(center, radius: float) -> SetDescriptor:
    """Geodesic cap of the given radius, 0 < radius < pi, about the direction
    of ``center``, a finite nonzero 3-vector."""
    if not 0.0 < radius < math.pi:
        raise ValueError(f"cap radius must be in (0, pi), got {radius}")
    center = unit_direction(center, "cap centre")
    measure = 2.0 * math.pi * (1.0 - math.cos(radius))
    return SetDescriptor(SPHERE_CAP, SPHERE2,
                         {"center": tuple(center), "radius": radius}, measure, 1.0)


def _box_offset(setd: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    """Per axis, the offset ``(x - lo) mod 1``; the box holds offsets below its sides."""
    return np.mod(pts - np.array(setd.params["lo"]), 1.0)


def set_contains(setd: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if setd.kind == TORUS_BOX:
        return np.all(_box_offset(setd, pts) < setd.params["side"], axis=1)
    return distance(_SPHERE, pts, setd.params["center"]) <= setd.params["radius"]


def boundary_distance(setd: SetDescriptor, space: SpaceDescriptor,
                      pts: np.ndarray) -> np.ndarray:
    """Distance to the topological boundary (from either side).  Outside a
    box, ``box_distance`` wraps each axis about its centre, even past 1."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if setd.kind == TORUS_BOX:
        lo, side = np.array(setd.params["lo"]), np.array(setd.params["side"])
        off = _box_offset(setd, pts)
        face = np.minimum(off, side - off).min(axis=1)
        return np.where(np.all(off < side, axis=1), face, box_distance(pts, lo, lo + side))
    center = np.array(setd.params["center"])
    geo = distance(space, pts, center)
    return np.abs(geo - setd.params["radius"])


def psi_tube_measure(space: SpaceDescriptor, setd: SetDescriptor, t: float) -> float:
    """Measure of the t-neighborhood of the boundary; closed form for all
    implemented kinds."""
    if t < 0:
        raise ValueError("tube width must be nonnegative")
    if setd.kind == TORUS_BOX:
        sides = np.array(setd.params["side"])
        outer = float(np.prod(np.minimum(sides + 2.0 * t, 1.0)))
        inner = float(np.prod(np.maximum(sides - 2.0 * t, 0.0)))
        return outer - inner
    r = setd.params["radius"]
    return 2.0 * math.pi * (math.cos(max(r - t, 0.0)) - math.cos(min(r + t, math.pi)))
