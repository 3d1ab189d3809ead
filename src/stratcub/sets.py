"""Measurable regions with closed-form measures, boundary distances, and
tube measures ``psi(t) = |{x : dist(x, boundary) <= t}|``.

Three kinds: arcs on T^1, axis boxes on T^d (no wraparound within the box),
and geodesic caps on S^2.  All have boundary tube exponent beta = 1 at small
t; the tube measures themselves are exact for every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import SPHERE2, TORUS, SpaceDescriptor, box_distance, distance, make_space

TORUS_ARC = "torus_arc"
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
    """Arc [start, start + length) on the circle, 0 < length < 1."""
    if not 0.0 < length < 1.0:
        raise ValueError(f"arc length must be in (0, 1), got {length}")
    start = start % 1.0
    return SetDescriptor(TORUS_ARC, TORUS, {"start": start, "length": length},
                         length, 1.0)


def make_box(lo, hi) -> SetDescriptor:
    """Axis box prod [lo_i, hi_i) inside the unit cube (no wraparound)."""
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    if len(lo) != len(hi):
        raise ValueError("lo and hi must have equal length")
    if any(not 0.0 <= a < b <= 1.0 for a, b in zip(lo, hi)):
        raise ValueError("need 0 <= lo < hi <= 1 per coordinate")
    measure = float(np.prod([b - a for a, b in zip(lo, hi)]))
    return SetDescriptor(TORUS_BOX, TORUS, {"lo": lo, "hi": hi}, measure, 1.0)


def make_cap(center, radius: float) -> SetDescriptor:
    """Geodesic cap of the given radius, 0 < radius < pi, about the direction
    of ``center``, a finite nonzero 3-vector."""
    if not 0.0 < radius < math.pi:
        raise ValueError(f"cap radius must be in (0, pi), got {radius}")
    center = np.asarray(center, dtype=float)
    if center.shape != (3,) or not np.all(np.isfinite(center)) or not np.any(center):
        raise ValueError(f"cap centre must be a finite nonzero 3-vector, got {center!r}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(center)
    if not 0.0 < norm < math.inf:
        # the plain norm under- or overflows; the largest entry scales it to 1
        center = center / np.abs(center).max()
        norm = np.linalg.norm(center)
    center = center / norm
    measure = 2.0 * math.pi * (1.0 - math.cos(radius))
    return SetDescriptor(SPHERE_CAP, SPHERE2,
                         {"center": tuple(center), "radius": radius}, measure, 1.0)


def set_contains(setd: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if setd.kind == TORUS_ARC:
        rel = np.mod(pts[:, 0] - setd.params["start"], 1.0)
        return rel < setd.params["length"]
    if setd.kind == TORUS_BOX:
        lo = np.array(setd.params["lo"])
        hi = np.array(setd.params["hi"])
        return np.all((pts >= lo) & (pts < hi), axis=1)
    return distance(_SPHERE, pts, setd.params["center"]) <= setd.params["radius"]


def boundary_distance(setd: SetDescriptor, space: SpaceDescriptor,
                      pts: np.ndarray) -> np.ndarray:
    """Distance to the topological boundary (from either side)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if setd.kind == TORUS_ARC:
        s = setd.params["start"]
        e = (s + setd.params["length"]) % 1.0
        x = pts[:, :1]
        return np.minimum(distance(space, x, [s]), distance(space, x, [e]))
    if setd.kind == TORUS_BOX:
        lo = np.array(setd.params["lo"])
        hi = np.array(setd.params["hi"])
        inside = np.all((pts >= lo) & (pts < hi), axis=1)
        face = np.minimum(pts - lo, hi - pts).min(axis=1)
        return np.where(inside, face, box_distance(pts, lo, hi))
    center = np.array(setd.params["center"])
    geo = distance(space, pts, center)
    return np.abs(geo - setd.params["radius"])


def psi_tube_measure(space: SpaceDescriptor, setd: SetDescriptor, t: float) -> float:
    """Measure of the t-neighborhood of the boundary; closed form for all
    implemented kinds."""
    if t < 0:
        raise ValueError("tube width must be nonnegative")
    if setd.kind == TORUS_ARC:
        length = setd.params["length"]
        return min(2.0 * t, length) + min(2.0 * t, 1.0 - length)
    if setd.kind == TORUS_BOX:
        lo = np.array(setd.params["lo"])
        hi = np.array(setd.params["hi"])
        sides = hi - lo
        outer = float(np.prod(np.minimum(sides + 2.0 * t, 1.0)))
        inner = float(np.prod(np.maximum(sides - 2.0 * t, 0.0)))
        return outer - inner
    r = setd.params["radius"]
    return 2.0 * math.pi * (math.cos(max(r - t, 0.0)) - math.cos(min(r + t, math.pi)))
