"""Metric measure spaces: flat torus T^d and the unit sphere S^2.

The torus carries the wraparound sup-metric, so metric balls are cubes and
every ball measure is in closed form.  The sphere carries the geodesic
metric; balls are caps with area ``2*pi*(1 - cos r)``.

Points are float arrays: shape ``(d,)`` with coordinates in ``[0, 1)`` on the
torus, shape ``(3,)`` with unit Euclidean norm on the sphere.  All geometric
operations broadcast over leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

TORUS = "torus"
SPHERE2 = "sphere2"

# Distances per block in blocked table builds (``pairwise_distance`` and the
# wce cell means).  A torus block is built axis by axis: each axis's
# differences are one matrix product into the block or its scratch, then
# wrapped in place and folded into a running maximum.  A block (0.5 MB) and
# the scratch of its size that a step needs stay inside a 2 MB L2 cache; on
# a 2-core x86 host with 2 MB L2, a 16384 x 128 T^2 table took about twice
# as long with 4M-distance blocks.
# Blocks are computed into buffers that outlive them (``out=``), not into
# fresh temporaries: glibc returns freed block-sized temporaries to the OS,
# so each new block page-faulted its memory back in (one run_report over
# S^2 N = 32..256, m_y = 256, m_z = 8, 16 draws: 25,088 minor faults with
# fresh temporaries, about 1,090 with reused buffers).
L2_BLOCK = 65_536


@dataclass(frozen=True)
class SpaceDescriptor:
    """A space M with two-sided power bounds ``H r^d <= |B(y,r)| <= K r^d``."""

    kind: str
    d: int
    total_measure: float
    ahlfors_H: float
    ahlfors_K: float
    diameter: float


def make_space(kind: str, d: int = 2) -> SpaceDescriptor:
    """Build a space descriptor. The torus needs an integer d >= 1; only S^2 is supported."""
    if not isinstance(d, Integral):
        raise ValueError(f"space dimension must be an integer, got {d!r}")
    if kind == TORUS:
        if d < 1:
            raise ValueError(f"torus dimension must be >= 1, got {d}")
        # sup-metric balls are cubes: |B(y,r)| = (2r)^d exactly for r < 1/2
        return SpaceDescriptor(TORUS, int(d), 1.0, 2.0**d, 2.0**d, 0.5)
    if kind == SPHERE2:
        if d != 2:
            raise ValueError(f"only the 2-sphere is supported, got d={d}")
        # cap area 4*pi*sin^2(r/2): the ratio to r^2 decreases from pi (r->0)
        # to 4/pi (r=pi), which pins both Ahlfors constants.
        return SpaceDescriptor(SPHERE2, 2, 4.0 * math.pi, 4.0 / math.pi, math.pi, math.pi)
    raise ValueError(f"unsupported space kind {kind!r}")


def distance(space: SpaceDescriptor, a, b):
    """Distance between points (broadcasts over leading axes).

    Torus: sup over coordinates of the wraparound distance.
    Sphere: geodesic angle, with the dot product clamped to [-1, 1] and
    summed elementwise, so that no point's value depends on its batch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if space.kind == TORUS:
        return _torus_distance(a, b)[()]
    dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    return np.arccos(np.clip(dot, -1.0, 1.0))


def pairwise_distance(space: SpaceDescriptor, a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Distance matrix between point sets ``a (n, dim)`` and ``b (m, dim)``.

    The distances are written into ``out (n, m)``; a missing ``out`` is
    allocated.  The sphere's product, clip and arccos all run in ``out``.
    Torus rows are processed in blocks of at most ``max(L2_BLOCK, m)``
    distances.  Each axis's differences a_k - b_k are one matrix product
    ``[a_k, 1] @ [1; -b_k]`` into the block or a per-axis scratch, which is
    then wrapped and folded into a running maximum.  Both terms of
    a_k * 1 + 1 * (-b_k) are exact, so the sum is rounded once, in any order
    and with or without FMA: each entry equals the rounded subtraction except
    that a zero may come out as -0.0, whose sign the wrap's ``|.|`` drops.
    The table is thus bit-identical to ``distance(space, a[:, None], b[None])``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n, m = a.shape[0], b.shape[0]
    if out is None:
        out = np.empty((n, m))
    if space.kind == SPHERE2:
        np.matmul(a, b.T, out=out)
        np.clip(out, -1.0, 1.0, out=out)
        return np.arccos(out, out=out)
    d = a.shape[1]
    left = np.ones((d, n, 2))   # [a_k, 1] per axis
    left[:, :, 0] = a.T
    right = np.ones((d, 2, m))  # [1; -b_k] per axis
    np.negative(b.T, out=right[:, 1])
    rows = max(1, L2_BLOCK // max(1, m))
    flip = np.empty((min(rows, n), m))
    diff = np.empty_like(flip) if d > 1 else None
    for i in range(0, n, rows):
        block = out[i:i + rows]
        k = len(block)
        for axis in range(d):
            t = block if axis == 0 else diff[:k]
            np.matmul(left[axis, i:i + rows], right[axis], out=t)
            _wrap(t, flip[:k])
            if axis > 0:
                np.maximum(block, t, out=block)
    return out


def _torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Torus sup-metric distance between ``a (..., d)`` and ``b (..., d)``,
    which broadcast over their leading axes.

    Each axis's wrapped distance is built in place and folded into a running
    maximum, so no temporary is larger than the output.  Every step rounds
    exactly as a reduction over an ``(..., d)`` difference array would, so
    the result is bit-identical to it.
    """
    out = np.asarray(np.subtract(a[..., 0], b[..., 0]))
    flip = np.empty_like(out)
    _wrap(out, flip)
    if a.shape[-1] > 1:
        diff = np.empty_like(out)
        for k in range(1, a.shape[-1]):
            np.subtract(a[..., k], b[..., k], out=diff)
            _wrap(diff, flip)
            np.maximum(out, diff, out=out)
    return out


def _wrap(t: np.ndarray, flip: np.ndarray) -> None:
    """Replace coordinate differences ``t`` by ``min(|t|, 1 - |t|)`` in place."""
    np.abs(t, out=t)
    np.subtract(1.0, t, out=flip)
    np.minimum(t, flip, out=t)


def box_distance(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Torus distance from points ``pts (n, d)`` to the box ``[lo, hi)`` (0
    inside): per axis, the wrapped distance to the box's centre less its
    half-width, and the largest over the axes."""
    diff = pts - (lo + hi) / 2.0
    _wrap(diff, np.empty_like(diff))
    return np.maximum(diff - (hi - lo) / 2.0, 0.0).max(axis=1)


def ball_measure(space: SpaceDescriptor, center, r: float) -> float:
    """Measure of the metric ball B(center, r); closed form on both spaces.

    Both spaces are homogeneous, so the center does not enter the value; it
    is kept in the signature for interface symmetry.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if space.kind == TORUS:
        return min(2.0 * r, 1.0) ** space.d
    return 2.0 * math.pi * (1.0 - math.cos(min(r, math.pi)))


def sample_uniform(space: SpaceDescriptor, rng: np.random.Generator, n: int | None = None):
    """Sample points from the normalized measure. ``n=None`` gives one point."""
    size = 1 if n is None else int(n)
    if space.kind == TORUS:
        pts = rng.random((size, space.d))
    else:
        z = 1.0 - 2.0 * rng.random(size)
        pts = sphere_point(z, 2.0 * math.pi * rng.random(size))
    return pts[0] if n is None else pts


def sphere_point(z: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """The points of S^2 at height ``z`` and longitude ``lon``; (..., 3),
    each coordinate written straight into the output."""
    out = np.empty(np.broadcast(z, lon).shape + (3,))
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    np.multiply(s, np.cos(lon), out=out[..., 0])
    np.multiply(s, np.sin(lon), out=out[..., 1])
    out[..., 2] = z
    return out


def unit_direction(center, what: str) -> np.ndarray:
    """``center``, a finite nonzero 3-vector called ``what``, at unit length."""
    center = np.asarray(center, dtype=float)
    if center.shape != (3,) or not np.all(np.isfinite(center)) or not np.any(center):
        raise ValueError(f"{what} must be a finite nonzero 3-vector, got {center!r}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(center)
    if not 0.0 < norm < math.inf:
        # the plain norm under- or overflows; the largest entry scales it to 1
        center = center / np.abs(center).max()
        norm = np.linalg.norm(center)
    return center / norm


def geodesic_step(center: np.ndarray, direction: np.ndarray, s) -> np.ndarray:
    """Points at geodesic distance ``s (...)`` from ``center (..., 3)`` along
    unit tangents ``direction (..., 3)``."""
    s = np.asarray(s, dtype=float)[..., None]
    return np.cos(s) * center + np.sin(s) * direction


def east_tangent(p: np.ndarray) -> np.ndarray:
    """Unit tangents at the points ``p (..., 3)`` of S^2: the longitude
    direction, and (1, 0, 0) at the poles."""
    x, y = p[..., 0], p[..., 1]
    h = np.hypot(x, y)
    pole = h < 1e-12
    h = np.where(pole, 1.0, h)
    return np.stack([np.where(pole, 1.0, -y / h), np.where(pole, 0.0, x / h),
                     np.zeros_like(h)], axis=-1)


def torus1d_radial_integral(antideriv, center: float, lo, hi) -> np.ndarray:
    """Integrate ``profile(dist(z, center))`` over z in [lo, hi] on the circle.

    ``lo`` and ``hi`` are arrays of interval ends (any length, ``hi >= lo``);
    ``antideriv`` is the vectorised antiderivative A of the radial profile
    with A(0) = 0.  Writing u = z - center = round(u) + r, the line
    antiderivative is G(u) = 2 round(u) A(1/2) + sign(r) A(|r|), and the
    integral is G(hi - center) - G(lo - center).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError("need lo <= hi")

    def line(u):
        n = np.round(u)
        r = u - n
        return 2.0 * n * antideriv(0.5) + np.sign(r) * antideriv(np.abs(r))

    return line(hi - center) - line(lo - center)
