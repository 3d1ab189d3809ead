"""Uniform samples from metric balls, for tests of cells and gradients."""

import math

import numpy as np

from stratcub.space import TORUS


def sample_ball(space, center, r: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points drawn uniformly from the metric ball B(center, r).

    Torus: uniform offsets in the cube of half-side r.  Sphere: an
    area-uniform geodesic radius in the cap, then a uniform tangent direction
    (the radius uniforms are drawn before the direction normals).
    """
    center = np.asarray(center, dtype=float)
    if space.kind == TORUS:
        return np.mod(center + r * (2.0 * rng.random((n, space.d)) - 1.0), 1.0)
    s = np.arccos(1.0 - rng.random(n) * (1.0 - math.cos(min(r, math.pi))))
    t = rng.standard_normal((n, 3))
    t -= (t @ center)[:, None] * center
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return np.cos(s)[:, None] * center + np.sin(s)[:, None] * t
