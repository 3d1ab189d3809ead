"""Radial kernels defining the potential-space unit balls.

Two production families plus a diagnostic stub:

* ``riesz``: ``Phi(x, y) = t^(alpha - d)`` with ``t = dist(x, y)``, the model
  kernel of fractional smoothness ``alpha``; its Hoelder exponent is 1.
* ``rough_riesz``: ``t^(alpha - d) + kappa * W_eps(t)`` where ``W_eps`` is a
  truncated lacunary cosine series ``sum_m 2^(-eps*m) cos(2*pi*2^m*t)``.
  The series is eps-Hoelder with genuine oscillation of size ``h^eps`` at
  every scale ``h`` down to ``2^-N_SCALES``, which is what makes the
  saturated convergence regime ``alpha > d/2 + eps`` actually attainable.
  A plain additive power term ``kappa * t^eps`` does not work here: away
  from the origin it is smooth, so it also satisfies the exponent-1
  smoothness bound and the error keeps the sub-regime rate ``N^(-alpha/d)``.
* ``const``: ``Phi == kappa``, used as a degenerate control in tests.

Evaluations at distances below ``SINGULAR_TOL`` raise; Monte Carlo callers
redraw such samples (a measure-zero event at any realistic budget).

On T^1 every frequency 2^m of the lacunary series is an integer, so its sum
against weighted nodes separates into node and y factors by angle addition;
``rough_potential`` sums it that way.  Its angles are reduced exactly at every
fourth scale (the anchors), and the three scales after each anchor are
complex squares of it; against the series with every angle reduced exactly it
was within 8.4e-15 (sum of weights 1, measured next to ``ROUGH_STRIDE``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .space import TORUS, SpaceDescriptor

RIESZ = "riesz"
ROUGH_RIESZ = "rough_riesz"
CONST = "const"

SINGULAR_TOL = 1e-12
# terms of the rough family's lacunary cosine series
N_SCALES = 20
# rough_potential reduces angles exactly at every ROUGH_STRIDE-th scale and
# squares between.  Against the series with exactly reduced angles, over 300
# random node sets with sum w = 1, its error was at most 4.4e-15 at eps = 1/4
# and 8.4e-15 over eps in [0.05, 1] (1.1e-15 and 1.6e-15 with every scale
# reduced); each squaring doubles the angle error of the anchor
ROUGH_STRIDE = 4


class SingularPairError(ValueError):
    """Kernel evaluated at (numerically) coincident points."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: exponent ``alpha`` in (0, d), Hoelder exponent
    ``eps`` in (0, 1], roughness amplitude ``kappa`` >= 0."""

    family: str
    alpha: float = 0.5
    d: int = 1
    eps: float = 1.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.family not in (RIESZ, ROUGH_RIESZ, CONST):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == CONST:
            return
        if not 0.0 < self.alpha < self.d:
            raise ValueError(f"need 0 < alpha < d, got alpha={self.alpha}, d={self.d}")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"need 0 < eps <= 1, got {self.eps}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.family == RIESZ and self.kappa != 0.0:
            raise ValueError("riesz takes kappa = 0; use rough_riesz")

    def as_dict(self) -> dict:
        return {"family": self.family, "alpha": self.alpha, "d": self.d,
                "eps": self.eps, "kappa": self.kappa}


def rough_series(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """The lacunary roughness term ``sum_m 2^(-eps m) cos(2 pi 2^m t)``.

    Evaluated by Chebyshev doubling (cos 2x = 2 cos^2 x - 1), one
    multiply-add per scale.  Each doubling doubles the angle error of the
    rounded cos(2 pi t), so against the series with exactly reduced angles
    the absolute error at eps = 1/4 reaches 8.1e-7 within 1e-5 of t = 0 and
    t = 1/2 (where that rounding is largest relative to the angle), and
    6.2e-7 over 10^7 uniform t in [0, 1/2]; larger eps weight the top
    scales less.  That is far under the Monte Carlo noise floor.
    """
    c = np.cos(2.0 * math.pi * np.asarray(t, dtype=float))
    acc = c.copy()
    w = 1.0
    decay = 2.0 ** (-spec.eps)
    for _ in range(1, N_SCALES):
        c = 2.0 * c * c - 1.0
        w *= decay
        acc += w * c
    return acc


def kernel_profile(spec: KernelSpec, t, out: np.ndarray | None = None):
    """Kernel value as a function of distance (vectorized), written into ``out``.

    ``out`` may be ``t`` itself, so a caller that owns its distance table
    evaluates the kernel in place; a missing ``out`` is allocated.  Raises
    ``SingularPairError`` if any distance is below ``SINGULAR_TOL`` (for the
    singular families), before anything is written.  The power is taken with
    in-place ``**=``, which takes the same special paths (exponents -1, 0.5
    and 2) as ``t ** (alpha - d)``, so the values equal it bit for bit.
    """
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty_like(t)
    if spec.family == CONST:
        out.fill(spec.kappa)
        return out if out.ndim else out[()]
    if np.any(t < SINGULAR_TOL):
        raise SingularPairError("kernel evaluated at coincident points")
    # the rough term reads t, so it is taken before the power may overwrite t
    rough = (spec.kappa * rough_series(spec, t)
             if spec.family == ROUGH_RIESZ and spec.kappa != 0.0 else None)
    if out is not t:
        np.copyto(out, t)
    out **= spec.alpha - spec.d
    if rough is not None:
        out += rough
    return out if out.ndim else out[()]


def rough_potential(spec: KernelSpec, space: SpaceDescriptor, w: np.ndarray,
                    x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_j w_j W_eps(dist(x_j, y))`` at each y, on T^1 only; returns (len(y),).

    Every frequency 2^m is an integer, so cos(2 pi 2^m dist(x, y)) is
    Re(e^(i theta_m(x)) e^(-i theta_m(y))) with theta_m(p) = 2 pi 2^m p, and
    the sum is ``Re sum_m 2^(-eps m) (C_m + i S_m) e^(-i theta_m(y))`` with
    ``C_m + i S_m = sum_j w_j e^(i theta_m(x_j))``: trig calls on N + len(y)
    points per anchor scale instead of a series per (x_j, y) pair.  The
    angle is reduced exactly, as 2 pi ((2^m x) mod 1), only at the anchor
    scales m = 0, ``ROUGH_STRIDE``, ...: for x >= 0 both ``ldexp`` and
    ``v - floor(v)`` are exact.  The ``ROUGH_STRIDE - 1`` scales after each
    anchor are complex squares, since theta_(m+1) = 2 theta_m (mod 2 pi).
    Against the series with exactly reduced angles the error is a few ulp of
    sum |w| (measured next to ``ROUGH_STRIDE``).  Unlike a kernel table, this
    has no singular distance to test for.
    """
    if space.kind != TORUS or space.d != 1:
        raise ValueError("the separable rough term is implemented on T^1 only")
    # int32 exponents take ldexp's direct loop; int64 ones are cast per element
    anchors = np.arange(0, N_SCALES, ROUGH_STRIDE, dtype=np.int32)

    def waves(p):  # (ROUGH_STRIDE, anchors, len(p)): scale ROUGH_STRIDE a + k at [k, a]
        p = np.ravel(p)
        turns = np.ldexp(p, anchors[:, None])
        turns -= np.floor(turns)  # as exact as % 1.0 here, and several times faster
        turns *= 2.0 * math.pi
        z = np.empty((ROUGH_STRIDE, anchors.size, p.size), dtype=complex)
        np.cos(turns, out=z[0].real)
        np.sin(turns, out=z[0].imag)
        for k in range(1, ROUGH_STRIDE):
            np.multiply(z[k - 1], z[k - 1], out=z[k])
        return z

    decay = 2.0 ** (-spec.eps * (anchors + np.arange(ROUGH_STRIDE)[:, None]))
    coef = (waves(x) @ w) * decay
    return (np.conj(coef).ravel() @ waves(y).reshape(N_SCALES, -1)).real


@functools.lru_cache(maxsize=64)
def total_integral(spec: KernelSpec, space: SpaceDescriptor) -> float:
    """I_Phi = integral over M of Phi(z, y) dz, the same for every y.

    The metric is invariant, so this is the profile integrated in closed form
    against the law of dist(z, y); the rough term is integrated as its exact
    series.  Both arguments are frozen dataclasses, so the value is cached
    per (spec, space) instead of being recomputed for every draw.
    """
    if spec.family == CONST:
        return spec.kappa * space.total_measure
    a, d = spec.alpha, space.d
    rough = [(spec.kappa * 2.0 ** (-spec.eps * m), 2.0 * math.pi * 2.0 ** m)
             for m in range(N_SCALES)] if spec.kappa else []
    if space.kind == TORUS:
        # dist(z, y) has density d 2^d t^(d-1) on [0, 1/2] (balls are cubes);
        # J_k = int_0^(1/2) t^k e^(i om t) dt, by parts up from J_0
        total = 2.0 ** (-a) / a
        for c, om in rough:
            half = cmath.exp(0.5j * om)
            J = (half - 1.0) / (1j * om)
            for k in range(1, d):
                J = (2.0 ** (-k) * half - k * J) / (1j * om)
            total += c * J.real
        return d * 2.0 ** d * total
    # S^2: dist(z, y) has density 2 pi sin(t) on [0, pi]; t^(alpha-2) sin(t)
    # integrates termwise over the sine series
    total = sum((-1) ** k * math.pi ** (a + 2 * k) / (math.factorial(2 * k + 1) * (a + 2 * k))
                for k in range(40))
    total += sum(c * (1.0 + math.cos(math.pi * om)) / (1.0 - om * om) for c, om in rough)
    return 2.0 * math.pi * total


def regime_classify(spec: KernelSpec) -> str:
    """Rate regime of the kernel: ``sub`` (alpha < d/2 + eps, rate -alpha/d),
    ``saturated`` (alpha > d/2 + eps, rate -1/2 - eps/d), or ``critical``
    (equality to 1e-12, rate carries a log factor)."""
    if spec.family == CONST:
        raise ValueError("constant stub has no rate regime")
    threshold = spec.d / 2.0 + spec.eps
    if abs(spec.alpha - threshold) <= 1e-12:
        return "critical"
    return "sub" if spec.alpha < threshold else "saturated"
