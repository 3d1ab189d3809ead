"""Test-function registry with closed-form reference integrals.

Every function carries an exact integral (never a numerical quadrature), so
the cubature oracles stay independent of the machinery under test.  Where a
closed form exists, functions also carry ``cell_means(partition)``: the exact
mean over every cell as an (N,) array, computed from the partition's chart
boxes ``lo``/``hi`` on both spaces (on the sphere, the zonal functions read
only the heights ``z_top = -lo[:, 0]`` and ``z_bot = -hi[:, 0]``).  Radial
profiles on T^1 (the cone, the arc, the square wave) all integrate through
``space.torus1d_radial_integral``.  The cone off T^1 and caps off the poles
have no closed form and leave ``cell_means`` as None; callers fall back to
Monte Carlo.

Smoothness certificates: a bounded L-Lipschitz function with sup bound S
admits the constant gradient family ``g_n == (L/2)^alpha * S^(1-alpha)``
(optimize ``min(2S, L s) / (2 s^alpha)`` over the pair distance s), giving
the certified norm bound ``(L/2)^alpha S^(1-alpha) |M|^(1/p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .partition import Partition, check_count
from .sets import SPHERE_CAP, TORUS_BOX, SetDescriptor, set_contains
from .space import (SPHERE2, TORUS, SpaceDescriptor, distance, torus1d_radial_integral,
                    unit_direction)


@dataclass
class TestFunction:
    """Evaluable function with an exact reference integral and metadata."""

    fid: str
    space: SpaceDescriptor
    evaluate: Callable[[np.ndarray], np.ndarray]
    exact_integral: float
    params: dict = field(default_factory=dict)
    lipschitz: float | None = None
    sup_bound: float | None = None
    besov_norm: Callable[[float, float], float] | None = None
    cell_means: Callable[[Partition], np.ndarray] | None = None

    def __call__(self, pts) -> np.ndarray:
        return self.evaluate(np.atleast_2d(np.asarray(pts, dtype=float)))


def _lipschitz_besov_norm(space: SpaceDescriptor, lip: float, sup: float):
    def norm(alpha: float, p: float) -> float:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"certificate covers 0 < alpha <= 1, got {alpha}")
        g = (lip / 2.0) ** alpha * sup ** (1.0 - alpha)
        return g * space.total_measure ** (1.0 / p)
    return norm


def constant_fn(space: SpaceDescriptor, c: float) -> TestFunction:
    return TestFunction(
        fid="constant", space=space,
        evaluate=lambda pts: np.full(len(np.atleast_2d(pts)), float(c)),
        exact_integral=c * space.total_measure,
        params={"c": c}, lipschitz=0.0, sup_bound=abs(c),
        cell_means=lambda partition: np.full(partition.N, float(c)),
    )


def coordinate_fn(space: SpaceDescriptor, axis: int = 0) -> TestFunction:
    """f(x) = x_axis on the torus (a measurable, not continuous, function)."""
    if space.kind != TORUS:
        raise ValueError("coordinate function lives on the torus")
    if not 0 <= axis < space.d:
        raise ValueError(f"coordinate axis must be in [0, {space.d}), got {axis}")
    return TestFunction(
        fid="coordinate", space=space,
        evaluate=lambda pts: np.atleast_2d(pts)[:, axis].astype(float),
        exact_integral=0.5, params={"axis": axis}, sup_bound=1.0,
        cell_means=lambda partition: (partition.lo[:, axis] + partition.hi[:, axis]) / 2.0,
    )


def square_wave_fn(space: SpaceDescriptor, k: int = 1) -> TestFunction:
    """+-1 square wave with k periods on T^1; mean zero."""
    if space.kind != TORUS or space.d != 1:
        raise ValueError("square wave lives on T^1")
    if k != int(k) or k < 1:
        raise ValueError(f"square wave frequency must be a positive integer, got {k}")

    def evaluate(pts):
        frac = np.mod(np.atleast_2d(pts)[:, 0] * k, 1.0)
        return np.where(frac < 0.5, 1.0, -1.0)

    def means(partition: Partition) -> np.ndarray:
        # the +1 set is the arc [0, 1/2) at frequency k
        a, b = partition.lo[:, 0], partition.hi[:, 0]
        plus = _arc_integral(0.0, 0.5, k * a, k * b) / k
        return (2.0 * plus - (b - a)) / (b - a)

    return TestFunction(
        fid="square_wave", space=space, evaluate=evaluate, exact_integral=0.0,
        params={"k": k}, sup_bound=1.0, cell_means=means,
    )


def cos_fn(space: SpaceDescriptor, freq) -> TestFunction:
    """f(x) = cos(2 pi k . x) on T^d."""
    if space.kind != TORUS:
        raise ValueError("trigonometric function lives on the torus")
    for k in np.atleast_1d(np.asarray(freq, dtype=object)):
        check_count("frequency", k, -math.inf)
    freq = tuple(int(v) for v in np.atleast_1d(freq))
    if len(freq) != space.d:
        raise ValueError("frequency vector length must match dimension")
    kvec = np.array(freq, dtype=float)

    def evaluate(pts):
        pts = np.atleast_2d(pts)
        # k . x summed left to right, elementwise: a matrix product can round
        # one row differently from a block of rows
        return np.cos(2.0 * math.pi * sum(k * pts[..., a] for a, k in enumerate(kvec)))

    def means(partition: Partition) -> np.ndarray:
        lo, hi = partition.lo, partition.hi
        re, im = np.ones(partition.N), np.zeros(partition.N)
        for a, ka in enumerate(freq):
            if ka == 0:
                fr, fi = hi[:, a] - lo[:, a], 0.0
            else:
                w = 2.0j * math.pi * ka
                fac = (np.exp(w * hi[:, a]) - np.exp(w * lo[:, a])) / w
                fr, fi = fac.real, fac.imag
            # the complex product written out: numpy's complex array multiply
            # rounds differently from its scalar one
            re, im = re * fr - im * fi, re * fi + im * fr
        return re / np.prod(hi - lo, axis=1)

    exact = space.total_measure if all(v == 0 for v in freq) else 0.0
    lip = 2.0 * math.pi * float(np.abs(kvec).sum())  # sup-metric Lipschitz bound
    return TestFunction(
        fid="cos", space=space, evaluate=evaluate, exact_integral=exact,
        params={"freq": freq}, lipschitz=lip, sup_bound=1.0,
        besov_norm=_lipschitz_besov_norm(space, lip, 1.0),
        cell_means=means,
    )


def cone_bump_fn(space: SpaceDescriptor, center, radius: float) -> TestFunction:
    """Lipschitz cone f(x) = (1 - dist(x, center)/radius)_+ ."""
    if space.kind == TORUS:
        center = np.asarray(center, dtype=float)
        if center.shape != (space.d,) or not np.all(np.isfinite(center)):
            raise ValueError(f"torus cone centre must be {space.d} finite coordinates")
        if not 0.0 < radius <= 0.5:
            raise ValueError("torus cone radius must be in (0, 1/2]")
        exact = (2.0 * radius) ** space.d / (space.d + 1)
    else:
        center = unit_direction(center, "sphere cone centre")
        if not 0.0 < radius <= math.pi:
            raise ValueError("sphere cone radius must be in (0, pi]")
        exact = 2.0 * math.pi * (1.0 - math.sin(radius) / radius)

    def evaluate(pts):
        t = distance(space, np.atleast_2d(pts), center)
        return np.maximum(0.0, 1.0 - t / radius)

    means = None
    if space.kind == TORUS and space.d == 1:
        def antideriv(t):
            t = np.minimum(t, radius)
            return t - t * t / (2.0 * radius)

        def means(partition: Partition) -> np.ndarray:
            a, b = partition.lo[:, 0], partition.hi[:, 0]
            return torus1d_radial_integral(antideriv, float(center[0]), a, b) / (b - a)

    return TestFunction(
        fid="cone", space=space, evaluate=evaluate, exact_integral=exact,
        params={"center": tuple(center), "radius": radius},
        lipschitz=1.0 / radius, sup_bound=1.0,
        besov_norm=_lipschitz_besov_norm(space, 1.0 / radius, 1.0),
        cell_means=means,
    )


def indicator_fn(space: SpaceDescriptor, setd: SetDescriptor) -> TestFunction:
    """Characteristic function of a region; integral = its measure."""
    if setd.space_kind != space.kind:
        raise ValueError("region and space kinds disagree")
    if setd.kind == TORUS_BOX and len(setd.params["lo"]) != space.d:
        raise ValueError(f"box has {len(setd.params['lo'])} coordinates, "
                         f"the torus has d={space.d}")

    def evaluate(pts):
        return set_contains(setd, pts).astype(float)

    means = None
    if setd.kind == TORUS_BOX:
        def means(partition: Partition) -> np.ndarray:
            lo, hi = partition.lo, partition.hi
            over = np.prod([_arc_integral(a, s, lo[:, i], hi[:, i]) for i, (a, s)
                            in enumerate(zip(setd.params["lo"], setd.params["side"]))], axis=0)
            return over / np.prod(hi - lo, axis=1)

    elif setd.kind == SPHERE_CAP and abs(setd.params["center"][2]) > 1.0 - 1e-15:
        # pole-centered cap against zonal cells: z-interval overlap
        z_edge = math.cos(setd.params["radius"])
        z_lo, z_hi = (z_edge, 1.0) if setd.params["center"][2] > 0 else (-1.0, -z_edge)

        def means(partition: Partition) -> np.ndarray:
            z_top, z_bot = -partition.lo[:, 0], -partition.hi[:, 0]
            over = np.maximum(0.0, np.minimum(z_top, z_hi) - np.maximum(z_bot, z_lo))
            return over / (z_top - z_bot)

    # a box of T^1 is an arc, and is named so
    shape = "torus_arc" if setd.kind == TORUS_BOX and space.d == 1 else setd.kind
    return TestFunction(
        fid=f"indicator_{shape}", space=space, evaluate=evaluate,
        exact_integral=setd.measure, params={"set": setd}, sup_bound=1.0,
        cell_means=means,
    )


def zonal_monomial_fn(space: SpaceDescriptor, power: int) -> TestFunction:
    """f(x) = z^power on S^2 (z = height coordinate)."""
    if space.kind != SPHERE2:
        raise ValueError("zonal monomial lives on the sphere")
    check_count("zonal power", power, 0)
    m = int(power)
    exact = 4.0 * math.pi / (m + 1) if m % 2 == 0 else 0.0

    def evaluate(pts):
        return np.atleast_2d(pts)[:, 2] ** m

    def means(partition: Partition) -> np.ndarray:
        z_top, z_bot = -partition.lo[:, 0], -partition.hi[:, 0]
        return (z_top ** (m + 1) - z_bot ** (m + 1)) / ((m + 1) * (z_top - z_bot))

    lip = float(m)  # |d/dtheta cos^m| <= m
    return TestFunction(
        fid="zonal", space=space, evaluate=evaluate, exact_integral=exact,
        params={"power": m}, lipschitz=lip, sup_bound=1.0,
        besov_norm=_lipschitz_besov_norm(space, lip, 1.0) if m > 0 else None,
        cell_means=means,
    )


def _arc_integral(start: float, length: float, lo, hi) -> np.ndarray:
    """Measure of the arc [start, start + length) inside each [lo, hi] on the circle."""
    half = length / 2.0
    return torus1d_radial_integral(lambda t: np.minimum(t, half), start + half, lo, hi)


# the parameters each registered function reads
_PARAMS = {"constant": ("c",), "coordinate": ("axis",), "square_wave": ("k",),
           "cos": ("freq",), "cone": ("center", "radius"), "zonal": ("power",)}


def make_function(space: SpaceDescriptor, fid: str, **params) -> TestFunction:
    """Registry entry point used by the CLI and experiment configs.

    A parameter that the function does not read is an error, so a
    misspelt key cannot silently run with the default.
    """
    if fid not in _PARAMS:
        raise ValueError(f"unknown function id {fid!r}")
    unknown = sorted(set(params) - set(_PARAMS[fid]))
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r} for function {fid!r}; "
                         f"it takes {', '.join(_PARAMS[fid])}")
    if fid == "constant":
        return constant_fn(space, params.get("c", 1.0))
    if fid == "coordinate":
        return coordinate_fn(space, params.get("axis", 0))
    if fid == "square_wave":
        return square_wave_fn(space, params.get("k", 1))
    if fid == "cos":
        return cos_fn(space, params.get("freq", (1,) * space.d))
    if fid == "cone":
        center = params.get("center")
        if center is None:
            center = (0.5,) * space.d if space.kind == TORUS else (0.0, 0.0, 1.0)
        radius = params.get("radius", 0.25 if space.kind == TORUS else 1.0)
        return cone_bump_fn(space, center, radius)
    return zonal_monomial_fn(space, params.get("power", 2))
