"""Scale-indexed gradient machinery and the fixed-function error bounds.

A family {g_n}, n >= n_min, is a phi-gradient for f (phi(t) = t^alpha) when

    |f(x) - f(y)| <= phi(2^-n) (g_n(x) + g_n(y))   whenever dist(x, y) <= 2^-n,

and the associated smoothness norm is sup_n ||g_n||_p.  Indicators of nice
regions carry the explicit inner-tube gradient; bounded Lipschitz functions
carry constant gradients.  The error of the stratified rule on such f is
bounded by three computable right-hand sides (rhs1 for every p, rhs2 for
p <= 2, rhs3 for p >= 2), all driven by the cell diameters and weights, plus
the moment-comparison constant B(p) supplied empirically by the ``mz``
module.

The sharpness function places two opposite bumps (a difference of cones,
mean zero) inside one cell or inside every cell; these attain the bounds'
rates up to constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .cubature import jackknife_power_mean
from .funcs import TestFunction, _lipschitz_besov_norm
from .partition import Partition, cell_sample, check_count, find_cell
from .sets import SetDescriptor, boundary_distance, psi_tube_measure, set_contains
from .space import TORUS, SpaceDescriptor, distance, east_tangent, geodesic_step

# tube measures below this fraction of the space end the sup over scales
TAIL_MEASURE = 1e-9


@dataclass
class PhiGradient:
    """Gradient family g(n, points) for phi(t) = t^alpha, defined for n >= n_min."""

    alpha: float
    n_min: int
    g: Callable[[int, np.ndarray], np.ndarray]


def scale_floor(space: SpaceDescriptor) -> int:
    """Smallest integer n with 2^-n <= diam(M); scales above that are vacuous."""
    return math.ceil(-math.log2(space.diameter))


def chi_phi_gradient(space: SpaceDescriptor, setd: SetDescriptor,
                     alpha: float) -> PhiGradient:
    """Inner-tube gradient of an indicator: g_n = 2^(alpha n) on the part of
    the region within 2^-n of its boundary, zero elsewhere."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def g(n: int, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = set_contains(setd, pts)
        near = boundary_distance(setd, space, pts) <= 2.0 ** (-n)
        return np.where(inside & near, 2.0 ** (alpha * n), 0.0)

    return PhiGradient(alpha=alpha, n_min=scale_floor(space), g=g)


def besov_norm_bound_chi(space: SpaceDescriptor, setd: SetDescriptor,
                         alpha: float, p: float) -> float:
    """sup_n of phi(2^-n)^{-1} psi(2^-n)^{1/p} over the admissible scales.

    Valid (finite) for p * alpha <= beta; otherwise the sup diverges along
    the small scales and the function returns inf with a warning.
    """
    if p * alpha > setd.beta + 1e-12:
        warnings.warn(
            f"indicator is not in the p={p}, alpha={alpha} class "
            f"(need p*alpha <= beta={setd.beta}); bound is infinite")
        return math.inf
    n = scale_floor(space)
    best = 0.0
    floor = TAIL_MEASURE * space.total_measure
    while True:
        t = 2.0 ** (-n)
        psi = psi_tube_measure(space, setd, t)
        if psi <= floor:
            break
        best = max(best, t ** (-alpha) * psi ** (1.0 / p))
        n += 1
        if n > 200:
            break
    return best


@dataclass
class PoincareReport:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    holds: bool


def poincare_check(partition: Partition, j: int, f: TestFunction, gradient: PhiGradient,
                   p: float, n: int, budget: int = 4096, seed: int = 0) -> PoincareReport:
    """Monte Carlo check of the cell-mean inequality

        {(1/w) int_X |f - f_X|^p}^{1/p} <= 2 * 2^(-n alpha) {(1/w) int_X g_n^p}^{1/p}

    for cell j of diameter <= 2^-n.  Standard errors by the leave-one-out
    jackknife over the samples; ``holds`` allows 3 combined standard errors
    of slack.
    """
    check_count("budget", budget, 2)  # the jackknife needs two samples
    diameter = float(partition.diameter[j])
    if diameter > 2.0 ** (-n):
        raise ValueError(f"cell diameter {diameter} exceeds scale 2^-{n}")
    if n < gradient.n_min:
        raise ValueError(f"scale n={n} below the gradient's n_min={gradient.n_min}")
    rng = rngmod.substream(seed, rngmod.POINCARE, j, n)
    x = cell_sample(partition, j, rng, budget)
    fx = f.evaluate(x)
    if f.cell_means is not None:
        f_mean = f.cell_means(partition)[j]
    else:
        f_mean = float(f.evaluate(cell_sample(partition, j, rng, budget)).mean())
    lhs, lhs_se = jackknife_power_mean(np.abs(fx - f_mean) ** p, 1.0 / p)
    phi = 2.0 ** (-n * gradient.alpha)
    gx = gradient.g(n, x)
    rhs_core, rhs_se = jackknife_power_mean(gx ** p, 1.0 / p)
    rhs = 2.0 * phi * rhs_core
    rhs_se *= 2.0 * phi
    return PoincareReport(lhs, lhs_se, rhs, rhs_se,
                          holds=lhs <= rhs + 3.0 * (lhs_se + rhs_se))


@dataclass
class RhsBounds:
    rhs1: float
    rhs2: float
    rhs3: float
    rhs2_applicable: bool
    rhs3_applicable: bool


def besov_rhs_bounds(partition: Partition, p: float, alpha: float,
                     norm_value: float, b_p: float = 1.0) -> RhsBounds:
    """The three computable right-hand sides for the p-th moment error of a
    function with smoothness norm <= norm_value (phi(t) = t^alpha).

    ``b_p`` is the moment-comparison constant; pass the empirical envelope
    from the ``mz`` module for p != 2 (it is exactly 1 at p = 2).  rhs2 is
    scoped to 1 <= p <= 2 and rhs3 to 2 <= p < inf; requesting the other
    range warns and flags the value as inapplicable.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    total = partition.space.total_measure
    w = partition.weights()
    max_delta = float(partition.diameter.max())
    phi = (2.0 * max_delta) ** alpha
    rhs1 = 2.0 * total ** (1.0 - 1.0 / p) * phi * norm_value
    rhs2 = 2.0 * b_p * float(np.max(w ** (1.0 - 1.0 / p))) * phi * norm_value
    rhs3 = 2.0 * b_p * total ** (0.5 - 1.0 / p) * float(np.max(np.sqrt(w))) * phi * norm_value
    rhs2_ok = p <= 2.0
    rhs3_ok = p >= 2.0
    if not rhs2_ok:
        warnings.warn(f"rhs2 is scoped to 1 <= p <= 2, got p={p}")
    if not rhs3_ok:
        warnings.warn(f"rhs3 is scoped to 2 <= p < inf, got p={p}")
    return RhsBounds(rhs1, rhs2, rhs3, rhs2_ok, rhs3_ok)


# ---------------------------------------------------------------------------
# sharpness constructions
# ---------------------------------------------------------------------------

def sharpness_fn(partition: Partition, cell: int | None = None) -> TestFunction:
    """Sum over every cell, or the one ``cell``, of mean-zero two-bump
    functions: a cone at one centre minus its twin at the other.

    Lipschitz with constant 1/rho, rho the least support radius (~ N^{-1/d}),
    hence smoothness norm O(N^{alpha/d}); the sum's p-th moment error decays
    like N^{-1/2} for p > 2.  One cell's pair is 0 off that cell.
    """
    space = partition.space
    ids = slice(None) if cell is None else [cell]
    r_in, anchor = partition.inradius[ids], partition.anchor[ids]
    # centres r_in/2 either side of the anchor hold disjoint balls of radius
    # r_in/4 inside the cell; each cone's support radius is r_in/8
    if space.kind == TORUS:
        step = np.zeros_like(anchor)
        step[:, 0] = r_in / 2.0
        ca, cb = np.mod(anchor + step, 1.0), np.mod(anchor - step, 1.0)
    else:
        e = east_tangent(anchor)
        ca, cb = geodesic_step(anchor, e, r_in / 2.0), geodesic_step(anchor, e, -r_in / 2.0)
    rho = r_in / 8.0

    def evaluate(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        k = find_cell(partition, pts) if cell is None else 0
        return (np.maximum(0.0, 1.0 - distance(space, pts, ca[k]) / rho[k])
                - np.maximum(0.0, 1.0 - distance(space, pts, cb[k]) / rho[k]))

    lip = float(1.0 / rho.min())
    return TestFunction(
        fid="sharpness", space=space, evaluate=evaluate, exact_integral=0.0,
        params={"cell": cell, "centers": (ca, cb), "rho": float(rho.min())},
        lipschitz=lip, sup_bound=1.0,
        besov_norm=_lipschitz_besov_norm(space, lip, 1.0),
        cell_means=lambda partition_: np.zeros(partition_.N),
    )
