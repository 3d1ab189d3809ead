"""Log-log convergence-rate fitting with bootstrap confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .partition import check_count


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    slope_ci: tuple[float, float]  # residual-bootstrap 95%


def rate_fit(points, n_boot: int = 1000, seed: int = 0) -> RateFit:
    """Ordinary least squares of log(value) on log(N).

    ``points`` are (N, value, stderr) triples; the fit reads N and the
    value only, so a stderr may be None.  Needs at least 4 points, every N
    finite and > 0 with at least two of them distinct, and finite values
    > 0; the slope CI comes from ``n_boot`` residual resamples (percentile
    95%), drawn as one (n_boot, points) table.
    """
    check_count("n_boot", n_boot, 2)
    pts = [(float(n), float(v)) for n, v, _ in points]
    if len(pts) < 4:
        raise ValueError(f"rate fit needs >= 4 points, got {len(pts)}")
    ns = [n for n, _ in pts]
    for n in ns:
        if not (math.isfinite(n) and n > 0):
            raise ValueError(f"rate fit needs finite N > 0, got N = {n:g}")
    if len(set(ns)) < 2:
        raise ValueError(f"rate fit needs two distinct N, got only N = {ns[0]:g}")
    if not all(0 < v < math.inf for _, v in pts):
        raise ValueError("rate fit needs finite values > 0")
    x = np.log(np.array(ns))
    y = np.log(np.array([v for _, v in pts]))
    slope, intercept = map(float, _ols(x, y))
    fitted = intercept + slope * x
    resid = y - fitted
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rng = rngmod.substream(seed, rngmod.BOOT)
    y_b = fitted + rng.choice(resid, size=(n_boot, len(resid)), replace=True)
    slopes, _ = _ols(x, y_b)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return RateFit(slope, intercept, r2, (float(min(lo, slope)), float(max(hi, slope))))


def _ols(x: np.ndarray, y: np.ndarray):
    """Slope and intercept of y on x, fitted along y's last axis."""
    xm, ym = x.mean(), y.mean(axis=-1)
    slope = np.sum((x - xm) * (y - ym[..., None]), axis=-1) / np.sum((x - xm) ** 2)
    return slope, ym - slope * xm


def predicted_wce_exponent(regime: str, alpha: float, eps: float, d: int) -> float | None:
    """Rate exponent of the worst-case error under stratified random nodes."""
    if regime == "sub":
        return -alpha / d
    if regime == "saturated":
        return -0.5 - eps / d
    return None  # critical: carries a (log N)^(1/2) factor, no pure power


def predicted_bn_exponent(p: float, alpha: float, d: int) -> float:
    """Fixed-function moment-error exponent for smoothness alpha."""
    if p <= 2.0:
        return 1.0 / p - 1.0 - alpha / d
    return -0.5 - alpha / d


def predicted_indicator_exponent(beta: float, d: int) -> float:
    """Indicator-function exponent from the boundary tube exponent beta."""
    return -0.5 - beta / (2.0 * d)
