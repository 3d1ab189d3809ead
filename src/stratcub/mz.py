"""Empirical two-sided moment comparison for sums of independent cell terms.

For a draw x the error is a sum of independent centered variables
c_j = omega_j f(x_j) - integral over X_j of f.  The module measures

    middle  = {E |sum_j c_j|^p}^{1/p}
    bracket = {E (sum_j c_j^2)^{p/2}}^{1/p}

whose ratio is pinched between the best comparison constants A(p) <= 1 <= B(p)
(equality at p = 2 by variance additivity).  The constants are open
analytically, so ``mz_pair`` measures one configuration's ratio; the upper
end of an ``mz`` experiment's empirical envelope is the b_p of ``besov_rhs_bounds``.

Draw k's nodes are run k of the stream ``(seed, MZ)``, one node per cell,
read a block of draws at a time by ``cubature.value_blocks``.  Without
closed-form cell means, cell j's ``M_CELL`` Monte Carlo samples are run j
of the stream ``(seed, MZ, 1)``, read a block of cells at a time.  Neither
depends on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .cubature import check_moment, jackknife, jackknife_power_mean, value_blocks
from .funcs import TestFunction
from .partition import Partition, stream_points
from .space import L2_BLOCK

DEGENERATE_TOL = 1e-15
# samples per cell for Monte Carlo cell means (bracket bias O(1/M_CELL))
M_CELL = 4096


@dataclass
class MzReport:
    middle: float
    middle_se: float
    bracket: float
    bracket_se: float
    ratio: float
    ratio_se: float
    degenerate: bool


def mz_pair(f: TestFunction, partition: Partition, p: float, n_draws: int,
            seed: int) -> MzReport:
    """Monte Carlo estimates of the middle and bracket quantities.

    Cell integrals of f come from closed forms when the function provides
    them; otherwise from a dedicated Monte Carlo batch of ``M_CELL``
    samples per cell.
    Standard errors and the ratio's standard error are draw-jackknives
    (middle and bracket share draws, so the ratio is jackknifed directly).
    The report is degenerate, with no ratio, when the bracket is below
    ``DEGENERATE_TOL`` or fewer than two draws have a nonzero bracket.
    Draw k's nodes are run k of the stream ``(seed, MZ)``, one node per cell,
    taken and evaluated a block of draws at a time (``cubature.value_blocks``).
    """
    check_moment(p, n_draws)
    w = partition.weights()
    means = _cell_means(f, partition, seed)
    mid_pow = np.empty(n_draws)
    brk_pow = np.empty(n_draws)
    for k0, values in value_blocks(f, partition, seed, n_draws, rngmod.MZ):
        c = w * (values - means)
        rows = slice(k0, k0 + len(c))
        # row sums and row-wise dots round as each row's c.sum() and c @ c
        # do; the powers stay scalar (libm pow), since array powers may
        # round differently
        mid_pow[rows] = [abs(s) ** p for s in c.sum(axis=1).tolist()]
        brk_pow[rows] = [s ** (p / 2.0) for s in np.vecdot(c, c).tolist()]
    power = 1.0 / p
    middle, middle_se = jackknife_power_mean(mid_pow, power)
    bracket, bracket_se = jackknife_power_mean(brk_pow, power)
    degenerate = bracket < DEGENERATE_TOL or np.count_nonzero(brk_pow) < 2
    ratio, ratio_se = (math.nan, math.nan) if degenerate else jackknife(
        lambda m, b: m ** power / b ** power, mid_pow, brk_pow)
    return MzReport(middle, middle_se, bracket, bracket_se, ratio, ratio_se, degenerate)


def _cell_means(f: TestFunction, partition: Partition, seed: int) -> np.ndarray:
    """Closed-form cell means of f, or the mean of ``M_CELL`` samples per
    cell: cell j's are run j of the stream ``(seed, MZ, 1)``, drawn and
    evaluated a block of cells at a time (about ``L2_BLOCK`` coordinates a
    block)."""
    if f.cell_means is not None:
        return f.cell_means(partition)
    N, dim = partition.anchor.shape
    block = max(1, L2_BLOCK // (M_CELL * dim))
    means = np.empty(N)
    for j0 in range(0, N, block):
        cells = np.arange(j0, min(N, j0 + block))
        pts = stream_points(partition, seed, rngmod.MZ, 1, first=j0, count=len(cells),
                            m=M_CELL, ids=cells[:, None])
        values = f.evaluate(pts.reshape(-1, dim))
        means[j0:j0 + len(cells)] = values.reshape(len(cells), M_CELL).mean(axis=1)
    return means
