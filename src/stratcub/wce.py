"""Worst-case integration error over potential-space unit balls.

For conjugate exponents 1/p + 1/q = 1, the error functional of a draw x has
the exact dual form

    wce(x)^q = integral over M of |F(y)|^q dy,
    F(y) = sum_j integral over X_j of (Phi(x_j, y) - Phi(z, y)) dz
         = sum_j omega_j Phi(x_j, y) - I_Phi,

with I_Phi = ``kernel.total_integral`` the same for every y, so the draw
average A_N = {E_x wce^q}^{1/q} needs Monte Carlo over y only.  On T^1 the
lacunary term of a rough-Riesz kernel's F is summed separably
(``kernel.rough_potential``: angles reduced exactly at every fourth scale and
squared for the three between, within 1e-14 of the exact series), so the
(N, m_y) node table holds the Riesz part only; Delta, Gamma, the probe and
the quadrature reference ``wq_reference`` tabulate the full kernel.

A_N is bracketed by two functionals of the per-cell terms
T_j(y) = omega_j (Phi(x_j, y) - cell mean of Phi(., y)): Gamma (sum of per-cell
q-norms, an upper bound for every p >= 1) and Delta (the square-function form,
two-sided up to the moment-comparison constants, an equality at p = q = 2 by
variance additivity).  The inner budget m_z feeds Delta and Gamma only: each
cell mean is estimated twice from m_z independent cell samples, so products
of the two replicas give unbiased squares at q = 2 for any m_z.  Standard
errors are leave-one-out jackknives (``cubature.jackknife``): over draws for
A_N and Delta, over the shared (x, y) pairs for Gamma.

The draw loops of A_N and Delta run through ``cubature.run_indexed``;
``run_report`` runs Gamma, Delta's draws and A_N's draws as one task list on
one pool, so the thread that runs Gamma does not leave the others idle.
Every stream a draw reads is keyed by (seed, estimator, draw index), and the
per-draw values are collected in index order, so the output is the same bits
for any thread count, and ``run_report`` gives the bits of the three
estimators called one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .cubature import (ErrorStats, draw_nodes, jackknife, jackknife_power_mean, run_indexed,
                       sample_all_cells)
from .kernel import (CONST, RIESZ, ROUGH_RIESZ, SINGULAR_TOL, KernelSpec, SingularPairError,
                     kernel_profile, regime_classify, rough_potential, total_integral)
from .partition import Partition, cell_boundary_distance, cell_points, check_count, check_real
from .space import (L2_BLOCK, TORUS, SpaceDescriptor, distance, pairwise_distance,
                    sample_uniform)

# times a sample batch that hits a kernel singularity is redrawn before giving up
MAX_REDRAWS = 100
# wq_reference's Gauss-Legendre panels per piece of a gap, and nodes per panel
# (Davis & Rabinowitz, *Methods of Numerical Integration*, ch. 2).  Doubling
# PANELS moved draws on T^1 (N = 1, 2, 16; alpha = 0.75, 0.9) by at most 7e-16
# relative at p = 2, and 9e-6 at p = 4, where |F|^q kinks at the zeros of F
PANELS = 16
ORDER = 20


def conjugate_exponent(p: float) -> float:
    """The q with 1/p + 1/q = 1: inf at p = 1 and 1 at p = inf."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def check_exponents(kernel: KernelSpec, d: int, p: float) -> None:
    """Raise ``ValueError`` unless p is in (1, inf] and ``kernel`` has
    dimension d and alpha > d/p (so that |F|^q is integrable)."""
    if not p > 1:
        raise ValueError("p must lie in (1, inf]; the p = 1 endpoint is "
                         "not Monte Carlo estimable (sup norm)")
    if kernel.family != CONST:
        if kernel.d != d:
            raise ValueError("kernel and space dimension disagree")
        if kernel.alpha <= d / p:
            raise ValueError(f"integrability needs alpha > d/p, got alpha={kernel.alpha}, "
                             f"d/p={d / p}")


@dataclass(frozen=True)
class WceConfig:
    """Budgets and exponents for the worst-case-error estimators.

    ``m_y``: outer samples of y per draw; ``m_z``: inner cell samples per
    replica for the cell kernel means of Delta and Gamma (A_N and
    ``worst_case_error`` use none); ``gamma_pairs``: (x, y) pairs per cell
    for the per-cell functional, at least 2 for its jackknife.  Each thread
    of Delta's draw loop (``delta_phi`` or ``run_report``) holds buffers of
    its own, about 24 N m_y bytes (node table and two replicas of T) plus a
    cell-mean block of about ``L2_BLOCK`` doubles.  Under ``run_report`` one
    thread may hold Gamma's (N, gamma_pairs) tables, up to about
    90 N gamma_pairs bytes at their peak, while the others hold Delta buffers.
    """

    partition: Partition
    kernel: KernelSpec
    p: float
    m_y: int = 512
    m_z: int = 8
    n_draws: int = 100
    seed: int = 0
    gamma_pairs: int = 256

    def __post_init__(self):
        check_count("seed", self.seed, -math.inf)  # any integer
        check_real("p", self.p)
        check_count("m_y", self.m_y, 1)
        check_count("m_z", self.m_z, 1)
        check_count("n_draws", self.n_draws, 2)  # a standard error needs two
        check_count("gamma_pairs", self.gamma_pairs, 2)
        check_exponents(self.kernel, self.partition.space.d, self.p)

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)


@dataclass
class WceReport:
    config_label: dict
    a_n: ErrorStats
    delta: ErrorStats
    gamma: ErrorStats
    regime: str


# ---------------------------------------------------------------------------
# per-draw tables
# ---------------------------------------------------------------------------

def _cell_means(cfg: WceConfig, rng_z: np.random.Generator, Y: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Cell kernel means (N, len(Y)) over one replica of m_z samples per cell.

    The means are written into ``out``; a missing ``out`` is allocated.
    Streams blocks of about ``L2_BLOCK`` distances through distance table,
    kernel and mean, so no (N, m_z, m_y) table is built.  Every block and
    every redraw reuses one block buffer, in which a block's distances (one
    ``pairwise_distance`` table on either space) become its kernel values.
    A block whose kernel meets a singular distance redraws the whole Z; the
    random stream and the result are those of the unblocked table.
    """
    part = cfg.partition
    m_y = len(Y)
    rows = min(part.N, max(1, L2_BLOCK // (cfg.m_z * m_y)))
    if out is None:
        out = np.empty((part.N, m_y))
    buf = np.empty((rows * cfg.m_z, m_y))
    for _ in range(MAX_REDRAWS):
        Z = sample_all_cells(part, rng_z, cfg.m_z)
        for i in range(0, part.N, rows):
            Zb = Z[i:i + rows]
            D = buf[:len(Zb) * cfg.m_z]
            pairwise_distance(part.space, Zb.reshape(len(D), -1), Y, out=D)
            try:
                kernel_profile(cfg.kernel, D, out=D)
            except SingularPairError:
                break
            D.reshape(len(Zb), cfg.m_z, m_y).mean(axis=1, out=out[i:i + rows])
        else:
            return out
    raise RuntimeError("singular cell-sample redraw budget exhausted")


def _cell_terms(cfg: WceConfig, phi: np.ndarray, Y: np.ndarray,
                z_path: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Two-replica per-cell terms T (2, N, len(Y)) = w_j (phi_j - cell mean j).

    ``phi`` (N, len(Y)) holds Phi(x_j, y); replica r draws its cell samples
    from the stream ``(seed, *z_path, r)``.  T is built in ``out``
    (allocated when missing).
    """
    w = cfg.partition.weights()
    T = np.empty((2,) + phi.shape) if out is None else out
    for r in (0, 1):
        _cell_means(cfg, rngmod.substream(cfg.seed, *z_path, r), Y, out=T[r])
        np.subtract(phi, T[r], out=T[r])
        T[r] *= w[:, None]
    return T


def _kernel_redrawing_y(kernel: KernelSpec, space: SpaceDescriptor,
                        rng_y: np.random.Generator, Y: np.ndarray,
                        dist: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``kernel`` evaluated in the distance table ``dist(Y)`` (last axis over
    Y).  When it meets a singular distance, each y whose minimum distance
    falls below ``SINGULAR_TOL`` is redrawn in place and the table rebuilt.
    """
    for _ in range(MAX_REDRAWS):
        t = dist(Y)
        try:
            return kernel_profile(kernel, t, out=t)
        except SingularPairError:
            bad = t.reshape(-1, len(Y)).min(axis=0) < SINGULAR_TOL
            Y[bad] = sample_uniform(space, rng_y, int(bad.sum()))
    raise RuntimeError("singular y redraw budget exhausted")


def _draw_nodes(cfg: WceConfig, ctx: int, index: int) -> np.ndarray:
    return draw_nodes(cfg.partition, cfg.seed, index, stream=rngmod.path_key(ctx, rngmod.NODES))


def _node_table(cfg: WceConfig, kernel: KernelSpec, nodes: np.ndarray, ctx: int, index: int,
                rep: int = 0, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Kernel table kernel(x_j, y) (N, m_y) at ``nodes`` and the y sample Y
    of one draw.

    The table is built in ``out`` (allocated when missing): distances first,
    then the kernel in place.
    """
    space = cfg.partition.space
    rng_y = rngmod.substream(cfg.seed, ctx, rngmod.WCE_Y, index, rep)
    Y = sample_uniform(space, rng_y, cfg.m_y)
    # Y is redrawn in place, so the returned Y matches the table
    return _kernel_redrawing_y(kernel, space, rng_y, Y,
                               lambda Y: pairwise_distance(space, nodes, Y, out=out)), Y


def _draw_tables(cfg: WceConfig, ctx: int, index: int, phi: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Two-replica per-cell terms T (2, N, m_y) for one draw.

    The node table is built in ``phi`` and T in ``out``; each is allocated
    when missing.
    """
    phi, Y = _node_table(cfg, cfg.kernel, _draw_nodes(cfg, ctx, index), ctx, index, out=phi)
    return _cell_terms(cfg, phi, Y, (ctx, rngmod.WCE_Z, index, 0), out)


def _wq(cfg: WceConfig, ctx: int, index: int, rep: int = 0,
        nodes: np.ndarray | None = None, out: np.ndarray | None = None) -> float:
    """|M| mean_y |F(y)|^q, unbiased for wce^q of one draw, from the exact F.

    ``out`` is the (N, m_y) buffer for the node table (allocated when missing).
    On T^1 a rough-Riesz kernel's table holds its Riesz part only, and the
    rough term of F is added from ``rough_potential``.
    """
    part = cfg.partition
    space = part.space
    kern = cfg.kernel
    if nodes is None:
        nodes = _draw_nodes(cfg, ctx, index)
    separable = (space.kind == TORUS and space.d == 1 and kern.family == ROUGH_RIESZ
                 and kern.kappa != 0.0)
    table_kernel = KernelSpec(RIESZ, alpha=kern.alpha, d=kern.d) if separable else kern
    phi_nodes, Y = _node_table(cfg, table_kernel, nodes, ctx, index, rep, out)
    w = part.weights()
    F = w @ phi_nodes - total_integral(kern, space)
    if separable:
        F += kern.kappa * rough_potential(kern, space, w, nodes, Y)
    return space.total_measure * float(np.mean(np.abs(F) ** cfg.q))


def _dq_samples(cfg: WceConfig, T: np.ndarray) -> np.ndarray:
    """Per-y samples whose mean estimates the square-function form^q.

    The replica product is formed in ``T[0]``, which is overwritten.
    """
    total = cfg.partition.space.total_measure
    S = np.multiply(T[0], T[1], out=T[0]).sum(axis=0)  # unbiased for sum_j T_j^2
    if cfg.q == 2.0:
        return total * S
    return total * np.clip(S, 0.0, None) ** (cfg.q / 2.0)


def _an_task(cfg: WceConfig, table: np.ndarray) -> Callable[[int], float]:
    """A_N's per-draw value of draw k, its node table built in ``table``."""
    return lambda k: _wq(cfg, rngmod.AN, k, out=table)


def _delta_task(cfg: WceConfig, phi: np.ndarray, T: np.ndarray) -> Callable[[int], float]:
    """Delta's per-draw value of draw k, its node table built in ``phi`` and
    its per-cell terms in ``T``."""
    return lambda k: _dq_samples(cfg, _draw_tables(cfg, rngmod.DELTA, k, phi, T)).mean()


def _delta_buffers(cfg: WceConfig) -> tuple[np.ndarray, np.ndarray]:
    """A thread's node-table buffer (N, m_y) and per-cell-term buffer (2, N, m_y)."""
    phi = np.empty((cfg.partition.N, cfg.m_y))
    return phi, np.empty((2,) + phi.shape)


def _draw_moment(cfg: WceConfig, values) -> ErrorStats:
    """{mean of the per-draw values}^{1/q} with jackknife standard error."""
    moment, se = jackknife_power_mean(values, 1.0 / cfg.q)
    return ErrorStats(p=cfg.q, n_draws=cfg.n_draws, moment=moment, stderr=se)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def worst_case_error(cfg: WceConfig, nodes: np.ndarray, index: int, rep: int = 0) -> float:
    """Monte Carlo estimate over m_y samples of y of the dual-form worst-case
    error of the draw ``nodes`` (N, dim) (F is exact; m_z is unused).  Its y
    stream is ``(seed, WCE_OP, WCE_Y, index, rep)``: ``index`` names the draw,
    and each ``rep`` is an independent replication."""
    return _wq(cfg, rngmod.WCE_OP, index, rep, nodes) ** (1.0 / cfg.q)


def estimate_AN(cfg: WceConfig) -> ErrorStats:
    """{mean over draws of wce^q}^{1/q} with jackknife standard error."""
    return _draw_moment(cfg, run_indexed(
        cfg.n_draws, lambda: _an_task(cfg, np.empty((cfg.partition.N, cfg.m_y)))))


def delta_phi(cfg: WceConfig) -> ErrorStats:
    """Square-function bracket: {E_x E_y |M| (sum_j T_j^2)^{q/2}}^{1/q}.

    Independent of ``estimate_AN`` (separate streams, and Monte Carlo cell
    means against A_N's exact integral), so the p = q = 2 identity between
    the two is a genuine dual-route check.
    """
    return _draw_moment(cfg, run_indexed(
        cfg.n_draws, lambda: _delta_task(cfg, *_delta_buffers(cfg))))


def gamma_phi(cfg: WceConfig) -> ErrorStats:
    """Sum over cells of per-cell q-norms of T_j, from P = gamma_pairs pairs.

    Pair i of cell j is (x_ij, y_i): the x are uniform in their cells and
    one uniform Y is shared by all cells, so each cell's pairs keep their
    law and only cells become correlated.  The statistic is a sum of
    fractional powers, so a per-draw jackknife does not apply; its SE is a
    leave-one-pair-out jackknife of the whole statistic (pair i left out of
    every cell at once; given the cell-mean replicas the pairs are i.i.d.).
    """
    part = cfg.partition
    space = part.space
    q = cfg.q
    P = cfg.gamma_pairs
    X = sample_all_cells(part, rngmod.substream(cfg.seed, rngmod.GAMMA, rngmod.NODES), P)
    rng_y = rngmod.substream(cfg.seed, rngmod.GAMMA, rngmod.WCE_Y)
    Y = sample_uniform(space, rng_y, P)
    phi = _kernel_redrawing_y(cfg.kernel, space, rng_y, Y, lambda Y: distance(space, X, Y))
    T = _cell_terms(cfg, phi, Y, (rngmod.GAMMA, rngmod.WCE_Z))
    # per-cell, per-pair samples u (N, P) with E[u] = |M| * E_x E_y |T_j|^q
    if q == 2.0:
        u = space.total_measure * T[0] * T[1]
    else:
        u = space.total_measure * np.abs(0.5 * (T[0] + T[1])) ** q
    gamma, se = jackknife(lambda m: np.sum(np.clip(m, 0.0, None) ** (1.0 / q), axis=-1), u.T)
    return ErrorStats(p=q, n_draws=P, moment=gamma, stderr=se)


def run_report(cfg: WceConfig) -> WceReport:
    """A_N, Delta and Gamma of one config, equal to ``estimate_AN``,
    ``delta_phi`` and ``gamma_phi``, from one ``run_indexed`` call.

    Task 0 is Gamma, tasks 1 .. n_draws are Delta's draws and the last
    n_draws are A_N's, costliest first, so A_N's short draws fill in at the
    end.  A thread allocates its Delta buffers on its first draw task, and
    its A_N node tables reuse the node-table buffer.
    """
    n = cfg.n_draws
    regime = regime_classify(cfg.kernel)  # raises for the constant stub, before any draw

    def make_task():
        tasks = []  # this thread's Delta and A_N tasks, built on its first draw

        def task(i):
            if i == 0:
                return gamma_phi(cfg)
            if not tasks:
                phi, T = _delta_buffers(cfg)
                tasks.extend((_delta_task(cfg, phi, T), _an_task(cfg, phi)))
            return tasks[0](i - 1) if i <= n else tasks[1](i - 1 - n)

        return task

    values = run_indexed(2 * n + 1, make_task)
    return WceReport(
        config_label={"N": cfg.partition.N, "p": cfg.p, **cfg.kernel.as_dict()},
        a_n=_draw_moment(cfg, values[n + 1:]),
        delta=_draw_moment(cfg, values[1:n + 1]),
        gamma=values[0],
        regime=regime,
    )


# ---------------------------------------------------------------------------
# per-draw T^1 reference
# ---------------------------------------------------------------------------

def wq_reference(cfg: WceConfig, nodes: np.ndarray) -> float:
    """wce^q = integral over M of |F|^q for the draw ``nodes`` (N, 1), in cell
    order, by deterministic quadrature on T^1.

    Each gap between sorted nodes is split at its midpoint into halves owned
    by the nearer node, and cut at every node's antipode, where its distance
    kinks.  On the piece at its node, t = h u^gamma with gamma = 1 / (1 -
    alpha) makes the owner's t^(alpha - 1) dt smooth in u; the other pieces
    are linear in u.  The owner's distance is t itself, below
    ``SINGULAR_TOL`` near the node, so its power is taken from t.  Takes a
    Riesz kernel, a rough one with kappa = 0, or the constant stub (F = 0).
    """
    space = cfg.partition.space
    kern = cfg.kernel
    if space.kind != TORUS or space.d != 1:
        raise ValueError("the per-draw reference is implemented on T^1 only")
    if kern.family == CONST:
        return 0.0
    if kern.kappa != 0.0:  # the lacunary term oscillates up to 2^19, past the panels
        raise ValueError("the per-draw reference needs kappa = 0")
    order = np.argsort(nodes[:, 0], kind="stable")
    x, w, N = nodes[order, 0], cfg.partition.weights()[order], len(order)
    gap = np.diff(x, append=x[0] + 1.0)  # from node j to the next
    h = np.concatenate([gap, np.roll(gap, 1)]) / 2.0  # halves: node j's right j, left N + j
    # from node j to each node's antipode, rightward in row j and leftward in row N + j
    cuts = np.vstack([(x + 0.5 - x[:, None]) % 1.0, (x[:, None] - x - 0.5) % 1.0])
    ends = np.sort(np.column_stack([np.zeros(2 * N), h, np.minimum(cuts, h[:, None])]), axis=1)
    piece, col = np.nonzero(np.diff(ends, axis=1) > 0.0)  # [t0, t0 + L], t from the owner
    t0, L = ends[piece, col, None], (ends[piece, col + 1] - ends[piece, col])[:, None]
    gamma = np.where(t0 == 0.0, 1.0 / (1.0 - kern.alpha), 1.0)
    u, v = np.polynomial.legendre.leggauss(ORDER)
    u = ((np.arange(PANELS)[:, None] + (u + 1.0) / 2.0) / PANELS).ravel()
    t = t0 + L * u ** gamma  # (pieces, PANELS ORDER)
    dt = L * gamma * u ** (gamma - 1.0) * np.tile(v / (2.0 * PANELS), PANELS)
    owner = piece % N
    y = (x[owner, None] + np.where(piece < N, 1.0, -1.0)[:, None] * t) % 1.0
    F = np.full(t.shape, -total_integral(kern, space))
    phi = np.empty_like(t)
    for i in range(N):
        mine = np.flatnonzero(owner == i)
        pairwise_distance(space, x[i:i + 1, None], y.reshape(-1, 1), out=phi.reshape(1, -1))
        phi[mine] = 0.5  # a placeholder the owner's power of t overwrites
        kernel_profile(kern, phi, out=phi)
        phi[mine] = t[mine] ** (kern.alpha - kern.d)
        F += w[i] * phi
    return space.total_measure * float(np.sum(np.abs(F) ** cfg.q * dt))


# ---------------------------------------------------------------------------
# lower-bound hypothesis probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    min_ratio: float
    median_ratio: float
    n_samples: int
    n_skipped: int


def lower_hypothesis_probe(cfg: WceConfig, n_pairs: int) -> ProbeReport:
    """Sampled infimum of

        [integral over X_j of |Phi(x, y) - Phi(z, y)| dx]
        / [N^(-1-eps/d) dist(y, X_j)^(alpha-d-eps)]

    over cells j, z in X_j, and y with dist(y, X_j) >= 2 delta_j.  A positive,
    N-stable minimum supports the matching-lower-bound hypothesis for the
    kernel; a vanishing minimum refutes it.

    The pairs are drawn as arrays: cells j, one z and 32 points x per pair,
    then y in up to 200 rounds, each for the pairs still without an
    admissible one (``cell_boundary_distance``); the rest are ``n_skipped``.
    """
    part = cfg.partition
    space = part.space
    kern = cfg.kernel
    check_count("n_pairs", n_pairs, 1)
    rng = rngmod.substream(cfg.seed, rngmod.PROBE, part.N)
    if kern.family == CONST:
        alpha, eps, d = 0.5, 1.0, space.d
    else:
        alpha, eps, d = kern.alpha, kern.eps, kern.d
    j = rng.integers(part.N, size=n_pairs)
    z = cell_points(part, rng, 1, j)[:, 0]
    x = cell_points(part, rng, 32, j)
    y = np.empty_like(z)
    dist_cell = np.full(n_pairs, np.nan)
    todo = np.arange(n_pairs)
    for _ in range(200):
        if not todo.size:
            break
        cand = sample_uniform(space, rng, todo.size)
        dc = cell_boundary_distance(part, j[todo], cand)
        ok = (dc >= 2.0 * part.diameter[j[todo]]) & (dc > SINGULAR_TOL)
        y[todo[ok]], dist_cell[todo[ok]] = cand[ok], dc[ok]
        todo = todo[~ok]
    if todo.size == n_pairs:
        raise RuntimeError("no admissible probe samples; cells too large vs space")
    found = ~np.isnan(dist_cell)
    j, z, x, y, dist_cell = j[found], z[found], x[found], y[found], dist_cell[found]
    # an admissible y is at least 2 delta_j from its cell, so no distance is singular
    phi_x = kernel_profile(kern, distance(space, x, y[:, None, :]))
    phi_z = kernel_profile(kern, distance(space, z, y))
    lhs = part.measure[j] * np.mean(np.abs(phi_x - phi_z[:, None]), axis=1)
    ratios = lhs / (part.N ** (-1.0 - eps / d) * dist_cell ** (alpha - d - eps))
    return ProbeReport(float(ratios.min()), float(np.median(ratios)), len(ratios), todo.size)
