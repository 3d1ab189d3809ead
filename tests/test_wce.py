import dataclasses
import math
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from stratcub import cubature, kernel, partition
from stratcub import rng as rngmod
from stratcub import wce
from stratcub.cubature import draw_nodes, jackknife_power_mean, sample_all_cells
from stratcub.kernel import (RIESZ, ROUGH_RIESZ, SINGULAR_TOL, KernelSpec, kernel_profile,
                             rough_series, total_integral)
from stratcub.partition import sphere_zonal_partition, torus_grid_partition
from stratcub.space import (L2_BLOCK, SPHERE2, TORUS, distance, make_space,
                            pairwise_distance, sample_uniform)
from stratcub.wce import (WceConfig, _cell_means, _draw_tables, _wq, delta_phi,
                          estimate_AN, gamma_phi, lower_hypothesis_probe, run_report,
                          worst_case_error, wq_reference)

T1 = make_space(TORUS, 1)
PART1 = torus_grid_partition(T1, 1)
PART4 = torus_grid_partition(T1, 4)
RIESZ06 = KernelSpec(RIESZ, alpha=0.6, d=1)
RIESZ75 = KernelSpec(RIESZ, alpha=0.75, d=1)
ROUGH09 = KernelSpec(ROUGH_RIESZ, alpha=0.9, d=1, eps=0.25, kappa=1.0)

MID_NODES1 = np.array([[0.5]])  # the single cell's midpoint


def _cfg(part, kern, p=2.0, **kw):
    defaults = dict(m_y=256, m_z=8, n_draws=50, seed=3)
    defaults.update(kw)
    return WceConfig(part, kern, p, **defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        WceConfig(PART4, RIESZ06, p=1.0)  # p = 1 endpoint excluded
    with pytest.raises(ValueError):
        WceConfig(PART4, KernelSpec(RIESZ, alpha=0.4, d=1), p=2.0)  # alpha <= d/p
    with pytest.raises(ValueError):
        _cfg(PART4, RIESZ06, m_y=0)
    with pytest.raises(ValueError):
        _cfg(PART4, RIESZ06, m_z=0)
    with pytest.raises(ValueError):
        _cfg(PART4, RIESZ06, n_draws=1)  # no jackknife spread from one draw
    with pytest.raises(ValueError):
        _cfg(PART4, RIESZ06, gamma_pairs=1)  # no leave-one-pair-out spread
    assert _cfg(PART4, RIESZ06, gamma_pairs=2).gamma_pairs == 2
    # a float or bool count used to pass here and fail inside the first draw
    for bad in ({"m_y": 16.5}, {"m_z": 2.7}, {"n_draws": 4.0}, {"gamma_pairs": 8.0},
                {"m_y": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            _cfg(PART4, RIESZ06, **bad)
    cfg = _cfg(PART4, RIESZ06, m_y=np.int64(16), m_z=np.int32(2), n_draws=np.int64(4),
               gamma_pairs=np.int16(8))
    assert cfg.n_draws == 4
    # a float seed was keyed as int(seed), and a string p failed with a bare
    # TypeError inside the exponent checks
    for bad in ({"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"p": "two"}, {"p": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            _cfg(PART4, RIESZ06, **bad)
    for seed in (np.int64(-3), np.uint32(7), np.int16(0)):
        assert _cfg(PART4, RIESZ06, seed=seed).seed == seed
    assert _cfg(PART4, RIESZ06, p=np.float64(2.0)).q == 2.0
    assert _cfg(PART4, RIESZ06).q == 2.0
    assert WceConfig(PART4, RIESZ06, p=math.inf, n_draws=4).q == 1.0
    assert abs(1 / 1.5 + 1 / WceConfig(PART4, RIESZ75, p=1.5, n_draws=4).q - 1) < 1e-12


def _dual_density(cfg, nodes, y, rng):
    """F(y) = sum_j w_j (Phi(x_j, y) - cell mean of Phi(., y)) at one y."""
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    phi = kernel_profile(cfg.kernel, pairwise_distance(cfg.partition.space, nodes, Y))
    return float(cfg.partition.weights() @ (phi - _cell_means(cfg, rng, Y))[:, 0])


def test_dual_density_single_cell_oracle():
    # N=1, node 0.5, y=0.25: F = Phi(0.25 apart) - full-circle mean
    cfg = _cfg(PART1, RIESZ06, m_z=200_000)
    rng = rngmod.substream(1, rngmod.SELFTEST)
    F = _dual_density(cfg, MID_NODES1, np.array([0.25]), rng)
    oracle = 0.25 ** -0.4 - (2.0 / 0.6) * 0.5 ** 0.6
    assert oracle == pytest.approx(-0.45807872469590905)
    assert F == pytest.approx(oracle, abs=0.02)


def test_dual_density_antipodal_symmetry():
    # y diametrically opposite the single node: distances z -> y mirror
    # around the node, so the cell mean equals ... F = Phi(1/2) - mean != 0;
    # the symmetric-zero case is the midpoint rule on the coordinate: here we
    # check the antipodal y maximizes distance so F < 0 (node far from y)
    cfg = _cfg(PART1, RIESZ06, m_z=100_000)
    rng = rngmod.substream(3, rngmod.SELFTEST)
    F = _dual_density(cfg, MID_NODES1, np.array([0.0]), rng)
    oracle = 0.5 ** -0.4 - (2.0 / 0.6) * 0.5 ** 0.6
    assert F == pytest.approx(oracle, abs=0.02)


def test_worst_case_error_single_cell_grid_oracle():
    cfg = _cfg(PART1, RIESZ75, m_y=60_000, m_z=96)
    vals = np.array([worst_case_error(cfg, MID_NODES1, 0, rep=r) for r in range(8)])
    ys = (np.arange(2 ** 15) + 0.5) / 2 ** 15
    t = np.abs(ys - 0.5)
    t = np.minimum(t, 1 - t)
    F = kernel_profile(RIESZ75, t) - 2.0 * 0.5 ** 0.75 / 0.75
    grid = math.sqrt(float(np.mean(F * F)))
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - grid) <= 3 * se + 0.003


def test_worst_case_error_my_doubling_halves_variance():
    # pooled over eight node draws: the ratio of one draw's variances ranged
    # 1.37-3.07 over draws 0-39, that of summed variances over disjoint
    # eight-draw groups 1.85-2.27
    kern = KernelSpec(RIESZ, alpha=0.9, d=1)
    reps = 200
    v = {}
    for m_y in (64, 128):
        cfg = _cfg(PART4, kern, m_y=m_y, m_z=4)
        v[m_y] = sum(np.array([worst_case_error(cfg, nodes, 0, rep=r) ** 2
                               for r in range(reps)]).var(ddof=1)
                     for nodes in (draw_nodes(PART4, k) for k in range(8, 16)))
    ratio = v[64] / v[128]
    assert 1.5 <= ratio <= 2.5


def test_worst_case_error_permutation_invariant():
    # relabeling cells (with their nodes) leaves the estimate unchanged
    cfg = _cfg(PART4, RIESZ75, m_y=2000, m_z=16)
    nodes = draw_nodes(PART4, 5)
    base = worst_case_error(cfg, nodes, 0)
    perm = [2, 0, 3, 1]
    rows = ("measure", "circumradius", "anchor", "lo", "hi")
    part_p = dataclasses.replace(PART4, **{name: getattr(PART4, name)[perm] for name in rows})
    cfg_p = _cfg(part_p, RIESZ75, m_y=2000, m_z=16)
    nodes_p = nodes[perm]
    val_p = worst_case_error(cfg_p, nodes_p, 0)
    # same y/z stream structure but cells permuted; estimates agree in law --
    # check tight statistical agreement over replications
    base_reps = np.array([worst_case_error(cfg, nodes, 0, rep=r) ** 2 for r in range(60)])
    perm_reps = np.array([worst_case_error(cfg_p, nodes_p, 0, rep=r) ** 2 for r in range(60)])
    se = math.hypot(base_reps.std(ddof=1), perm_reps.std(ddof=1)) / math.sqrt(60)
    assert abs(base_reps.mean() - perm_reps.mean()) <= 4 * se


def test_est2_identity_p2():
    for N in (8, 16):
        part = torus_grid_partition(T1, N)
        cfg = _cfg(part, RIESZ75, m_y=384, m_z=8, n_draws=150, seed=7)
        a = estimate_AN(cfg)
        d = delta_phi(cfg)
        assert abs(a.moment - d.moment) <= 3 * (a.stderr + d.stderr)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_est1_ordering(p):
    part = torus_grid_partition(T1, 16)
    cfg = _cfg(part, RIESZ75, p=p, m_y=192, m_z=8, n_draws=40, gamma_pairs=160)
    a = estimate_AN(cfg)
    g = gamma_phi(cfg)
    assert a.moment <= g.moment + 3 * (a.stderr + g.stderr)
    assert g.moment > 0


def test_gamma_single_cell_reduces_to_an():
    # with one cell the sum collapses: Gamma equals the draw q-mean exactly
    cfg = _cfg(PART1, RIESZ75, m_y=512, m_z=16, n_draws=200, gamma_pairs=4096)
    a = estimate_AN(cfg)
    g = gamma_phi(cfg)
    assert abs(a.moment - g.moment) <= 3 * (a.stderr + g.stderr)


# five kernels spanning T^1..T^3 and S^2, plain and rough
_INTEGRAL_CASES = {
    "t1-rough": (torus_grid_partition(T1, 8), ROUGH09),
    "t2-riesz": (torus_grid_partition(make_space(TORUS, 2), 4), KernelSpec(RIESZ, alpha=1.0, d=2)),
    "t2-rough": (torus_grid_partition(make_space(TORUS, 2), 4),
                 KernelSpec(ROUGH_RIESZ, alpha=1.5, d=2, eps=0.5, kappa=1.0)),
    "t3-riesz": (torus_grid_partition(make_space(TORUS, 3), 2), KernelSpec(RIESZ, alpha=2.0, d=3)),
    "s2-riesz": (sphere_zonal_partition(make_space(SPHERE2), 16),
                 KernelSpec(RIESZ, alpha=1.5, d=2)),
}


@pytest.mark.parametrize("case", sorted(_INTEGRAL_CASES))
def test_total_integral_matches_uniform_monte_carlo(case):
    part, kern = _INTEGRAL_CASES[case]
    space = part.space
    rng = rngmod.substream(17, rngmod.SELFTEST, 8)
    y = sample_uniform(space, rng, 1)[0]
    z = sample_uniform(space, rng, 1 << 20)
    phi = space.total_measure * kernel_profile(kern, distance(space, z, y))
    se = phi.std(ddof=1) / math.sqrt(len(phi))
    assert abs(phi.mean() - total_integral(kern, space)) <= 3 * se


@pytest.mark.parametrize("case", sorted(_INTEGRAL_CASES))
def test_cell_means_average_to_total_integral(case):
    # the Monte Carlo route of Delta and the exact route of A_N agree: at a
    # fixed Y the weighted cell means average over replicas to I_Phi
    part, kern = _INTEGRAL_CASES[case]
    cfg = WceConfig(part, kern, 4.0, m_y=8, m_z=8, n_draws=2, seed=5)
    Y = sample_uniform(part.space, rngmod.substream(5, rngmod.SELFTEST, 9), cfg.m_y)
    reps = 400
    rngs = (rngmod.substream(5, rngmod.SELFTEST, 10, r) for r in range(reps))
    est = np.array([part.weights() @ _cell_means(cfg, rng, Y) for rng in rngs]).mean(axis=1)
    se = est.std(ddof=1) / math.sqrt(reps)
    assert abs(est.mean() - total_integral(kern, part.space)) <= 3 * se


def test_estimate_an_has_no_inner_budget(monkeypatch):
    # nor, on T^1, a rough-series table: the rough term is summed separably
    part = torus_grid_partition(T1, 8)

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"A_N {what}")
        return call

    monkeypatch.setattr(wce, "_cell_means", refuse("drew cell samples"))
    monkeypatch.setattr(kernel, "rough_series", refuse("tabulated the rough series"))
    a1 = estimate_AN(_cfg(part, ROUGH09, p=3.0, m_y=64, m_z=1, n_draws=6))
    a64 = estimate_AN(_cfg(part, ROUGH09, p=3.0, m_y=64, m_z=64, n_draws=6))
    assert repr(a1) == repr(a64)
    assert worst_case_error(_cfg(part, ROUGH09, m_z=1), draw_nodes(part, 2), 0) > 0


# ---------------------------------------------------------------------------
# per-draw T^1 reference
# ---------------------------------------------------------------------------

PART16 = torus_grid_partition(T1, 16)
REF_SEED = 32


@pytest.mark.parametrize("alpha", [0.75, 0.9])
def test_reference_single_cell_closed_form(alpha):
    # N = 1: wce^2 = ||phi||^2 - I_Phi^2, ||phi||^2 = 2 int_0^(1/2) t^(2 alpha - 2) dt
    kern = KernelSpec(RIESZ, alpha=alpha, d=1)
    exact = 2.0 * 0.5 ** (2 * alpha - 1) / (2 * alpha - 1) - total_integral(kern, T1) ** 2
    got = wq_reference(_cfg(PART1, kern), MID_NODES1)
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_reference_permutation_invariant():
    cfg = _cfg(PART16, RIESZ75)
    nodes = draw_nodes(PART16, REF_SEED)
    perm = np.random.default_rng(REF_SEED).permutation(PART16.N)
    shuffled = dataclasses.replace(
        PART16, **{c: getattr(PART16, c)[perm] for c in partition._COLUMNS})
    base = wq_reference(cfg, nodes)
    again = wq_reference(dataclasses.replace(cfg, partition=shuffled), nodes[perm])
    assert again == pytest.approx(base, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [0.75, 0.9])
@pytest.mark.parametrize("p, tol", [(2.0, 1e-7), (4.0, 1e-5)])
def test_reference_panel_doubling(monkeypatch, alpha, p, tol):
    cfg = _cfg(PART16, KernelSpec(RIESZ, alpha=alpha, d=1), p=p)
    nodes = draw_nodes(PART16, REF_SEED)
    base = wq_reference(cfg, nodes)
    monkeypatch.setattr(wce, "PANELS", 2 * wce.PANELS)
    assert wq_reference(cfg, nodes) == pytest.approx(base, rel=tol, abs=0.0)


def test_reference_rejects_other_spaces_and_rough_kernels():
    T2 = make_space(TORUS, 2)
    S2 = make_space(SPHERE2)
    riesz2 = KernelSpec(RIESZ, alpha=1.5, d=2)
    for part in (torus_grid_partition(T2, 4), sphere_zonal_partition(S2, 16)):
        with pytest.raises(ValueError, match="T\\^1 only"):
            wq_reference(_cfg(part, riesz2), draw_nodes(part, 1))
    with pytest.raises(ValueError, match="kappa = 0"):
        wq_reference(_cfg(PART4, ROUGH09), draw_nodes(PART4, 1))


def test_reference_mean_matches_exact_a_n():
    # exact A_N at N = 16, T^1 Riesz alpha = 0.75, p = 2: the ROADMAP Baseline
    # row "Exact p=2 A_N, T^1 Riesz alpha=0.75, by cell integrals"
    exact = 0.0764447679 ** 2
    cfg = _cfg(PART16, RIESZ75)
    values = np.array([wq_reference(cfg, draw_nodes(PART16, REF_SEED, k))
                       for k in range(200)])
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - exact) <= 3.0 * se


@pytest.mark.parametrize("alpha, p", [(0.75, 4.0), (0.9, 4.0), (0.9, 2.0)])
def test_monte_carlo_matches_reference_on_finite_variance_slice(alpha, p):
    # |F|^(2q) is integrable here, so the Monte Carlo mean has a finite SE;
    # alpha = 0.75 at p <= 2 lies past that boundary and is not gated
    cfg = _cfg(PART16, KernelSpec(RIESZ, alpha=alpha, d=1), p=p, m_y=4096, seed=REF_SEED)
    nodes = draw_nodes(PART16, REF_SEED)
    mc = np.array([worst_case_error(cfg, nodes, 0, rep) ** cfg.q for rep in range(200)])
    z = (mc.mean() - wq_reference(cfg, nodes)) / (mc.std(ddof=1) / math.sqrt(len(mc)))
    assert abs(z) <= 3.0


def test_probe_positive_and_stable_for_riesz():
    mins = {}
    for N in (32, 128):
        part = torus_grid_partition(T1, N)
        cfg = _cfg(part, RIESZ75, n_draws=4)
        rep = lower_hypothesis_probe(cfg, 1200)
        assert rep.min_ratio > 0
        mins[N] = rep.min_ratio
    assert max(mins.values()) / min(mins.values()) <= 4.0


@pytest.mark.parametrize("space,n_list", [(make_space(SPHERE2), (32, 128, 512)),
                                          (make_space(TORUS, 2), (64, 256, 1024))])
def test_probe_positive_and_stable_off_the_circle(space, n_list):
    mins = []
    for N in n_list:
        part = (torus_grid_partition(space, round(math.sqrt(N))) if space.kind == TORUS
                else sphere_zonal_partition(space, N))
        rep = lower_hypothesis_probe(_cfg(part, KernelSpec(RIESZ, alpha=1.5, d=2), n_draws=4),
                                     500)
        assert rep.min_ratio > 0 and rep.n_skipped == 0
        mins.append(rep.min_ratio)
    assert max(mins) / min(mins) <= 4.0


def _cell_y_distances(space, Z, Y):
    """Distances (N, m, len(Y)) from per-cell samples Z (N, m, dim) to Y."""
    N, m, dim = Z.shape
    return pairwise_distance(space, Z.reshape(N * m, dim), Y).reshape(N, m, len(Y))


def test_cell_y_distances_torus_matches_broadcast():
    T2 = make_space(TORUS, 2)
    part = torus_grid_partition(T2, 4)
    rng = rngmod.substream(7, rngmod.SELFTEST, 7)
    Z = sample_all_cells(part, rng, 5)
    edge = np.array([[0.0, 0.5], [0.5, 1 - 2**-53], [1 - 2**-53, 0.0]])
    Y = np.concatenate([sample_uniform(T2, rng, 31), edge])
    diff = np.abs(Z[:, :, None, :] - Y[None, None, :, :])
    full = np.minimum(diff, 1.0 - diff).max(axis=-1)
    assert np.array_equal(_cell_y_distances(T2, Z, Y), full)


def _reference_distances(space, a, b):
    """Distances (len(a), len(b)) by the textbook formulas, in one table."""
    if space.kind == SPHERE2:
        return np.arccos(np.clip(a @ b.T, -1.0, 1.0))
    diff = np.abs(a[:, None, :] - b[None, :, :])
    return np.minimum(diff, 1.0 - diff).max(axis=-1)


def _reference_kernel(spec, t):
    out = t ** (spec.alpha - spec.d)
    if spec.family == ROUGH_RIESZ:
        out = out + spec.kappa * rough_series(spec, t)
    return out


def _draw_tables_reference(cfg, ctx, index, sample=sample_all_cells, Y=None):
    """The unblocked formula: full (N, m_z, m_y) tables, then the mean.

    Distances and kernel are written out here, not taken from the package,
    so the streamed tables are checked against independent arithmetic.
    """
    part = cfg.partition
    nodes = draw_nodes(part, cfg.seed, index,
                       stream=rngmod.path_key(ctx, rngmod.NODES))
    if Y is None:
        Y = sample_uniform(part.space, rngmod.substream(cfg.seed, ctx, rngmod.WCE_Y,
                                                        index, 0), cfg.m_y)
    dn = _reference_distances(part.space, nodes, Y)
    assert dn.min() >= SINGULAR_TOL  # no y redraw on these seeds
    phi_nodes = _reference_kernel(cfg.kernel, dn)
    T = np.empty((2, part.N, cfg.m_y))
    for r in (0, 1):
        rng_z = rngmod.substream(cfg.seed, ctx, rngmod.WCE_Z, index, 0, r)
        while True:
            Z = sample(part, rng_z, cfg.m_z)
            D = _reference_distances(part.space, Z.reshape(-1, Z.shape[-1]), Y)
            if D.min() >= SINGULAR_TOL:
                break
        mean = _reference_kernel(cfg.kernel, D).reshape(part.N, cfg.m_z, -1).mean(axis=1)
        T[r] = part.weights()[:, None] * (phi_nodes - mean)
    return T, Y


def _stream_cfg(case):
    if case == "t1-rough":
        part, kern, p = torus_grid_partition(T1, 64), ROUGH09, 2.0
        m_y, m_z = 192, 8
    elif case == "t2-riesz":
        part = torus_grid_partition(make_space(TORUS, 2), 8)
        kern, p, m_y, m_z = KernelSpec(RIESZ, alpha=1.0, d=2), 4.0, 96, 16
    else:
        part = sphere_zonal_partition(make_space(SPHERE2), 50)
        kern, p, m_y, m_z = KernelSpec(RIESZ, alpha=1.5, d=2), 2.0, 192, 8
    cfg = WceConfig(part, kern, p, m_y=m_y, m_z=m_z, n_draws=2, seed=11)
    rows = L2_BLOCK // (m_z * m_y)
    assert part.N > rows and part.N % rows != 0  # several blocks, uneven last
    return cfg, rows


@pytest.mark.parametrize("case", ["t1-rough", "t2-riesz", "s2-riesz"])
def test_draw_tables_streamed_matches_full_table(case):
    cfg, _ = _stream_cfg(case)
    for index in (0, 1):
        T_ref, _ = _draw_tables_reference(cfg, rngmod.AN, index)
        assert np.array_equal(_draw_tables(cfg, rngmod.AN, index), T_ref)


@pytest.mark.parametrize("case", ["t1-rough", "t2-riesz", "s2-riesz"])
def test_delta_phi_matches_reference_tables(case):
    cfg, _ = _stream_cfg(case)
    total = cfg.partition.space.total_measure
    u = []
    for index in range(cfg.n_draws):
        T, _ = _draw_tables_reference(cfg, rngmod.DELTA, index)
        S = (T[0] * T[1]).sum(axis=0)
        u.append((total * S if cfg.q == 2.0
                  else total * np.clip(S, 0.0, None) ** (cfg.q / 2.0)).mean())
    moment, se = jackknife_power_mean(np.array(u), 1.0 / cfg.q)
    est = delta_phi(cfg)
    assert (est.moment, est.stderr) == (moment, se)


def test_draw_tables_singular_block_redraws_whole_z(monkeypatch):
    cfg, rows = _stream_cfg("t1-rough")
    _, Y = _draw_tables_reference(cfg, rngmod.AN, 0)

    def poisoned(calls):
        def sample(part, rng, m):
            Z = sample_all_cells(part, rng, m)
            if not calls:  # first Z: one sample on a y, inside the second block
                Z[rows + 1, 3] = Y[5]
            calls.append(m)
            return Z
        return sample

    ref_calls, calls = [], []
    T_ref, _ = _draw_tables_reference(cfg, rngmod.AN, 0, poisoned(ref_calls))
    monkeypatch.setattr(wce, "sample_all_cells", poisoned(calls))
    T = _draw_tables(cfg, rngmod.AN, 0)
    assert len(calls) == len(ref_calls) == 3  # replica 0 drew Z twice
    assert np.array_equal(T, T_ref)


def _poison_first_sample_uniform(monkeypatch, k, point):
    """Patch wce's ``sample_uniform`` so row k of its first draw is ``point``.

    Returns the list of arrays handed out (the first is the caller's Y, which
    the redraw updates in place) and a copy of the first draw as poisoned.
    """
    calls, poisoned = [], []

    def sample(space, rng, n=None):
        out = sample_uniform(space, rng, n)
        if not calls:
            out[k] = point
            poisoned.append(out.copy())
        calls.append(out)
        return out

    monkeypatch.setattr(wce, "sample_uniform", sample)
    return calls, poisoned


def _assert_only_row_redrawn(calls, poisoned, k):
    Y = calls[0]
    assert [len(c) for c in calls[1:]] == [1]  # one redraw, of one y
    assert np.array_equal(Y[k], calls[1][0])
    assert np.array_equal(np.delete(Y, k, axis=0), np.delete(poisoned[0], k, axis=0))


def test_draw_tables_redraws_only_the_singular_y(monkeypatch):
    cfg = _cfg(PART4, RIESZ75, m_y=16, m_z=8)
    nodes = draw_nodes(PART4, cfg.seed, 0,
                       stream=rngmod.path_key(rngmod.AN, rngmod.NODES))
    calls, poisoned = _poison_first_sample_uniform(monkeypatch, 5, nodes[2])
    T = _draw_tables(cfg, rngmod.AN, 0)
    _assert_only_row_redrawn(calls, poisoned, 5)
    T_ref, _ = _draw_tables_reference(cfg, rngmod.AN, 0, Y=calls[0])
    assert np.array_equal(T, T_ref)


def _wq_reference(cfg, nodes, Y):
    """|M| mean_y |F(y)|^q from the full kernel table (rough term by doubling)."""
    phi = _reference_kernel(cfg.kernel, _reference_distances(cfg.partition.space, nodes, Y))
    F = cfg.partition.weights() @ phi - total_integral(cfg.kernel, cfg.partition.space)
    return cfg.partition.space.total_measure * float(np.mean(np.abs(F) ** cfg.q))


@pytest.mark.parametrize("N", [16, 64, 512])
def test_wq_separable_rough_term_matches_table_route(N):
    # the table route carries rough_series' doubling error (below 8.1e-7 per
    # entry), which averages down in F and |F|^q
    part = torus_grid_partition(T1, N)
    cfg = _cfg(part, ROUGH09, p=3.0, m_y=192)
    for index in range(4):
        nodes = draw_nodes(part, cfg.seed, index,
                           stream=rngmod.path_key(rngmod.AN, rngmod.NODES))
        Y = sample_uniform(T1, rngmod.substream(cfg.seed, rngmod.AN, rngmod.WCE_Y, index, 0),
                           cfg.m_y)
        assert _wq(cfg, rngmod.AN, index) == pytest.approx(_wq_reference(cfg, nodes, Y),
                                                           rel=1e-8, abs=0.0)


def test_wq_separable_rough_term_redraws_only_the_singular_y(monkeypatch):
    cfg = _cfg(PART4, ROUGH09, m_y=16)
    nodes = draw_nodes(PART4, 7)
    calls, poisoned = _poison_first_sample_uniform(monkeypatch, 5, nodes[2])
    wq = worst_case_error(cfg, nodes, 0) ** 2
    _assert_only_row_redrawn(calls, poisoned, 5)
    assert wq == pytest.approx(_wq_reference(cfg, nodes, calls[0]), rel=1e-8, abs=0.0)


def test_gamma_phi_redraws_only_the_singular_y(monkeypatch):
    # cell 2's x of pair 3 lands on y_3, which every cell shares; Gamma and
    # its SE are plain functions of u
    P = 10
    cfg = _cfg(PART4, RIESZ75, m_z=8, gamma_pairs=P)
    X = sample_all_cells(PART4, rngmod.substream(cfg.seed, rngmod.GAMMA, rngmod.NODES), P)
    calls, poisoned = _poison_first_sample_uniform(monkeypatch, 3, X[2, 3])
    g = gamma_phi(cfg)
    _assert_only_row_redrawn(calls, poisoned, 3)
    Y = calls[0]
    phi = kernel_profile(RIESZ75, distance(T1, X, Y))  # (N, P)
    t = []
    for r in (0, 1):
        Z = sample_all_cells(PART4, rngmod.substream(cfg.seed, rngmod.GAMMA, rngmod.WCE_Z, r),
                             cfg.m_z)
        mean = kernel_profile(RIESZ75, _cell_y_distances(T1, Z, Y)).mean(axis=1)
        t.append(PART4.weights()[:, None] * (phi - mean))
    u = T1.total_measure * t[0] * t[1]
    loo = np.array([np.sum(np.maximum(np.delete(u, i, axis=1).mean(axis=1), 0.0) ** 0.5)
                    for i in range(P)])
    se = math.sqrt((P - 1) / P * float(np.sum((loo - loo.mean()) ** 2)))
    assert g.moment == float(np.sum(np.maximum(u.mean(axis=1), 0.0) ** 0.5))
    assert g.stderr == se


def test_gamma_phi_opens_a_fixed_number_of_streams(monkeypatch):
    # one stream each for x, y and the two z replicas, whatever N is
    substream = rngmod.substream
    calls = []

    def counting(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(rngmod, "substream", counting)
    gamma_phi(_cfg(torus_grid_partition(T1, 64), RIESZ75, m_z=4, gamma_pairs=32))
    assert 0 < len(calls) <= 4


def test_draw_tables_memory_stays_near_table_size():
    cfg = _cfg(torus_grid_partition(T1, 512), ROUGH09, m_y=192, m_z=8)
    tracemalloc.start()
    try:
        T = _draw_tables(cfg, rngmod.AN, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * T.nbytes


# ---------------------------------------------------------------------------
# draw loops on several threads
# ---------------------------------------------------------------------------

THREAD_CASES = {
    "t1-rough": (torus_grid_partition(T1, 16), ROUGH09, 2.0, 7),
    # p = 4 takes the q != 2 branch of _dq_samples
    "t2-riesz-p4": (torus_grid_partition(make_space(TORUS, 2), 4),
                    KernelSpec(RIESZ, alpha=1.0, d=2), 4.0, 5),
    "s2-riesz": (sphere_zonal_partition(make_space(SPHERE2), 16),
                 KernelSpec(RIESZ, alpha=1.5, d=2), 2.0, 6),
    "two-draws": (PART4, RIESZ75, 2.0, 2),
}


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("stratcub_")]


def _set_cpus(monkeypatch, W):
    """Make ``run_indexed`` see W CPUs, the thread count of a direct call."""
    monkeypatch.setattr(cubature, "_cpus", lambda: W)


def _record_threads(monkeypatch, name):
    """Patch wce's per-draw function ``name`` to record the names of the
    threads that call it; returns the set they are added to."""
    inner = getattr(wce, name)
    threads = set()

    def recording(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(wce, name, recording)
    return threads


@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_results_do_not_depend_on_workers(monkeypatch, case):
    part, kern, p, n_draws = THREAD_CASES[case]
    cfg = WceConfig(part, kern, p, m_y=32, m_z=4, n_draws=n_draws, seed=5, gamma_pairs=16)
    _set_cpus(monkeypatch, 1)
    serial = run_report(cfg)
    for W in (1, 2, 3):
        _set_cpus(monkeypatch, W)
        assert estimate_AN(cfg) == serial.a_n
        assert delta_phi(cfg) == serial.delta
        assert gamma_phi(cfg) == serial.gamma
        assert run_report(cfg) == serial


def test_run_report_runs_one_pool(monkeypatch):
    # Gamma, Delta's draws and A_N's draws are one task list, and Gamma runs
    # on a pool thread while the caller waits
    _set_cpus(monkeypatch, 3)
    run = wce.run_indexed
    sizes = []

    def counting(n, make_task, *args):
        sizes.append(n)
        return run(n, make_task, *args)

    monkeypatch.setattr(wce, "run_indexed", counting)
    threads = {name: _record_threads(monkeypatch, name)
               for name in ("gamma_phi", "_wq", "_draw_tables")}
    cfg = _cfg(PART4, RIESZ75, m_y=32, m_z=2, n_draws=6, gamma_pairs=8)
    run_report(cfg)
    assert sizes == [2 * cfg.n_draws + 1]
    assert len(threads["gamma_phi"]) == 1
    for names in threads.values():
        assert names and all(name.startswith("stratcub_") for name in names)
    assert not _pool_threads()


def test_gamma_error_in_run_report_stops_every_thread(monkeypatch):
    _set_cpus(monkeypatch, 3)
    cfg = _cfg(PART4, RIESZ75, m_y=256, m_z=2, n_draws=60)
    started = []  # one entry per draw task begun
    for name in ("_wq", "_draw_tables"):
        def counting(*args, inner=getattr(wce, name), **kwargs):
            started.append(threading.current_thread().name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(wce, name, counting)

    def failing_gamma(cfg):
        raise RuntimeError("gamma failed")

    monkeypatch.setattr(wce, "gamma_phi", failing_gamma)
    with pytest.raises(RuntimeError, match="gamma failed"):
        run_report(cfg)
    assert not _pool_threads()
    assert len(started) < 2 * cfg.n_draws


def test_direct_call_uses_pool_threads(monkeypatch):
    # with nothing outside it owning the threads, A_N spreads its draws over
    # the CPUs: each draw waits until a second thread has begun one, which a
    # single-threaded loop would never do
    _set_cpus(monkeypatch, 3)
    wq = wce._wq
    threads = set()
    second = threading.Event()

    def waiting_wq(*args, **kwargs):
        threads.add(threading.current_thread().name)
        if len(threads) >= 2:
            second.set()
        second.wait(10.0)
        return wq(*args, **kwargs)

    monkeypatch.setattr(wce, "_wq", waiting_wq)
    estimate_AN(_cfg(PART4, RIESZ75, m_y=32, n_draws=12))
    assert second.is_set() and threading.current_thread().name not in threads
    assert len(threads) >= 2 and all(name.startswith("stratcub_") for name in threads)
    assert not _pool_threads()


def test_draw_threads_stress_against_serial(monkeypatch):
    # more threads than cores, switching threads every microsecond: a lost or
    # misplaced per-draw value would move the moment or its SE
    cfg = _cfg(PART4, RIESZ75, m_y=16, m_z=2, n_draws=40, seed=9)
    _set_cpus(monkeypatch, 1)
    serial = (estimate_AN(cfg), delta_phi(cfg))
    threads = {name: _record_threads(monkeypatch, name) for name in ("_wq", "_draw_tables")}
    _set_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert (estimate_AN(cfg), delta_phi(cfg)) == serial
    finally:
        sys.setswitchinterval(interval)
    assert not _pool_threads()
    # the calling thread waited while pool threads ran the draws
    for names in threads.values():
        assert names and all(name.startswith("stratcub_") for name in names)


def test_singular_redraws_are_the_same_on_threads(monkeypatch):
    # a larger singular tolerance makes both redraw loops (whole Z, single y)
    # fire, decided by each draw's own samples
    monkeypatch.setattr(kernel, "SINGULAR_TOL", 3e-4)
    monkeypatch.setattr(wce, "SINGULAR_TOL", 3e-4)
    calls, z_calls = [], []

    def counting(space, rng, n=None):
        calls.append(n)
        return sample_uniform(space, rng, n)

    def counting_z(part, rng, m):
        z_calls.append(m)
        return sample_all_cells(part, rng, m)

    monkeypatch.setattr(wce, "sample_uniform", counting)
    monkeypatch.setattr(wce, "sample_all_cells", counting_z)
    cfg = _cfg(PART4, RIESZ75, m_y=64, m_z=8, n_draws=9)
    results = []
    for W in (1, 3):
        calls.clear()
        z_calls.clear()
        _set_cpus(monkeypatch, W)
        results.append((estimate_AN(cfg), delta_phi(cfg)))
        assert any(n < cfg.m_y for n in calls)  # some y were redrawn
        assert len(z_calls) > 2 * cfg.n_draws  # and some Z
    assert results[0] == results[1]


@pytest.mark.parametrize("failing, error", [
    (0, RuntimeError("singular cell-sample redraw budget exhausted")),  # the first draw
    (4, RuntimeError("singular cell-sample redraw budget exhausted")),  # a later draw
    (0, KeyboardInterrupt()),  # Ctrl-C inside a draw
])
def test_draw_error_propagates_and_stops_every_thread(monkeypatch, failing, error):
    # m_y = 256 makes the array steps long enough for numpy to release the
    # interpreter lock, so the threads interleave within a draw
    W = 3
    _set_cpus(monkeypatch, W)
    cfg = _cfg(PART4, RIESZ75, m_y=256, m_z=2, n_draws=60)
    draw_tables = wce._draw_tables
    failed = threading.Event()
    late = []  # the threads of the draws begun after the failure
    failing_thread = []

    def failing_draw(cfg, ctx, index, *args):
        if failed.is_set():
            late.append(threading.current_thread().name)
        if index == failing:
            failing_thread.append(threading.current_thread().name)
            failed.set()
            raise error
        return draw_tables(cfg, ctx, index, *args)

    monkeypatch.setattr(wce, "_draw_tables", failing_draw)
    with pytest.raises(type(error)):
        delta_phi(cfg)
    assert not _pool_threads()
    # every other thread stopped after at most one more draw, not its whole share
    assert len(late) == len(set(late)) <= W - 1 and failing_thread[0] not in late


def test_sigint_while_waiting_stops_every_thread(monkeypatch):
    # a real SIGINT sent to the main thread, which waits in run_indexed while
    # pool threads run the draws
    W = 3
    _set_cpus(monkeypatch, W)
    cfg = _cfg(PART4, RIESZ75, m_y=256, m_z=2, n_draws=60)
    draw_tables = wce._draw_tables
    handled = threading.Event()
    late = []  # the threads of the draws begun after the main thread took the signal

    def on_sigint(signum, frame):
        if not handled.is_set():
            handled.set()
            raise KeyboardInterrupt

    def signalling_draw(cfg, ctx, index, *args):
        if handled.is_set():
            late.append(threading.current_thread().name)
        if index == 4:
            # a signal that lands just before the main thread blocks waits
            # for the next wait slice; sending until the handler has run
            # keeps this test apart from that race (see the test below)
            for _ in range(10_000):
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                if handled.wait(0.001):
                    break
        return draw_tables(cfg, ctx, index, *args)

    monkeypatch.setattr(wce, "_draw_tables", signalling_draw)
    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            delta_phi(cfg)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert handled.is_set()
    assert not _pool_threads()
    assert len(late) == len(set(late)) <= W - 1


def test_one_sigint_is_handled_within_a_second(monkeypatch):
    # exactly one SIGINT, sent from draw 4 while the main thread waits; the
    # draws begun after it wait for the handler (for at most 2 s), so a
    # missed signal shows as a late handler.  The miss needs the signal to
    # land while the main thread is on its way into a wait, after its last
    # check for signals: a wait without a timeout then sleeps through it.
    # That race is only hit in some runs, more often when the main thread has
    # just been busy (here, filling 32 MB), so the run is repeated.
    _set_cpus(monkeypatch, 3)
    cfg = _cfg(PART4, RIESZ75, m_y=256, m_z=2, n_draws=60)
    draw_tables = wce._draw_tables
    for _ in range(12):
        handled = threading.Event()
        sent, delays = [], []

        def on_sigint(signum, frame):
            if not handled.is_set():
                delays.append(time.monotonic() - sent[0])
                handled.set()
                raise KeyboardInterrupt

        def signalling_draw(cfg, ctx, index, *args):
            if index == 4:
                sent.append(time.monotonic())
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                # busy, holding the interpreter lock between switches
                while not handled.is_set() and time.monotonic() < sent[0] + 2.0:
                    sum(range(1000))
            elif sent:
                handled.wait(max(0.0, sent[0] + 2.0 - time.monotonic()))
            return draw_tables(cfg, ctx, index, *args)

        monkeypatch.setattr(wce, "_draw_tables", signalling_draw)
        previous = signal.signal(signal.SIGINT, on_sigint)
        busy = np.ones(4_000_000)
        try:
            with pytest.raises(KeyboardInterrupt):
                delta_phi(cfg)
        finally:
            signal.signal(signal.SIGINT, previous)
        del busy
        assert len(delays) == 1 and delays[0] < 1.0
        assert not _pool_threads()
