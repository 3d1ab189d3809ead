"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Budgets are tuned so the whole battery runs in minutes on a laptop while
leaving each statistical check a wide margin; every tolerance is pinned
here, not deferred.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
import warnings
from pathlib import Path

from stratcub import rng as rngmod
from stratcub import wce
from stratcub.besov import besov_rhs_bounds, sharpness_fn
from stratcub.cubature import draw_nodes, estimate_BN
from stratcub.experiments import ExperimentConfig, run_experiment
from stratcub.funcs import cone_bump_fn, coordinate_fn, indicator_fn, square_wave_fn
from stratcub.kernel import RIESZ, ROUGH_RIESZ, KernelSpec
from stratcub.mz import mz_pair, ratio_envelope
from stratcub.partition import sphere_zonal_partition, torus_grid_partition, verify_partition
from stratcub.rates import rate_fit
from stratcub.sets import make_arc, make_cap
from stratcub.space import SPHERE2, TORUS, make_space
from stratcub.wce import (WceConfig, delta_phi, estimate_AN,
                          extremal_witness_check, gamma_phi,
                          lower_hypothesis_probe)

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
S2 = make_space(SPHERE2)

SLOPE_TOL = 0.1
SEED = 20260811


def _report(cid: str, ok: bool, elapsed: float, detail: str):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} [{elapsed:.0f}s] {detail}"
    print(line)
    assert ok, line


def _partition(space, N):
    if space.kind == TORUS:
        return torus_grid_partition(space, round(N ** (1.0 / space.d)))
    return sphere_zonal_partition(space, N)


def test_c01_partition_exactness():
    t0 = time.time()
    schemes = [
        (T1, [16, 64, 256, 1024, 4096]),
        (T2, [16, 256, 4096]),
        (S2, [16, 128, 2048]),
    ]
    worst_measure = 0.0
    violations = 0
    ratios = []
    for space, ns in schemes:
        scaled = []
        for N in ns:
            part = _partition(space, N)
            budget = 100_000 if N == max(ns) else 20_000
            rep = verify_partition(part, budget, seed=SEED,
                                   pairs_per_cell=100 if N <= 256 else 32)
            worst_measure = max(worst_measure, rep.measure_residual,
                                rep.max_cell_measure_error)
            violations += (rep.coverage_violations + rep.overlap_violations
                           + rep.diameter_violations)
            scaled.extend(rep.delta_scaled)
        ratios.append(max(scaled) / min(scaled))
    elapsed = time.time() - t0
    ok = worst_measure <= 1e-12 and violations == 0 and max(ratios) <= 4.0 and elapsed < 60
    _report("c01 partition exactness", ok, elapsed,
            f"measure_err={worst_measure:.2e} violations={violations} "
            f"delta-ratio={max(ratios):.2f} (<=4)")


def test_c02_witness_duality(monkeypatch):
    t0 = time.time()
    part = torus_grid_partition(T1, 4)
    kern = KernelSpec(RIESZ, alpha=0.75, d=1)
    cfg = WceConfig(part, kern, p=2.0, m_y=131_072, m_z=32, n_draws=4, seed=SEED)
    monkeypatch.setattr(wce, "WITNESS_GRID", 2 ** 15)
    rep = extremal_witness_check(cfg, draw_nodes(part, SEED))
    elapsed = time.time() - t0
    ok = rep.ok and abs(rep.ratio - 1.0) <= 0.05 and elapsed < 120
    _report("c02 witness duality", ok, elapsed,
            f"ratio={rep.ratio:.4f} (1 +- 0.05)")


def test_c03_est2_identity_p2():
    t0 = time.time()
    worst = 0.0
    for space, alpha in ((T1, 0.75), (S2, 1.5)):
        kern = KernelSpec(RIESZ, alpha=alpha, d=space.d)
        for N in (8, 16, 32):
            part = _partition(space, N)
            cfg = WceConfig(part, kern, p=2.0, m_y=512, m_z=8, n_draws=300,
                            seed=rngmod.path_key(SEED, N) & 0xFFFF)
            a = estimate_AN(cfg)
            d = delta_phi(cfg)
            slack = abs(a.moment - d.moment) / (3 * (a.stderr + d.stderr))
            worst = max(worst, slack)
    elapsed = time.time() - t0
    ok = worst <= 1.0 and elapsed < 300
    _report("c03 square-function identity p=2", ok, elapsed,
            f"max |A-Delta| / (3(SE_A+SE_D)) = {worst:.2f} (<=1)")


def test_c04_est1_ordering():
    t0 = time.time()
    worst = -math.inf
    for space, alpha in ((T1, 0.75), (S2, 1.5)):
        kern = KernelSpec(RIESZ, alpha=alpha, d=space.d)
        for N in (8, 16, 32):
            part = _partition(space, N)
            for p in (1.5, 2.0, 3.0):
                cfg = WceConfig(part, kern, p=p, m_y=256, m_z=8, n_draws=80,
                                seed=rngmod.path_key(SEED, N, int(10 * p)) & 0xFFFF,
                                gamma_pairs=320)
                a = estimate_AN(cfg)
                g = gamma_phi(cfg)
                worst = max(worst, (a.moment - g.moment) / (a.stderr + g.stderr))
    elapsed = time.time() - t0
    ok = worst <= 3.0 and elapsed < 300
    _report("c04 per-cell upper bound ordering", ok, elapsed,
            f"max (A - Gamma)/SE = {worst:.2f} (<=3)")


def _an_slope(space, kern, n_list, p, n_draws, m_y, m_z):
    pts = []
    for N in n_list:
        part = _partition(space, N)
        cfg = WceConfig(part, kern, p=p, m_y=m_y, m_z=m_z, n_draws=n_draws,
                        seed=rngmod.path_key(SEED, N, kern.family == ROUGH_RIESZ) & 0xFFFF)
        a = estimate_AN(cfg)
        pts.append((N, a.moment, a.stderr))
    return rate_fit(pts, seed=SEED)


def test_c05_sub_regime_slopes():
    t0 = time.time()
    fit1 = _an_slope(T1, KernelSpec(RIESZ, alpha=0.75, d=1),
                     (16, 32, 64, 128, 256, 512), p=2.0, n_draws=200,
                     m_y=384, m_z=8)
    # alpha = 1.0 sits exactly on the d/p integrability boundary at p = 2,
    # so the d = 2 sweep runs at p = 4 (same predicted exponent -alpha/d)
    fit2 = _an_slope(T2, KernelSpec(RIESZ, alpha=1.0, d=2),
                     (16, 36, 64, 144, 256, 576), p=4.0, n_draws=120,
                     m_y=192, m_z=24)
    elapsed = time.time() - t0
    ok = (abs(fit1.slope + 0.75) <= SLOPE_TOL and abs(fit2.slope + 0.5) <= SLOPE_TOL
          and elapsed < 1200)
    _report("c05 sub-regime rates", ok, elapsed,
            f"T1 slope={fit1.slope:.3f} (-0.75 +- 0.1); "
            f"T2 slope={fit2.slope:.3f} (-0.5 +- 0.1)")


def test_c06_saturated_regime():
    t0 = time.time()
    kern = KernelSpec(ROUGH_RIESZ, alpha=0.9, d=1, eps=0.25, kappa=1.0)
    fit = _an_slope(T1, kern, (16, 32, 64, 128, 256, 512), p=2.0,
                    n_draws=200, m_y=192, m_z=8)
    mins = {}
    for N in (32, 128, 512):
        part = torus_grid_partition(T1, N)
        cfg = WceConfig(part, kern, p=2.0, m_y=64, m_z=8, n_draws=4,
                        seed=rngmod.path_key(SEED, N, 6) & 0xFFFF)
        mins[N] = lower_hypothesis_probe(cfg, 2000).min_ratio
    stability = max(mins.values()) / min(mins.values())
    elapsed = time.time() - t0
    ok = (abs(fit.slope + 0.75) <= SLOPE_TOL and min(mins.values()) > 0
          and stability <= 4.0 and elapsed < 600)
    _report("c06 saturated regime", ok, elapsed,
            f"slope={fit.slope:.3f} (-0.75 +- 0.1, not -0.9); "
            f"probe min={min(mins.values()):.3f} stability={stability:.2f} (<=4)")


def test_c07_lipschitz_function_rates_and_bounds():
    t0 = time.time()
    cone = cone_bump_fn(T1, (0.5,), 0.25)
    n_list = (16, 32, 64, 128, 256, 512)
    stats = {}
    pts = []
    for N in n_list:
        part = torus_grid_partition(T1, N)
        st = estimate_BN(cone, part, 2.0, 400, seed=rngmod.path_key(SEED, N, 7) & 0xFFFF)
        stats[(2.0, N)] = st
        pts.append((N, st.moment, st.stderr))
    fit = rate_fit(pts, seed=SEED)
    slope_ok = abs(fit.slope + 1.5) <= 0.15
    # bound check: measured error <= rhs2 within 3 SE for p in {1, 1.5, 2}
    env_fns = [cone, square_wave_fn(T1, 8)]
    env_parts = [torus_grid_partition(T1, 8), torus_grid_partition(T1, 64)]
    bound_ok = True
    detail_bounds = []
    for p in (1.0, 1.5, 2.0):
        env = ratio_envelope(env_fns, env_parts, p, n_draws=800, seed=SEED)
        b_p = max(env.hi, 1.0)
        for N in n_list:
            part = torus_grid_partition(T1, N)
            st = stats.get((p, N)) or estimate_BN(
                cone, part, p, 400, seed=rngmod.path_key(SEED, N, int(10 * p)) & 0xFFFF)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rhs3 inapplicable at p < 2
                rhs = besov_rhs_bounds(part, p, alpha=1.0,
                                       norm_value=cone.besov_norm(1.0, p), b_p=b_p)
            if st.moment > rhs.rhs2 + 3 * st.stderr:
                bound_ok = False
                detail_bounds.append((p, N, st.moment, rhs.rhs2))
    elapsed = time.time() - t0
    ok = slope_ok and bound_ok and elapsed < 600
    _report("c07 Lipschitz-function rates", ok, elapsed,
            f"slope={fit.slope:.3f} (-1.5 +- 0.15); bounds ok={bound_ok} "
            f"{detail_bounds if detail_bounds else ''}")


def test_c08_indicator_rates():
    t0 = time.time()
    arc = indicator_fn(T1, make_arc(0.2, 0.5))
    pts = []
    for N in (16, 32, 64, 128, 256, 512):
        part = torus_grid_partition(T1, N)
        st = estimate_BN(arc, part, 2.0, 400, seed=rngmod.path_key(SEED, N, 8) & 0xFFFF)
        pts.append((N, st.moment, st.stderr))
    fit_arc = rate_fit(pts, seed=SEED)
    cap = indicator_fn(S2, make_cap((1.0, 1.0, 1.0), 1.0))
    pts = []
    for N in (16, 32, 64, 128, 256, 512):
        part = sphere_zonal_partition(S2, N)
        st = estimate_BN(cap, part, 2.0, 400, seed=rngmod.path_key(SEED, N, 9) & 0xFFFF)
        pts.append((N, st.moment, st.stderr))
    fit_cap = rate_fit(pts, seed=SEED)
    elapsed = time.time() - t0
    ok = (abs(fit_arc.slope + 1.0) <= SLOPE_TOL
          and abs(fit_cap.slope + 0.75) <= SLOPE_TOL and elapsed < 600)
    _report("c08 indicator rates", ok, elapsed,
            f"arc slope={fit_arc.slope:.3f} (-1 +- 0.1); "
            f"cap slope={fit_cap.slope:.3f} (-0.75 +- 0.1)")


def test_c09_sharpness():
    t0 = time.time()
    scaled = []
    for N in (16, 32, 64, 128, 256, 512):
        part = torus_grid_partition(T1, N)
        f = sharpness_fn(part, 0)
        st = estimate_BN(f, part, 2.0, 600, seed=rngmod.path_key(SEED, N, 10) & 0xFFFF)
        scaled.append(st.moment * N)
    interval_ratio = max(scaled) / min(scaled)
    pts = []
    for N in (16, 32, 64, 128, 256, 512):
        part = torus_grid_partition(T1, N)
        f = sharpness_fn(part)
        st = estimate_BN(f, part, 4.0, 400, seed=rngmod.path_key(SEED, N, 11) & 0xFFFF)
        pts.append((N, st.moment, st.stderr))
    fit = rate_fit(pts, seed=SEED)
    elapsed = time.time() - t0
    ok = (interval_ratio <= 2.0 and min(scaled) > 0
          and abs(fit.slope + 0.5) <= SLOPE_TOL and elapsed < 600)
    _report("c09 sharpness constructions", ok, elapsed,
            f"two-bump N*error ratio={interval_ratio:.2f} (<=2); "
            f"summed p=4 slope={fit.slope:.3f} (-0.5 +- 0.1)")


def test_c10_moment_comparison():
    t0 = time.time()
    # p = 2 identity everywhere
    p2_configs = [
        (coordinate_fn(T1), torus_grid_partition(T1, 8)),
        (cone_bump_fn(T1, (0.4,), 0.3), torus_grid_partition(T1, 64)),
        (square_wave_fn(T1, 8), torus_grid_partition(T1, 8)),
    ]
    p2_ok = True
    for f, part in p2_configs:
        rep = mz_pair(f, part, 2.0, 1500, seed=SEED)
        if rep.degenerate or abs(rep.ratio - 1.0) > 3 * rep.ratio_se:
            p2_ok = False
    # exhaustive-enumeration case
    rep = mz_pair(square_wave_fn(T1, 2), torus_grid_partition(T1, 2), 1.0,
                  6000, seed=SEED)
    enum_ok = (abs(rep.middle - 0.5) <= 3 * rep.middle_se
               and abs(rep.bracket - math.sqrt(2) / 2) <= 3 * max(rep.bracket_se, 1e-12))
    # N-stability of the ratio for p in {1, 1.5, 3, 4}
    stable_ok = True
    worst_stab = 1.0
    for p in (1.0, 1.5, 3.0, 4.0):
        ratios = []
        for N in (8, 64, 512):
            part = torus_grid_partition(T1, N)
            r = mz_pair(coordinate_fn(T1), part, p, 1200,
                        seed=rngmod.path_key(SEED, N, int(10 * p)) & 0xFFFF)
            ratios.append(r.ratio)
        worst_stab = max(worst_stab, max(ratios) / min(ratios))
    stable_ok = worst_stab <= 2.0
    elapsed = time.time() - t0
    ok = p2_ok and enum_ok and stable_ok and elapsed < 300
    _report("c10 moment comparison", ok, elapsed,
            f"p2 identity={p2_ok}; enumeration middle={rep.middle:.3f}/0.5 "
            f"bracket={rep.bracket:.3f}/{math.sqrt(2)/2:.3f}; "
            f"stability={worst_stab:.2f} (<=2)")


# one small run of each experiment kind; tests/test_golden_digests.py pins
# their output bytes at workers = 1
C11_CONFIGS = [
    ExperimentConfig(kind="partition", space_kind="sphere2", dim=2,
                     n_list=(16, 64), sample_budget=2000, seed=SEED),
    ExperimentConfig(kind="wce", space_kind="torus", dim=1,
                     n_list=(8, 16, 32, 64), alpha=0.75, p=2.0,
                     n_draws=12, m_y=48, m_z=4, seed=SEED),
    ExperimentConfig(kind="besov", space_kind="torus", dim=1,
                     n_list=(8, 16, 32, 64), function="cone",
                     fn_params={"radius": 0.25}, p=2.0, n_draws=40, seed=SEED),
    ExperimentConfig(kind="mz", space_kind="torus", dim=1, n_list=(8, 16),
                     function="coordinate", p=2.0, n_draws=60, seed=SEED),
    ExperimentConfig(kind="indicator", space_kind="torus", dim=1,
                     n_list=(8, 16, 32, 64), set_kind="arc",
                     set_params={"start": 0.2, "length": 0.5},
                     p=2.0, n_draws=40, seed=SEED),
    ExperimentConfig(kind="sharpness", variant="sum", space_kind="torus",
                     dim=1, n_list=(8, 16, 32, 64), fn_alpha=1.0, p=4.0,
                     n_draws=40, seed=SEED),
]


def test_c11_determinism_across_workers(tmp_path):
    t0 = time.time()
    all_ok = True
    for i, cfg in enumerate(C11_CONFIGS):
        blobs = []
        for tag, workers in (("w1", 1), ("w3", 3)):
            out = tmp_path / f"{cfg.kind}{i}_{tag}"
            cfg2 = ExperimentConfig(**{**cfg.__dict__, "out": str(out),
                                       "workers": workers})
            run_experiment(cfg2)
            blobs.append(Path(str(out) + ".csv").read_bytes()
                         + Path(str(out) + ".json").read_bytes())
        if blobs[0] != blobs[1]:
            all_ok = False
    elapsed = time.time() - t0
    _report("c11 determinism across workers", all_ok and elapsed < 300, elapsed,
            f"{len(C11_CONFIGS)} experiment kinds byte-identical at workers 1 vs 3")
