import math

import numpy as np
import pytest
from stream_runs import StreamRun

from stratcub import rng as rngmod
from stratcub.besov import sharpness_fn
from stratcub.funcs import (cone_bump_fn, constant_fn, coordinate_fn, indicator_fn,
                            square_wave_fn, zonal_monomial_fn)
from stratcub.experiments import ExperimentConfig, run_experiment
from stratcub.mz import M_CELL, _cell_means, mz_pair
from stratcub.partition import (cell_points, cell_sample, sphere_zonal_partition,
                                torus_grid_partition)
from stratcub.sets import make_cap
from stratcub.space import SPHERE2, TORUS, make_space

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
S2 = make_space(SPHERE2)


@pytest.mark.parametrize("f,part", [
    (coordinate_fn(T1), torus_grid_partition(T1, 8)),
    (cone_bump_fn(T1, (0.4,), 0.3), torus_grid_partition(T1, 16)),
    (zonal_monomial_fn(S2, 2), sphere_zonal_partition(S2, 12)),
])
def test_p2_ratio_is_one(f, part):
    rep = mz_pair(f, part, p=2.0, n_draws=1500, seed=2)
    assert not rep.degenerate
    assert abs(rep.ratio - 1.0) <= 3 * rep.ratio_se


def test_enumeration_case_square_wave():
    """T^1, two cells, +-1 wave on equal halves: exhaustive enumeration gives
    middle = 0.5 and bracket = sqrt(2)/2 at p = 1."""
    part = torus_grid_partition(T1, 2)
    f = square_wave_fn(T1, 2)
    # enumeration oracle over the 4 equiprobable sign patterns
    outcomes = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
    middle_exact = np.mean([abs(0.5 * s1 + 0.5 * s2) for s1, s2 in outcomes])
    bracket_exact = np.mean([math.hypot(0.5 * s1, 0.5 * s2) for s1, s2 in outcomes])
    assert middle_exact == pytest.approx(0.5)
    assert bracket_exact == pytest.approx(math.sqrt(2) / 2)
    rep = mz_pair(f, part, p=1.0, n_draws=6000, seed=3)
    assert abs(rep.middle - middle_exact) <= 3 * rep.middle_se
    assert abs(rep.bracket - bracket_exact) <= 3 * max(rep.bracket_se, 1e-12)


def test_constant_function_degenerate():
    part = torus_grid_partition(T1, 4)
    rep = mz_pair(constant_fn(T1, 2.0), part, p=2.0, n_draws=100, seed=1)
    assert rep.degenerate
    assert math.isnan(rep.ratio)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_nonzero_bracket_is_degenerate():
    # one draw of 40 carries the whole bracket, so leaving it out gives a
    # 0/0 ratio: the report is degenerate instead of a ratio with a NaN SE
    part = sphere_zonal_partition(S2, 16)
    rep = mz_pair(sharpness_fn(part, 3), part, 3.0, 40, 5)
    assert rep.bracket > 0
    assert rep.degenerate
    assert math.isnan(rep.ratio) and math.isnan(rep.ratio_se)


def test_mc_cell_mean_fallback():
    # a function without closed-form cell means still yields ratio ~ 1 at p=2
    f = cone_bump_fn(S2, (0.0, 0.0, 1.0), 1.2)
    assert f.cell_means is None
    part = sphere_zonal_partition(S2, 8)
    rep = mz_pair(f, part, p=2.0, n_draws=1200, seed=5)
    assert abs(rep.ratio - 1.0) <= 3 * rep.ratio_se + 0.02


@pytest.mark.parametrize("f,part", [
    (cone_bump_fn(T2, (0.3, 0.6), 0.4), torus_grid_partition(T2, 4)),
    (indicator_fn(S2, make_cap((1.0, 1.0, 1.0), 1.0)), sphere_zonal_partition(S2, 40)),
], ids=["T2-cone", "S2-cap"])
def test_mc_cell_means_match_per_cell_streams(f, part):
    # the batched fallback draws cell j from run j of the (seed, MZ, 1) stream
    assert f.cell_means is None
    expect = [f.evaluate(cell_sample(part, j, StreamRun(7, rngmod.MZ, 1, k=j), M_CELL)).mean()
              for j in range(part.N)]
    assert np.array_equal(_cell_means(f, part, 7), expect)


def test_mz_envelope_p2_tight():
    for function, fn_params in (("coordinate", {}), ("cone", {"center": (0.3,), "radius": 0.2})):
        _, summary = run_experiment(ExperimentConfig(
            kind="mz", function=function, fn_params=fn_params, n_list=(8, 32), p=2.0,
            n_draws=1000, seed=4))
        assert summary["envelope_label"].startswith("empirical")
        lo, hi = summary["envelope"]
        assert 0.85 <= lo <= hi <= 1.15


def test_ratio_stability_p4():
    f = coordinate_fn(T1)
    ratios = []
    for N in (8, 64, 512):
        part = torus_grid_partition(T1, N)
        rep = mz_pair(f, part, p=4.0, n_draws=1200, seed=6)
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) < 2.0


def test_envelope_stable_under_doubling_draws():
    # wave flips inside every cell, so the per-cell terms are nondegenerate
    f, part = square_wave_fn(T1, 8), torus_grid_partition(T1, 8)
    r1 = mz_pair(f, part, p=1.0, n_draws=1500, seed=7).ratio
    r2 = mz_pair(f, part, p=1.0, n_draws=3000, seed=8).ratio
    assert r2 >= 0.5 * r1
    assert r1 > 0


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_mz_pair_jackknife_matches_inline(p):
    f, part, K = coordinate_fn(T1), torus_grid_partition(T1, 8), 40
    rep = mz_pair(f, part, p, K, seed=3)
    w = part.weights()
    means = f.cell_means(part)
    mid, brk = np.empty(K), np.empty(K)
    for k in range(K):
        nodes = cell_points(part, StreamRun(3, rngmod.MZ, k=k), 1)[:, 0]
        c = w * (f.evaluate(nodes) - means)
        mid[k] = abs(c.sum()) ** p
        brk[k] = float(c @ c) ** (p / 2.0)
    power = 1.0 / p

    # leave-one-out jackknife of power means and of their ratio, written out
    def loo(u):
        return ((u.sum() - u) / (K - 1)) ** power

    def se(v):
        return math.sqrt((K - 1) / K * float(np.sum((v - v.mean()) ** 2)))

    assert not rep.degenerate
    assert rep.middle == (mid.sum() / K) ** power and rep.middle_se == se(loo(mid))
    assert rep.bracket == (brk.sum() / K) ** power and rep.bracket_se == se(loo(brk))
    assert rep.ratio == rep.middle / rep.bracket
    assert rep.ratio_se == se(loo(mid) / loo(brk))
