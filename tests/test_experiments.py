import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratcub import cubature, experiments, rates, wce
from stratcub import rng as rngmod
from stratcub.experiments import (CSV_FIELDS, ExperimentConfig, build_partition,
                                  run_experiment, to_json)
from stratcub.kernel import KernelSpec, regime_classify
from stratcub.rates import (RateFit, predicted_bn_exponent, predicted_indicator_exponent,
                            predicted_wce_exponent, rate_fit)


def test_rate_fit_exact_power_law():
    pts = [(n, 1.0 / n, 0.0) for n in (8, 16, 32, 64)]
    fit = rate_fit(pts)
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.slope_ci[0] <= fit.slope <= fit.slope_ci[1]


def test_rate_fit_reads_no_standard_error():
    """A standard error of None fits as 0.0 does: the fit reads N and the value only."""
    ns = (8, 16, 32, 64)
    fit = rate_fit([(n, 1.0 / n, None) for n in ns])
    assert fit == rate_fit([(n, 1.0 / n, 0.0) for n in ns])
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)


@given(st.floats(-2.0, -0.25), st.floats(0.5, 5.0))
@settings(derandomize=True, max_examples=50)
def test_rate_fit_recovers_random_exponent(slope, c):
    pts = [(n, c * n ** slope, 0.0) for n in (8, 16, 32, 64, 128)]
    fit = rate_fit(pts)
    assert fit.slope == pytest.approx(slope, abs=1e-9)


def test_rate_fit_perturbed_slope_in_band():
    rng = rngmod.substream(0, rngmod.SELFTEST, 9)
    ns = (8, 16, 32, 64, 128)
    pts = [(n, 3.0 * n ** -0.75 * (1 + rng.uniform(-0.05, 0.05)), 0.0) for n in ns]
    fit = rate_fit(pts)
    assert -0.85 <= fit.slope <= -0.65


def test_rate_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        rate_fit([(8, 1.0, 0.0), (16, 0.5, 0.0), (32, 0.25, 0.0)])
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match="rate fit needs finite values > 0"):
            rate_fit([(8, 1.0, 0.0), (16, bad, 0.0), (32, 0.25, 0.0), (64, 0.1, 0.0)])


@pytest.mark.parametrize("ns, message", [
    ((0, 16, 32, 64), "rate fit needs finite N > 0, got N = 0"),
    ((8, float("nan"), 32, 64), "rate fit needs finite N > 0, got N = nan"),
    ((8, -16, 32, 64), "rate fit needs finite N > 0, got N = -16"),
    ((8, 16, float("inf"), 64), "rate fit needs finite N > 0, got N = inf"),
    ((16, 16, 16, 16), "rate fit needs two distinct N, got only N = 16"),
], ids=["zero", "nan", "negative", "inf", "repeated"])
def test_rate_fit_rejects_an_n_without_a_logarithm(ns, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rate_fit([(n, 1.0 / (i + 1), 0.0) for i, n in enumerate(ns)])


def _ols(x, y):
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    return slope, float(ym - slope * xm)


def _rate_fit_per_resample(points, n_boot, seed):
    """rate_fit drawing and fitting one bootstrap resample per loop pass."""
    pts = [(float(n), float(v), float(se)) for n, v, se in points]
    x = np.log(np.array([n for n, _, _ in pts]))
    y = np.log(np.array([v for _, v, _ in pts]))
    slope, intercept = _ols(x, y)
    fitted = intercept + slope * x
    resid = y - fitted
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rng = rngmod.substream(seed, rngmod.BOOT)
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        y_b = fitted + rng.choice(resid, size=len(resid), replace=True)
        slopes[b], _ = _ols(x, y_b)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return RateFit(slope=slope, intercept=intercept, r2=r2,
                   slope_ci=(float(min(lo, slope)), float(max(hi, slope))))


@pytest.mark.parametrize("n_points", [4, 6])
@pytest.mark.parametrize("seed", [0, 12345])
@pytest.mark.parametrize("n_boot", [50, 1000])
def test_rate_fit_matches_per_resample_bootstrap(n_points, seed, n_boot, monkeypatch):
    monkeypatch.setattr(rates, "N_BOOT", n_boot)
    rng = rngmod.substream(seed, rngmod.SELFTEST, n_points)
    ns = 8 * 2 ** np.arange(n_points)
    values = ns ** -0.6 * rng.uniform(0.5, 2.0, n_points)
    pts = [(int(n), float(v), 0.01) for n, v in zip(ns, values)]
    assert repr(rate_fit(pts, seed=seed)) == repr(
        _rate_fit_per_resample(pts, n_boot, seed))


def test_regime_classification_cases():
    assert regime_classify(KernelSpec("riesz", alpha=0.75, d=1)) == "sub"
    assert regime_classify(KernelSpec("rough_riesz", alpha=0.9, d=1, eps=0.25,
                                      kappa=1.0)) == "saturated"
    assert regime_classify(KernelSpec("rough_riesz", alpha=1.5, d=2, eps=0.5,
                                      kappa=1.0)) == "critical"


def test_predicted_exponents():
    assert predicted_wce_exponent("sub", 0.75, 1.0, 1) == -0.75
    assert predicted_wce_exponent("saturated", 0.9, 0.25, 1) == -0.75
    assert predicted_wce_exponent("critical", 1.5, 0.5, 2) is None
    assert predicted_bn_exponent(2.0, 1.0, 1) == -1.5
    assert predicted_bn_exponent(1.0, 1.0, 1) == -1.0
    assert predicted_bn_exponent(4.0, 1.0, 1) == -1.5
    assert predicted_indicator_exponent(1.0, 1) == -1.0
    assert predicted_indicator_exponent(1.0, 2) == -0.75


def test_config_rejects_non_integer_counts():
    # floats ran (workers, n_list) or failed inside the first draw; a bool is no count
    for bad in ({"m_y": 16.5}, {"m_z": 2.7}, {"n_draws": 4.5}, {"workers": 2.5},
                {"sample_budget": 100.0}, {"n_draws": True}, {"workers": True},
                {"n_list": (16, 32.0, 64, 128)}, {"n_list": (True, 2, 4, 8)}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(kind="wce", **bad)
    cfg = ExperimentConfig(kind="wce", n_list=tuple(np.int64(n) for n in (16, 32, 64, 128)),
                           m_y=np.int64(64), n_draws=np.int32(4), workers=np.int64(2))
    assert cfg.workers == 2


def test_config_rejects_containers_of_the_wrong_type_by_field():
    # an int n_list failed on len(), a string one named its first character,
    # set_params="x" was read as a parameter name and fn_params=3 named no
    # field; a list set_kind or function failed in a dict lookup ("unhashable
    # type: 'list'")
    for bad in ({"n_list": 16}, {"n_list": "16 32"}, {"fn_params": 3}, {"fn_params": [1]},
                {"set_params": "x"}, {"set_params": None}, {"set_kind": []},
                {"function": []}, {"space_kind": ["torus"]}, {"family": None},
                {"variant": 1}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            ExperimentConfig(kind="besov", **bad)
    cfg = ExperimentConfig(kind="besov", n_list=[16, 32, 64, 128])
    assert cfg.n_list == (16, 32, 64, 128)


def test_config_rejects_non_integer_seed_and_non_real_exponents():
    # a float seed ran and keyed its streams by hashing the float; a string
    # p failed at its first comparison with a message that named no field
    for bad in ({"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"seed": None},
                {"p": "two"}, {"p": True}, {"alpha": "0.75"}, {"eps": None},
                {"kappa": False}, {"fn_alpha": None}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(kind="wce", **bad)
    cfg = ExperimentConfig(kind="besov", seed=np.int64(-3), p=2, fn_alpha=np.float64(1.0))
    assert cfg.seed == -3 and cfg.q == 2.0


def _sharpness_single_rows(values):
    return [{"N": N, "value": v, "stderr": 0.0} for N, v in zip((16, 64, 256), values)]


def test_sharpness_single_summary_with_a_zero_value_fails_with_a_null_ratio():
    # no draw met the bump at one N: the ratio divided by zero
    cfg = ExperimentConfig(kind="sharpness", variant="single", n_list=(16, 64, 256))
    summary = experiments._summarize(cfg, _sharpness_single_rows([0.1, 0.0, 0.002]))
    assert summary["interval_ratio"] is None and summary["verdict"] is False
    assert json.loads(to_json(summary)) == summary
    ok = experiments._summarize(cfg, _sharpness_single_rows([0.1, 0.025, 0.005]))
    assert ok["interval_ratio"] == pytest.approx(1.25) and ok["verdict"] is True


def test_fit_verdict_rule():
    points = [(n, 2.0 / n, 0.0) for n in (8, 16, 32, 64)]
    fit = experiments.fit_verdict(points, -1.0, 0.1, seed=0)
    assert fit["slope"] == pytest.approx(-1.0) and fit["verdict"] is True
    assert "note" not in fit
    assert experiments.fit_verdict(points, -0.5, 0.1, seed=0)["verdict"] is False
    assert experiments.fit_verdict(points, None, 0.1, seed=0)["verdict"] is True
    # a value that is not finite and > 0 (zero, negative, NaN, inf) fails even
    # with nothing predicted
    for bad in (0.0, -1.0, math.nan, math.inf):
        null = experiments.fit_verdict(points[:2] + [(32, bad, 0.0)] + points[3:], None, 0.1, 0)
        assert null == {"slope": None, "intercept": None, "r2": None, "slope_ci": None,
                        "verdict": False,
                        "note": "no rate fit: value not finite and > 0 at N = 32"}


def test_degenerate_fit_note_comes_before_the_critical_regime_note():
    cfg = ExperimentConfig(kind="wce", space_kind="torus", dim=2,
                           n_list=(16, 64, 256, 1024), family="rough_riesz",
                           alpha=1.5, eps=0.5, kappa=1.0, p=4.0)
    rows = [{"N": N, "value": v, "stderr": 0.0}
            for N, v in zip(cfg.n_list, (0.3, 0.1, 0.0, 0.01))]
    summary = experiments._summarize(cfg, rows)
    assert summary["predicted_exponent"] is None and summary["slope"] is None
    assert summary["note"].startswith("no rate fit: value not finite and > 0 at N = 256; "
                                   "critical regime")
    assert summary["verdict"] is False  # the null fit fails where no slope is judged


def test_wce_experiment_runs_draws_on_one_thread(monkeypatch):
    # the experiment's workers are its whole thread budget, spent across N:
    # each N's draws run on the thread that runs that N, although a direct
    # call would spread them over the (here three) CPUs
    monkeypatch.setattr(cubature, "_cpus", lambda: 3)
    run_one, wq = experiments._run_one, wce._wq
    runner, draws = {}, []

    def recording_run_one(cfg, N):
        runner[N] = threading.current_thread().name
        return run_one(cfg, N)

    def recording_wq(cfg, *args, **kwargs):
        draws.append((cfg.partition.N, threading.current_thread().name))
        return wq(cfg, *args, **kwargs)

    monkeypatch.setattr(experiments, "_run_one", recording_run_one)
    monkeypatch.setattr(wce, "_wq", recording_wq)
    for workers in (1, 2):
        runner.clear()
        draws.clear()
        run_experiment(ExperimentConfig(kind="wce", n_list=(16, 32, 64, 128), n_draws=6,
                                        m_y=32, workers=workers))
        assert len(draws) == 4 * 6 and all(runner[N] == name for N, name in draws)
        if workers == 1:
            assert set(runner.values()) == {threading.current_thread().name}
        else:
            assert all(name.startswith("stratcub_") for name in runner.values())


def test_rough_wce_experiment_is_byte_identical_across_workers(tmp_path):
    # the c06 kernel: A_N's rough term comes from the complex-product route
    # of kernel.rough_potential, which no other determinism check reaches
    blobs = []
    for workers in (1, 3):
        out = tmp_path / f"rough_w{workers}"
        run_experiment(ExperimentConfig(kind="wce", space_kind="torus", dim=1,
                                        n_list=(8, 16, 32, 64), family="rough_riesz",
                                        alpha=0.9, eps=0.25, kappa=1.0, p=2.0, n_draws=12,
                                        m_y=48, m_z=4, seed=3, workers=workers,
                                        out=str(out)))
        blobs.append(Path(str(out) + ".csv").read_bytes() + Path(str(out) + ".json").read_bytes())
    assert blobs[0] == blobs[1]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="warp")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="wce", n_list=(16, 24, 32, 64))  # ratio < 2
    with pytest.raises(ValueError):
        ExperimentConfig(kind="besov", n_list=(16, 32))  # too few points
    for workers in (0, -1):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mz", n_list=(8, 12), workers=workers)
    for field, bad in (("m_y", {"m_y": 0}), ("m_z", {"m_z": 0}),
                       ("n_draws", {"n_draws": 1}), ("n_list", {"n_list": (0, 1, 2, 4)}),
                       ("sample_budget", {"sample_budget": 0}),
                       ("sample_budget", {"sample_budget": -5}),
                       ("variant", {"variant": "singel"}), ("region", {"set_kind": "disk"}),
                       ("2-sphere", {"space_kind": "sphere2", "dim": 1}),
                       ("dimension", {"space_kind": "torus", "dim": 0}),
                       ("dimension", {"space_kind": "torus", "dim": 1.5}),
                       ("space kind", {"space_kind": "plane"})):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(kind="wce", **bad)
    for set_kind, space in (("box", {"space_kind": "sphere2", "dim": 2}),
                            ("cap", {"space_kind": "torus"}),
                            ("arc", {"space_kind": "sphere2", "dim": 2})):
        with pytest.raises(ValueError, match="does not lie on"):
            ExperimentConfig(kind="indicator", set_kind=set_kind, **space)
        if set_kind == "arc":  # only indicator runs build the region
            ExperimentConfig(kind="wce", set_kind=set_kind, alpha=1.5, **space)
    with pytest.raises(ValueError, match="arc length"):
        ExperimentConfig(kind="indicator", set_params={"length": 1.5})
    with pytest.raises(ValueError, match="box has 1 coordinates, the torus has d=2"):
        ExperimentConfig(kind="indicator", dim=2, set_kind="box",
                         set_params={"lo": (0.2,), "hi": (0.7,)})
    # a misspelt region key ran the default region, a zero cap centre a NaN one
    sphere = {"space_kind": "sphere2", "dim": 2}
    for set_kind, space, params, message in (
            ("arc", {}, {"lenght": 0.3}, "unknown parameter 'lenght' for region 'arc'"),
            ("box", {"dim": 2}, {"lo": (0.1, 0.1), "hgh": (0.5, 0.5)},
             "unknown parameter 'hgh' for region 'box'"),
            ("cap", sphere, {"centre": (0.0, 0.0, 1.0)},
             "unknown parameter 'centre' for region 'cap'"),
            ("cap", sphere, {"center": (0.0, 0.0, 0.0)}, "cap centre"),
            # a NaN start ran an empty arc against its measure 0.5
            ("arc", {}, {"start": math.nan}, "arc start must be finite, got nan")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="indicator", set_kind=set_kind, set_params=params, **space)
    for kind in ("besov", "mz"):
        with pytest.raises(ValueError, match="unknown function id 'nonesuch'"):
            ExperimentConfig(kind=kind, function="nonesuch")
        with pytest.raises(ValueError, match="coordinate axis must be in"):
            ExperimentConfig(kind=kind, function="coordinate", fn_params={"axis": 1})
        with pytest.raises(ValueError, match="positive integer"):
            ExperimentConfig(kind=kind, function="square_wave", fn_params={"k": 0})
        with pytest.raises(ValueError, match="unknown parameter 'axsi' for function "
                                             "'coordinate'"):
            ExperimentConfig(kind=kind, function="coordinate", fn_params={"axsi": 1})
        # each ran another function: cos at frequency 1, the singular z^-1
        # against an integral of 0, a zero cone on T^1, a cone about no point
        for function, params, space, message in (
                ("cos", {"freq": [1.5]}, {}, "frequency must be an integer, got 1.5"),
                ("zonal", {"power": -1}, sphere, "zonal power must be >= 0, got -1"),
                ("zonal", {"power": 1.5}, sphere, "zonal power must be an integer, got 1.5"),
                ("cone", {"center": (0.5, 0.5)}, {}, "torus cone centre must be 1 finite"),
                ("cone", {"center": (math.nan,)}, {}, "torus cone centre must be 1 finite"),
                ("cone", {"center": (0.0, 0.0, 0.0)}, sphere,
                 "sphere cone centre must be a finite nonzero 3-vector")):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(kind=kind, function=function, fn_params=params, **space)
    ExperimentConfig(kind="wce", function="nonesuch")  # only besov and mz build it
    cfg = ExperimentConfig(kind="mz", n_list=(8, 12))  # mz exempt from ratios
    assert cfg.q == 2.0
    # a wce experiment builds its kernel and checks its exponents at config time
    for bad, message in (({"p": 1.0}, "p must lie in"),
                         ({"alpha": 1.5}, "need 0 < alpha < d"),
                         ({"alpha": 0.3}, "integrability needs alpha > d/p"),
                         ({"dim": 2, "n_list": (16, 64, 256, 1024)},
                          "integrability needs alpha > d/p"),
                         ({"family": "const"}, "unknown kernel family 'const'"),
                         ({"family": "nonesuch"}, "unknown kernel family")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="wce", **bad)
    assert ExperimentConfig(kind="wce", p=math.inf).q == 1.0
    assert ExperimentConfig(kind="besov", p=1.0).q == math.inf
    for kind in ("besov", "indicator", "sharpness", "mz"):
        with pytest.raises(ValueError, match="p = inf is for wce experiments only"):
            ExperimentConfig(kind=kind, p=math.inf)
    with pytest.raises(ValueError, match="p must be >= 1, got nan"):
        ExperimentConfig(kind="besov", p=math.nan)
    # every N must name a partition of the space
    for kind in ("partition", "besov", "wce"):
        with pytest.raises(ValueError, match="N=8 is not a d=2 grid size"):
            ExperimentConfig(kind=kind, dim=2, alpha=1.5, n_list=(4, 8, 16, 32))
        with pytest.raises(ValueError, match="sphere partition needs N >= 2 cells, got N=1"):
            ExperimentConfig(kind=kind, space_kind="sphere2", dim=2, alpha=1.5,
                             n_list=(1, 4, 16, 64))


def test_build_partition_checks_grid():
    cfg = ExperimentConfig(kind="wce", space_kind="torus", dim=2,
                           n_list=(16, 64, 256, 1024), alpha=1.5)
    assert build_partition(cfg, 64).N == 64
    with pytest.raises(ValueError):
        build_partition(cfg, 60)


def test_run_experiment_rows_and_files(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(kind="besov", space_kind="torus", dim=1,
                           n_list=(8, 16, 32, 64), function="cone",
                           fn_params={"radius": 0.25}, fn_alpha=1.0, p=2.0,
                           n_draws=60, seed=3, out=str(out))
    rows, summary = run_experiment(cfg)
    assert len(rows) == 4
    assert [r["N"] for r in rows] == [8, 16, 32, 64]
    csv_text = (out.with_suffix(".csv")).read_text() if out.with_suffix(".csv").exists() \
        else Path(str(out) + ".csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header == CSV_FIELDS
    assert len(csv_text.splitlines()) == 5
    doc = json.loads(Path(str(out) + ".json").read_text())
    assert doc["predicted_exponent"] == -1.5
    assert "slope" in doc and "verdict" in doc


def test_run_experiment_deterministic_and_worker_independent(tmp_path):
    base = dict(kind="wce", space_kind="torus", dim=1, n_list=(8, 16, 32, 64),
                family="riesz", alpha=0.75, p=2.0, n_draws=20, m_y=64, m_z=4,
                seed=5)
    paths = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 3), ("d", 2)):
        out = tmp_path / tag
        run_experiment(ExperimentConfig(**base, out=str(out), workers=workers))
        paths.append(Path(str(out) + ".csv").read_bytes())
    assert paths[0] == paths[1] == paths[2] == paths[3]


def test_run_experiment_replaces_existing_outputs(tmp_path):
    # a longer file at one stem and a symlink at the other end up as the
    # bytes of a fresh run; the symlink's target is not written through
    base = dict(kind="besov", n_list=(8, 16, 32, 64), n_draws=20, seed=4)
    run_experiment(ExperimentConfig(**base, out=str(tmp_path / "fresh")))
    target = tmp_path / "target"
    target.write_text("kept")
    Path(str(tmp_path / "old") + ".csv").write_text("x" * 100_000)
    Path(str(tmp_path / "old") + ".json").symlink_to(target)
    run_experiment(ExperimentConfig(**base, out=str(tmp_path / "old")))
    for suffix in (".csv", ".json"):
        old = Path(str(tmp_path / "old") + suffix)
        assert not old.is_symlink()
        assert old.read_bytes() == Path(str(tmp_path / "fresh") + suffix).read_bytes()
    assert target.read_text() == "kept"


def test_critical_regime_note_no_verdict():
    cfg = ExperimentConfig(kind="wce", space_kind="torus", dim=2,
                           n_list=(16, 64, 256, 1024), family="rough_riesz",
                           alpha=1.5, eps=0.5, kappa=1.0, p=4.0,
                           n_draws=8, m_y=32, m_z=4, seed=1)
    rows, summary = run_experiment(cfg)
    assert summary["predicted_exponent"] is None
    assert "log" in summary["note"]
    assert summary["verdict"] is True  # no slope verdict in the critical case


def test_partition_experiment_summary():
    cfg = ExperimentConfig(kind="partition", space_kind="sphere2", dim=2,
                           n_list=(16, 64), sample_budget=4000, seed=2)
    rows, summary = run_experiment(cfg)
    assert summary["exactness_ok"] and summary["coverage_ok"]
    assert summary["verdict"]


def test_sharpness_single_summary():
    cfg = ExperimentConfig(kind="sharpness", variant="single", space_kind="torus",
                           dim=1, n_list=(16, 64, 256), fn_alpha=1.0, p=2.0,
                           n_draws=400, seed=4)
    rows, summary = run_experiment(cfg)
    assert summary["interval_ratio"] <= 2.0
    assert summary["verdict"]


def test_to_json_writes_non_finite_as_null_and_rejects_escapes():
    doc = {"b": [np.float64("nan"), 1.5, (math.inf, -math.inf)], "a": np.float64(0.25)}
    assert to_json(doc, sort_keys=True) == '{"a": 0.25, "b": [null, 1.5, [null, null]]}'
    # a non-finite value made by the default hook is not converted: it raises
    with pytest.raises(ValueError):
        to_json({"x": object()}, default=lambda o: math.nan)
