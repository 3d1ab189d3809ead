"""Experiment orchestration: configs, per-N pipelines, CSV/JSON output.

Each experiment maps an N-grid through one module pipeline, appends one CSV
row per N, and emits a JSON summary holding the fitted slope, its bootstrap
CI, the predicted exponent from the regime classifier, and a verdict
(|slope - predicted| <= SLOPE_TOL).  Per-N work is keyed by (seed, N)
substreams and collected in N order, so output bytes are identical for any
worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .besov import sharpness_fn
from .cubature import estimate_BN, run_indexed
from .funcs import indicator_fn, make_function
from .kernel import KernelSpec, regime_classify
from .mz import mz_pair
from .partition import (Partition, check_count, check_keys, check_real,
                        sphere_zonal_partition, torus_grid_partition, verify_partition)
from .rates import (predicted_bn_exponent, predicted_indicator_exponent,
                    predicted_wce_exponent, rate_fit)
from .sets import make_arc, make_box, make_cap
from .space import SPHERE2, TORUS, SpaceDescriptor, make_space
from .wce import WceConfig, check_exponents, conjugate_exponent, estimate_AN

SLOPE_TOL = 0.1
RATE_KINDS = ("wce", "besov", "indicator", "sharpness")

# the set_params keys each region kind reads
_REGION_PARAMS = {"arc": ("start", "length"), "box": ("lo", "hi"), "cap": ("center", "radius")}

CSV_FIELDS = ["experiment", "space", "d", "N", "alpha", "eps", "kappa",
              "p", "q", "beta", "value", "stderr", "seed",
              "n_draws", "m_y", "m_z"]


@dataclass
class ExperimentConfig:
    kind: str
    space_kind: str = TORUS
    dim: int | None = None  # None: the space's own, 2 on sphere2 and 1 on the torus
    n_list: tuple[int, ...] = (16, 32, 64, 128, 256, 512)
    # kernel (wce experiments)
    family: str = "riesz"
    alpha: float = 0.75
    eps: float = 1.0
    kappa: float = 0.0
    # function (besov/mz experiments); fn_alpha is the smoothness exponent
    # used for the predicted rate
    function: str = "cone"
    fn_params: dict = field(default_factory=dict)
    fn_alpha: float = 1.0
    # region (indicator experiments)
    set_kind: str = "arc"
    set_params: dict = field(default_factory=dict)
    p: float = 2.0
    n_draws: int = 200
    m_y: int = 512
    m_z: int = 8
    variant: str = "sum"  # sharpness: "single" or "sum"
    sample_budget: int = 10_000  # partition verification
    seed: int = 0
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        for name in ("kind", "space_kind", "family", "function", "set_kind", "variant"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.kind not in ("partition", "wce", "besov", "mz", "indicator", "sharpness"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.dim is None:
            self.dim = 2 if self.space_kind == SPHERE2 else 1
        check_count("seed", self.seed, -math.inf)  # any integer
        for name in ("p", "alpha", "eps", "kappa", "fn_alpha"):
            check_real(name, getattr(self, name))
        if not isinstance(self.n_list, (list, tuple)):
            raise ValueError(f"n_list must be a list of integers, got {self.n_list!r}")
        self.n_list = tuple(self.n_list)
        for name in ("fn_params", "set_params"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a dict, got {getattr(self, name)!r}")
        if len(self.n_list) < 1:
            raise ValueError("empty N list")
        for N in self.n_list:
            check_count("n_list entry", N, 1)
        if self.kind in RATE_KINDS and not (self.kind == "sharpness" and self.variant == "single"):
            if len(self.n_list) < 4:
                raise ValueError("rate experiments need >= 4 N values")
            for a, b in zip(self.n_list[:-1], self.n_list[1:]):
                if b < 2 * a:
                    raise ValueError("rate experiments need a geometric N list with ratio >= 2")
        space = make_space(self.space_kind, self.dim)
        if self.variant not in ("single", "sum"):
            raise ValueError(f"variant must be 'single' or 'sum', got {self.variant!r}")
        if self.set_kind not in _REGION_PARAMS:
            raise ValueError(f"unknown region kind {self.set_kind!r}")
        if self.kind == "indicator":
            region = _make_region(self)
            if region.space_kind != self.space_kind:
                raise ValueError(f"region kind {self.set_kind!r} does not lie on the "
                                 f"{self.space_kind} space")
            indicator_fn(space, region)
        if self.kind in ("besov", "mz"):
            make_function(space, self.function, **self.fn_params)
        for N in self.n_list:
            _partition_size(space, N)
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.kind == "wce":
            check_exponents(_kernel(self), space.d, self.p)
        elif self.kind != "partition" and math.isinf(self.p):
            raise ValueError(f"p = inf is for wce experiments only, not {self.kind}")
        check_count("n_draws", self.n_draws, 2)
        for name in ("m_y", "m_z", "workers", "sample_budget"):
            check_count(name, getattr(self, name), 1)

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)


def _kernel(cfg: ExperimentConfig) -> KernelSpec:
    """The kernel of a wce experiment (``dim`` is 2 on the sphere)."""
    return KernelSpec(cfg.family, cfg.alpha, cfg.dim, cfg.eps, cfg.kappa)


def _partition_size(space: SpaceDescriptor, N: int) -> int:
    """The size argument (torus grid resolution, or N on the sphere) of the
    partition of ``space`` into N cells; ``ValueError`` if there is none."""
    if space.kind == TORUS:
        m = round(N ** (1.0 / space.d))
        if m ** space.d != N:
            raise ValueError(f"N={N} is not a d={space.d} grid size")
        return m
    if N < 2:
        raise ValueError(f"a sphere partition needs N >= 2 cells, got N={N}")
    return N


def build_partition(cfg: ExperimentConfig, N: int) -> Partition:
    space = make_space(cfg.space_kind, cfg.dim)
    build = torus_grid_partition if space.kind == TORUS else sphere_zonal_partition
    return build(space, _partition_size(space, N))


def _seed_for(cfg: ExperimentConfig, N: int) -> int:
    return rngmod.path_key(cfg.seed, N) & 0x7FFFFFFF


def _make_region(cfg: ExperimentConfig):
    """The region of an indicator experiment.  A ``set_params`` key that its
    kind does not read is an error, as in ``make_function``."""
    check_keys(f"region {cfg.set_kind!r}", cfg.set_params, _REGION_PARAMS[cfg.set_kind])
    if cfg.set_kind == "arc":
        return make_arc(cfg.set_params.get("start", 0.2),
                        cfg.set_params.get("length", 0.5))
    if cfg.set_kind == "box":
        return make_box(cfg.set_params.get("lo", (0.2,) * cfg.dim),
                        cfg.set_params.get("hi", (0.7,) * cfg.dim))
    return make_cap(cfg.set_params.get("center", (1.0, 1.0, 1.0)),
                    cfg.set_params.get("radius", 1.0))


def _row(cfg: ExperimentConfig, N: int, value: float, stderr: float,
         alpha="", eps="", kappa="", beta="") -> dict:
    return {
        "experiment": cfg.kind, "space": cfg.space_kind, "d": cfg.dim, "N": N,
        "alpha": alpha, "eps": eps, "kappa": kappa,
        "p": cfg.p, "q": cfg.q,
        "beta": beta, "value": value, "stderr": stderr, "seed": cfg.seed,
        "n_draws": cfg.n_draws, "m_y": cfg.m_y, "m_z": cfg.m_z,
    }


def _run_one(cfg: ExperimentConfig, N: int) -> dict:
    seed_n = _seed_for(cfg, N)
    part = build_partition(cfg, N)
    if cfg.kind == "partition":
        rep = verify_partition(part, cfg.sample_budget, seed=seed_n)
        row = _row(cfg, N, rep.delta_scaled[1], 0.0)
        row["_report"] = rep
        return row
    if cfg.kind == "wce":
        wcfg = WceConfig(part, _kernel(cfg), cfg.p, cfg.m_y, cfg.m_z, cfg.n_draws, seed=seed_n)
        st = estimate_AN(wcfg)
        return _row(cfg, N, st.moment, st.stderr,
                    alpha=cfg.alpha, eps=cfg.eps, kappa=cfg.kappa)
    if cfg.kind == "besov":
        f = make_function(part.space, cfg.function, **cfg.fn_params)
        st = estimate_BN(f, part, cfg.p, cfg.n_draws, seed_n)
        return _row(cfg, N, st.moment, st.stderr, alpha=cfg.fn_alpha)
    if cfg.kind == "indicator":
        setd = _make_region(cfg)
        f = indicator_fn(part.space, setd)
        st = estimate_BN(f, part, cfg.p, cfg.n_draws, seed_n)
        return _row(cfg, N, st.moment, st.stderr, beta=setd.beta)
    if cfg.kind == "mz":
        f = make_function(part.space, cfg.function, **cfg.fn_params)
        rep = mz_pair(f, part, cfg.p, cfg.n_draws, seed_n)
        row = _row(cfg, N, rep.ratio, rep.ratio_se)
        row["_report"] = rep
        return row
    # sharpness
    f = sharpness_fn(part, 0 if cfg.variant == "single" else None)
    st = estimate_BN(f, part, cfg.p, cfg.n_draws, seed_n)
    return _row(cfg, N, st.moment, st.stderr, alpha=cfg.fn_alpha)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """Execute the per-N pipeline on ``cfg.workers`` threads and summarize.

    N values are scheduled largest first, so the costliest N runs beside the
    smaller ones instead of after them; rows come back in ascending N.

    Returns (rows, summary); writes ``<out>.csv`` and ``<out>.json`` when an
    output path is configured, each as a new file (``_write_new``): a file
    or symlink already there is replaced, not written through.
    """
    ns = sorted(cfg.n_list, reverse=True)
    rows = run_indexed(len(ns), lambda: lambda i: _run_one(cfg, ns[i]), cfg.workers)[::-1]
    summary = _summarize(cfg, rows)
    clean = [{k: v for k, v in r.items() if not k.startswith("_")} for r in rows]
    if cfg.out:
        write_csv(Path(str(cfg.out) + ".csv"), clean)
        _write_new(Path(str(cfg.out) + ".json"),
                   to_json(summary, sort_keys=True, indent=1, default=_json_default))
    return clean, summary


def _summarize(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    summary: dict = {"experiment": cfg.kind, "space": cfg.space_kind,
                     "d": cfg.dim, "p": cfg.p, "seed": cfg.seed,
                     "n_list": list(sorted(cfg.n_list))}
    if cfg.kind == "partition":
        reports = [r["_report"] for r in rows]
        hi = max(r.delta_scaled[1] for r in reports)
        lo = min(r.delta_scaled[1] for r in reports)
        summary.update({
            "exactness_ok": all(r.equal_measure_ok for r in reports),
            "coverage_ok": all(r.coverage_ok for r in reports),
            "diameter_ok": all(r.diameter_ok for r in reports),
            "delta_scaled_range_ratio": hi / lo,
            "verdict": (all(r.ok for r in reports) and hi / lo <= 4.0),
        })
        return summary
    if cfg.kind == "mz":
        reports = [r["_report"] for r in rows]
        ratios = [r.ratio for r in reports if not r.degenerate]
        # every N degenerate: no ratio, so no envelope, no p = 2 check, a NaN
        # stability and a failed verdict
        p2_ok = all(abs(r.ratio - 1.0) <= 3.0 * r.ratio_se
                    for r in reports if not r.degenerate) if cfg.p == 2.0 and ratios else None
        stability = (max(ratios) / min(ratios)) if ratios else math.nan
        verdict = stability <= 2.0 and (p2_ok is None or p2_ok)
        summary.update({"envelope": [min(ratios), max(ratios)] if ratios else None,
                        "envelope_label": "empirical, not certified",
                        "p2_identity_ok": p2_ok,
                        "stability_ratio": stability, "verdict": verdict,
                        "rows": [{"p": cfg.p, "N": row["N"], "middle": rep.middle,
                                  "bracket": rep.bracket, "ratio": rep.ratio,
                                  "se": rep.ratio_se}
                                 for row, rep in zip(rows, reports)]})
        return summary
    if cfg.kind == "sharpness" and cfg.variant == "single":
        scaled = [r["value"] * r["N"] for r in rows]
        # a draw set that never met the bump gives a zero: no ratio, a failed verdict
        ratio = max(scaled) / min(scaled) if min(scaled) > 0 else None
        summary.update({"scaled_values": scaled, "interval_ratio": ratio,
                        "verdict": ratio is not None and ratio <= 2.0})
        return summary
    # rate experiments
    predicted, note = _predicted(cfg)
    summary.update(fit_verdict([(r["N"], r["value"], r["stderr"]) for r in rows],
                               predicted, SLOPE_TOL, cfg.seed), predicted_exponent=predicted)
    if note:  # after a degenerate fit's note, whose failed verdict stands
        summary["note"] = f"{summary['note']}; {note}" if "note" in summary else note
    return summary


def fit_verdict(points, predicted: float | None, tol: float, seed: int) -> dict:
    """The rate fit of ``points`` (N, value, stderr) and its verdict
    |slope - predicted| <= tol (true when nothing is predicted).

    A value that is not finite and > 0 has no finite logarithm: the fit is
    null, a note names its N, and the verdict is false.
    """
    bad = [n for n, v, _ in points if not 0 < v < math.inf]
    if bad:
        return {"slope": None, "intercept": None, "r2": None, "slope_ci": None,
                "verdict": False,
                "note": ("no rate fit: value not finite and > 0 at N = "
                         + ", ".join(f"{n:g}" for n in bad))}
    fit = rate_fit(points, seed=seed)
    return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
            "slope_ci": list(fit.slope_ci),
            "verdict": predicted is None or abs(fit.slope - predicted) <= tol}


def _predicted(cfg: ExperimentConfig) -> tuple[float | None, str]:
    if cfg.kind == "wce":
        regime = regime_classify(_kernel(cfg))
        pred = predicted_wce_exponent(regime, cfg.alpha, cfg.eps, cfg.dim)
        note = ("critical regime: rate carries a (log N)^(1/2) factor, "
                "no slope verdict") if regime == "critical" else ""
        return pred, note
    if cfg.kind == "besov":
        return predicted_bn_exponent(cfg.p, cfg.fn_alpha, cfg.dim), ""
    if cfg.kind == "indicator":
        return predicted_indicator_exponent(_make_region(cfg).beta, cfg.dim), ""
    if cfg.kind == "sharpness":
        return -0.5, ""
    return None, ""


def write_csv(path: Path, rows: list[dict]) -> None:
    # str of a float is its shortest round-trip repr
    lines = [",".join(CSV_FIELDS)] + [",".join(str(r[k]) for k in CSV_FIELDS) for r in rows]
    _write_new(path, "\n".join(lines) + "\n")


def _write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as a new file, removing what is there first:
    truncating a file in place took 20-75 ms on ext4 mounted with ``discard``."""
    path.unlink(missing_ok=True)
    path.write_text(text)


def to_json(obj, **kw) -> str:
    """``obj`` as JSON text (RFC 8259), with non-finite floats written as null.

    Dumps with ``allow_nan=False``, so a non-finite value that escapes the
    conversion (one made by a ``default`` hook) raises instead of being
    written as a bare ``NaN`` or ``Infinity`` token.  ``kw`` goes to
    ``json.dumps``.
    """
    return json.dumps(_finite(obj), allow_nan=False, **kw)


def _finite(obj):
    if isinstance(obj, (float, np.floating)):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")
