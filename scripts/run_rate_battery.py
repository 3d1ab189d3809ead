#!/usr/bin/env python3
"""Run the full convergence-rate battery and write CSV/JSON per experiment.

Reproduces the headline measurements: worst-case-error rates in the sub and
saturated regimes, fixed-function rates for the Lipschitz cone and for
indicator functions on both spaces, and the sharpness constructions.

    python scripts/run_rate_battery.py --out results/ [--fast] [--seed 7]
"""

import argparse
import dataclasses
from pathlib import Path

from stratcub.cli import run_battery
from stratcub.experiments import ExperimentConfig


def battery(seed: int, fast: bool) -> list[ExperimentConfig]:
    draws = 60 if fast else 200
    bn_draws = 120 if fast else 400
    n1 = (16, 32, 64, 128, 256, 512)
    n2 = (16, 64, 256, 1024)
    return [
        ExperimentConfig(kind="wce", space_kind="torus", dim=1, n_list=n1,
                         family="riesz", alpha=0.75, p=2.0, n_draws=draws,
                         m_y=384, m_z=8, seed=seed),
        ExperimentConfig(kind="wce", space_kind="torus", dim=2, n_list=n2,
                         family="riesz", alpha=1.0, p=4.0, n_draws=draws // 2 + 10,
                         m_y=128, m_z=16, seed=seed),
        ExperimentConfig(kind="wce", space_kind="torus", dim=1, n_list=n1,
                         family="rough_riesz", alpha=0.9, eps=0.25, kappa=1.0,
                         p=2.0, n_draws=draws, m_y=192, m_z=8, seed=seed),
        ExperimentConfig(kind="besov", space_kind="torus", dim=1, n_list=n1,
                         function="cone", fn_params={"radius": 0.25},
                         fn_alpha=1.0, p=2.0, n_draws=bn_draws, seed=seed),
        ExperimentConfig(kind="indicator", space_kind="torus", dim=1, n_list=n1,
                         set_kind="arc", set_params={"start": 0.2, "length": 0.5},
                         p=2.0, n_draws=bn_draws, seed=seed),
        ExperimentConfig(kind="indicator", space_kind="sphere2", dim=2, n_list=n1,
                         set_kind="cap", set_params={"center": (1, 1, 1), "radius": 1.0},
                         p=2.0, n_draws=bn_draws, seed=seed),
        ExperimentConfig(kind="sharpness", variant="sum", space_kind="torus",
                         dim=1, n_list=n1, fn_alpha=1.0, p=4.0,
                         n_draws=bn_draws, seed=seed),
        ExperimentConfig(kind="sharpness", variant="single", space_kind="torus",
                         dim=1, n_list=n1, fn_alpha=1.0, p=2.0,
                         n_draws=bn_draws, seed=seed),
        ExperimentConfig(kind="mz", space_kind="torus", dim=1,
                         n_list=(8, 16, 32, 64, 128, 256, 512),
                         function="coordinate", p=2.0, n_draws=bn_draws * 2,
                         seed=seed),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=str, default="results")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--fast", action="store_true", help="reduced budgets")
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_battery([
        dataclasses.replace(cfg, workers=args.workers, out=str(
            out_dir / f"{i:02d}_{cfg.kind}_{cfg.space_kind}{cfg.dim}_{cfg.family}_p{cfg.p}"))
        for i, cfg in enumerate(battery(args.seed, args.fast))])


if __name__ == "__main__":
    raise SystemExit(main())
