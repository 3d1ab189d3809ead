#!/usr/bin/env python3
"""Print a full worst-case-error report for one configuration.

Shows the draw-averaged worst-case error, its two-sided square-function
bracket, the per-cell upper functional, and the regime classification, e.g.

    python scripts/run_wce_report.py --space torus --dim 1 --n 32 \
        --family rough_riesz --alpha 0.9 --eps 0.25 --kappa 1.0 --p 2
"""

import argparse

from stratcub.experiments import ExperimentConfig, build_partition
from stratcub.kernel import KernelSpec
from stratcub.wce import WceConfig, run_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--space", default="torus")
    ap.add_argument("--dim", type=int, default=None,
                    help="space dimension (default: 2 on sphere2, 1 on the torus)")
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--family", default="riesz")
    ap.add_argument("--alpha", type=float, default=0.75)
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--kappa", type=float, default=0.0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--draws", type=int, default=150)
    ap.add_argument("--my", type=int, default=512)
    ap.add_argument("--mz", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        part = build_partition(ExperimentConfig(kind="partition", space_kind=args.space,
                                                dim=args.dim, n_list=(args.n,)), args.n)
        kern = KernelSpec(args.family, args.alpha, part.space.d, args.eps, args.kappa)
        cfg = WceConfig(part, kern, args.p, m_y=args.my, m_z=args.mz,
                        n_draws=args.draws, seed=args.seed)
        rep = run_report(cfg)
    except ValueError as exc:  # a bad config raises from its constructor, before any draw
        raise SystemExit(str(exc))
    print(f"config: {rep.config_label}")
    print(f"regime: {rep.regime}")
    print(f"worst-case error (draw q-mean): {rep.a_n.moment:.6g} +- {rep.a_n.stderr:.2g}")
    print(f"square-function bracket:        {rep.delta.moment:.6g} +- {rep.delta.stderr:.2g}")
    print(f"per-cell upper functional:      {rep.gamma.moment:.6g} +- {rep.gamma.stderr:.2g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
