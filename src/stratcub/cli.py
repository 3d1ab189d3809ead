"""Command line interface.

Subcommands mirror the experiment kinds (partition, wce, besov, mz,
indicator, sharpness) plus ``rates`` (refit an existing CSV) and ``verify``
(a fast self-check battery).  Every experiment writes ``<out>.csv`` and
``<out>.json``; the exit code is nonzero iff any verdict fails.  Printed and
written JSON is strict: a non-finite value (an undefined ratio) is ``null``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

from .experiments import ExperimentConfig, fit_verdict, run_experiment, to_json


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file with ExperimentConfig fields (flags override)")
    sp.add_argument("--space", dest="space_kind", type=str, default=None,
                    choices=["torus", "sphere2"])
    sp.add_argument("--dim", type=int, default=None, help="default: 2 on sphere2, 1 on the torus")
    sp.add_argument("--n", dest="n_list", type=int, nargs="+", default=None, help="N grid")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--family", type=str, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--draws", dest="n_draws", type=int, default=None)
    sp.add_argument("--my", dest="m_y", type=int, default=None)
    sp.add_argument("--mz", dest="m_z", type=int, default=None)
    sp.add_argument("--fn", dest="function", type=str, default=None, help="test function id")
    sp.add_argument("--fn-alpha", type=float, default=None)
    sp.add_argument("--set", dest="set_kind", type=str, default=None,
                    choices=["arc", "box", "cap"])
    sp.add_argument("--variant", type=str, default=None, choices=["single", "sum"])
    sp.add_argument("--budget", dest="sample_budget", type=int, default=None,
                    help="partition sample budget")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None,
                    help="threads across the N values (the experiment's whole thread budget)")
    sp.add_argument("--out", type=str, default=None, help="output path stem")


def _read_config(path: str) -> dict:
    """The ``ExperimentConfig`` fields in the JSON file ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object, "
                         f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"config file {path}: unknown field(s) {', '.join(unknown)}")
    return doc


def _config_from_args(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {"kind": kind}
    if args.config:
        fields.update(_read_config(args.config))
        fields["kind"] = kind
    # each flag's dest is the name of the field it sets
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    fields.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    return ExperimentConfig(**fields)


def _run_kind(kind: str, args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_args(kind, args)
    except (TypeError, ValueError) as exc:  # TypeError: a field of the wrong type
        raise SystemExit(f"stratcub: {exc}")
    rows, summary = run_experiment(cfg)
    print(to_json(summary, sort_keys=True, default=str, indent=1))
    return 0 if summary.get("verdict", True) else 1


def _read_points(path: str) -> list[tuple[float, float, float]]:
    """(N, value, stderr) per row of an experiment CSV; a file that cannot
    be read or parsed exits with a one-line message."""
    try:
        with open(path, newline="") as fh:
            return [(float(r["N"]), float(r["value"]), float(r["stderr"]))
                    for r in csv.DictReader(fh)]
    except OSError as exc:
        raise SystemExit(f"stratcub: cannot read CSV file {path}: {exc.strerror or exc}")
    except KeyError as exc:
        raise SystemExit(f"stratcub: CSV file {path} has no column {exc}")
    except (TypeError, ValueError) as exc:  # TypeError: a short row
        raise SystemExit(f"stratcub: CSV file {path}: {exc}")


def _cmd_rates(args: argparse.Namespace) -> int:
    points = _read_points(args.csv)
    try:
        result = fit_verdict(points, args.expected, args.tol, args.seed or 0)
    except ValueError as exc:  # too few rows
        raise SystemExit(f"stratcub: CSV file {args.csv}: {exc}")
    ok = result.pop("verdict")  # false on a null fit, with or without --expected
    if args.expected is not None:
        result["expected"] = args.expected
        result["verdict"] = ok
    print(to_json(result, sort_keys=True, indent=1))
    return 0 if ok else 1


def run_battery(configs) -> int:
    """Run each config and print one strict-JSON line per run: its verdict,
    slope and predicted exponent or its ratio, the ``out`` stem and the wall
    time (printed only, never written to a file).  Ends with the failed
    runs or ``all checks passed``; returns the exit code."""
    failures = []
    for cfg in configs:
        t0 = time.perf_counter()
        rows, summary = run_experiment(cfg)
        line = {k: summary[k] for k in ("experiment", "verdict", "slope", "predicted_exponent",
                                        "interval_ratio", "stability_ratio") if k in summary}
        line["out"] = cfg.out
        line["elapsed_s"] = round(time.perf_counter() - t0, 3)
        print(to_json(line, sort_keys=True, default=str))
        if not summary.get("verdict", True):
            failures.append(cfg.out or cfg.kind)
    if failures:
        print(f"FAILED: {failures}")
        return 1
    print("all checks passed")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Fast end-to-end battery: partition exactness, the p = 2 moment
    identity, and the sub-regime worst-case-error slope at reduced budgets."""
    seed = args.seed if args.seed is not None else 0
    out = args.out
    return run_battery([
        ExperimentConfig(kind="partition", space_kind="torus", dim=1,
                         n_list=(16, 64, 256), sample_budget=20_000, seed=seed,
                         out=(out + "_partition" if out else None)),
        ExperimentConfig(kind="mz", space_kind="torus", dim=1,
                         n_list=(8, 16, 32, 64), function="coordinate", p=2.0,
                         n_draws=800, seed=seed,
                         out=(out + "_mz" if out else None)),
        ExperimentConfig(kind="wce", space_kind="torus", dim=1,
                         n_list=(16, 32, 64, 128), family="riesz", alpha=0.75,
                         p=2.0, n_draws=100, m_y=256, m_z=8, seed=seed,
                         out=(out + "_wce" if out else None)),
    ])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratcub",
        description="Stratified random cubature experiments on T^d and S^2")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ("partition", "wce", "besov", "mz", "indicator", "sharpness"):
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        _add_common(sp)
    sp = sub.add_parser("rates", help="refit slopes from an experiment CSV")
    sp.add_argument("--csv", type=str, required=True)
    sp.add_argument("--expected", type=float, default=None)
    sp.add_argument("--tol", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp = sub.add_parser("verify", help="fast self-check battery")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "rates":
        return _cmd_rates(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _run_kind(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
