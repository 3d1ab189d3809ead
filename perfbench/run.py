"""stratcub benchmark: one workload per invocation, result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of that
root and nowhere else, so a directory without the sources makes the command
fail before any run.

The command first times ``SETUP_REPEATS`` set-up-only child processes
(interpreter start, imports, partition construction, warm-up); ``setup_s``
is their median.  It then runs the workload in a child process of its own,
with BLAS and OpenMP threads limited so that workers x BLAS threads <= nproc.
The child loops over workload iterations until ``--seconds`` have passed and
at least the workload's ``stat_iters`` iterations are done, runs the first
iteration's inputs once more, and checks the outputs (see ``workloads``).

With ``--trace 0`` it reports the end-to-end metrics: ``wall_ref``, the
median over iterations of the iteration's wall time divided by the mean time
of a fixed reference loop run just before and after it (see ``Reference``);
``setup_s``; and ``peak_rss_mb`` of the workload process.  With ``--trace 1``
each iteration runs twice on the same inputs, untraced and traced
(alternating which goes first), and the per-layer metrics come from the
traced runs (see ``tracing``).  Before the result line it prints the run's
environment, the SHA-256 of each experiment's output for the first
iteration, and the pooled statistics, with raw wall times; the same record
is written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package():
    """Import stratcub from this checkout's sources, or exit non-zero."""
    if not (SRC / "stratcub" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'stratcub'}")
    sys.path.insert(0, str(SRC))
    import stratcub
    if Path(stratcub.__file__).resolve().parent != (SRC / "stratcub").resolve():
        sys.exit(f"perfbench: stratcub imported from {stratcub.__file__}, not {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def _environment(workers: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {"nproc": _nproc(), "workers": workers,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "caches": _cache_sizes(), "machine": platform.machine()}


def _cache_sizes() -> dict:
    """Cache sizes in bytes as glibc reports them (``getconf``)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


class Reference:
    """A fixed numpy and Python computation, timed between workload
    iterations.  The machine's speed drifts by +-20% over tens of seconds
    (other tenants share the host), and the drift slows this loop and the
    workload alike, so wall time divided by the neighbouring reference times
    varies about half as much across runs as wall time does.  The loop mixes
    what the workloads spend time on: a transcendental and multiply-add chain
    over a large array, a broadcast distance table, and many small calls."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.x = rng.random(1 << 17)
        self.a = rng.random((256, 2))
        self.b = rng.random((128, 2))
        self.small = [rng.random(16) for _ in range(640)]

    def seconds(self) -> float:
        import numpy as np
        t0 = time.perf_counter()
        for _ in range(3):
            c = np.cos(2.0 * np.pi * self.x)
            acc = c.copy()
            for _ in range(10):
                c = 2.0 * c * c - 1.0
                acc += 0.8 * c
            acc += self.x ** -0.5
            d = np.abs(self.a[:, None, :] - self.b[None, :, :])
            np.minimum(d, 1.0 - d).max(axis=-1)
            for v in self.small:
                float(np.minimum(v, 0.5).sum())
        return time.perf_counter() - t0


def _run_iteration(w, seed: int, i: int, out_dir: Path):
    import workloads
    try:
        return w.run(workloads.derive_seed(seed, i), out_dir)
    except Exception:  # an exception is a failed check, not a crashed run
        traceback.print_exc()
        return None


def _child(args) -> dict:
    import workloads
    from tracing import Tracer, layer_metrics

    w = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    w.warmup(w, out_dir)
    if args.role == "setup":
        return {}

    tracer = Tracer() if args.trace else None
    reference = Reference()
    ref_before = reference.seconds()
    refs = []  # mean reference time around each completed iteration
    done, traced_walls, plain_walls = [], [], []
    repeats = []  # outputs of the same inputs run twice are byte-identical
    failures = 0
    start = time.perf_counter()
    i = 0
    while i < w.stat_iters or time.perf_counter() - start < args.seconds:
        if tracer is None:
            it = _run_iteration(w, args.seed, i, out_dir)
        else:
            # same inputs untraced and traced; the order alternates
            tracer.counting = i < w.stat_iters
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    pair[traced] = _run_iteration(w, args.seed, i, out_dir)
                finally:
                    elapsed = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                (traced_walls if traced else plain_walls).append(elapsed)
            it = pair[False] if pair[True] is not None else None
            if it is not None:
                repeats.append(pair[True].digests == it.digests)
        ref_after = reference.seconds()
        if it is None:
            failures += 1
        else:
            done.append((i, it))
            refs.append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
        i += 1

    if tracer is None and done and done[0][0] == 0:
        again = _run_iteration(w, args.seed, 0, out_dir)
        repeats.append(again is not None and again.digests == done[0][1].digests)
    iters = [it for _, it in done]
    stat = [it for k, it in done if k < w.stat_iters]
    checks = [ok for it in iters for _, ok in it.checks] + repeats
    verdicts = workloads.pooled_verdicts(stat) if stat else []
    if w.gated_verdicts:
        checks += [ok for _, ok, _ in verdicts]
    attempted = len(checks) + failures
    failed = checks.count(False) + failures
    reported = [ok for it in iters for _, ok in it.reported]
    info = {
        "iterations": i, "failed_iterations": failures,
        "failed_frac": failed / max(1, attempted),
        "failed_checks": sorted({name for it in iters for name, ok in it.checks if not ok}),
        "repeats_identical": f"{sum(repeats)}/{len(repeats)}",
        "reported_checks_failed": f"{reported.count(False)}/{len(reported)}",
        "verdicts": {n: {"ok": ok, "gated": w.gated_verdicts, **d} for n, ok, d in verdicts},
        "time_to_1pct_s": workloads.time_to_1pct(iters, stat) if stat else None,
        "walls_s": [it.wall for it in iters],
        "reference_s": refs,
    }
    result = {
        "attempted": attempted, "failed": failed, "info": info,
        "digests": done[0][1].digests if done and done[0][0] == 0 else {},
        "env": _environment(w.workers),
    }
    if tracer is None:
        result["metrics"] = {
            "wall_ref": (statistics.median(it.wall / r for it, r in zip(iters, refs))
                         if iters else None, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return result
    n_traced = len(traced_walls)
    overhead = sum(traced_walls) / sum(plain_walls) - 1.0
    result["metrics"] = layer_metrics(tracer.reduce(n_traced), overhead,
                                      info["time_to_1pct_s"])
    return result


def child_main(args) -> int:
    _import_package()
    result = _child(args)
    print(json.dumps(result, default=str))
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _spawn(args, role: str, env: dict, timeout: float) -> tuple[float, str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(args.out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return elapsed, proc.stdout


def parent_main(args) -> int:
    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    args.out_dir = ROOT / ".bench_build" / "perfbench" / f"{w.name}-s{args.seed}-t{args.trace}"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    threads = str(max(1, _nproc() // w.workers))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{k: threads for k in BLAS_VARS})

    setups = [_spawn(args, "setup", env, 60.0)[0] for _ in range(SETUP_REPEATS)]
    remaining = CHILD_TIMEOUT_S - (time.perf_counter() - started)
    _, out = _spawn(args, "worker", env, remaining)
    child = json.loads(out.strip().splitlines()[-1])

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in child["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if any(m["value"] is None for m in metrics.values()):
        sys.exit("perfbench: no iteration completed")
    env_rec = dict(child["env"], git_describe=_git_describe())
    record = {"workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_runs_s": setups, "env": env_rec,
              "output_sha256": child["digests"], "info": child["info"], "metrics": metrics}
    (args.out_dir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print("env " + json.dumps(env_rec, sort_keys=True))
    print("output_sha256 " + json.dumps(child["digests"], sort_keys=True))
    print("info " + json.dumps(child["info"], sort_keys=True))
    attempted, failed = child["attempted"], child["failed"]
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "setup", "worker"), default="parent",
                    help=argparse.SUPPRESS)
    ap.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "parent":
        return parent_main(args)
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
