"""Span tracing and work counters installed from outside the package.

The tracer wraps public stratcub functions in every stratcub module namespace
that binds them: modules import by name (``wce`` holds its own
``kernel_profile`` and ``pairwise_distance``), so patching only the defining
module would miss those calls.  Spans live in memory and are reduced to
per-layer metrics when the run ends.  Each thread keeps its own parent stack;
a span opened in a worker thread with nothing open on its own stack takes the
innermost open span of the main thread (``run_experiment``, blocked in its
thread pool) as its parent.

A span's self time is its duration minus the union of the intervals its
child spans cover.  Counters are sums of work sizes taken from the call
arguments (kernel evaluations, distance pairs, cell samples, draws), so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module.attr`` is traced under ``span``;
    ``count`` maps the call's (args, kwargs) to a work size, or is None."""

    module: str
    attr: str
    span: str
    count: Callable | None = None
    method_of: str | None = None  # class name when ``attr`` is a method


PROBES = (
    Probe("experiments", "run_experiment", "experiments.run_experiment",
          lambda a, k: _arg(a, k, 0, "cfg").workers),
    Probe("wce", "run_report", "wce.run_report", lambda a, k: 1),
    Probe("partition", "torus_grid_partition", "partition.build"),
    Probe("partition", "sphere_zonal_partition", "partition.build"),
    Probe("partition", "verify_partition", "partition.verify_partition",
          lambda a, k: _arg(a, k, 1, "sample_budget", 10_000)),
    Probe("partition", "cell_sample", "partition.cell_sample"),
    Probe("partition", "weights", "partition.weights", method_of="Partition"),
    Probe("kernel", "kernel_profile", "kernel.kernel_profile",
          lambda a, k: int(np.size(_arg(a, k, 1, "t")))),
    Probe("kernel", "rough_series", "kernel.rough_series",
          lambda a, k: int(np.size(_arg(a, k, 1, "t")))),
    Probe("space", "pairwise_distance", "space.pairwise_distance",
          lambda a, k: _rows(_arg(a, k, 1, "a")) * _rows(_arg(a, k, 2, "b"))),
    Probe("space", "distance", "space.distance"),
    Probe("space", "sample_uniform", "space.sample_uniform"),
    Probe("cubature", "sample_all_cells", "cubature.sample_all_cells",
          lambda a, k: _arg(a, k, 0, "partition").N * int(_arg(a, k, 2, "m"))),
    Probe("cubature", "estimate_BN", "cubature.estimate_BN",
          lambda a, k: int(_arg(a, k, 3, "n_draws"))),
    Probe("cubature", "jackknife_power_mean", "cubature.jackknife_power_mean"),
    Probe("mz", "mz_pair", "mz.mz_pair", lambda a, k: int(_arg(a, k, 3, "n_draws"))),
    Probe("wce", "estimate_AN", "wce.estimate_AN",
          lambda a, k: _arg(a, k, 0, "cfg").n_draws),
    Probe("wce", "delta_phi", "wce.delta_phi", lambda a, k: _arg(a, k, 0, "cfg").n_draws),
    Probe("wce", "gamma_phi", "wce.gamma_phi",
          lambda a, k: _arg(a, k, 0, "cfg").partition.N),
    Probe("rng", "substream", "rng.substream"),
    Probe("rates", "rate_fit", "rates.rate_fit"),
)

# spans whose direct children are the work of ``workers`` parallel callers
ORCHESTRATION = ("experiments.run_experiment", "wce.run_report")
DRAW_SPANS = ("wce.estimate_AN", "wce.delta_phi", "cubature.estimate_BN", "mz.mz_pair")


class Tracer:
    """Installs the probes, records spans and counts, and reduces them."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._buffers: list[list] = []
        self._local = threading.local()
        self.counting = True

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "stratcub" or name.startswith("stratcub."))]
        for probe in PROBES:
            home = sys.modules[f"stratcub.{probe.module}"]
            if probe.method_of:
                cls = getattr(home, probe.method_of)
                orig = cls.__dict__[probe.attr]
                self._patch(cls, probe.attr, self._wrap(orig, probe))
                continue
            orig = getattr(home, probe.attr)
            wrapper = self._wrap(orig, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, probe: Probe):
        name = probe.span
        count = probe.count
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if (tid != tracer._main and main) else -1
            sid = next(tracer._ids)
            work = count(args, kwargs) if count is not None else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._buffer().append((sid, parent, name, tid, t0, t1, work,
                                         tracer.counting))

        return traced

    def _buffer(self) -> list:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = []
            self._buffers.append(buf)  # list.append is atomic under the GIL
        return buf

    # -- reduction ----------------------------------------------------------

    def reduce(self, iterations: int) -> dict:
        """Per-layer totals over the traced run.

        Inclusive and self seconds per span name are averaged over
        ``iterations``; ``calls`` and ``work`` count only spans recorded while
        ``counting`` was on (a fixed set of inputs, so they repeat exactly);
        ``work_all`` counts every span, for rates such as ns per evaluation.
        Busy and capacity seconds come from the orchestration spans.
        """
        spans = sorted(itertools.chain.from_iterable(self._buffers))
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            if s[1] >= 0:
                children[s[1]].append(s)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        work_all = defaultdict(int)
        busy = 0.0
        capacity = 0.0
        for sid, _, name, _, t0, t1, w, counted in spans:
            kids = children.get(sid, ())
            dur = t1 - t0
            incl[name] += dur
            self_s[name] += dur - _covered([(c[4], c[5]) for c in kids], t0, t1)
            work_all[name] += w
            if counted:
                calls[name] += 1
                work[name] += w
            if name in ORCHESTRATION:
                by_thread = defaultdict(list)
                for c in kids:
                    by_thread[c[3]].append((c[4], c[5]))
                busy += sum(_covered(iv, t0, t1) for iv in by_thread.values())
                capacity += max(1, w) * dur
        k = max(1, iterations)
        return {
            "incl_s": {n: v / k for n, v in incl.items()},
            "self_s": {n: v / k for n, v in self_s.items()},
            "incl_total_s": dict(incl),
            "calls": dict(calls),
            "work": dict(work),
            "work_all": dict(work_all),
            "busy_s": busy / k,
            "capacity_s": capacity / k,
        }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(r: dict, overhead: float, t1pct: float | None) -> dict:
    """Per-layer metrics from a reduced trace.  Seconds are per workload
    iteration; counts cover the first ``stat_iters`` iterations; rates divide
    inclusive time by the work of all traced calls.  Layers that did not run
    read 0.

    Which end-to-end numbers each should move: ``kernel.rough_series`` only
    ``wce-t1-rough``; ``kernel.kernel_profile`` the three wce workloads (its
    evals should fall about m_z-fold on the torus with exact cell means and
    stay put on ``brackets-s2``); ``wce.estimate_AN.self_s`` (cell-distance
    tables and reductions) wall time and peak RSS on ``wce-t2-riesz``;
    ``wce.delta_phi``, ``wce.gamma_phi`` and ``rng.substream`` on
    ``brackets-s2``; ``partition.verify_partition`` only ``verify-fixed-fn``;
    ``cubature.*``, ``mz.*`` and the partition call counts mostly
    ``verify-fixed-fn``; ``experiments.busy_frac``/``idle_s`` only
    ``wce-t1-rough`` (the workers=2 split over N); ``space.*`` all four.
    """
    self_s, calls, work = r["self_s"], r["calls"], r["work"]

    def per(name, scale):
        n = r["work_all"].get(name, 0)
        return r["incl_total_s"].get(name, 0.0) / n * scale if n else 0.0

    return {
        "kernel.rough_series.self_s": (self_s.get("kernel.rough_series", 0.0), "s"),
        "kernel.rough_series.ns_per_eval": (per("kernel.rough_series", 1e9), "ns"),
        "kernel.kernel_profile.self_s": (self_s.get("kernel.kernel_profile", 0.0), "s"),
        "kernel.kernel_profile.evals": (work.get("kernel.kernel_profile", 0), "count"),
        "kernel.kernel_profile.ns_per_eval": (per("kernel.kernel_profile", 1e9), "ns"),
        "wce.estimate_AN.self_s": (self_s.get("wce.estimate_AN", 0.0), "s"),
        "wce.estimate_AN.ms_per_draw": (per("wce.estimate_AN", 1e3), "ms"),
        "wce.delta_phi.ms_per_draw": (per("wce.delta_phi", 1e3), "ms"),
        "wce.gamma_phi.self_s": (self_s.get("wce.gamma_phi", 0.0), "s"),
        "wce.gamma_phi.ms_per_cell": (per("wce.gamma_phi", 1e3), "ms"),
        "rng.substream.calls": (calls.get("rng.substream", 0), "count"),
        "rng.substream.self_s": (self_s.get("rng.substream", 0.0), "s"),
        "space.pairwise_distance.self_s": (self_s.get("space.pairwise_distance", 0.0), "s"),
        "space.pairwise_distance.pairs": (work.get("space.pairwise_distance", 0), "count"),
        "space.pairwise_distance.ns_per_pair": (per("space.pairwise_distance", 1e9), "ns"),
        "space.distance.calls": (calls.get("space.distance", 0), "count"),
        "space.sample_uniform.self_s": (self_s.get("space.sample_uniform", 0.0), "s"),
        "partition.verify_partition.self_s": (self_s.get("partition.verify_partition", 0.0), "s"),
        "partition.verify_partition.ns_per_point": (per("partition.verify_partition", 1e9), "ns"),
        "cubature.sample_all_cells.self_s": (self_s.get("cubature.sample_all_cells", 0.0), "s"),
        "cubature.sample_all_cells.samples": (work.get("cubature.sample_all_cells", 0), "count"),
        "cubature.sample_all_cells.ns_per_sample": (per("cubature.sample_all_cells", 1e9), "ns"),
        "partition.weights.calls": (calls.get("partition.weights", 0), "count"),
        "partition.cell_sample.calls": (calls.get("partition.cell_sample", 0), "count"),
        "cubature.estimate_BN.ms_per_draw": (per("cubature.estimate_BN", 1e3), "ms"),
        "mz.mz_pair.ms_per_draw": (per("mz.mz_pair", 1e3), "ms"),
        "cubature.jackknife_power_mean.self_s":
            (self_s.get("cubature.jackknife_power_mean", 0.0), "s"),
        "experiments.run_experiment.self_s":
            (self_s.get("experiments.run_experiment", 0.0), "s"),
        "experiments.busy_frac":
            (r["busy_s"] / r["capacity_s"] if r["capacity_s"] else 0.0, "frac"),
        "experiments.idle_s": (r["capacity_s"] - r["busy_s"], "s"),
        "experiments.draws": (sum(work.get(n, 0) for n in DRAW_SPANS), "count"),
        "rates.rate_fit.self_s": (self_s.get("rates.rate_fit", 0.0), "s"),
        "partition.build_s": (r["incl_s"].get("partition.build", 0.0), "s"),
        "stats.time_to_1pct_s": (t1pct if t1pct is not None else 0.0, "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
