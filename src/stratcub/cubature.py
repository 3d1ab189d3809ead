"""Stratified node draws and the fixed-function error moment.

A draw places one uniform node in each cell.  For a draw ``x`` the error of
the equal-weight-per-cell rule is

    E(f) = sum_j omega_j f(x_j) - integral of f,

whose p-th moment over draws is the fixed-function error estimated by
``estimate_BN``.  ``draw_nodes`` gives draw k its own stream (seed,
stream, k), consumed in cell order: deterministic and parallel-safe across
draws, for callers with much work per draw (``wce``).

``estimate_BN`` and ``mz.mz_pair`` instead read draw k from run k of the
single stream (seed, tag), tag ``NODES`` or ``MZ``: uniforms ``[k u, (k +
1) u)``, u = N d on the torus laid out (N, 1, d), u = 2 N on the sphere laid
out (2, N, 1), one row per axis of the cells' (-z, longitude) chart boxes:
the -z row, then the longitude row.  Philox is a keyed
function of its counter, so disjoint runs are as independent as separate
streams.  ``value_blocks`` takes a block of draws with one
``partition.stream_points`` call (one ``rng.window`` and one cell map) and
evaluates the function on its nodes in one call.  A cell on which the
function is constant (``TestFunction.cell_constants``) adds exactly zero to
every draw's error; its runs are still read, so the layout does not move,
but its nodes are not mapped or evaluated, and its value is the constant.
A block holds at most ``L2_BLOCK // 8`` values (64 KB) and maps at most
``L2_BLOCK // 8`` node coordinates, so a function with many constant cells
fits more draws in a block, and pays each block's fixed cost fewer times,
while its mapped temporaries keep the same bound.  Each block is then
reduced row-wise (``np.vecdot``, a row sum), with no Python loop over its
draws; a row-wise dot rounds as that draw's own ``w @ v`` does.

``run_indexed`` is the one thread runner of the package: ``wce`` runs the
draws of A_N and Delta through it, and ``experiments.run_experiment`` its N
values.  The fixed-function estimators and ``partition.verify_partition``
stay on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .funcs import TestFunction
from .partition import Partition, cell_points, check_count, stream_points
from .space import L2_BLOCK

# set on a thread while it runs tasks of run_indexed, so nested calls run inline
_in_task = threading.local()


@dataclass
class ErrorStats:
    p: float
    n_draws: int
    moment: float
    stderr: float


def draw_nodes(partition: Partition, seed: int, index: int = 0,
               stream: int = rngmod.NODES) -> np.ndarray:
    """One independent uniform node per cell, deterministic in (seed, index):
    (N, dim), row j in cell j."""
    return sample_all_cells(partition, rngmod.substream(seed, stream, index), 1)[:, 0, :]


def value_blocks(f: TestFunction, partition: Partition, seed: int, n_draws: int,
                 stream: int = rngmod.NODES):
    """Yield ``(k0, values)`` over draws 0 .. n_draws - 1 in blocks: row i of
    ``values`` (K, N) is ``f`` at the nodes of draw k0 + i, one per cell,
    which run k0 + i of the stream ``(seed, stream)`` places (see the module
    docstring).  A block holds at most ``L2_BLOCK // 8`` values and at most
    ``L2_BLOCK // 8`` mapped node coordinates (at least one draw), read with
    one ``stream_points`` call.  Cells where ``f`` is constant
    (``f.cell_constants``) take their constant, which is what ``f.evaluate``
    gives there; only the other cells' nodes are mapped and evaluated, in
    one call.  So the values do not depend on the block size."""
    N, dim = partition.anchor.shape
    const = np.full(N, math.nan) if f.cell_constants is None else f.cell_constants(partition)
    todo = np.flatnonzero(np.isnan(const))
    keep = None if len(todo) == N else todo
    if keep is not None:
        fixed = np.flatnonzero(~np.isnan(const))
        # the columns [mapped cells, constant cells] taken back to cell order
        order = np.argsort(np.concatenate([todo, fixed]))
    K = max(1, L2_BLOCK // (8 * max(N, len(todo) * dim)))
    for k0 in range(0, n_draws, K):
        count = min(n_draws - k0, K)
        nodes = stream_points(partition, seed, stream, first=k0, count=count, keep=keep)
        values = f.evaluate(nodes.reshape(-1, dim)).reshape(count, len(todo))
        if keep is not None:
            values = np.concatenate([values, np.broadcast_to(const[fixed], (count, len(fixed)))],
                                    axis=1).take(order, axis=1)
        yield k0, values


def sample_all_cells(partition: Partition, rng: np.random.Generator,
                     m: int) -> np.ndarray:
    """m uniform samples from every cell at once; shape (N, m, dim).

    Cells are consumed in id order from a single stream, which keeps the
    result independent of how callers split the work.
    """
    return cell_points(partition, rng, m)


def estimate_BN(f: TestFunction, partition: Partition, p: float, n_draws: int,
                seed: int) -> ErrorStats:
    """{mean over draws of |E(f)|^p}^{1/p} with a jackknife standard error.

    Draw k's nodes are run k of the stream ``(seed, NODES)``, one node per
    cell, taken and evaluated a block of draws at a time (``value_blocks``).
    """
    check_moment(p, n_draws)
    w = partition.weights()
    errors = np.empty(n_draws)
    for k0, values in value_blocks(f, partition, seed, n_draws):
        # row-wise dots, each rounding as w @ v does; a matrix-vector
        # product need not
        errors[k0:k0 + len(values)] = np.vecdot(values, w) - f.exact_integral
    moment, stderr = jackknife_power_mean(np.abs(errors) ** p, 1.0 / p)
    return ErrorStats(p=p, n_draws=n_draws, moment=moment, stderr=stderr)


def check_moment(p: float, n_draws: int) -> None:
    """Raise ``ValueError`` unless 1 <= p < inf and n_draws >= 2 (two jackknife draws)."""
    if not 1 <= p < math.inf:
        raise ValueError(f"moment exponent p must be finite and >= 1, got {p}")
    check_count("n_draws", n_draws, 2)


def jackknife_power_mean(u: np.ndarray, power: float) -> tuple[float, float]:
    """(mean u)^power with a leave-one-out jackknife standard error.

    Slightly negative means (possible for signed product estimators) are
    clamped to zero before the fractional power.
    """
    return jackknife(lambda m: np.maximum(m, 0.0) ** power, u)


def jackknife(stat: Callable[..., np.ndarray],
              *columns: np.ndarray) -> tuple[float, float]:
    """``stat`` of the column means, with a leave-one-out jackknife standard
    error over draws (Efron & Tibshirani, *An Introduction to the
    Bootstrap*, ch. 11).

    Each column holds one per-draw value per draw, or one row of values per
    draw (K, n); ``stat`` takes one mean per column and must accept arrays
    of leave-one-out means as well, one per draw along the first axis.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    K = len(cols[0])
    totals = [c.sum(axis=0) for c in cols]
    theta = stat(*(t / K for t in totals))
    loo = stat(*((t - c) / (K - 1) for t, c in zip(totals, cols)))
    se = np.sqrt((K - 1) / K * np.sum((loo - loo.mean()) ** 2))
    return float(theta), float(se)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_indexed(n: int, make_task: Callable[[], Callable[[int], object]],
                workers: int | None = None) -> list:
    """``[task(k) for k in range(n)]`` on W = min(workers or ``_cpus()``, n)
    threads, each with a ``task = make_task()`` (and buffers) of its own,
    taking the next index from a shared counter while the caller waits.
    W = 1, or a call from inside a task, runs inline: the outermost call owns
    the threads.  The first error in a task, or a Ctrl-C while the caller
    waits, stops every thread before its next index and is raised once all
    have stopped."""
    W = min(workers or _cpus(), n)
    nested = getattr(_in_task, "active", False)
    results = [None] * n
    indices = iter(range(n))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        _in_task.active = True
        try:
            task = make_task()
            while True:
                with lock:
                    k = n if stop.is_set() else next(indices, n)
                if k == n:
                    return
                results[k] = task(k)
        except BaseException:
            stop.set()
            raise
        finally:
            _in_task.active = nested

    if W <= 1 or nested:
        work()
        return results
    with ThreadPoolExecutor(max_workers=W, thread_name_prefix="stratcub") as pool:
        try:
            with lock:  # no index is taken before every thread is started
                pending = [pool.submit(work) for _ in range(W)]
            # a Ctrl-C that lands just before a wait blocks is only handled
            # when the wait returns, so no wait lasts longer than 0.1 s
            while pending:
                done, pending = wait(pending, timeout=0.1, return_when=FIRST_EXCEPTION)
                for f in done:
                    f.result()  # raises a task's error
        except BaseException:  # an error in a task, or Ctrl-C while waiting
            stop.set()
            raise
    return results
