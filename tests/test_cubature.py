import ast
import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
from stream_runs import StreamRun
from test_funcs import constant_cases

from stratcub import cubature
from stratcub import mz as mzmod
from stratcub import partition
from stratcub import rng as rngmod
from stratcub.besov import PhiGradient, poincare_check, scale_floor
from stratcub.cubature import draw_nodes, estimate_BN, jackknife, jackknife_power_mean
from stratcub.funcs import (cone_bump_fn, constant_fn, coordinate_fn, cos_fn,
                            indicator_fn, make_function, square_wave_fn,
                            zonal_monomial_fn)
from stratcub.mz import M_CELL, mz_pair
from stratcub.kernel import RIESZ, KernelSpec
from stratcub.partition import (cell_contains, cell_points, sphere_zonal_partition,
                                stream_points, torus_grid_partition, verify_partition)
from stratcub.sets import make_arc, make_box, make_cap
from stratcub.space import L2_BLOCK, SPHERE2, TORUS, make_space
from stratcub.wce import WceConfig, lower_hypothesis_probe

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
S2 = make_space(SPHERE2)


def test_draw_nodes_containment_and_determinism():
    part = torus_grid_partition(T1, 4)
    nodes = draw_nodes(part, seed=7)
    assert nodes.shape == (part.N, 1)
    assert np.all(cell_contains(part, np.arange(part.N), nodes))
    assert np.array_equal(nodes, draw_nodes(part, seed=7))
    assert not np.array_equal(nodes, draw_nodes(part, seed=7, index=1))


def test_draw_nodes_uniform_within_cell():
    part = torus_grid_partition(T1, 4)
    xs = np.array([draw_nodes(part, seed=1, index=k)[0, 0] for k in range(1000)])
    se = (0.25 / math.sqrt(12)) / math.sqrt(len(xs))
    assert abs(xs.mean() - 0.125) < 3 * se


def test_estimate_bn_constant_is_zero():
    part = torus_grid_partition(T1, 4)
    for p in (1.0, 2.0, 4.0):
        st = estimate_BN(constant_fn(T1, 3.3), part, p, 50, seed=1)
        assert st.moment == pytest.approx(0.0, abs=1e-13)


def test_estimate_bn_coordinate_closed_form():
    # variance additivity: E|E|^2 = sum_j w_j^2 Var_j(x) = N^(-3)/12
    part = torus_grid_partition(T1, 4)
    st = estimate_BN(coordinate_fn(T1), part, 2.0, 4000, seed=5)
    exact = 12.0 ** -0.5 * 4.0 ** -1.5
    assert exact == pytest.approx(0.036084391824351615)
    assert abs(st.moment - exact) <= 3 * st.stderr


def test_estimate_bn_aligned_indicator_is_zero():
    # arc boundary on cell edges: the indicator is constant per cell
    part = torus_grid_partition(T1, 4)
    ind = indicator_fn(T1, make_arc(0.0, 0.5))
    st = estimate_BN(ind, part, 2.0, 100, seed=2)
    assert st.moment == pytest.approx(0.0, abs=1e-14)


def test_estimate_bn_moment_monotone_in_p():
    part = torus_grid_partition(T1, 8)
    f = coordinate_fn(T1)
    vals = [estimate_BN(f, part, p, 2000, seed=9).moment for p in (1.0, 2.0, 4.0)]
    assert vals[0] <= vals[1] * (1 + 1e-9)
    assert vals[1] <= vals[2] * (1 + 1e-9)


def test_estimate_bn_stderr_scaling():
    part = torus_grid_partition(T1, 8)
    f = cone_bump_fn(T1, (0.4,), 0.3)
    s1 = estimate_BN(f, part, 2.0, 500, seed=4)
    s2 = estimate_BN(f, part, 2.0, 2000, seed=4)
    # jackknife se shrinks roughly like n^(-1/2)
    assert s2.stderr < s1.stderr
    assert s2.stderr * math.sqrt(2000 / 500) == pytest.approx(s1.stderr, rel=0.6)


def test_jackknife_power_mean_matches_direct():
    rng = rngmod.substream(0, 99)
    u = rng.random(200) ** 2
    val, se = jackknife_power_mean(u, 0.5)
    assert val == pytest.approx(u.mean() ** 0.5, rel=1e-12)
    assert se > 0


def test_jackknife_ratio_matches_inline_formula():
    rng = rngmod.substream(1, 99)
    for K, p in ((2, 1.0), (7, 4.0), (400, 7.3)):
        power = 1.0 / p
        mid = rng.random(K) ** 3 * 1e-9
        brk = rng.random(K) * 1e4
        # leave-one-out jackknife of a ratio of power means, written out
        tm, tb = mid.sum(), brk.sum()
        theta = (tm / K) ** power / (tb / K) ** power
        loo = ((tm - mid) / (K - 1)) ** power / ((tb - brk) / (K - 1)) ** power
        se = math.sqrt((K - 1) / K * float(np.sum((loo - loo.mean()) ** 2)))
        got = jackknife(lambda m, b: m ** power / b ** power, mid, brk)
        assert got == (theta, se)


def _block_width(part, f) -> int:
    """The larger of a draw's values (N) and its mapped node coordinates
    (the cells without a constant, times dim): a block holds at most
    L2_BLOCK // 8 of either, over its draws."""
    mapped = part.N if f.cell_constants is None else np.isnan(f.cell_constants(part)).sum()
    return max(part.N, int(mapped) * part.anchor.shape[1])


def _block_draws(part, f) -> int:
    """Draws per block of the batched draw loops; used here only to choose
    draw counts that end mid-block."""
    return max(1, L2_BLOCK // (8 * _block_width(part, f)))


@pytest.mark.parametrize("part", [torus_grid_partition(T1, 7), torus_grid_partition(T2, 3),
                                  sphere_zonal_partition(S2, 33)], ids=["T1", "T2", "S2"])
def test_stream_points_rows_are_draw_nodes(part):
    # row i holds the nodes of draw 3 + i: run 3 + i of the stream, mapped
    # one draw at a time
    table = stream_points(part, 4, rngmod.MZ, first=3, count=5)
    assert table.shape == (5, part.N, 1, part.anchor.shape[1])
    for i in range(5):
        assert np.array_equal(table[i, :, 0],
                              cell_points(part, StreamRun(4, rngmod.MZ, k=3 + i), 1)[:, 0])


def _per_draw_values(f, part, seed, n_draws, stream):
    """f at each draw's nodes, one draw at a time: run k of the stream
    ``(seed, stream)``, one node per cell from ``cell_points``."""
    return [f.evaluate(cell_points(part, StreamRun(seed, stream, k=k), 1)[:, 0])
            for k in range(n_draws)]


def _batched_cases():
    box2 = make_box((0.2, 0.35), (0.7, 0.6))
    cases = []
    for m in (1, 16, 512, 2048, 8192):  # N = 8192: one draw a block
        part = torus_grid_partition(T1, m)
        fs = [cone_bump_fn(T1, (0.4,), 0.3), coordinate_fn(T1), square_wave_fn(T1, 3),
              indicator_fn(T1, make_arc(0.2, 0.5))]
        cases += [(f"T1-N{m}-{f.fid}", part, f) for f in fs]
    for m in (1, 4, 23, 45, 64):  # N = 1, 16, 529, 2025, 4096 (one draw a block)
        part = torus_grid_partition(T2, m)
        fs = [make_function(T2, "cone"), coordinate_fn(T2, 1), indicator_fn(T2, box2)]
        if m > 1:
            fs.append(cos_fn(T2, (1, 3)))
        cases += [(f"T2-N{m * m}-{f.fid}", part, f) for f in fs]
    for n in (16, 512, 2048):
        part = sphere_zonal_partition(S2, n)
        fs = [make_function(S2, "cone"), zonal_monomial_fn(S2, 3),
              indicator_fn(S2, make_cap((1.0, 1.0, 1.0), 1.0)),
              indicator_fn(S2, make_cap((0.0, 0.0, -1.0), 2.0))]
        cases += [(f"S2-N{n}-{f.fid}", part, f) for f in fs]
    return cases


@pytest.mark.parametrize("part,f", [c[1:] for c in _batched_cases()],
                         ids=[c[0] for c in _batched_cases()])
def test_batched_draws_match_per_draw_loop(part, f):
    """estimate_BN and mz_pair equal (==) a loop over draws that reads one
    run of the stream, samples one node per cell and evaluates f per draw.  The draw
    counts end inside a block, after one or more full blocks, except where a
    block holds one draw (T^1 N = 8192, T^2 N = 4096, S^2 N = 2048, except
    the T^2 box and the S^2 caps, whose constant cells fit two and four draws
    a block); at N = 1 the blocks hold 8192 (T^1) or 4096 (T^2) draws, so
    only one case there, the cone on T^2, spans two."""
    K = _block_draws(part, f)
    n_draws = 2 * K + 3 if K <= 512 else 13
    if part.N == 1 and part.space.d == 2 and f.fid == "cone":
        n_draws = K + 3
    seed = 11
    w = part.weights()
    values = _per_draw_values(f, part, seed, n_draws, rngmod.NODES)
    errors = np.array([w @ v - f.exact_integral for v in values])
    for p in (1.0, 2.0, 4.0):
        st = estimate_BN(f, part, p, n_draws, seed)
        assert (st.moment, st.stderr) == jackknife_power_mean(np.abs(errors) ** p, 1.0 / p)
    if f.cell_means is None:
        return
    means = f.cell_means(part)
    cs = [w * (v - means) for v in _per_draw_values(f, part, seed, n_draws, rngmod.MZ)]
    for p in (1.0, 2.0, 4.0):
        power = 1.0 / p
        mid = np.array([abs(c.sum()) ** p for c in cs])
        brk = np.array([float(c @ c) ** (p / 2.0) for c in cs])
        rep = mz_pair(f, part, p, n_draws, seed)
        assert (rep.middle, rep.middle_se) == jackknife_power_mean(mid, power)
        assert (rep.bracket, rep.bracket_se) == jackknife_power_mean(brk, power)
        if rep.degenerate:
            assert math.isnan(rep.ratio)
        else:
            ratio = jackknife(lambda a, b: a ** power / b ** power, mid, brk)
            assert (rep.ratio, rep.ratio_se) == ratio


@pytest.mark.parametrize("part,f", [c[1:] for c in constant_cases()],
                         ids=[c[0] for c in constant_cases()])
def test_constant_cells_do_not_move_the_estimates(part, f):
    """estimate_BN and mz_pair give the same bytes with and without
    ``cell_constants`` (which leaves every node mapped and evaluated), over
    a draw count that spans two blocks."""
    n_draws = _block_draws(part, f) + 3
    results = [repr((estimate_BN(g, part, 3.0, n_draws, seed=2),
                     mz_pair(g, part, 3.0, n_draws, seed=2)))
               for g in (f, dataclasses.replace(f, cell_constants=None))]
    assert results[0] == results[1]


def test_batched_draws_single_cell_cos_rounding():
    """At N = 1 a draw's nodes are one row, which numpy's matmul takes
    through a dot kernel; a block of rows goes through the matrix-vector
    kernel that every N >= 2 uses.  cos on T^2 with a frequency that is not
    a power of two rounds its phase in that product, so the batched
    estimate matches the per-draw loop only to rounding there."""
    part, f, n_draws, seed = torus_grid_partition(T2, 1), cos_fn(T2, (1, 3)), 300, 1
    errors = np.array([float(v[0]) - f.exact_integral
                       for v in _per_draw_values(f, part, seed, n_draws, rngmod.NODES)])
    st = estimate_BN(f, part, 2.0, n_draws, seed)
    moment, stderr = jackknife_power_mean(errors ** 2, 0.5)
    assert st.moment == pytest.approx(moment, rel=1e-14)
    assert st.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("part,f,monte_carlo", [
    (torus_grid_partition(T1, 16), coordinate_fn(T1), False),
    (torus_grid_partition(T2, 5), cone_bump_fn(T2, (0.3, 0.6), 0.4), True),
    (sphere_zonal_partition(S2, 12), zonal_monomial_fn(S2, 3), False),
    (sphere_zonal_partition(S2, 12), indicator_fn(S2, make_cap((1.0, 1.0, 1.0), 1.0)), True),
], ids=["T1-closed-form", "T2-monte-carlo", "S2-closed-form", "S2-monte-carlo"])
def test_fixed_function_draws_do_not_depend_on_block_size(part, f, monte_carlo, monkeypatch):
    """estimate_BN and mz_pair give the same bytes whether a block holds 1,
    3 or all draws, and 1, 3 or all cells of the Monte Carlo cell means:
    each draw and cell reads its own run of the stream."""
    assert (f.cell_means is None) == monte_carlo
    n_draws, dim = 11, part.anchor.shape[1]
    results = set()
    for draws, cells in ((1, 1), (3, 3), (n_draws, part.N)):
        monkeypatch.setattr(cubature, "L2_BLOCK", 8 * _block_width(part, f) * draws)
        monkeypatch.setattr(mzmod, "L2_BLOCK", M_CELL * dim * cells)
        st = estimate_BN(f, part, 3.0, n_draws, seed=5)
        rep = mz_pair(f, part, 3.0, n_draws, seed=5)
        results.add(repr((st, rep)))  # repr round-trips every float
    assert len(results) == 1


PART8 = torus_grid_partition(T1, 8)
# public count arguments given a float, a bool or too small a count: each
# call used to run on a truncated count, die inside numpy or raise a
# misleading error
BAD_COUNTS = {
    "verify-float-budget": ("sample_budget", lambda: verify_partition(PART8, 100.5)),
    "verify-bool-budget": ("sample_budget", lambda: verify_partition(PART8, True)),
    "verify-float-pairs": ("pairs_per_cell",
                           lambda: verify_partition(PART8, 100, pairs_per_cell=2.5)),
    "estimate_BN-float-draws": ("n_draws",
                                lambda: estimate_BN(coordinate_fn(T1), PART8, 2.0, 4.0, 0)),
    "mz_pair-float-draws": ("n_draws", lambda: mz_pair(coordinate_fn(T1), PART8, 2.0, 4.0, 0)),
    "mz_pair-one-draw": ("n_draws", lambda: mz_pair(coordinate_fn(T1), PART8, 2.0, 1, 0)),
    "poincare-float-budget": ("budget", lambda: poincare_check(
        PART8, 2, coordinate_fn(T1), PhiGradient(1.0, scale_floor(T1), lambda n, x: x[:, 0]),
        p=2.0, n=3, budget=100.7)),
    "probe-no-pairs": ("n_pairs", lambda: lower_hypothesis_probe(
        WceConfig(torus_grid_partition(T1, 32), KernelSpec(RIESZ, alpha=0.75, d=1), p=2.0,
                  n_draws=4), 0)),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_public_counts_are_checked(case):
    name, call = BAD_COUNTS[case]
    with pytest.raises(ValueError, match=name):
        call()


def test_cpus_counts_the_affinity_set_else_every_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert cubature._cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert cubature._cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cubature._cpus() == 1


def test_threads_start_only_in_run_indexed():
    # one thread runner in the package: no other code starts threads or
    # reads the CPU count, so the outermost run_indexed owns the threads
    watched = {"ThreadPoolExecutor", "Thread", "_cpus"}
    uses = []
    for path in sorted(Path(cubature.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):  # an import, possibly renamed
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                if name in watched:
                    uses.append((path.name, owner, name))
    assert sorted(uses, key=str) == sorted([
        ("cubature.py", None, "ThreadPoolExecutor"),  # the import
        ("cubature.py", "run_indexed", "ThreadPoolExecutor"),
        ("cubature.py", "run_indexed", "_cpus"),
    ], key=str)


def _annotations(tree):
    """The nodes inside the type annotations of ``tree``."""
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                yield from ast.walk(ann)


def test_random_numbers_only_in_rng():
    # every random number comes from a stream keyed by (seed, path): no
    # module but rng names np.random, except to annotate a parameter
    uses = []
    for path in sorted(Path(cubature.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        annotation = {id(node) for node in _annotations(tree)}
        for node in ast.walk(tree):
            if id(node) in annotation:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "random":
                named = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.Import):
                named = any(a.name.startswith("numpy.random") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                named = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names))
            else:
                continue
            if named:
                uses.append((path.name, node.lineno))
    assert {name for name, _ in uses} == {"rng.py"}


def test_cell_rules_read_no_space_kind():
    # the chart box [lo, hi) is the one cell format: membership, the cell
    # maps, recomputed measures and verification hold no per-space branch
    generic = {"cell_contains", "cell_points", "stream_points", "geometric_cell_measures",
               "verify_partition"}
    reads = {}
    for top in ast.parse(Path(partition.__file__).read_text()).body:
        if isinstance(top, ast.FunctionDef) and top.name in generic:
            reads[top.name] = [node.lineno for node in ast.walk(top)
                               if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == {name: [] for name in generic}
