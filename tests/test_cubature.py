import math

import numpy as np
import pytest

from stratcub import rng as rngmod
from stratcub.cubature import (NodeDraw, cubature_error, draw_nodes,
                               estimate_BN, jackknife, jackknife_power_mean)
from stratcub.funcs import (cone_bump_fn, constant_fn, coordinate_fn,
                            indicator_fn)
from stratcub.partition import cell_contains, torus_grid_partition
from stratcub.sets import make_arc
from stratcub.space import TORUS, make_space

T1 = make_space(TORUS, 1)


def test_draw_nodes_containment_and_determinism():
    part = torus_grid_partition(T1, 4)
    draw = draw_nodes(part, seed=7)
    assert np.all(cell_contains(part, np.arange(part.N), draw.nodes))
    again = draw_nodes(part, seed=7)
    assert np.array_equal(draw.nodes, again.nodes)
    other = draw_nodes(part, seed=7, index=1)
    assert not np.array_equal(draw.nodes, other.nodes)


def test_draw_nodes_uniform_within_cell():
    part = torus_grid_partition(T1, 4)
    xs = np.array([draw_nodes(part, seed=1, index=k).nodes[0, 0] for k in range(1000)])
    se = (0.25 / math.sqrt(12)) / math.sqrt(len(xs))
    assert abs(xs.mean() - 0.125) < 3 * se


def test_cubature_error_examples():
    part = torus_grid_partition(T1, 2)
    ones = constant_fn(T1, 1.0)
    draw = NodeDraw(seed=0, index=0, nodes=np.array([[0.25], [0.75]]))
    assert cubature_error(ones, draw, part) == 0.0
    ind = indicator_fn(T1, make_arc(0.0, 0.3))
    assert cubature_error(ind, draw, part) == pytest.approx(0.2)
    # midpoint nodes integrate the coordinate function exactly
    coord = coordinate_fn(T1)
    assert cubature_error(coord, draw, part) == pytest.approx(0.0, abs=1e-15)


def test_cubature_error_linearity():
    part = torus_grid_partition(T1, 8)
    draw = draw_nodes(part, seed=3)
    f = coordinate_fn(T1)
    g = cone_bump_fn(T1, (0.3,), 0.2)
    from stratcub.funcs import TestFunction
    comb = TestFunction(
        fid="comb", space=T1,
        evaluate=lambda pts: 2.0 * f.evaluate(pts) - 3.0 * g.evaluate(pts),
        exact_integral=2.0 * f.exact_integral - 3.0 * g.exact_integral)
    lhs = cubature_error(comb, draw, part)
    rhs = 2.0 * cubature_error(f, draw, part) - 3.0 * cubature_error(g, draw, part)
    assert lhs == pytest.approx(rhs, abs=1e-14)


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
