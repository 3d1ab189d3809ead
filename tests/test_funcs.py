import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratcub import partition as partmod
from stratcub import rng as rngmod
from stratcub.besov import sharpness_fn
from stratcub.funcs import (cone_bump_fn, constant_fn, coordinate_fn, cos_fn,
                            indicator_fn, make_function, square_wave_fn,
                            zonal_monomial_fn, _arc_integral)
from stratcub.partition import (cell_points, cell_sample, sphere_zonal_partition,
                                torus_grid_partition)
from stratcub.sets import make_arc, make_box, make_cap, set_contains
from stratcub.space import SPHERE2, TORUS, make_space, sample_uniform

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
S2 = make_space(SPHERE2)


def _registry():
    return [
        constant_fn(T1, 2.5),
        coordinate_fn(T1),
        coordinate_fn(T2, axis=1),
        square_wave_fn(T1, 2),
        cos_fn(T1, (3,)),
        cos_fn(T2, (1, 2)),
        cone_bump_fn(T1, (0.5,), 0.25),
        cone_bump_fn(T2, (0.3, 0.6), 0.2),
        cone_bump_fn(S2, (0.0, 0.0, 1.0), 1.0),
        indicator_fn(T1, make_arc(0.2, 0.5)),
        indicator_fn(T2, make_box((0.1, 0.2), (0.6, 0.9))),
        indicator_fn(S2, make_cap((1.0, 1.0, 1.0), 1.0)),
        zonal_monomial_fn(S2, 2),
        zonal_monomial_fn(S2, 1),
    ]


@pytest.mark.parametrize("f", _registry(), ids=lambda f: f.fid + str(f.params)[:24])
def test_exact_integral_self_test(f):
    """Reference integrals agree with a high-budget Monte Carlo estimate."""
    rng = rngmod.substream(0, rngmod.SELFTEST, sum(map(ord, f.fid)) % 1000)
    pts = sample_uniform(f.space, rng, 200_000)
    vals = f.evaluate(pts)
    mc = vals.mean() * f.space.total_measure
    se = vals.std(ddof=1) / math.sqrt(len(vals)) * f.space.total_measure
    assert abs(mc - f.exact_integral) <= 4 * max(se, 1e-12)


@pytest.mark.parametrize("f,part", [
    (coordinate_fn(T1), torus_grid_partition(T1, 8)),
    (square_wave_fn(T1, 2), torus_grid_partition(T1, 4)),
    (cos_fn(T1, (3,)), torus_grid_partition(T1, 8)),
    (cos_fn(T2, (1, 2)), torus_grid_partition(T2, 4)),
    (cone_bump_fn(T1, (0.5,), 0.25), torus_grid_partition(T1, 8)),
    (indicator_fn(T1, make_arc(0.2, 0.5)), torus_grid_partition(T1, 8)),
    (indicator_fn(T2, make_box((0.1, 0.2), (0.6, 0.9))), torus_grid_partition(T2, 4)),
    (indicator_fn(S2, make_cap((0.0, 0.0, 1.0), 1.0)), sphere_zonal_partition(S2, 16)),
    pytest.param(indicator_fn(S2, make_cap((0.0, 0.0, -1.0), 2.0)),
                 sphere_zonal_partition(S2, 16), id="indicator_sphere_cap_south-N=16"),
    (zonal_monomial_fn(S2, 3), sphere_zonal_partition(S2, 16)),
], ids=lambda v: getattr(v, "fid", None) or f"N={v.N}")
def test_cell_means_match_sampling(f, part):
    means = f.cell_means(part)
    assert means.shape == (part.N,)
    for j in range(0, part.N, max(1, part.N // 5)):
        pts = cell_sample(part, j, rngmod.substream(1, j), 40_000)
        vals = f.evaluate(pts)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - means[j]) <= 4 * max(se, 1e-12)


def _closed_form_cases():
    """Every closed-form function with the partitions it is summed over."""
    t1 = [constant_fn(T1, 2.5), coordinate_fn(T1), square_wave_fn(T1, 1),
          square_wave_fn(T1, 2), square_wave_fn(T1, 3), cos_fn(T1, (3,)), cos_fn(T1, (0,)),
          cone_bump_fn(T1, (0.1,), 0.25), cone_bump_fn(T1, (0.5,), 0.5),
          cone_bump_fn(T1, (0.93,), 0.07), indicator_fn(T1, make_arc(0.7, 0.6)),
          indicator_fn(T1, make_arc(0.2, 0.5)), indicator_fn(T1, make_box((0.1,), (0.65,)))]
    t2 = [constant_fn(T2, -1.0), coordinate_fn(T2), coordinate_fn(T2, axis=1),
          cos_fn(T2, (1, 2)), cos_fn(T2, (0, 3)),
          indicator_fn(T2, make_box((0.1, 0.2), (0.6, 0.9)))]
    s2 = [constant_fn(S2, 3.0), zonal_monomial_fn(S2, 0), zonal_monomial_fn(S2, 1),
          zonal_monomial_fn(S2, 2), zonal_monomial_fn(S2, 3),
          indicator_fn(S2, make_cap((0.0, 0.0, 1.0), 1.0)),
          indicator_fn(S2, make_cap((0.0, 0.0, -1.0), 2.0))]
    for m in (1, 7, 512):
        yield from ((f, torus_grid_partition(T1, m)) for f in t1)
    for m in (1, 4, 16):
        yield from ((f, torus_grid_partition(T2, m)) for f in t2)
    for n in (2, 33, 2048):
        yield from ((f, sphere_zonal_partition(S2, n)) for f in s2)


def test_cell_means_sum_to_integral():
    for f, part in _closed_form_cases():
        total = float(part.weights() @ f.cell_means(part))
        assert total == pytest.approx(f.exact_integral, abs=1e-12), (f.fid, f.params, part.N)


def test_cone_bump_values():
    f = cone_bump_fn(T1, (0.5,), 0.25)
    assert f.evaluate(np.array([[0.5]]))[0] == 1.0
    assert f.evaluate(np.array([[0.75]]))[0] == 0.0
    assert f.evaluate(np.array([[0.375]]))[0] == pytest.approx(0.5)
    assert f.lipschitz == 4.0


def test_besov_norm_certificate_is_valid_bound():
    # |f(x) - f(y)| <= t^alpha * (g + g) with g = (L/2)^alpha S^(1-alpha)
    f = cone_bump_fn(T1, (0.5,), 0.25)
    rng = rngmod.substream(2, rngmod.SELFTEST)
    x = sample_uniform(T1, rng, 20_000)
    y = sample_uniform(T1, rng, 20_000)
    t = np.abs(x - y)
    t = np.minimum(t, 1 - t).ravel()
    fx, fy = f.evaluate(x), f.evaluate(y)
    for alpha in (0.5, 1.0):
        g = (f.lipschitz / 2.0) ** alpha * f.sup_bound ** (1 - alpha)
        mask = t > 0
        assert np.all(np.abs(fx - fy)[mask] <= t[mask] ** alpha * 2 * g + 1e-12)
        assert f.besov_norm(alpha, 2.0) == pytest.approx(g)


def test_square_wave_values_and_alignment():
    f = square_wave_fn(T1, 2)
    assert f.evaluate(np.array([[0.1]]))[0] == 1.0
    assert f.evaluate(np.array([[0.3]]))[0] == -1.0
    part = torus_grid_partition(T1, 2)
    assert f.cell_means(part)[0] == pytest.approx(0.0)


@pytest.mark.parametrize("k", [0, -2, 1.5])
def test_square_wave_needs_positive_integer_frequency(k):
    # k = 0 would be f == 1 with exact integral 0; k = -2 has true cell means 0
    with pytest.raises(ValueError, match="positive integer"):
        square_wave_fn(T1, k)


@given(st.floats(0, 1, exclude_max=True), st.floats(0.01, 0.99),
       st.floats(0, 1, exclude_max=True), st.floats(0.01, 0.99))
@settings(derandomize=True, max_examples=200)
def test_interval_overlap_properties(s, l1, a, l2):
    # measure of the arc [s, s + l1) inside the interval [a, a + l2]
    ov = float(_arc_integral(s, l1, a, a + l2))
    assert -1e-12 <= ov <= min(l1, l2) + 1e-12
    # reference: overlaps with the arc's copies on the line
    ref = sum(max(0.0, min(s + n + l1, a + l2) - max(s + n, a)) for n in (-1, 0, 1))
    assert ov == pytest.approx(ref, abs=1e-12)
    # symmetric under swapping the arc and the interval
    assert ov == pytest.approx(float(_arc_integral(a, l2, s, s + l1)), abs=1e-12)


def test_make_function_registry():
    f = make_function(T1, "cone", radius=0.1)
    assert f.params["radius"] == 0.1
    with pytest.raises(ValueError):
        make_function(T1, "nonesuch")
    with pytest.raises(ValueError, match="unknown parameter 'axsi'"):
        make_function(T1, "coordinate", axsi=1)
    with pytest.raises(ValueError, match="unknown parameter 'k' for function 'cone'; "
                                         "it takes center, radius"):
        make_function(T1, "cone", radius=0.1, k=2)
    with pytest.raises(ValueError):
        coordinate_fn(S2)
    with pytest.raises(ValueError):
        square_wave_fn(T2, 2)
    for space, axis in ((T1, 1), (T2, 2), (T2, -1)):
        with pytest.raises(ValueError, match="coordinate axis"):
            coordinate_fn(space, axis)


# the closed forms that do not exist: the cone off T^1 and caps off the poles
MC_FALLBACK = {("cone", "torus", 2), ("cone", "sphere2", 2), ("indicator_sphere_cap", "off-pole")}


def test_every_function_has_cell_means_or_is_a_named_fallback():
    for space in (T1, T2, S2):
        for fid in ("constant", "coordinate", "square_wave", "cos", "cone", "zonal"):
            try:
                f = make_function(space, fid)
            except ValueError:  # the function does not live on this space
                continue
            assert (f.cell_means is not None) != ((fid, space.kind, space.d) in MC_FALLBACK)
    regions = [(T1, make_arc(0.2, 0.5), None), (T1, make_box((0.1,), (0.6,)), None),
               (T2, make_box((0.1, 0.2), (0.6, 0.9)), None),
               (S2, make_cap((0.0, 0.0, 1.0), 1.0), None),
               (S2, make_cap((0.0, 0.0, -1.0), 1.0), None),
               (S2, make_cap((1.0, 1.0, 1.0), 1.0), "off-pole")]
    for space, setd, where in regions:
        f = indicator_fn(space, setd)
        assert (f.cell_means is not None) != ((f.fid, where) in MC_FALLBACK)


def test_a_wrapping_arc_is_the_union_of_two_boxes():
    arc = make_arc(0.8, 0.5)
    right, left = make_box((0.8,), (1.0,)), make_box((0.0,), (0.3,))
    pts = sample_uniform(T1, rngmod.substream(9, rngmod.SELFTEST), 100_000)
    assert np.array_equal(set_contains(arc, pts),
                          set_contains(right, pts) | set_contains(left, pts))
    # the cell integrals (mean / m) agree to rounding; a cell mean divides it
    # by the cell's length, so the means are up to 3.6e-15 apart at m = 64
    for m in (1, 7, 64):
        part = torus_grid_partition(T1, m)
        means = [indicator_fn(T1, s).cell_means(part) for s in (arc, right, left)]
        assert np.allclose(means[0] / m, (means[1] + means[2]) / m, rtol=0.0, atol=1e-16)


def test_box_dimension_must_match_the_torus():
    with pytest.raises(ValueError, match="box has 1 coordinates"):
        indicator_fn(T2, make_box((0.2,), (0.7,)))
    with pytest.raises(ValueError, match="box has 2 coordinates"):
        indicator_fn(T1, make_box((0.1, 0.2), (0.6, 0.9)))


@pytest.mark.parametrize("f", [cos_fn(T2, (3, 5)), cos_fn(make_space(TORUS, 3), (1, -2, 7)),
                               indicator_fn(S2, make_cap((1.0, -2.0, 0.5), 1.1))],
                         ids=["cos-T2", "cos-T3", "cap-S2"])
def test_value_at_a_point_does_not_depend_on_its_batch(f):
    # a matrix product rounds one row through a dot kernel and a block of
    # rows through gemv, so f's values must not come from one
    pts = sample_uniform(f.space, rngmod.substream(8, rngmod.SELFTEST, 8), 20_000)
    batch = f.evaluate(pts)
    rows = range(0, len(pts), 10)
    assert np.array_equal([f.evaluate(pts[i])[0] for i in rows], batch[rows])


def constant_cases():
    """(id, partition, f) for functions with constant cells: every kind
    that carries ``cell_constants``, each with some cells constant and some
    not."""
    t1, t2, s2 = torus_grid_partition(T1, 16), torus_grid_partition(T2, 8), \
        sphere_zonal_partition(S2, 64)
    return [
        ("T1-arc-wraps", t1, indicator_fn(T1, make_arc(0.8, 0.45))),
        ("T1-arc-on-edges", torus_grid_partition(T1, 8), indicator_fn(T1, make_arc(0.25, 0.5))),
        ("T2-box", t2, indicator_fn(T2, make_box((0.2, 0.35), (0.7, 0.6)))),
        ("T2-box-on-edges", t2, indicator_fn(T2, make_box((0.25, 0.5), (0.75, 0.875)))),
        ("S2-cap-off-pole", s2, indicator_fn(S2, make_cap((1.0, 1.0, 1.0), 1.0))),
        ("S2-cap-pole", s2, indicator_fn(S2, make_cap((0.0, 0.0, 1.0), 1.0))),
        ("S2-cap-south-pole", s2, indicator_fn(S2, make_cap((0.0, 0.0, -1.0), 2.0))),
        # a centre 1e-7 from the pole, inside the arccos rounding of a height
        ("S2-cap-near-pole", s2, indicator_fn(S2, make_cap((1e-7, 0.0, 1.0), 1.0))),
        # a centre 2e-9 from the pole and an edge within 3e-8 of a band edge:
        # with a margin of 1e-9, four cells would be marked constant where a
        # corner evaluates otherwise
        ("S2-cap-near-pole-band-edge", s2, indicator_fn(
            S2, make_cap((-3.878092846189935e-10, -2.141582695388597e-09, 1.0),
                         2.0236129230610818))),
        ("T2-sharpness-one-cell", t2, sharpness_fn(t2, 9)),
        ("S2-sharpness-one-cell", s2, sharpness_fn(s2, 0)),
    ]


@pytest.mark.parametrize("part,f", [c[1:] for c in constant_cases()],
                         ids=[c[0] for c in constant_cases()])
def test_cell_constants_are_what_evaluate_gives(part, f):
    """A cell marked constant takes its constant at sampled points and at
    its corners (its closure's extreme points), so every cell where f takes
    two values is left NaN."""
    const = f.cell_constants(part)
    assert const.shape == (part.N,)
    fixed = ~np.isnan(const)
    assert fixed.any() and not fixed.all()
    k = part.lo.shape[1]
    corners = partmod._cell_map(part, np.indices((2,) * k).reshape(k, -1), slice(None))
    pts = np.concatenate([cell_points(part, rngmod.substream(3, rngmod.SELFTEST), 512),
                          corners], axis=1)
    values = f.evaluate(pts.reshape(-1, pts.shape[-1])).reshape(part.N, -1)
    assert np.array_equal(values[fixed], np.broadcast_to(const[fixed, None], values[fixed].shape))


def test_constant_function_is_constant_everywhere():
    part = sphere_zonal_partition(S2, 32)
    assert np.array_equal(constant_fn(S2, 2.5).cell_constants(part), np.full(32, 2.5))
    assert coordinate_fn(T1).cell_constants is None
    assert sharpness_fn(part).cell_constants is None


def test_cells_that_a_boundary_touches_are_not_constant():
    """Cells whose closure meets the region's boundary stay NaN, even when
    the boundary runs exactly along their edges."""
    nan = math.nan
    # the arc [1/4, 3/4) on eight cells of 1/8: cells 1, 2, 5 and 6 touch its ends
    f = indicator_fn(T1, make_arc(0.25, 0.5))
    assert np.array_equal(f.cell_constants(torus_grid_partition(T1, 8)),
                          [0.0, nan, nan, 1.0, 1.0, nan, nan, 0.0], equal_nan=True)
    # a box on grid edges: a cell is constant exactly when it is not on the boundary
    part = torus_grid_partition(T2, 8)
    lo, hi = np.array([0.25, 0.5]), np.array([0.75, 0.875])
    got = indicator_fn(T2, make_box(lo, hi)).cell_constants(part)
    inner = np.all((part.lo > lo) & (part.hi < hi), axis=1)
    apart = np.any((part.hi < lo) | (part.lo > hi), axis=1)
    assert np.array_equal(got, np.where(inner, 1.0, np.where(apart, 0.0, nan)), equal_nan=True)
    # caps about either pole whose edge is a band edge: the bands on both
    # sides of it stay NaN, the others are constant
    part = sphere_zonal_partition(S2, 64)
    bands = part.meta["bands"]
    for b in (1, 2, 3):
        z_edge = bands[b][0]
        for sign in (1.0, -1.0):
            cap = make_cap((0.0, 0.0, sign), math.acos(sign * z_edge))
            got = indicator_fn(S2, cap).cell_constants(part)
            z_top, z_bot = -part.lo[:, 0], -part.hi[:, 0]
            above, below = z_bot > z_edge, z_top < z_edge
            inside, outside = (above, below) if sign > 0 else (below, above)
            expect = np.where(inside, 1.0, np.where(outside, 0.0, nan))
            assert np.array_equal(got, expect, equal_nan=True)
            assert np.isnan(got).sum() == bands[b - 1][2] + bands[b][2]
