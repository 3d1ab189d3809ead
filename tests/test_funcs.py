import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratcub import rng as rngmod
from stratcub.funcs import (cone_bump_fn, constant_fn, coordinate_fn, cos_fn,
                            indicator_fn, make_function, square_wave_fn,
                            zonal_monomial_fn, _arc_integral)
from stratcub.partition import cell_sample, sphere_zonal_partition, torus_grid_partition
from stratcub.sets import make_arc, make_box, make_cap
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
