import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ball_sampling import sample_ball
from stratcub import rng as rngmod
from stratcub.space import (L2_BLOCK, SPHERE2, TORUS, ball_measure, distance, make_space,
                            pairwise_distance, sample_uniform, torus1d_radial_integral)

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
S2 = make_space(SPHERE2)


def test_make_space_constants():
    assert T1.total_measure == 1.0
    assert S2.total_measure == pytest.approx(4 * math.pi, rel=1e-15)
    assert S2.d == 2


@pytest.mark.parametrize("kind,d", [(TORUS, 0), (SPHERE2, 3), ("plane", 2), (TORUS, 1.5),
                                    (TORUS, 2.0), (SPHERE2, 2.0)])
def test_make_space_rejects(kind, d):
    with pytest.raises(ValueError):
        make_space(kind, d)


def test_distance_examples():
    assert distance(T1, np.array([0.1]), np.array([0.9])) == pytest.approx(0.2)
    assert distance(T2, np.array([0.1, 0.2]), np.array([0.95, 0.25])) == pytest.approx(0.15)
    north = np.array([0.0, 0.0, 1.0])
    equator = np.array([1.0, 0.0, 0.0])
    assert distance(S2, north, equator) == pytest.approx(math.pi / 2)


@given(st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2))
@settings(derandomize=True, max_examples=200)
def test_torus_metric_properties(a, b, c):
    a, b, c = np.array(a), np.array(b), np.array(c)
    dab = distance(T2, a, b)
    assert dab == pytest.approx(distance(T2, b, a))
    assert dab <= T2.diameter + 1e-12
    assert dab <= distance(T2, a, c) + distance(T2, c, b) + 1e-12
    if np.all(a == b):
        assert dab == 0.0


def test_sphere_metric_properties():
    rng = rngmod.substream(0, rngmod.SELFTEST, 1)
    a = sample_uniform(S2, rng, 10_000)
    b = sample_uniform(S2, rng, 10_000)
    c = sample_uniform(S2, rng, 10_000)
    dab = distance(S2, a, b)
    assert np.allclose(dab, distance(S2, b, a))
    assert np.all(dab <= distance(S2, a, c) + distance(S2, c, b) + 1e-9)
    assert np.all(dab >= 0)


def test_ball_measure_examples():
    assert ball_measure(T2, None, 0.1) == pytest.approx(0.04)
    assert ball_measure(S2, None, math.pi / 2) == pytest.approx(2 * math.pi)
    assert ball_measure(T1, None, 0.7) == 1.0
    with pytest.raises(ValueError):
        ball_measure(T1, None, -0.1)


@pytest.mark.parametrize("space", [T1, T2, S2])
def test_ahlfors_sandwich(space):
    rng = rngmod.substream(1, rngmod.SELFTEST, 2)
    for _ in range(1000):
        r = rng.uniform(1e-6, space.diameter * (1 - 1e-9))
        m = ball_measure(space, sample_uniform(space, rng), r)
        assert space.ahlfors_H * r**space.d <= m * (1 + 1e-12)
        assert m <= space.ahlfors_K * r**space.d * (1 + 1e-12)


def test_sample_uniform_determinism():
    a = sample_uniform(T2, rngmod.substream(42, 7, 1))
    b = sample_uniform(T2, rngmod.substream(42, 7, 1))
    assert np.array_equal(a, b)
    c = sample_uniform(T2, rngmod.substream(42, 7, 2))
    assert not np.array_equal(a, c)


def test_sphere_sampling_symmetry():
    pts = sample_uniform(S2, rngmod.substream(3, rngmod.SELFTEST, 3), 100_000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    se = 1.0 / math.sqrt(3 * len(pts))  # std of z is 1/sqrt(3)
    assert abs(pts[:, 2].mean()) < 3 * se


def test_torus_sampling_half_space():
    pts = sample_uniform(T2, rngmod.substream(4, rngmod.SELFTEST, 4), 100_000)
    frac = np.mean(pts[:, 0] < 0.5)
    se = 0.5 / math.sqrt(len(pts))
    assert abs(frac - 0.5) < 3 * se


def test_pairwise_matches_broadcast():
    rng = rngmod.substream(5, rngmod.SELFTEST, 5)
    # wraparound edges (0 / 0.5 and 0.25 / 0.75 are exactly 0.5 apart, and
    # 1 - 2^-53 is 2^-53 from 0), and a tiny and a subnormal coordinate: the
    # table's per-axis products must round each difference as the subtraction
    edge = np.array([0.0, 0.5, 1 - 2**-53, 0.25, 0.75, 2.0**-60, 5e-324])
    for d in (1, 2, 3):
        space = make_space(TORUS, d)
        corners = np.stack([np.roll(edge, k)[:d] for k in range(len(edge))])
        a = np.concatenate([sample_uniform(space, rng, 295), corners])
        b = np.concatenate([sample_uniform(space, rng, 245), corners])
        diff = np.abs(a[:, None, :] - b[None, :, :])
        full = np.minimum(diff, 1.0 - diff).max(axis=-1)
        assert _uneven_blocks(a, b)  # several row blocks on T^1, T^2 and T^3
        table = pairwise_distance(space, a, b)
        assert np.array_equal(table, full)
        assert np.array_equal(distance(space, a[:, None, :], b[None, :, :]), full)
        # the corners are rows of both a and b; their zero distances are +0.0
        same = (a[:, None, :] == b[None, :, :]).all(axis=-1)
        assert same.sum() >= len(edge) and (table[same] == 0.0).all()
        assert not np.signbit(table).any()
    sa = sample_uniform(S2, rng, 17)
    sb = sample_uniform(S2, rng, 29)
    assert np.allclose(pairwise_distance(S2, sa, sb),
                       distance(S2, sa[:, None, :], sb[None, :, :]))


def _uneven_blocks(a, b):
    """Whether the torus table of a and b takes several row blocks, the last
    one shorter (262-row blocks over 300 rows for 300 x 250)."""
    rows = L2_BLOCK // len(b)
    return len(a) > rows and len(a) % rows != 0


@pytest.mark.parametrize("space", [T1, T2, make_space(TORUS, 3), S2],
                         ids=["T1", "T2", "T3", "S2"])
def test_pairwise_into_out_equals_fresh(space):
    rng = rngmod.substream(5, rngmod.SELFTEST, 7)
    a = sample_uniform(space, rng, 300)
    b = sample_uniform(space, rng, 250)
    assert _uneven_blocks(a, b)
    fresh = pairwise_distance(space, a, b)
    big = np.full((len(a) + 3, len(b)), -1.0)
    out = big[1:1 + len(a)]  # rows of a larger buffer
    assert pairwise_distance(space, a, b, out=out) is out
    assert np.array_equal(out, fresh)
    assert (big[0] == -1.0).all() and (big[-2:] == -1.0).all()


def test_pairwise_torus_memory_stays_near_output_size():
    # an (n, m, d) temporary on T^3 alone would be 3x the output
    T3 = make_space(TORUS, 3)
    rng = rngmod.substream(5, rngmod.SELFTEST, 6)
    a = sample_uniform(T3, rng, 4096)
    b = sample_uniform(T3, rng, 192)
    tracemalloc.start()
    try:
        out = pairwise_distance(T3, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * out.nbytes


def test_sample_ball_stays_inside():
    rng = rngmod.substream(6, rngmod.SELFTEST, 6)
    for space in (T2, S2):
        center = sample_uniform(space, rng)
        r = 0.3 * space.diameter
        pts = sample_ball(space, center, r, rng, 500)
        assert np.all(distance(space, pts, center) <= r * (1 + 1e-9))


def test_torus1d_radial_integral_against_quadrature():
    # profile (1 - t/r)_+ around wrapping and interior centers, one array of
    # intervals per center, one of them longer than the circle
    r = 0.2

    def antideriv(t):
        t = np.minimum(t, r)
        return t - t * t / (2 * r)

    lo = np.array([0.9, 0.0, 0.6, -0.35, 0.3])
    hi = np.array([1.3, 1.0, 0.8, 1.4, 0.3])
    for center in (0.05, 0.5, 0.7):
        exact = torus1d_radial_integral(antideriv, center, lo, hi)
        assert exact.shape == lo.shape
        for a, b, e in zip(lo, hi, exact):
            zs = np.linspace(a, b, 400_001)
            t = np.abs(np.mod(zs, 1.0) - center)
            t = np.minimum(t, 1 - t)
            brute = np.trapezoid(np.maximum(0, 1 - t / r), zs)
            assert e == pytest.approx(brute, abs=1e-8)
    with pytest.raises(ValueError, match="lo <= hi"):
        torus1d_radial_integral(antideriv, 0.5, [0.4], [0.3])
