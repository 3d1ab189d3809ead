import math
from dataclasses import dataclass

import numpy as np
import pytest

from stratcub import rng as rngmod
from stratcub.kernel import (CONST, N_SCALES, RIESZ, ROUGH_RIESZ, SINGULAR_TOL, KernelSpec,
                             SingularPairError, kernel_profile, regime_classify, rough_potential,
                             rough_series)
from stratcub.partition import torus_grid_partition
from stratcub.space import (SPHERE2, TORUS, SpaceDescriptor, distance, make_space,
                            pairwise_distance, sample_uniform)
from stratcub.wce import WceConfig, _cell_means, _draw_tables

T1 = make_space(TORUS, 1)
S2 = make_space(SPHERE2)

RIESZ06 = KernelSpec(RIESZ, alpha=0.6, d=1)
ROUGH = KernelSpec(ROUGH_RIESZ, alpha=0.9, d=1, eps=0.25, kappa=1.0)


def test_riesz_eval_example():
    assert kernel_profile(RIESZ06, 0.25) == pytest.approx(0.25 ** -0.4, rel=1e-14)
    x, y = np.array([0.5]), np.array([0.25])
    assert kernel_profile(RIESZ06, distance(T1, x, y)) == pytest.approx(1.7411011265922482)


# rough_series' documented absolute error at eps = 1/4 (its largest, near t = 0
# and t = 1/2, where doubling amplifies the rounding of cos 2 pi t)
ROUGH_SERIES_ERR = 8.1e-7


def _exact_series(eps, t):
    """The lacunary series with each angle reduced exactly: 2 pi ((2^m t) mod 1)."""
    return sum(2.0 ** (-eps * m) * np.cos(2 * math.pi * (np.ldexp(t, m) % 1.0))
               for m in range(N_SCALES))


def test_rough_eval_matches_direct_series():
    # independent oracle: direct cosine sum with exact angle reduction (no
    # doubling recursion), on a dense grid of [0, 1/2] and log grids toward
    # both ends, where the doubling errs most
    near = np.geomspace(1e-10, 1e-4, 20_001)
    t = np.concatenate([np.arange(1, 200_001) / 400_000, near, 0.5 - near])
    direct = t ** (-0.1) + _exact_series(0.25, t)
    assert np.allclose(kernel_profile(ROUGH, t), direct, rtol=0.0, atol=2 * ROUGH_SERIES_ERR)


def _dyadic_points(rng, n):
    # multiples of 2^-40: differences, and so distances, are exact
    return np.ldexp(rng.integers(0, 2**40, (n, 1)).astype(float), -40)


def test_rough_potential_matches_exact_direct_sum():
    rng = rngmod.substream(6, rngmod.SELFTEST, 1)
    x, y = _dyadic_points(rng, 16), _dyadic_points(rng, 64)
    w = rng.random(16)
    t = pairwise_distance(T1, x, y)  # (16, 64), exact
    direct = np.array([math.fsum(col) for col in (w[:, None] * _exact_series(ROUGH.eps, t)).T])
    assert np.allclose(rough_potential(ROUGH, T1, w, x, y), direct, rtol=0.0, atol=1e-12)


def test_rough_potential_matches_exact_angles_at_stratified_nodes():
    # non-dyadic nodes, one per cell of the N = 512 grid, and y at both ends
    # of [0, 1) and at 1/2; the oracle reduces each angle exactly,
    # theta_m(p) = 2 pi ((2^m p) mod 1), and sums every (node, scale) term of
    # each y with fsum; the bound is set for sum w = 1
    n, rng = 512, rngmod.substream(6, rngmod.SELFTEST, 4)
    x = (np.arange(n) + rng.random(n)) / n
    y = np.concatenate([[1e-12, 0.5, 1.0 - 2.0 ** -53], rng.random(189)])
    w = np.full(n, 1.0 / n)
    terms = np.empty((N_SCALES, n, y.size))
    for m in range(N_SCALES):
        fx, fy = np.ldexp(x, m) % 1.0, np.ldexp(y, m) % 1.0
        terms[m] = (w * 2.0 ** (-ROUGH.eps * m))[:, None] * np.cos(
            2 * math.pi * (fx[:, None] - fy[None, :]))
    oracle = np.array([math.fsum(terms[:, :, i].ravel()) for i in range(y.size)])
    got = rough_potential(ROUGH, T1, w, x[:, None], y[:, None])
    assert np.max(np.abs(got - oracle)) <= 1e-13


def test_rough_potential_matches_rough_series_table():
    rng = rngmod.substream(6, rngmod.SELFTEST, 2)
    x, y = sample_uniform(T1, rng, 64), sample_uniform(T1, rng, 192)
    w = np.full(64, 1 / 64)
    table = w @ (ROUGH.kappa * rough_series(ROUGH, pairwise_distance(T1, x, y)))
    got = ROUGH.kappa * rough_potential(ROUGH, T1, w, x, y)
    assert np.allclose(got, table, rtol=0.0, atol=ROUGH_SERIES_ERR)  # sum of w is 1


@pytest.mark.parametrize("space", [make_space(TORUS, 2), S2], ids=["t2", "s2"])
def test_rough_potential_is_t1_only(space):
    pts = sample_uniform(space, rngmod.substream(6, rngmod.SELFTEST, 3), 4)
    with pytest.raises(ValueError, match="T\\^1"):
        rough_potential(ROUGH, space, np.full(4, 0.25), pts, pts)


def test_singularity_raises():
    with pytest.raises(SingularPairError):
        kernel_profile(RIESZ06, 0.0)
    with pytest.raises(SingularPairError):
        kernel_profile(RIESZ06, distance(T1, np.array([0.3]), np.array([0.3])))


@pytest.mark.parametrize("spec", [
    KernelSpec(RIESZ, alpha=1.0, d=2),  # alpha - d = -1: the reciprocal path of **
    KernelSpec(RIESZ, alpha=0.5, d=1),  # -0.5
    RIESZ06,  # a generic exponent
    ROUGH,
    KernelSpec(CONST, kappa=2.0),
], ids=["riesz-1", "riesz-0.5", "riesz-0.4", "rough", "const"])
def test_kernel_profile_in_place_equals_fresh(spec):
    t = 0.5 * rngmod.substream(3, rngmod.SELFTEST, 3).random((7, 33)) + 1e-3
    fresh = kernel_profile(spec, t)
    if spec.family == RIESZ:
        assert np.array_equal(fresh, t ** (spec.alpha - spec.d))
    out = np.empty_like(t)
    assert kernel_profile(spec, t, out=out) is out
    assert np.array_equal(out, fresh)
    assert kernel_profile(spec, t, out=t) is t
    assert np.array_equal(t, fresh)


@pytest.mark.parametrize("spec", [RIESZ06, ROUGH])
def test_singular_table_raises_before_writing(spec):
    t = np.array([[0.3, 0.1], [0.0, 0.2]])
    before = t.copy()
    with pytest.raises(SingularPairError):
        kernel_profile(spec, t, out=t)
    assert np.array_equal(t, before)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(RIESZ, alpha=1.5, d=1)
    with pytest.raises(ValueError):
        KernelSpec(ROUGH_RIESZ, alpha=0.5, d=1, eps=1.5)
    with pytest.raises(ValueError):
        KernelSpec("bessel", alpha=0.5, d=1)
    with pytest.raises(ValueError):
        KernelSpec(RIESZ, alpha=0.5, d=1, kappa=1.0)


def test_kernel_symmetry():
    rng = rngmod.substream(0, rngmod.SELFTEST)
    for space, spec in ((T1, ROUGH), (S2, KernelSpec(RIESZ, alpha=1.2, d=2))):
        x = sample_uniform(space, rng, 100)
        y = sample_uniform(space, rng, 100)
        assert np.allclose(kernel_profile(spec, distance(space, x, y)),
                           kernel_profile(spec, distance(space, y, x)))


def test_rough_kappa_zero_reduces_to_riesz():
    plain = KernelSpec(RIESZ, alpha=0.6, d=1)
    degenerate = KernelSpec(ROUGH_RIESZ, alpha=0.6, d=1, eps=1.0, kappa=0.0)
    t = np.linspace(0.01, 0.5, 50)
    assert np.array_equal(kernel_profile(plain, t), kernel_profile(degenerate, t))
    r1 = kernel_bounds_check(plain, T1, 2000, rngmod.substream(1, rngmod.BOUNDS))
    r2 = kernel_bounds_check(degenerate, T1, 2000, rngmod.substream(1, rngmod.BOUNDS))
    assert r1.diff_ratio_max == r2.diff_ratio_max


def test_cell_kernel_mean_closed_form():
    # arc [0, 0.5) against y = 0.75; antiderivative oracle
    part = torus_grid_partition(T1, 2)
    cfg = WceConfig(part, RIESZ06, 2.0, m_z=100_000)
    rng = rngmod.substream(0, rngmod.SELFTEST, 1)
    est = _cell_means(cfg, rng, np.array([[0.75]]))[0, 0]
    oracle = (4.0 / 0.6) * (0.5 ** 0.6 - 0.25 ** 0.6)
    assert est == pytest.approx(oracle, rel=0.01)


def test_cell_kernel_mean_constant_stub():
    part = torus_grid_partition(T1, 4)
    cfg = WceConfig(part, KernelSpec(CONST, kappa=1.0), 2.0, m_z=8)
    rng = rngmod.substream(0, rngmod.SELFTEST, 2)
    assert _cell_means(cfg, rng, np.array([[0.9]]))[1, 0] == 1.0


def test_cell_kernel_mean_replicas_independent():
    # the two replicas of a draw's per-cell terms use independent cell samples
    cfg = WceConfig(torus_grid_partition(T1, 4), RIESZ06, 2.0, m_y=1, m_z=64, seed=5)
    T = np.array([_draw_tables(cfg, rngmod.AN, k)[:, 0, 0] for k in range(300)])
    a, b = T[:, 0], T[:, 1]
    assert not np.allclose(a, b)
    # both replicas target the same mean (paired: the node term is shared)
    assert abs(a.mean() - b.mean()) < 3 * (a - b).std() / math.sqrt(len(a))


def test_integrability_moment_stable():
    # q-th moment of Phi(x, .) finite and stable when alpha > d/p (q conjugate)
    p = 2.0
    q = p / (p - 1)
    spec = KernelSpec(RIESZ, alpha=0.75, d=1)
    x = np.array([0.3])
    rng = rngmod.substream(4, rngmod.SELFTEST)
    m1 = np.mean(np.abs(kernel_profile(spec, distance(T1, x, sample_uniform(T1, rng, 50_000))))
                 ** q)
    m2 = np.mean(np.abs(kernel_profile(spec, distance(T1, x, sample_uniform(T1, rng, 100_000))))
                 ** q)
    assert 0 < m1 < math.inf
    assert m2 / m1 == pytest.approx(1.0, abs=0.25)


def size_bound_constant(spec: KernelSpec, space: SpaceDescriptor) -> float:
    """A constant c with |Phi(x,y)| <= c * t^(alpha-d) on the whole space."""
    if spec.kappa == 0.0:
        return 1.0
    w_max = sum(2.0 ** (-spec.eps * m) for m in range(N_SCALES))
    return 1.0 + spec.kappa * w_max * space.diameter ** (spec.d - spec.alpha)


@dataclass
class BoundsReport:
    """Sampled suprema of the kernel size and smoothness ratios."""

    size_ratio_max: float
    diff_ratio_max: float


def kernel_bounds_check(spec: KernelSpec, space: SpaceDescriptor, n_triples: int,
                        rng: np.random.Generator,
                        offset_range: tuple[float, float] = (1e-6, 0.0625),
                        eps_declared: float | None = None) -> BoundsReport:
    """Probe the two kernel hypotheses on sampled triples (x, z, y) of the torus.

    Samples x, y uniformly and z at a log-uniform distance h from x, keeping
    triples with dist(x, y) >= 2 h.  Reports the max of
    ``|Phi(x,y)| / t^(alpha-d)`` and of
    ``|Phi(x,y) - Phi(z,y)| / (h^eps * t^(alpha-d-eps))``.
    A declared eps above the kernel's true Hoelder exponent makes the second
    ratio blow up as the offsets shrink; that is the negative control.
    """
    eps = spec.eps if eps_declared is None else eps_declared
    x = sample_uniform(space, rng, n_triples)
    y = sample_uniform(space, rng, n_triples)
    lo, hi = offset_range
    h = np.exp(rng.uniform(math.log(lo), math.log(hi), n_triples))
    z = _offset_points(space, x, h, rng)
    t = distance(space, x, y)
    keep = (t >= 2.0 * h) & (t >= SINGULAR_TOL)
    y, z, h, t = y[keep], z[keep], h[keep], t[keep]
    phi_x = kernel_profile(spec, t)
    phi_z = kernel_profile(spec, distance(space, z, y))
    size_ratio = np.abs(phi_x) / t ** (spec.alpha - spec.d)
    diff_ratio = np.abs(phi_x - phi_z) / (h ** eps * t ** (spec.alpha - spec.d - eps))
    return BoundsReport(float(size_ratio.max()), float(diff_ratio.max()))


def _offset_points(space: SpaceDescriptor, x: np.ndarray, h: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Torus points at distance exactly h[i] from x[i]."""
    u = rng.uniform(-1.0, 1.0, (len(x), space.d))
    u /= np.abs(u).max(axis=1, keepdims=True)  # sup-norm 1, so the step size is exactly h
    return np.mod(x + h[:, None] * u, 1.0)


def test_bounds_check_positive_controls():
    r1 = kernel_bounds_check(RIESZ06, T1, 20_000, rngmod.substream(1, rngmod.BOUNDS, 1))
    r2 = kernel_bounds_check(RIESZ06, T1, 40_000, rngmod.substream(1, rngmod.BOUNDS, 2))
    assert r1.diff_ratio_max < 5.0
    assert r2.diff_ratio_max < 2.0 * r1.diff_ratio_max  # no growth when doubling
    assert r1.size_ratio_max <= size_bound_constant(RIESZ06, T1) + 1e-9
    w = kernel_bounds_check(ROUGH, T1, 20_000, rngmod.substream(1, rngmod.BOUNDS, 3))
    assert w.diff_ratio_max < 50.0
    assert w.size_ratio_max <= size_bound_constant(ROUGH, T1) + 1e-9


def test_bounds_check_negative_control():
    # declaring eps = 1 for the eps = 0.25 kernel: ratio grows >= 10x when the
    # offset scale shrinks 100x
    coarse = kernel_bounds_check(ROUGH, T1, 20_000, rngmod.substream(2, rngmod.BOUNDS, 1),
                                 offset_range=(1e-3, 1e-1), eps_declared=1.0)
    fine = kernel_bounds_check(ROUGH, T1, 20_000, rngmod.substream(2, rngmod.BOUNDS, 2),
                               offset_range=(1e-5, 1e-3), eps_declared=1.0)
    assert fine.diff_ratio_max >= 10.0 * coarse.diff_ratio_max


def test_regime_classify():
    assert regime_classify(KernelSpec(RIESZ, alpha=0.75, d=1)) == "sub"
    assert regime_classify(ROUGH) == "saturated"
    assert regime_classify(KernelSpec(ROUGH_RIESZ, alpha=1.5, d=2, eps=0.5,
                                      kappa=1.0)) == "critical"
