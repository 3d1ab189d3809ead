import math
import warnings

import numpy as np
import pytest

from ball_sampling import sample_ball
from stratcub import rng as rngmod
from stratcub.besov import (PhiGradient, besov_norm_bound_chi, besov_rhs_bounds,
                            chi_phi_gradient, poincare_check, scale_floor, sharpness_fn)
from stratcub.cubature import estimate_BN
from stratcub.funcs import constant_fn, coordinate_fn
from stratcub.partition import (cell_contains, cell_sample, sphere_zonal_partition,
                                torus_grid_partition)
from stratcub.sets import (boundary_distance, make_arc, make_box, make_cap,
                           psi_tube_measure, set_contains)
from stratcub.space import SPHERE2, TORUS, make_space, sample_uniform

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
S2 = make_space(SPHERE2)

ARC = make_arc(0.0, 0.5)
BOX = make_box((0.1, 0.3), (0.5, 0.8))
CAP = make_cap((0.0, 0.0, 1.0), 0.8)


def test_psi_examples():
    assert psi_tube_measure(T1, ARC, 0.05) == pytest.approx(0.2)
    assert psi_tube_measure(T1, ARC, 0.0) == 0.0
    t = 0.01
    assert psi_tube_measure(S2, CAP, t) == pytest.approx(
        4 * math.pi * math.sin(0.8) * math.sin(t), rel=1e-12)
    assert psi_tube_measure(T1, ARC, 0.6) == pytest.approx(1.0)


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (math.inf, 0.0, 0.0),
                                    (1.0, 0.0), (0.0, 0.0, 1.0, 0.0)])
def test_make_cap_rejects_bad_centres(center):
    # a zero or infinite centre gave a NaN one; other lengths a cap off S^2
    with pytest.raises(ValueError, match="cap centre"):
        make_cap(center, 0.5)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_make_cap_accepts_centres_whose_norm_overflows_or_underflows(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cap = make_cap((scale, scale, 0.0), 0.5)
    assert cap.params["center"] == pytest.approx((math.sqrt(0.5), math.sqrt(0.5), 0.0),
                                                 rel=1e-15, abs=0.0)


@pytest.mark.parametrize("space,setd", [(T1, ARC), (T2, BOX), (S2, CAP)])
def test_psi_closed_form_matches_monte_carlo(space, setd):
    rng = rngmod.substream(0, rngmod.SELFTEST, 1)
    for t in (0.02, 0.1):
        closed = psi_tube_measure(space, setd, t)
        pts = sample_uniform(space, rng, 200_000)
        mc = float(np.mean(boundary_distance(setd, space, pts) <= t)) * space.total_measure
        se = space.total_measure * math.sqrt(0.25 / 200_000)
        assert abs(closed - mc) <= 4 * se + 1e-12


def test_full_torus_side_is_no_boundary():
    # the band [0, 1) x [0.2, 0.7) has only the faces y = 0.2 and y = 0.7
    band = make_box((0.0, 0.2), (1.0, 0.7))
    for t in (0.01, 0.05):
        assert psi_tube_measure(T2, band, t) == pytest.approx(4 * t, rel=1e-12)
    pts = np.array([[0.001, 0.45], [0.999, 0.3], [0.5, 0.1], [0.0, 0.69]])
    assert boundary_distance(band, T2, pts) == pytest.approx([0.25, 0.1, 0.1, 0.01], rel=1e-12)
    # the whole torus has no boundary at all
    whole = make_box((0.0, 0.0), (1.0, 1.0))
    assert psi_tube_measure(T2, whole, 0.1) == 0.0
    assert np.all(boundary_distance(whole, T2, pts) == math.inf)


def test_psi_beta_envelope():
    # psi(t) <= c t^beta with a stable constant over dyadic t
    for space, setd in ((T1, ARC), (S2, CAP)):
        cs = [psi_tube_measure(space, setd, 2.0 ** -n) / 2.0 ** (-n * setd.beta)
              for n in range(3, 20)]
        assert max(cs) / min(cs) < 4


def test_chi_gradient_values():
    grad = chi_phi_gradient(T1, ARC, alpha=0.5)
    # inside, boundary distance 0.1 <= 2^-3
    pts = np.array([[0.1], [0.25], [0.6]])
    g3 = grad.g(3, pts)
    assert g3[0] == pytest.approx(2.0 ** 1.5)
    assert g3[1] == 0.0  # deep inside: boundary distance 0.25 > 1/8
    assert g3[2] == 0.0  # outside
    assert np.all(grad.g(5, np.array([[0.9]])) == 0.0)


@pytest.mark.parametrize("space,setd", [(T1, ARC), (T2, BOX), (S2, CAP)])
def test_chi_gradient_inequality_sampled(space, setd):
    alpha = 0.5
    grad = chi_phi_gradient(space, setd, alpha)
    rng = rngmod.substream(1, rngmod.SELFTEST, 2)
    x = sample_uniform(space, rng, 100_000)
    chi_x = set_contains(setd, x).astype(float)
    for n in range(grad.n_min, grad.n_min + 8):
        # pairs at distance <= 2^-n: perturb x within the ball
        scale = 2.0 ** -n
        idx = rng.integers(0, len(x), 4000)
        y = np.vstack([sample_ball(space, x[i], scale, rng, 1) for i in idx[:400]])
        xs = x[idx[:400]]
        chi_y = set_contains(setd, y).astype(float)
        lhs = np.abs(chi_x[idx[:400]] - chi_y)
        rhs = scale ** alpha * (grad.g(n, xs) + grad.g(n, y))
        assert np.all(lhs <= rhs + 1e-12)


def test_besov_norm_bound_chi_arc_value():
    # sup_n 2^(n/2) * min(4 * 2^-n, 1)^(1/2) = 2, attained on the tail
    val = besov_norm_bound_chi(T1, ARC, alpha=0.5, p=2.0)
    assert val == pytest.approx(2.0, rel=1e-9)


def test_besov_norm_bound_chi_membership_warning():
    with pytest.warns(UserWarning):
        val = besov_norm_bound_chi(T1, ARC, alpha=1.0, p=2.0)  # p*alpha = 2 > 1
    assert math.isinf(val)


def test_besov_norm_bound_chi_cap_finite():
    val = besov_norm_bound_chi(S2, CAP, alpha=0.5, p=2.0)
    assert 0 < val < math.inf
    # the sup is the small-scale limit of 2^(n/2) psi(2^-n)^(1/2):
    # psi(t) ~ 4 pi sin(r) t, so the limit is sqrt(4 pi sin r)
    assert val == pytest.approx(math.sqrt(4 * math.pi * math.sin(0.8)), rel=1e-3)
    # and it dominates the band formula on every resolvable scale
    for n in range(scale_floor(S2), 25):
        assert (2.0 ** (n * 0.5)) * math.sqrt(psi_tube_measure(S2, CAP, 2.0 ** -n)) <= val * (1 + 1e-12)


def test_poincare_constant_function_holds():
    part = torus_grid_partition(T1, 8)
    grad = PhiGradient(1.0, scale_floor(T1), lambda n, pts: np.zeros(len(np.atleast_2d(pts))))
    rep = poincare_check(part, 0, constant_fn(T1, 4.2), grad, p=2.0, n=3)
    assert rep.lhs == pytest.approx(0.0, abs=1e-13)
    assert rep.holds


def test_poincare_coordinate_analytic():
    part = torus_grid_partition(T1, 8)
    grad = PhiGradient(1.0, scale_floor(T1),
                       lambda n, pts: np.full(len(np.atleast_2d(pts)), 0.5))
    for p in (1.0, 2.0, 3.0):
        rep = poincare_check(part, 2, coordinate_fn(T1), grad, p=p,
                             n=3, budget=8192, seed=2)
        w = 1.0 / 8
        lhs_exact = (w / 2.0) * (p + 1.0) ** (-1.0 / p)
        assert rep.lhs == pytest.approx(lhs_exact, rel=0.05)
        assert rep.holds


def test_poincare_adversarial_zero_gradient_fails():
    part = torus_grid_partition(T1, 8)
    grad = PhiGradient(1.0, scale_floor(T1),
                       lambda n, pts: np.zeros(len(np.atleast_2d(pts))))
    rep = poincare_check(part, 2, coordinate_fn(T1), grad, p=2.0, n=3)
    assert not rep.holds


def test_poincare_scale_precondition():
    part = torus_grid_partition(T1, 4)  # diameter 1/4 > 2^-3
    grad = PhiGradient(1.0, scale_floor(T1), lambda n, pts: np.ones(1))
    with pytest.raises(ValueError):
        poincare_check(part, 0, coordinate_fn(T1), grad, p=2.0, n=3)


def test_poincare_rejects_budget_below_two():
    # one sample leaves the jackknife no spread: NaN SEs, holds read False
    part = torus_grid_partition(T1, 8)
    grad = PhiGradient(1.0, scale_floor(T1), lambda n, pts: np.ones(len(np.atleast_2d(pts))))
    with pytest.raises(ValueError, match="budget"):
        poincare_check(part, 2, coordinate_fn(T1), grad, p=2.0, n=3, budget=1)


@pytest.mark.parametrize("j", [-1, 8, 1.0, True])
def test_poincare_rejects_bad_cell_ids(j):
    # -1 used to read the last cell's diameter and then sample an empty
    # slice; the others stopped with bare numpy errors
    part = torus_grid_partition(T1, 8)
    grad = PhiGradient(1.0, scale_floor(T1), lambda n, pts: np.ones(len(np.atleast_2d(pts))))
    with pytest.raises(ValueError, match=r"cell id \(N = 8\)"):
        poincare_check(part, j, coordinate_fn(T1), grad, p=2.0, n=3)


def test_rhs_bounds_formulas():
    part = torus_grid_partition(T1, 8)
    rb = besov_rhs_bounds(part, p=2.0, alpha=1.0, norm_value=3.0, b_p=1.0)
    max_delta = 1.0 / 8
    assert rb.rhs1 == pytest.approx(2.0 * (2 * max_delta) * 3.0)
    # equal weights: sup w^(1-1/p) = N^(-1/2)
    assert rb.rhs2 == pytest.approx(2.0 * 8 ** -0.5 * (2 * max_delta) * 3.0)
    assert rb.rhs3 == pytest.approx(rb.rhs2)
    assert rb.rhs2 <= rb.rhs1
    assert besov_rhs_bounds(part, p=3.0, alpha=1.0, norm_value=1.0).rhs2 is None


def test_rhs_bounds_none_outside_their_range():
    # rhs2 holds for p <= 2 and rhs3 for p >= 2; neither range warns
    part = torus_grid_partition(T1, 8)
    phi = 2.0 * (1.0 / 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = besov_rhs_bounds(part, p=1.5, alpha=1.0, norm_value=3.0, b_p=1.2)
        high = besov_rhs_bounds(part, p=3.0, alpha=1.0, norm_value=3.0, b_p=1.2)
        both = besov_rhs_bounds(part, p=2.0, alpha=1.0, norm_value=3.0, b_p=1.2)
    assert low.rhs3 is None
    assert low.rhs2 == pytest.approx(2.0 * 1.2 * 8 ** (-1 / 3) * phi * 3.0)
    assert high.rhs2 is None
    assert high.rhs3 == pytest.approx(2.0 * 1.2 * 8 ** -0.5 * phi * 3.0)
    assert both.rhs2 == pytest.approx(2.0 * 1.2 * 8 ** -0.5 * phi * 3.0)
    assert both.rhs3 == pytest.approx(both.rhs2)
    for rb in (low, high, both):
        assert rb.rhs1 == pytest.approx(2.0 * phi * 3.0)


def test_sharpness_fj_construction():
    part = torus_grid_partition(T1, 16)
    f = sharpness_fn(part, 3)
    ca, cb = (c[0] for c in f.params["centers"])
    assert f.evaluate(ca[None, :])[0] == 1.0
    assert f.evaluate(cb[None, :])[0] == -1.0
    assert f.exact_integral == 0.0
    # mean zero against brute-force integration over the cell
    pts = cell_sample(part, 3, rngmod.substream(5, 1), 200_000)
    vals = f.evaluate(pts)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) <= 4 * se
    # support inside the cell
    sup_pts = pts[np.abs(vals) > 0]
    assert np.all(cell_contains(part, 3, sup_pts))
    # a numpy integer id builds the same bumps
    g = sharpness_fn(part, np.int64(3))
    assert np.array_equal(g.evaluate(pts), vals)


@pytest.mark.parametrize("j", [-1, 8, 1.0, True])
def test_sharpness_rejects_bad_cell_ids(j):
    # -1 used to build the last cell's bumps while params["cell"] read -1
    with pytest.raises(ValueError, match=r"cell id \(N = 8\)"):
        sharpness_fn(torus_grid_partition(T1, 8), j)


def test_sharpness_fj_sphere_bumps():
    part = sphere_zonal_partition(S2, 32)
    f = sharpness_fn(part, 7)
    ca, cb = (c[0] for c in f.params["centers"])
    assert f.evaluate(ca[None, :])[0] == pytest.approx(1.0)
    assert f.evaluate(cb[None, :])[0] == pytest.approx(-1.0)
    for c in (ca, cb):
        assert cell_contains(part, 7, c[None, :])[0]


def test_sharpness_sum_properties():
    part = torus_grid_partition(T1, 16)
    f = sharpness_fn(part)
    assert f.exact_integral == 0.0
    pts = sample_uniform(T1, rngmod.substream(6, 1), 50_000)
    vals = f.evaluate(pts)
    assert np.abs(vals).max() <= 1.0 + 1e-12
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) <= 4 * se
    # peak value 1 attained at each positive center
    assert np.array_equal(f.evaluate(f.params["centers"][0]), np.ones(part.N))


@pytest.mark.parametrize("part", [torus_grid_partition(T1, 16), sphere_zonal_partition(S2, 32)],
                         ids=["T1", "S2"])
def test_sharpness_of_one_cell_is_the_sum_on_that_cell(part):
    # with one cell every point reads that cell's bump pair: the sum's values
    # bit for bit on the cell, and 0 off it
    total = sharpness_fn(part)
    pts = sample_uniform(part.space, rngmod.substream(7, 1), 20_000)
    for j in (0, 3, part.N - 1):
        f = sharpness_fn(part, j)
        x = np.concatenate([pts, cell_sample(part, j, rngmod.substream(7, 2, j), 2_000)])
        own = cell_contains(part, j, x)
        vals = f.evaluate(x)
        assert np.array_equal(vals[own], total.evaluate(x[own]))
        assert np.any(vals[own] != 0.0) and np.all(vals[~own] == 0.0)


def test_error_bound_holds_for_certified_functions():
    """Measured moment error <= the applicable computable bound, using the
    functions' certified norms and the empirical comparison constant."""
    from stratcub.funcs import cone_bump_fn
    from test_acceptance import mz_constant
    cone = cone_bump_fn(T1, (0.5,), 0.25)
    for p, which in ((3.0, "rhs3"), (1.5, "rhs2")):
        b_p = mz_constant(p, n_draws=600, seed=11)
        for N in (16, 64):
            part = torus_grid_partition(T1, N)
            st = estimate_BN(cone, part, p, 400, seed=rngmod.path_key(11, N) & 0xFFFF)
            rb = besov_rhs_bounds(part, p, 1.0, cone.besov_norm(1.0, p), b_p)
            bound = getattr(rb, which)
            assert st.moment <= bound + 3 * st.stderr


def test_error_bound_holds_for_indicator():
    # chi certified via the tube-measure formula at alpha = beta/2, p = 2
    from stratcub.funcs import indicator_fn
    arc = make_arc(0.2, 0.5)
    f = indicator_fn(T1, arc)
    norm = besov_norm_bound_chi(T1, arc, alpha=0.5, p=2.0)
    for N in (16, 128):
        part = torus_grid_partition(T1, N)
        st = estimate_BN(f, part, 2.0, 600, seed=rngmod.path_key(12, N) & 0xFFFF)
        rb = besov_rhs_bounds(part, 2.0, 0.5, norm, b_p=1.0)
        assert st.moment <= rb.rhs2 + 3 * st.stderr


def test_sharpness_bn_scaling_constant():
    # closed form: BN(f_j, 2)^2 = w * 2 * (2 rho / 3), two cones of height 1
    for N in (16, 64):
        part = torus_grid_partition(T1, N)
        f = sharpness_fn(part, 0)
        rho = f.params["rho"]
        exact = math.sqrt((1.0 / N) * 2.0 * (2.0 * rho / 3.0))
        st = estimate_BN(f, part, 2.0, 3000, seed=rngmod.path_key(4, N) & 0xFFFF)
        assert abs(st.moment - exact) <= 3 * st.stderr
        assert exact * N == pytest.approx(1.0 / math.sqrt(12), rel=1e-12)
