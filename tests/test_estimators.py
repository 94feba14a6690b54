import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import erfc

from thinshell.bodies import BodySpec, isotropic_body
from thinshell.estimators import (
    IDENTITY_GRID,
    EstimateWithCI,
    kolmogorov_distance,
    power_sum_variance,
    scaling_fit,
    thin_shell_stats,
    uniform_direction,
    verify_identities,
    weighted_square_variance,
)
from thinshell.sampler import counterexample_marginal, sample_exact
from thinshell.suites import berry_esseen_suite

SEED = 4242
SQRT3 = math.sqrt(3.0)


def normal_cdf(t):
    return 0.5 * erfc(-np.asarray(t) / math.sqrt(2.0))


def uniform_moment(k, a=SQRT3):
    # E |U|^k for U ~ Uniform[-a, a], by quadrature (oracle)
    val, _ = quad(lambda t: t ** k, 0, a)
    return val / a


@pytest.fixture(scope="module")
def cube16():
    return sample_exact(isotropic_body("cube", 16), 10 ** 5, seed=SEED)


def squared_norms(s):
    return np.einsum("ij,ij->i", s.data, s.data)


def weighted_squares(s, a):
    return (s.data ** 2) @ a


def power_sums(s, a, p):
    # per-draw sum a_i |X_i|^{p_i} and per-axis E|X_i|^{2 p_i}, from the sample
    absx = np.abs(s.data)
    return (absx ** p) @ a, np.mean(absx ** (2.0 * p), axis=0)


def test_thin_shell_cube_matches_quadrature_oracle(cube16):
    var_x2 = uniform_moment(4) - uniform_moment(2) ** 2
    assert var_x2 == pytest.approx(0.8)
    stats = thin_shell_stats(squared_norms(cube16), 16)
    assert abs(stats.var_ratio.value - var_x2 / 16) <= stats.var_ratio.half_width
    assert stats.shell_dev.value <= 16.0 + stats.shell_dev.half_width


def test_thin_shell_ball_beta_oracle():
    n = 8
    s = sample_exact(isotropic_body("euclidean_ball", n), 10 ** 5, seed=SEED)
    stats = thin_shell_stats(squared_norms(s), n)
    oracle = (8.0 / 3.0) / n ** 2
    assert abs(stats.var_ratio.value - oracle) <= stats.var_ratio.half_width


def test_weighted_square_variance_cases(cube16):
    n = 16
    ones = np.ones(n)
    est, bound = weighted_square_variance(weighted_squares(cube16, ones), ones)
    assert bound == pytest.approx(16.0 * n)
    assert abs(est.value - 0.8 * n) <= est.half_width
    e1 = np.eye(n)[0]
    est1, bound1 = weighted_square_variance(weighted_squares(cube16, e1), e1)
    assert abs(est1.value - 0.8) <= est1.half_width
    zero = np.zeros(n)
    est0, bound0 = weighted_square_variance(weighted_squares(cube16, zero), zero)
    assert est0.value == 0.0 and est0.half_width == 0.0 and bound0 == 0.0
    assert est0.count == 10 ** 5
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_square_variance(weighted_squares(cube16, ones), -e1)


def test_thin_shell_stats_needs_100_draws(cube16):
    with pytest.raises(ValueError, match="N >= 100"):
        thin_shell_stats(squared_norms(cube16)[:99], 16)


def test_weighted_square_variance_bound_random_directions(cube16):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0, 2, size=16)
        est, bound = weighted_square_variance(weighted_squares(cube16, a), a)
        assert est.value <= bound + 4 * est.half_width


def test_power_sum_variance_reduces_to_squares(cube16):
    n = 16
    a, p2 = np.ones(n), np.full(n, 2.0)
    est_pow, bound_pow = power_sum_variance(*power_sums(cube16, a, p2), a, p2)
    est_sq, _ = weighted_square_variance(weighted_squares(cube16, a), a)
    assert est_pow.value == pytest.approx(est_sq.value, rel=1e-12)
    # the p=2 bound uses E X^4 from the sample: (2*4/3) * n * E X^4
    assert bound_pow == pytest.approx(8.0 / 3.0 * n * np.mean(cube16.data ** 4), rel=1e-12)


def test_power_sum_variance_p1_oracle(cube16):
    n = 16
    a = p1 = np.ones(n)
    est, bound = power_sum_variance(*power_sums(cube16, a, p1), a, p1)
    var_abs = uniform_moment(2) - uniform_moment(1) ** 2  # 1 - 3/4
    assert var_abs == pytest.approx(0.25)
    assert abs(est.value - n * var_abs) <= est.half_width
    assert bound == pytest.approx(n * 1.0, rel=0.02)  # (2*1/2)*E X^2 = 1 per axis
    assert est.value <= bound + 4 * est.half_width


def test_power_sum_variance_n1_inequality():
    s = sample_exact(isotropic_body("cube", 1), 10 ** 5, seed=SEED)
    a, p = np.array([1.0]), np.array([2.0])
    est, bound = power_sum_variance(*power_sums(s, a, p), a, p)
    assert abs(est.value - 0.8) <= est.half_width
    assert bound == pytest.approx((8.0 / 3.0) * 1.8, rel=0.02)
    assert est.value <= bound


def test_power_sum_variance_overflow_guard(cube16):
    a = np.ones(16)
    y, moments = power_sums(cube16, a, np.full(16, 32.0))
    est, bound = power_sum_variance(y, moments, a, np.full(16, 32.0))
    assert math.isfinite(est.value) and math.isfinite(bound)
    with pytest.raises(ValueError, match="exponents"):
        power_sum_variance(y, moments, a, np.full(16, 40.0))


def kolmogorov_uniform_vs_normal_oracle(a=SQRT3):
    # maximize |F_U - Phi| where the densities cross: phi(t) = 1/(2a)
    res = minimize_scalar(lambda t: -abs((t + a) / (2 * a) - normal_cdf(t)),
                          bounds=(0.0, a), method="bounded",
                          options={"xatol": 1e-12})
    return -res.fun


def test_kolmogorov_distance_uniform_vs_normal():
    oracle = kolmogorov_uniform_vs_normal_oracle()
    assert oracle == pytest.approx(0.0572, abs=5e-4)
    u = sample_exact(isotropic_body("cube", 1), 10 ** 5, seed=SEED).data[:, 0]
    res = kolmogorov_distance(u, normal_cdf)
    assert res.distance == pytest.approx(oracle, abs=3 * res.dkw_band)


def test_kolmogorov_distance_self_consistency():
    rng = np.random.default_rng(SEED)
    res = kolmogorov_distance(rng.standard_normal(10 ** 5), normal_cdf)
    assert res.dkw_band == pytest.approx(math.sqrt(math.log(2 / 0.01) / (2 * 10 ** 5)))
    assert res.distance <= res.dkw_band


def test_kolmogorov_distance_constant_values():
    c = 0.7
    res = kolmogorov_distance(np.full(100, c), normal_cdf)
    assert res.distance == pytest.approx(max(normal_cdf(c), 1 - normal_cdf(c)))


def test_kolmogorov_distance_rejects_nan():
    with pytest.raises(ValueError):
        kolmogorov_distance(np.array([0.0, math.nan]), normal_cdf)


def test_counterexample_marginal_far_from_normal():
    # the uniform-direction marginal is Uniform[-sqrt3, sqrt3] for every n
    oracle = kolmogorov_uniform_vs_normal_oracle()
    for n in (4, 64):
        vals = counterexample_marginal(n, 10 ** 5, uniform_direction(n), seed=SEED)
        res = kolmogorov_distance(vals, normal_cdf)
        assert res.distance >= 0.04
        assert res.distance == pytest.approx(oracle, abs=3 * res.dkw_band + 1e-3)


def test_counterexample_distance_matches_the_uniform_oracle():
    # for uniform theta the counterexample marginal is uniform on [-sqrt 3, sqrt 3]
    result = berry_esseen_suite(505, cube_ns=(), counter_ns=(16, 256), samples=10 ** 4)
    values = [r.value for r in result.rows if r.estimator_id == "berry_esseen.counterexample"]
    assert len(values) == 2
    for value in values:
        assert value == pytest.approx(kolmogorov_uniform_vs_normal_oracle(), abs=1e-6)
    assert all(a.passed for a in result.assertions)


def test_scaling_fit_exact_law():
    ns = [4, 8, 16, 32]
    fit = scaling_fit([(n, 0.8 / n) for n in ns])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    flat = scaling_fit([(n, 2.5) for n in ns])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_fit([(4, 1.0), (8, 0.0), (16, 1.0)])
    with pytest.raises(ValueError):
        scaling_fit([(4, 1.0), (4, 2.0)])


def test_verify_identities_hand_values():
    vals = verify_identities(1.0, 1.0, 1.0)
    assert vals.lhs217 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert vals.rhs217 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert vals.lhs333 == pytest.approx(8.0, abs=1e-12)
    assert vals.rhs333 == pytest.approx(8.0, abs=1e-12)


def test_verify_identities_degenerate():
    assert verify_identities(0.0, 2.0, 1.5) == (0.0, 0.0, 0.0, 0.0)
    vals = verify_identities(1.0, 0.0, 2.0)
    assert vals.lhs217 == pytest.approx(0.0, abs=1e-14)
    assert vals.rhs217 == 0.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_verify_identities_grid(a, p, r):
    vals = verify_identities(a, p, r)
    assert abs(vals.lhs217 - vals.rhs217) <= 1e-10 * (1 + abs(vals.rhs217))
    assert abs(vals.lhs333 - vals.rhs333) <= 1e-10 * (1 + abs(vals.rhs333))
    # the closed-form integrals against numerical quadrature of the integrands
    lhs217, _ = quad(lambda t: (a * abs(t) ** p - a * r ** p) ** 2, -r, r, points=[0.0],
                     epsabs=1e-13, epsrel=1e-12)
    ipp, _ = quad(lambda t: (a * abs(t) ** p) ** 2, -r, r, points=[0.0],
                  epsabs=1e-13, epsrel=1e-12)
    assert vals.lhs217 == pytest.approx(lhs217, rel=1e-10, abs=1e-12)
    assert vals.rhs217 == pytest.approx(2 * p * p / (p + 1) * ipp, rel=1e-10, abs=1e-12)
    assert vals.rhs333 == pytest.approx(4 * (2 * p + 1) * ipp, rel=1e-10, abs=1e-12)


def test_identity_grid_is_twelve_points():
    assert len(IDENTITY_GRID) == 12


def test_weight_vector_validation():
    # negative coefficients and exponents <= 0 are rejected by both estimators
    y, ones = np.ones(100), np.ones(3)
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_square_variance(y, [1.0, -0.5, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        power_sum_variance(y, ones, [1.0, -0.5, 1.0], ones)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="exponents"):
            power_sum_variance(y, ones, ones, [1.0, bad, 1.0])
    with pytest.raises(ValueError, match="one entry per axis"):
        power_sum_variance(y, ones, ones, np.ones(4))
    for n in (5, 16, 64, 256):
        theta = uniform_direction(n)
        assert theta.dtype == np.float64 and theta.shape == (n,)
        assert float(theta @ theta) == pytest.approx(1.0, abs=1e-15)
        # the construction of the former WeightVector.uniform_direction(n).array
        e = np.full(n, 1.0 / math.sqrt(n))
        e[0] = math.sqrt(1.0 - float(e[1:] @ e[1:]))
        assert theta.tobytes() == np.asarray(tuple(e)).tobytes()


def test_estimate_with_ci_validation():
    with pytest.raises(ValueError):
        EstimateWithCI(1.0, -0.1, 10, "x")
