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
    dkw_band,
    kolmogorov_distance,
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


def cor204_bound(a):
    # the thinshell suite's right-hand side of Cor 204(i)
    return 16.0 * float(a @ a)


def test_weighted_square_variance_cases(cube16):
    n = 16
    ones = np.ones(n)
    est = weighted_square_variance(weighted_squares(cube16, ones))
    assert cor204_bound(ones) == pytest.approx(16.0 * n)
    assert abs(est.value - 0.8 * n) <= est.half_width
    e1 = np.eye(n)[0]
    est1 = weighted_square_variance(weighted_squares(cube16, e1))
    assert abs(est1.value - 0.8) <= est1.half_width
    zero = np.zeros(n)
    est0 = weighted_square_variance(weighted_squares(cube16, zero))
    assert est0.value == 0.0 and est0.half_width == 0.0 and cor204_bound(zero) == 0.0


def test_weighted_square_variance_of_two_draws_has_a_finite_half_width():
    # the asymptotic error sqrt((m4 - s^4)/N) is clipped at 0, never 0/0
    est = weighted_square_variance(np.array([1.0, 3.0]))
    assert est.value == 2.0
    assert math.isfinite(est.half_width) and est.half_width >= 0.0


def test_thin_shell_stats_needs_100_draws(cube16):
    with pytest.raises(ValueError, match="N >= 100"):
        thin_shell_stats(squared_norms(cube16)[:99], 16)


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_thin_shell_stats_needs_an_integer_dimension(n):
    # n = 0 divided by zero
    with pytest.raises(ValueError, match="dimension n >= 1"):
        thin_shell_stats(np.ones(100), n)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_thin_shell_stats_needs_finite_nonnegative_squared_norms(bad):
    # a NaN gave NaN estimates silently, a negative value warned in sqrt
    sq = np.ones(100)
    sq[37] = bad
    with pytest.raises(ValueError, match="squared norms sq"):
        thin_shell_stats(sq, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weighted_square_variance_needs_finite_values(bad):
    # a NaN gave a NaN estimate silently, an infinite value warned
    y = np.ones(100)
    y[37] = bad
    with pytest.raises(ValueError, match="finite values y"):
        weighted_square_variance(y)


def test_thin_shell_stats_needs_one_squared_norm_per_draw():
    # a matrix gave estimates over its flattened entries
    with pytest.raises(ValueError, match=r"1-D array of per-draw values, got shape \(100, 2\)"):
        thin_shell_stats(np.ones((100, 2)), 2)


def test_weighted_square_variance_needs_one_value_per_draw():
    with pytest.raises(ValueError, match=r"1-D array of per-draw values, got shape \(3, 3\)"):
        weighted_square_variance(np.ones((3, 3)))


def _two_pass(y):
    """Variance and its half-width by numpy two-pass sums over the whole array."""
    d = y - y.mean()
    s2 = float(np.sum(d * d)) / (y.size - 1)
    m4 = float(np.sum(d ** 4)) / y.size
    return s2, 3.0 * math.sqrt(max(m4 - s2 * s2, 0.0) / y.size)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_group_moments_keep_the_two_pass_variance_far_from_zero(offset):
    # groups of 256 values, the last one short; values of mean 1e6 and variance 1
    # lost 1.8e-12 of their variance when each group's sum of deviations was dropped
    y = offset + np.random.default_rng(11).standard_normal(40013)
    got = weighted_square_variance(y)
    s2, half_width = _two_pass(y)
    assert got.value == pytest.approx(s2, rel=1e-13)
    assert got.half_width == pytest.approx(half_width, rel=1e-13)


def test_weighted_square_variance_bound_random_directions(cube16):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0, 2, size=16)
        est = weighted_square_variance(weighted_squares(cube16, a))
        assert est.value <= cor204_bound(a) + 4 * est.half_width


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


@pytest.mark.parametrize("count", [0, -1])
def test_dkw_band_needs_a_positive_count(count):
    # 0 divided by zero and -1 raised a bare math domain error
    with pytest.raises(ValueError, match="count >= 1"):
        dkw_band(count)


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


@pytest.mark.parametrize("points", [
    [(4, 1.0), (8, math.inf), (16, 1.0)], [(4, 1.0), (8, math.nan), (16, 1.0)],
    [(0, 1.0), (8, 2.0), (16, 1.0)], [(math.inf, 1.0), (8, 2.0), (16, 1.0)]])
def test_scaling_fit_rejects_a_point_off_its_log_domain(points):
    # an infinite value, n = 0 or n = inf raised a RuntimeWarning from the logs
    # or the fit, and a NaN value returned a NaN slope
    with pytest.raises(ValueError, match="finite positive n and values"):
        scaling_fit(points)


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


@pytest.mark.parametrize("a, p, r", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                     (1.0, math.nan, 1.0), (1.0, 1.0, math.inf),
                                     (-1.0, 1.0, 1.0)])
def test_verify_identities_needs_finite_nonnegative_a_p_r(a, p, r):
    # a NaN gave all-NaN values and an infinite a all-infinite ones
    with pytest.raises(ValueError, match="finite and nonnegative"):
        verify_identities(a, p, r)


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
    # the uniform direction is a float64 unit vector of length n
    for n in (5, 16, 64, 256):
        theta = uniform_direction(n)
        assert theta.dtype == np.float64 and theta.shape == (n,)
        assert float(theta @ theta) == pytest.approx(1.0, abs=1e-15)
        # the construction of the former WeightVector.uniform_direction(n).array
        e = np.full(n, 1.0 / math.sqrt(n))
        e[0] = math.sqrt(1.0 - float(e[1:] @ e[1:]))
        assert theta.tobytes() == np.asarray(tuple(e)).tobytes()
    for n in (0, -1, 2.5, math.nan, np.float64(3.0)):  # n = 0 divided by zero
        with pytest.raises(ValueError, match="n >= 1"):  # 2.5 raised numpy's TypeError
            uniform_direction(n)
    assert np.array_equal(uniform_direction(np.int64(5)), uniform_direction(5))


def test_estimate_with_ci_validation():
    for half_width in (-0.1, math.nan):  # NaN passed the former check half_width < 0
        with pytest.raises(ValueError, match="half_width must be nonnegative"):
            EstimateWithCI(1.0, half_width, "x")
