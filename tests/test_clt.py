import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from thinshell import clt, suites
from thinshell.clt import (
    TruncationError,
    bernoulli_gamma_tail_bruteforce,
    bernoulli_gamma_tail_fourier,
    build_kernel,
    cube_marginal_tail,
    kernel_moment_by_quadrature,
    lemma700_report,
    lemma1034_check,
    normal_density,
    normal_upper_tail,
    tail_grid,
    _all_sign_sums,
    _char_product,
    _gl_panels,
    _leggauss,
    sinc8_tail_integral,
)
from thinshell.estimators import uniform_direction

KERNEL = build_kernel()


# -- characteristic function contract -----------------------------------------

def test_char_fn_endpoint_values():
    g = KERNEL.char_fn
    assert g(0.0) == 1.0
    assert g(1.0) == 0.0
    assert g(-1.0) == 0.0
    assert g(1.7) == 0.0


def test_char_fn_band_limits_and_quadratic_lower_bound():
    xi = np.linspace(-1.3, 1.3, 100001)
    g = KERNEL.char_fn(xi)
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0)
    assert np.all(g >= 1.0 - 1000.0 * xi ** 2)
    assert np.all(g[np.abs(xi) >= 1.0] == 0.0)


def test_char_fn_even():
    xi = np.linspace(0, 1, 4001)
    assert np.array_equal(KERNEL.char_fn(xi), KERNEL.char_fn(-xi))


def test_spline_knot_continuity_exact():
    # value and first 6 derivatives agree at interior knots, in exact arithmetic
    spline = KERNEL.char_fn
    pieces = spline.pos_pieces
    for (l1, r1, c1), (l2, r2, c2) in zip(pieces[:-1], pieces[1:]):
        u = r1 - l1
        for order in range(7):
            left = sum(math.comb(k, order) * math.factorial(order) * c * u ** (k - order)
                       for k, c in enumerate(c1) if k >= order)
            right = math.factorial(order) * c2[order]
            assert left == right  # Fractions: exact equality


def test_spline_edge_piece_is_the_closed_form():
    # __call__ evaluates [3, 4] as (4 - x)^7/7!, which in u = x - 3 is (1 - u)^7/5040
    left, right, coeffs = KERNEL.char_fn.pos_pieces[-1]
    assert (left, right) == (3, 4)
    assert coeffs == [Fraction((-1) ** m * math.comb(7, m), 5040) for m in range(8)]


def test_kernel_moments_exact_values():
    m2, m4, m6 = KERNEL.moments_exact
    assert m2 == Fraction(3360, 151)
    assert m4 == Fraction(215040, 151)
    assert m6 == Fraction(25804800, 151)


@pytest.mark.parametrize("order", [0, 2, 4, 6])
def test_kernel_moments_by_quadrature(order):
    # independent oracle: density quadrature with the exact oscillatory tail
    value = kernel_moment_by_quadrature(KERNEL, order)
    expect = 1.0 if order == 0 else KERNEL.moments[order // 2 - 1]
    assert value == pytest.approx(expect, rel=1e-9, abs=1e-10)


def test_density_nonnegative_and_normalized():
    x = np.linspace(-400, 400, 20001)
    assert np.all(KERNEL.density(x) >= 0.0)
    assert kernel_moment_by_quadrature(KERNEL, 0) == pytest.approx(1.0, abs=1e-10)


def test_cdf_density_consistency():
    # numeric derivative of the CDF matches the density to 1e-6 on [-50, 50]
    xs = np.linspace(-50, 50, 401)
    step = 1e-4
    d_num = (KERNEL.cdf(xs + step) - KERNEL.cdf(xs - step)) / (2 * step)
    assert np.max(np.abs(d_num - KERNEL.density(xs))) < 1e-6


def test_cdf_matches_density_quadrature():
    # on both sides of the switch from the power series to the closed form at
    # |x| = 12, and far into the tail; scalar and array calls agree exactly
    xs = np.array([0.0, 1e-3, 0.5, 3.99, 4.0, 4.01, 11.99, 12.0, 12.01, 40.0, 200.0])
    xs = np.concatenate([xs, -xs[1:]])
    batch = KERNEL.cdf(xs)
    for x, b in zip(xs, batch):
        half = quad(KERNEL.density, 0.0, abs(x), epsabs=1e-14, epsrel=1e-13, limit=2000)[0]
        assert KERNEL.cdf(float(x)) == b
        assert b == pytest.approx(0.5 + math.copysign(half, x), abs=1e-13)


def test_cdf_basic_properties():
    assert KERNEL.cdf(0.0) == 0.5
    xs = np.linspace(-160, 160, 2001)
    c = KERNEL.cdf(xs)
    # monotone up to rounding: the Si/Ci recurrence beyond |x| = 12 cancels
    # down to an absolute error of about 1e-15 (worst step here -1.3e-15)
    assert np.all(np.diff(c) >= -4e-15)
    assert 0.0 < c[0] < 1e-10 and 1.0 - 1e-10 < c[-1] <= 1.0
    assert np.allclose(c + KERNEL.cdf(-xs), 1.0, rtol=0.0, atol=1e-15)


def test_cdf_does_not_depend_on_the_batch():
    # the series and the closed form are elementwise: a point's CDF has the
    # same bits alone, in a short batch and in a long one
    xs = np.random.default_rng(5).uniform(-1.1 * clt._NEAR, 1.1 * clt._NEAR, size=600)
    batch = KERNEL.cdf(xs)
    assert np.array_equal(np.concatenate([KERNEL.cdf(xs[i:i + 7]) for i in range(0, 600, 7)]),
                          batch)
    assert all(KERNEL.cdf(float(x)) == b for x, b in zip(xs[::37], batch[::37]))


def test_cdf_series_against_mpmath():
    # the lower tail P(G <= -x) is the series' own value, 1/2 minus the
    # integral; P(G <= x) adds the rounding of 1 - tail, half an ulp of 1
    xs = np.linspace(0.0, clt._NEAR, 241)
    k1 = mpmath.mpf(KERNEL.kappa1)
    with mpmath.workdps(40):
        def dens(u):
            return (mpmath.sin(u / 8) / u) ** 8 if u else mpmath.mpf(8) ** -8
        upper = [mpmath.mpf(0.5)]
        for a, b in zip(xs[:-1], xs[1:]):
            upper.append(upper[-1] - k1 * mpmath.quad(dens, [mpmath.mpf(a), mpmath.mpf(b)]))
        upper = np.array([float(u) for u in upper])
    assert np.max(np.abs(KERNEL.cdf(-xs) - upper)) <= 2e-16
    assert np.max(np.abs(KERNEL.cdf(xs) - (1.0 - upper))) <= 2e-16 + 2.0 ** -53


def test_cdf_series_meets_the_closed_form_at_the_switch():
    series = KERNEL.cdf(-clt._NEAR)
    closed = KERNEL.kappa1 * sinc8_tail_integral(8, clt._NEAR)
    assert abs(series - closed) <= 1e-15
    assert abs(KERNEL.cdf(-np.nextafter(clt._NEAR, np.inf)) - closed) <= 1e-15


def test_sinc8_series_coefficients_are_exact():
    # b_j of int_0^y sinc^8 = sum_j b_j y^(2j+1), against the Taylor series of
    # sin^8 from mpmath: b_0 = 1, b_1 = -4/9 (sin^8 y = y^8 - (4/3) y^10 + ...)
    coefs = clt._sinc8_series()
    assert not coefs.flags.writeable and clt._sinc8_series() is coefs
    assert coefs[0] == 1.0 and coefs[1] == -4 / 9
    with mpmath.workdps(60):
        taylor = mpmath.taylor(lambda y: mpmath.sin(y) ** 8, 0, 2 * coefs.size + 8)
        ref = [float(taylor[2 * j + 8] / (2 * j + 1)) for j in range(coefs.size)]
    assert np.array_equal(coefs, ref)


def test_density_against_the_sinc_power():
    # the series branch (|y| < 1e-4) against 40-digit arithmetic; the sin(y)/y
    # branch against the same float sin(y)/y raised by pow, which checks the
    # three squarings; and the value at 0
    c = KERNEL.kappa1 * KERNEL.kappa2 ** 8
    mpmath.mp.dps = 40
    below = np.array([5e-324, 1e-12, 3e-5, 9.9e-5, np.nextafter(1e-4, 0.0)])
    above = np.array([1e-4, np.nextafter(1e-4, 1.0), 1.01e-4, 2e-4, 1e-3])
    for ys, ref in [(below, [c * float((mpmath.sin(y) / y) ** 8) for y in map(mpmath.mpf, below)]),
                    (above, c * np.power(np.sin(above) / above, 8))]:
        for sign in (1.0, -1.0):
            got = KERNEL.density(sign * ys / KERNEL.kappa2)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
    assert KERNEL.density(0.0) == c


def test_density_return_shapes():
    for x in (0.0, 3.0, np.array(3.0), np.float64(3.0)):
        d = KERNEL.density(x)
        assert np.shape(d) == () and isinstance(d, float)
    assert KERNEL.density(np.zeros((2, 3))).shape == (2, 3)
    assert KERNEL.density(np.zeros(0)).shape == (0,)
    assert KERNEL.density([0.0, 8.0]).shape == (2,)


def test_cdf_is_exactly_0_and_1_at_the_infinities():
    # sinc8_tail_integral raised for T = inf, naming a T the caller never passed
    assert KERNEL.cdf(math.inf) == 1.0 and KERNEL.cdf(-math.inf) == 0.0
    got = KERNEL.cdf(np.array([-math.inf, -20.0, 0.0, 20.0, math.inf]))
    assert got[0] == 0.0 and got[-1] == 1.0
    assert np.array_equal(got[1:-1], KERNEL.cdf(np.array([-20.0, 0.0, 20.0])))


def test_density_is_0_at_the_infinities_without_a_warning():
    # sin(inf) warned and gave NaN; the tier-1 filter turns a warning into an error
    assert KERNEL.density(math.inf) == 0.0 and KERNEL.density(-math.inf) == 0.0
    got = KERNEL.density(np.array([-math.inf, 3.0, math.inf]))
    assert got[0] == got[2] == 0.0 and got[1] == KERNEL.density(3.0)


@pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])])
@pytest.mark.parametrize("method", ["cdf", "density"])
def test_kernel_rejects_a_nan_x(method, x):
    # cdf(nan) returned NaN silently
    with pytest.raises(ValueError, match=f"SmoothingKernel.{method} needs x that is not NaN"):
        getattr(KERNEL, method)(x)


def test_gauss_legendre_tables_are_shared_and_read_only():
    nodes, weights = _leggauss(16)
    assert _leggauss(16)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_sinc8_tail_integral_is_elementwise():
    ts = np.array([0.5, 3.0, 4.0, 17.5, 400.0])
    for k in (2, 5, 8):
        expect = [sinc8_tail_integral(k, float(t)) for t in ts]
        assert np.array_equal(sinc8_tail_integral(k, ts), expect)
    with pytest.raises(ValueError):
        sinc8_tail_integral(8, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        sinc8_tail_integral(8, np.array([-3.0]))


@pytest.mark.parametrize("big_t", [math.inf, math.nan, np.array([1.0, math.nan])])
def test_sinc8_tail_integral_needs_a_finite_t(big_t):
    # T = inf warned in cos(inf) and gave NaN; a NaN T passed the check T <= 0
    with pytest.raises(ValueError, match="finite T > 0"):
        sinc8_tail_integral(2, big_t)


# -- Gaussian utilities ---------------------------------------------------------

def test_normal_tail_against_mpmath():
    mpmath.mp.dps = 30
    for t in [0.0, 0.3, 1.0, 2.5, 5.0, 8.0]:
        ref = float(mpmath.ncdf(-t))
        assert abs(float(normal_upper_tail(t)) - ref) < 1e-14
    assert normal_upper_tail(0.0) == 0.5
    t = np.linspace(-6, 6, 101)
    assert np.allclose(normal_upper_tail(t) + normal_upper_tail(-t), 1.0, atol=1e-15)


def test_gauss_tail_bounds():
    grid = np.linspace(0.0, 10.0, 201)
    ratios = normal_upper_tail(grid) * (grid + 1.0) / normal_density(grid)
    assert np.all((ratios >= 0.99) & (ratios <= 1.35))
    table = dict(zip(grid, ratios))
    assert table[0.0] == pytest.approx(math.sqrt(2 * math.pi) / 2, abs=1e-12)
    # (1 - Phi(1)) (1 + 1) / phi(1) = erfc(1/sqrt 2) sqrt(2 pi e), from mpmath
    with mpmath.workdps(30):
        ref = mpmath.erfc(1 / mpmath.sqrt(2)) * mpmath.sqrt(2 * mpmath.pi * mpmath.e)
    assert float(ref) == pytest.approx(1.31135908484, abs=1e-11)
    assert table[1.0] == pytest.approx(float(ref), abs=1e-12)
    assert table[1.0] == pytest.approx(1.311, abs=2e-3)
    # asymptotically r(t) ~ (1 + 1/t)(1 - 1/t^2 + ...) -> 1.089 at t = 10
    assert table[10.0] == pytest.approx(1.089, abs=2e-3)


def test_lemma1034_constants():
    rep = lemma1034_check(np.linspace(0.0, 6.0, 121))
    # at t0 = 0: delta = 1/2 and Phi(2 (1/2)^(1/4)) ~ 0.0463, so C1 >= 10.8
    assert float(normal_upper_tail(2 * 0.5 ** 0.25)) == pytest.approx(0.0463, abs=5e-4)
    assert rep.c1_part_i >= 0.5 / 0.0464
    assert rep.c1_part_i < 20.0
    # unconditional lower bound 1 - Phi(-2), Phi(-2) = 0.977; the grid minimum
    # sits at t0 = 0 where the shift is -2 (1/2)^(1/4)
    assert rep.part_ii_min >= 1.0 - float(normal_upper_tail(-2.0)) - 1e-12
    assert rep.part_ii_min == pytest.approx(1.0 - float(normal_upper_tail(-2 * 0.5 ** 0.25)),
                                            abs=1e-12)
    assert 0.0 < rep.c2_max < 1.0
    # c2 is the minimum of delta^(3/4) / (2 phi) over the grid, so the
    # implication holds with no room at that grid point
    assert rep.implication_margin == pytest.approx(0.0, abs=1e-12)


def test_lemma1034_large_t0_ratio_stabilizes():
    t0 = np.linspace(4.0, 8.0, 9)
    delta = normal_upper_tail(t0)
    ratio = normal_upper_tail(t0 + 2 * delta ** 0.25) / delta
    assert np.all(ratio > 0.05)
    assert np.all(np.diff(ratio) > -1e-3)  # flattens out for large t0


@pytest.mark.parametrize("t0", [[math.nan], [0.0, math.inf], [-1.0]])
def test_lemma1034_needs_finite_nonnegative_t0(t0):
    # a NaN passed the check t0 < 0 and gave an all-NaN report
    with pytest.raises(ValueError, match="finite t0 >= 0"):
        lemma1034_check(t0)


# -- smoothed Bernoulli tails -----------------------------------------------------

def test_fourier_tail_limits():
    theta = np.full(4, 0.5)
    assert bernoulli_gamma_tail_fourier(theta, 0.5, -60.0) == pytest.approx(1.0, abs=1e-9)
    assert bernoulli_gamma_tail_fourier(theta, 0.5, 60.0) == pytest.approx(0.0, abs=1e-9)


def test_fourier_tail_symmetric_at_zero():
    theta = np.array([1.0, 0.0, 0.0])
    assert bernoulli_gamma_tail_fourier(theta, 2.0, 0.0) == pytest.approx(0.5, abs=1e-9)


def test_bruteforce_symmetric_cases():
    assert bernoulli_gamma_tail_bruteforce(np.array([1.0]), 1.0, 0.0) == pytest.approx(0.5, abs=1e-9)
    # sigma -> 0: mass splits by the sign-pattern sums 2, 0, 0, -2 against t = 0.5
    val = bernoulli_gamma_tail_bruteforce(np.array([1.0, 1.0]), 0.01, 0.5)
    assert val == pytest.approx(0.25, abs=1e-6)


def test_fourier_matches_bruteforce_spec_case():
    theta = np.full(16, 0.25)
    f = bernoulli_gamma_tail_fourier(theta, 0.5, 0.5)
    b = bernoulli_gamma_tail_bruteforce(theta, 0.5, 0.5)
    assert f == pytest.approx(b, abs=1e-6)


def test_fourier_matches_bruteforce_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        theta = rng.uniform(-1.0, 1.0, size=n)
        if np.all(theta == 0):
            theta[0] = 0.4
        sigma = float(rng.uniform(0.05, 1.5))
        t = float(rng.uniform(-3.0, 3.0))
        f = bernoulli_gamma_tail_fourier(theta, sigma, t)
        b = bernoulli_gamma_tail_bruteforce(theta, sigma, t)
        assert abs(f - b) < 1e-6


def test_fourier_array_matches_bruteforce():
    theta = np.full(8, 1 / math.sqrt(8))
    sigma = 0.4
    ts = np.array([-2.0, -0.3, 0.0, 0.7, 1.9, 5.0])
    batch = bernoulli_gamma_tail_fourier(theta, sigma, ts)
    assert batch.shape == ts.shape
    for t, v in zip(ts, batch):
        assert bernoulli_gamma_tail_bruteforce(theta, sigma, float(t)) == pytest.approx(v, abs=1e-10)


def test_bruteforce_shares_no_code_with_the_inversion(monkeypatch):
    theta = np.array([0.3, -0.8, 0.5, 0.1])
    expect = bernoulli_gamma_tail_bruteforce(theta, 0.7, 0.4)

    def no_spline(self, xi):
        raise AssertionError("the oracle evaluated the characteristic function")

    monkeypatch.setattr(clt._CharFnSpline, "__call__", no_spline)
    assert bernoulli_gamma_tail_bruteforce(theta, 0.7, 0.4) == expect
    with pytest.raises(AssertionError):
        bernoulli_gamma_tail_fourier(theta, 0.7, 0.4)


def test_blocked_tables_are_bit_identical(monkeypatch):
    # nodes and t-grid as bernoulli_gamma_tail_fourier builds them for
    # lemma700_report at n = 2048; unequal theta_i, so that a change of
    # product order shows
    n = 2048
    theta = np.random.default_rng(n).uniform(0.5, 1.5, size=n)
    theta /= np.linalg.norm(theta)
    sigma = 2 / math.sqrt(n)
    cut = 1 / sigma
    omega = 8.0 + float(np.sum(theta)) + 1.0
    xi = _gl_panels(0.0, cut, math.ceil(cut * omega / 5.0)).points.ravel()
    assert xi.size > clt._ROWS
    whole = np.prod(np.cos(np.multiply.outer(xi, theta)), axis=1)
    assert np.array_equal(_char_product(np.cos, theta, xi), whole)
    ts = np.linspace(-8.0, 8.0, 4096)
    blocked = bernoulli_gamma_tail_fourier(theta, sigma, ts)
    monkeypatch.setattr(clt, "_ROWS", 1 << 20)  # one block: the unblocked tables
    assert np.array_equal(bernoulli_gamma_tail_fourier(theta, sigma, ts), blocked)


def _direct_sine_transform(ts, panels, integrand):
    # the unfactored sum_j sin(t xi_j) w_j over the flattened node table
    xi = panels.points.ravel()
    weights = integrand(xi) * np.repeat(panels.half * panels.weights, panels.mid.size)
    return np.sin(np.multiply.outer(ts, xi)) @ weights


def test_factored_sine_transform_matches_the_direct_sum():
    rng = np.random.default_rng(21)
    panels = _gl_panels(0.0, 7.5, 40)
    ts = np.concatenate([[0.0, -1e-3, 2.5], rng.uniform(-60.0, 60.0, size=700)])
    for integrand in (np.cos, lambda xi: np.exp(-xi) / (1.0 + xi)):
        scale = np.abs(integrand(panels.points)).sum() * panels.half
        assert np.allclose(clt._sine_transform(ts, panels, integrand),
                           _direct_sine_transform(ts, panels, integrand),
                           rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("n", [5, 12, 40])
def test_factored_inversion_matches_the_direct_sum(monkeypatch, n):
    # tail probabilities through the factored transform and through the direct
    # sum agree to 1e-14: at a scalar t, at random unsorted t, on the tail grid
    # united with the sign sums (n <= 12) and out to |t| = 8|theta| + sum|theta|
    rng = np.random.default_rng(n)
    theta = rng.uniform(-1.0, 1.0, size=n)
    theta[: n // 2] = theta[0]  # repeated values as well as distinct ones
    nrm = float(np.linalg.norm(theta))
    reach = 8.0 * nrm + float(np.sum(np.abs(theta)))
    ts = np.concatenate([rng.uniform(-reach, reach, size=300), [reach, -reach]])
    if n <= 12:
        ts = np.concatenate([ts, np.union1d(tail_grid(nrm)[::8], _all_sign_sums(theta))])
    sigma = 2.0 / math.sqrt(n)
    factored = bernoulli_gamma_tail_fourier(theta, sigma, ts)
    scalar = bernoulli_gamma_tail_fourier(theta, sigma, 0.3)
    cube = cube_marginal_tail(theta, ts[:50]) if n >= 12 else None
    monkeypatch.setattr(clt, "_sine_transform", _direct_sine_transform)
    assert np.max(np.abs(factored - bernoulli_gamma_tail_fourier(theta, sigma, ts))) <= 1e-14
    assert abs(scalar - bernoulli_gamma_tail_fourier(theta, sigma, 0.3)) <= 1e-14
    if cube is not None:
        assert np.max(np.abs(cube - cube_marginal_tail(theta, ts[:50]))) <= 1e-14


def test_folded_sine_transform_is_the_signed_transform():
    # odd in t, numpy's sin odd and cos even: bit-identical on the mirrored tail
    # grid and on unsorted signed t with repeats, at half the distinct |t|
    panels = _gl_panels(0.0, 3.0, 37)
    rng = np.random.default_rng(26)
    shuffled = rng.permutation(np.concatenate([tail_grid(1.0)[::5], [0.0, -0.0, 2.5, -2.5]]))
    for ts in (tail_grid(1.0), shuffled):
        for integrand in (lambda xi: np.cos(xi) / xi, lambda xi: np.exp(-xi) * (1.0 + xi)):
            assert np.array_equal(clt._folded_sine_transform(ts, panels, integrand),
                                  clt._sine_transform(ts, panels, integrand))


def _gauss_subtracted_tail(char_fn, cut, nrm2, spread, ts):
    # the inversion with N(0, nrm2)'s characteristic function subtracted under
    # the integral and its tail added back in closed form; the subtracted
    # Gaussian's own transform runs on past the cut until it underflows
    nrm = math.sqrt(nrm2)
    omega = float(np.max(np.abs(ts))) + spread + 1.0

    def gauss(xi):
        return np.exp(-0.5 * xi * xi * nrm2)

    main = clt._sine_transform(ts, _gl_panels(0.0, cut, max(16, math.ceil(cut * omega / 5.0))),
                               lambda xi: (char_fn(xi) - gauss(xi)) / xi)
    gauss_hi = math.sqrt(1420.0) / nrm
    g_tail = 0.0
    if gauss_hi > cut:
        panels = _gl_panels(cut, gauss_hi, max(8, math.ceil((gauss_hi - cut) * omega / 5.0)))
        g_tail = clt._sine_transform(ts, panels, lambda xi: gauss(xi) / xi)
    return normal_upper_tail(ts / nrm) - main / math.pi + g_tail / math.pi


def test_one_transform_tails_match_the_gauss_subtracted_form(monkeypatch):
    # the subtraction and its closed-form add-back cancel exactly, so dropping
    # them moves the tails by rounding only: on the clt suite's oracle
    # instances and on the berry_esseen cube marginals
    instances = []
    monkeypatch.setattr(clt, "bernoulli_gamma_tail_bruteforce",
                        lambda theta, sigma, t: instances.append((theta, sigma, t)) or 0.0)
    result = suites.clt_suite(20250810, scaling_ns=(4, 8, 16))
    assert len(instances) == suites._ORACLE_INSTANCES
    # at n = 4 the smoothing variance 89/n is far above 1/2, and the note says so
    [note] = result.notes
    assert note.startswith("lemma700.scaling measured slope -0.290:")
    assert "is 22.25 at n = 4" in note
    for theta, sigma, t in instances:
        ref = _gauss_subtracted_tail(
            lambda xi: KERNEL.char_fn(sigma * xi) * _char_product(np.cos, theta, xi),
            1.0 / sigma, float(theta @ theta), float(np.sum(np.abs(theta))), np.array([t]))
        assert abs(bernoulli_gamma_tail_fourier(theta, sigma, t) - ref[0]) <= 2e-15
    ts = tail_grid(1.0)
    for n in (16, 64, 256):
        theta = uniform_direction(n)
        ref = _gauss_subtracted_tail(
            lambda xi: _char_product(np.sinc, theta * (math.sqrt(3.0) / math.pi), xi),
            clt.cube_marginal_cut(theta), 1.0, math.sqrt(3.0) * float(np.sum(np.abs(theta))), ts)
        assert np.max(np.abs(cube_marginal_tail(theta, ts) - ref)) <= 2e-15


def test_fixed_moment_rule_matches_the_exact_moments():
    # 50 panels of 32 Gauss-Legendre nodes on [0, 400], plus the exact tail
    for order, exact in zip((0, 2, 4, 6), (Fraction(1), *KERNEL.moments_exact)):
        value = kernel_moment_by_quadrature(KERNEL, order)
        assert abs(Fraction(value) - exact) <= 1e-15 * exact


def test_grouped_char_product_with_repeated_theta():
    rng = np.random.default_rng(8)
    theta = rng.permutation(np.repeat([0.3, -0.7, 0.05, 1.2], [20, 7, 36, 1]))
    xi = np.linspace(-9.0, 9.0, 1001)
    for factor in (np.cos, np.sinc):
        plain = np.prod(factor(np.multiply.outer(xi, theta)), axis=1)
        grouped = _char_product(factor, theta, xi)
        assert np.allclose(grouped, plain, rtol=1e-13, atol=0.0)


def test_grouped_char_product_with_distinct_theta_is_the_plain_product():
    theta = np.random.default_rng(9).uniform(-1.0, 1.0, size=300)
    xi = np.linspace(-5.0, 5.0, 700)
    for factor in (np.cos, np.sinc):
        plain = np.prod(factor(np.multiply.outer(xi, theta)), axis=1)
        assert np.array_equal(_char_product(factor, theta, xi), plain)


def test_tail_grid_is_mirrored():
    ts = tail_grid(1.3)
    assert ts.size == clt._TAIL_POINTS
    assert np.array_equal(ts, -ts[::-1])
    assert np.array_equal(ts[ts.size // 2:], np.linspace(-10.4, 10.4, ts.size)[ts.size // 2:])
    assert np.all(np.diff(ts) > 0)


def test_bruteforce_size_guard():
    with pytest.raises(ValueError):
        bernoulli_gamma_tail_bruteforce(np.ones(25), 1.0, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("theta, sigma, message", [
    ([], 0.5, "theta must be finite with a nonzero entry"),
    ([0.0, 0.0], 0.5, "theta must be finite with a nonzero entry"),
    ([0.5, NAN], 0.5, "theta must be finite with a nonzero entry"),
    ([0.5, math.inf], 0.5, "theta must be finite with a nonzero entry"),
    ([0.5, 0.5], NAN, "sigma must be finite and positive"),
    ([0.5, 0.5], math.inf, "sigma must be finite and positive"),
    ([0.5, 0.5], 0.0, "sigma must be finite and positive")])
def test_the_smoothed_tail_and_its_oracle_share_one_domain(theta, sigma, message):
    # an empty theta gave the oracle 1/2 and a NaN sigma gave it NaN; a NaN
    # sigma gave the Fourier route numpy's "cannot convert float NaN to integer"
    for tail in (bernoulli_gamma_tail_fourier, bernoulli_gamma_tail_bruteforce):
        with pytest.raises(ValueError, match=message):
            tail(theta, sigma, 0.0)


@pytest.mark.parametrize("t", [NAN, math.inf, -math.inf, np.array([0.5, NAN])])
@pytest.mark.parametrize("tail", [
    lambda t: bernoulli_gamma_tail_fourier([0.5, 0.5], 0.5, t),
    lambda t: bernoulli_gamma_tail_bruteforce([0.5, 0.5], 0.5, t),
    lambda t: cube_marginal_tail(uniform_direction(5), t)],
    ids=["fourier", "bruteforce", "cube_marginal"])
def test_every_tail_rejects_a_non_finite_t(tail, t):
    # a NaN t gave the inversions "cannot convert float NaN to integer", an
    # infinite one an OverflowError; either gave the oracle NaN
    with pytest.raises(ValueError, match="t must be finite"):
        tail(t)


@pytest.mark.parametrize("nrm", [0.0, -1.0, NAN, math.inf])
def test_the_tail_grid_needs_a_finite_positive_norm(nrm):
    # 0 gave a grid of zeros and NaN a grid of NaN
    with pytest.raises(ValueError, match="nrm must be finite and positive"):
        tail_grid(nrm)


@pytest.mark.parametrize("theta", [[NAN, 0.5, 0.5, 0.5, 0.5], [0.5] * 4 + [-math.inf], []])
def test_the_cube_marginal_rejects_theta_outside_its_domain(theta):
    # a NaN in theta gave numpy's "cannot convert float NaN to integer"
    for call in (lambda: cube_marginal_tail(theta, 0.5), lambda: clt.cube_marginal_cut(theta)):
        with pytest.raises(ValueError, match="theta must be finite with a nonzero entry"):
            call()


# -- lemma 700 report ---------------------------------------------------------------

def test_lemma700_hypothesis_violation():
    with pytest.raises(ValueError):
        lemma700_report(np.array([1.0, 0.0]), sigma=0.05)


def test_lemma700_sup_error_bounded():
    theta = np.full(16, 0.25)
    rep = lemma700_report(theta, sigma=0.5)
    assert rep.argmax_t >= 0.0
    assert rep.bound_rhs == pytest.approx(0.25 / 1.0 + 16 * 0.25 ** 4, abs=1e-12)
    assert rep.sup_error <= 10.0 * rep.bound_rhs
    assert rep.sup_error > 0.0


def test_lemma700_scale_invariance():
    theta = np.full(8, 1 / math.sqrt(8))
    r = 2.0
    a = lemma700_report(theta, sigma=0.4)
    b = lemma700_report(r * theta, sigma=r * 0.4)
    assert a.sup_error == pytest.approx(b.sup_error, abs=1e-9)
    assert a.bound_rhs == pytest.approx(b.bound_rhs, abs=1e-12)


def test_lemma700_scaling_law():
    # O(sigma^2 + sum theta^4) law: with sigma = 1.05/sqrt(n) (the smallest
    # sigma ~ 1/sqrt(n) satisfying the small-coefficient hypothesis for
    # uniform theta) the smoothing variance ~ 24 sigma^2 is small enough past
    # n = 64 for the 1/n slope to show cleanly
    ns = [64, 128, 256, 512]
    errs = []
    for n in ns:
        theta = np.full(n, 1 / math.sqrt(n))
        errs.append(lemma700_report(theta, sigma=1.05 / math.sqrt(n)).sup_error)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -1.15 <= slope <= -0.85


def test_lemma700_halving():
    # doubling n halves the sup error within factor 1.5 once 24 sigma^2 << 1
    e128 = lemma700_report(np.full(128, 1 / math.sqrt(128)), sigma=2 / math.sqrt(128)).sup_error
    e256 = lemma700_report(np.full(256, 1 / 16.0), sigma=2 / 16.0).sup_error
    assert 2.0 / 1.5 <= e128 / e256 <= 2.0 * 1.5


def _uniform_theta_tail_real_space(n, sigma, t):
    # P(sigma G + sum_i D_i/sqrt(n) >= t) without the Fourier path: the sum has
    # the binomial law on (2k - n)/sqrt(n), and G, being symmetric, has upper
    # tail 1/2 - sign(x) int_0^|x| density
    total = 0.0
    for k in range(n + 1):
        x = (t - (2 * k - n) / math.sqrt(n)) / sigma
        half = quad(KERNEL.density, 0.0, abs(x), epsabs=1e-14, epsrel=1e-13, limit=2000)[0]
        total += math.comb(n, k) / 2.0 ** n * (0.5 - math.copysign(half, x))
    return total


@pytest.mark.parametrize("n", [8, 64])
def test_lemma700_sup_error_matches_real_space_oracle(n):
    # over n <= 64 at sigma = 2/sqrt(n) the slope misses the 1/n law, but the
    # sup errors themselves are right
    rep = lemma700_report(np.full(n, 1 / math.sqrt(n)), sigma=2 / math.sqrt(n))
    exact = _uniform_theta_tail_real_space(n, 2 / math.sqrt(n), rep.argmax_t)
    assert rep.sup_error == pytest.approx(abs(exact - float(normal_upper_tail(rep.argmax_t))),
                                          abs=1e-8)


@pytest.mark.parametrize("n", [1024, 2048])
def test_lemma700_sup_error_smoothing_limit(n):
    # at sigma = 2/sqrt(n) the error is mostly E Phi(t - sigma G) - Phi(t)
    # ~ (sigma^2 E G^2 / 2) t phi(t), so n sup_error -> 2 E G^2 phi(1), E G^2 = 3360/151
    limit = 2.0 * 3360 / 151 * float(normal_density(1.0))
    rep = lemma700_report(np.full(n, 1 / math.sqrt(n)), sigma=2 / math.sqrt(n))
    assert n * rep.sup_error == pytest.approx(limit, rel=0.05)


# -- exact cube and counterexample marginals ------------------------------------------

def _irwin_hall_cdf(n: int, x: Fraction) -> Fraction:
    # P(U_1 + ... + U_n <= x) for uniform U_i on [0, 1], in exact rationals
    return sum((-1) ** k * math.comb(n, k) * (x - k) ** n
               for k in range(math.floor(x) + 1)) / math.factorial(n)


@pytest.mark.parametrize("n", [16, 64])
def test_cube_marginal_matches_irwin_hall(n):
    # theta . X with theta_i = 1/sqrt(n) and X_i = sqrt(3)(2 U_i - 1) is
    # sqrt(3/n)(2 S - n) for the Irwin-Hall sum S; x runs over rationals out to
    # |t| = 3 sqrt(3), about 5.2 standard deviations
    xs = [Fraction(n, 2) + Fraction(j, 8) * math.isqrt(n) for j in range(-12, 13)]
    exact = np.array([float(_irwin_hall_cdf(n, x)) for x in xs])
    ts = np.array([math.sqrt(3.0 / n) * (2.0 * float(x) - n) for x in xs])
    tail = cube_marginal_tail(np.full(n, 1 / math.sqrt(n)), ts)
    assert np.max(np.abs(1.0 - tail - exact)) <= 1e-13
    # a scalar t gives a float; its panels follow its own |t|, so it agrees to rounding
    scalar = cube_marginal_tail(np.full(n, 1 / math.sqrt(n)), float(ts[3]))
    assert isinstance(scalar, float) and scalar == pytest.approx(tail[3], abs=1e-13)


def test_cube_marginal_sup_error_edgeworth_limit():
    # F(t) - Phi(t) ~ -(kappa_4 / 24n) He_3(t) phi(t) with kappa_4 = -6/5 for a
    # uniform coordinate, so n sup |F - Phi| -> (6/5)/24 max |(t^3 - 3t) phi(t)|
    res = minimize_scalar(lambda t: -abs((t ** 3 - 3 * t) * float(normal_density(t))),
                          bounds=(0.0, 1.5), method="bounded", options={"xatol": 1e-12})
    limit = 1.2 / 24 * -res.fun
    assert limit == pytest.approx(0.0275294, abs=1e-7)
    n = 1024
    ts = tail_grid(1.0)
    tail = cube_marginal_tail(np.full(n, 1 / math.sqrt(n)), ts)
    gap = np.abs(1.0 - tail - normal_upper_tail(-ts))
    assert n * np.max(gap) == pytest.approx(limit, rel=5e-3)


def test_cube_marginal_distance_at_n16_against_irwin_hall_in_50_digits():
    # the berry_esseen suite's exact n = 16 distance, max |F - Phi| over
    # clt.tail_grid, against F from the Irwin-Hall sum and Phi from mpmath; the
    # error is even in t, and past t = 4 |F - Phi| is at most the larger tail
    n, cut = 16, 4.0
    ts = tail_grid(1.0)
    with mpmath.workdps(50):
        coef = [(-1) ** k * mpmath.binomial(n, k) / mpmath.factorial(n) for k in range(n + 1)]

        def cdf(t):  # theta . X = sqrt(3/n)(2 S - n) for the Irwin-Hall sum S
            x = n / mpmath.mpf(2) + mpmath.mpf(t) * mpmath.sqrt(n) / (2 * mpmath.sqrt(3))
            return sum(coef[k] * (x - k) ** n for k in range(int(mpmath.floor(x)) + 1))

        gaps = [abs(cdf(t) - mpmath.ncdf(t)) for t in ts[(ts >= 0) & (ts <= cut)]]
        tails = max(1 - cdf(cut), 1 - mpmath.ncdf(cut))
        exact = float(max(gaps))
    assert float(tails) < 0.02 * exact
    got = np.max(np.abs(1.0 - cube_marginal_tail(uniform_direction(n), ts)
                        - normal_upper_tail(-ts)))
    assert abs(got - exact) <= 1e-15
    assert n * exact == pytest.approx(0.0279051, abs=1e-7)
    assert abs(n * exact - suites._EDGEWORTH_LIMIT) <= suites._EDGEWORTH_C / n


@pytest.mark.parametrize("n", [1, 3, 4])
def test_cube_marginal_out_of_reach_raises(n):
    # theta = e_1 (any n) leaves one sinc factor, whose tail |phi|/xi ~ 1/xi^2
    # needs a cut near 6e12; uniform theta at n = 3 and 4 needs 14,940 and 1452
    axis = np.zeros(n)
    axis[0] = 1.0
    with pytest.raises(TruncationError, match="past the budget"):
        cube_marginal_tail(axis, 0.5)
    if n > 1:
        with pytest.raises(TruncationError):
            cube_marginal_tail(uniform_direction(n), 0.5)


def test_cube_marginal_reaches_n5():
    assert clt.cube_marginal_cut(uniform_direction(5)) == pytest.approx(372.5, abs=0.1)
    with pytest.raises(ValueError):
        cube_marginal_tail(np.zeros(5), 0.0)
