"""Band-limited smoothing kernel and Fourier-inversion tail probabilities for
smoothed Bernoulli sums and cube marginals, plus the Gaussian-tail utilities.

The kernel G is the symmetric random variable whose characteristic function g
is the 8-fold self-convolution of the indicator of [-1/8, 1/8], normalized to
g(0) = 1.  That makes g a degree-7 spline supported exactly on [-1, 1], so
inversion integrals truncate at |xi| = 1/sigma with zero truncation error; the
density is kappa1 * sin^8(kappa2 x)/x^8 with kappa2 = 1/8 and kappa1 fixed by
normalization.  All spline coefficients are constructed in exact rational
arithmetic.

Two independent routes lead to the smoothed tail P(sigma G + sum theta_i D_i
>= t).  ``bernoulli_gamma_tail_fourier`` inverts the characteristic function
(the spline times prod cos(theta_i xi)).  ``bernoulli_gamma_tail_bruteforce``
enumerates the 2^n sign patterns and evaluates G's CDF in real space, from the
sin^8 density alone: the Si/Ci closed form of its tail beyond |x| = 4 and
Gauss-Legendre quadrature of the density inside.  The two share no code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, sici

__all__ = [
    "SmoothingKernel", "build_kernel", "TruncationError",
    "bernoulli_gamma_tail_fourier", "bernoulli_gamma_tail_bruteforce",
    "cube_marginal_cut", "cube_marginal_tail", "tail_grid",
    "lemma700_report", "gauss_tail_bounds_check", "lemma1034_check",
    "normal_density", "normal_upper_tail", "normal_cdf",
]

# Rows per block of the (points x nodes) and (nodes x n) tables below: memory
# stays O(_ROWS x columns) however many points or nodes there are.  Each row is
# reduced on its own, so the block size does not change any value.
_ROWS = 256

# G's CDF: the Si/Ci closed form of the tail cancels near the origin, so for
# |x| <= _NEAR the tail is 1/2 minus a _NEAR_NODES-point Gauss-Legendre rule of
# the density on [0, |x|]; beyond it the closed form holds to rounding.
_NEAR = 4.0
_NEAR_NODES = 32

_PANEL_NODES = 16        # Gauss-Legendre nodes per panel of the inversion integrals
_TAIL_POINTS = 4096      # evenly spaced t-points of the sup errors (tail_grid)
_SANDWICH = (0.99, 1.35)  # bounds of Phi(t)(t+1)/phi(t) on [0, 10]
_MOMENT_CUT = 400.0      # quadrature of kernel moments on [0, T]; exact tail beyond
_TRUNCATION_TOL = 1e-13  # bound on the dropped tail int_cut^inf |phi|/xi of the cube inversion
_CUT_BUDGET = 1000.0     # largest cube cut times |theta|: uniform n = 5 needs 372, n = 4 1452


class TruncationError(ValueError):
    """The cube inversion's truncation bound needs a cut past _CUT_BUDGET."""


# -- Gaussian utilities -------------------------------------------------------

def normal_density(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def normal_upper_tail(t):
    """Upper tail integral of the standard normal density, via erfc."""
    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


def normal_cdf(t):
    return 0.5 * erfc(-np.asarray(t, dtype=float) / math.sqrt(2.0))


# -- exact spline construction -------------------------------------------------

def _bspline8_pieces():
    """Degree-7 pieces of B8, the 8-fold self-convolution of 1_[-1/2,1/2], on [0, 4].

    Closed form B8(x) = (1/7!) sum_k (-1)^k C(8,k) (x + 4 - k)_+^7; on [j, j+1]
    the terms k <= j + 4 are live, expanded in u = x - j.  Pieces are (left,
    right, coeffs of u^0..u^7).
    """
    return [(Fraction(j), Fraction(j + 1),
             [sum(Fraction((-1) ** k * comb(8, k) * comb(7, m) * (j + 4 - k) ** (7 - m))
                  for k in range(j + 5)) / math.factorial(7) for m in range(8)])
            for j in range(4)]


class _CharFnSpline:
    """gamma(xi) = B8(4 xi)/B8(0): even, supported on [-1, 1], knots at k/4."""

    def __init__(self):
        # pieces on [0, 4] in local coordinates u = x - left
        self.pos_pieces = _bspline8_pieces()
        self.center_value = self.pos_pieces[0][2][0]  # B8(0), exact
        self.knots = np.array([float(l) for l, _, _ in self.pos_pieces] + [4.0])
        self.coeffs = [np.array([float(x) for x in c]) for _, _, c in self.pos_pieces]
        # derivatives of gamma at 0 (exact): gamma^{(k)}(0) = 4^k B8^{(k)}(0)/B8(0)
        c0 = self.pos_pieces[0][2]
        self.derivs0 = [Fraction(4) ** k * math.factorial(k) * c0[k] / self.center_value
                        for k in range(8)]

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        x = 4.0 * np.abs(xi)
        out = np.zeros_like(x)
        inside = x < 4.0
        # outermost piece evaluated as (4-x)^7/7! to avoid cancellation at the edge
        edge = inside & (x >= 3.0)
        out[edge] = (4.0 - x[edge]) ** 7 / 5040.0
        body = inside & ~edge
        if np.any(body):
            idx = np.clip(np.searchsorted(self.knots, x[body], side="right") - 1, 0, 2)
            val = np.zeros(int(body.sum()))
            for j in range(3):
                m = idx == j
                if not m.any():
                    continue
                u = x[body][m] - self.knots[j]
                acc = np.zeros_like(u)
                for ck in self.coeffs[j][::-1]:
                    acc = acc * u + ck
                val[m] = acc
            out[body] = val
        return out / float(self.center_value)


@dataclass(frozen=True)
class SmoothingKernel:
    char_fn: _CharFnSpline
    kappa1: float
    kappa2: float
    moments: tuple[float, float, float]          # (E G^2, E G^4, E G^6)
    moments_exact: tuple[Fraction, Fraction, Fraction]

    def density(self, x):
        x = np.asarray(x, dtype=float)
        y = x * self.kappa2
        small = np.abs(y) < 1e-4
        sinc = np.where(small, 1.0 - y * y / 6.0 + y ** 4 / 120.0,
                        np.sin(np.where(small, 1.0, y)) / np.where(small, 1.0, y))
        return self.kappa1 * self.kappa2 ** 8 * sinc ** 8

    def cdf(self, x):
        """P(G <= x) in real space, from the density alone (no char_fn).

        The upper tail P(G >= |x|) is kappa1 int_|x|^inf sin^8(u/8)/u^8 du in
        closed form beyond _NEAR and 1/2 - int_0^|x| density inside it; the
        CDF follows by symmetry.  The closed form's recurrence cancels to an
        absolute error of about 1e-15, so far tails below that carry no
        relative accuracy.  A scalar x gives a float.
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        ax = np.abs(flat)
        tail = np.empty_like(ax)
        far = ax > _NEAR
        tail[far] = self.kappa1 * sinc8_tail_integral(8, ax[far])
        near = np.flatnonzero(~far)
        nodes, weights = np.polynomial.legendre.leggauss(_NEAR_NODES)
        for i in range(0, near.size, _ROWS):
            idx = near[i:i + _ROWS]
            half = 0.5 * ax[idx]
            tail[idx] = 0.5 - half * (self.density(np.multiply.outer(half, 1.0 + nodes)) @ weights)
        out = np.where(flat >= 0, 1.0 - tail, tail)
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


@lru_cache(maxsize=1)
def build_kernel() -> SmoothingKernel:
    """Construct the kernel once; the spline pieces and moments are exact.

    kappa1 = 4^7 * 128 / (pi * B8(0)) makes the sin^8 density integrate to 1;
    moments come from the spline derivatives at 0 (E G^{2k} = (-1)^k g^{(2k)}(0)).
    """
    spline = _CharFnSpline()
    b0 = spline.center_value
    kappa1 = float(Fraction(4 ** 7 * 128) / b0) / math.pi
    m2 = -spline.derivs0[2]
    m4 = spline.derivs0[4]
    m6 = -spline.derivs0[6]
    return SmoothingKernel(spline, kappa1, 0.125,
                           (float(m2), float(m4), float(m6)), (m2, m4, m6))


def _gl_panels(a: float, b: float, n_panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    xg, wg = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


# -- Fourier-inversion tails ----------------------------------------------------

def _char_product(factor, theta: np.ndarray, xi):
    """prod_i factor(theta_i xi), vectorized over xi in blocks of _ROWS values."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty(xi.size)
    for i in range(0, xi.size, _ROWS):
        out[i:i + _ROWS] = np.prod(factor(np.multiply.outer(xi[i:i + _ROWS], theta)), axis=1)
    return out


def _sine_transform(ts: np.ndarray, xi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j sin(t xi_j) weights_j for each t, in blocks of _ROWS t-values."""
    out = np.empty_like(ts)
    for i in range(0, ts.size, _ROWS):
        out[i:i + _ROWS] = np.sin(np.multiply.outer(ts[i:i + _ROWS], xi)) @ weights
    return out


def _inversion_tail(char_fn, cut: float, nrm2: float, spread: float, t):
    """P(S >= t) for a symmetric S with E S^2 = nrm2 and |S| <= spread, by Gil-Pelaez
    inversion of char_fn - (that of N(0, nrm2)), char_fn taken as 0 past the cut, on
    Gauss-Legendre panels sized to the oscillation frequency max|t| + spread; the
    normal tail is added back in closed form.  A scalar t gives a float."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    nrm = math.sqrt(nrm2)
    omega = float(np.max(np.abs(ts))) + spread + 1.0
    xi, w = _gl_panels(0.0, cut, max(16, math.ceil(cut * omega / 5.0)))
    main = _sine_transform(ts, xi, (char_fn(xi) - np.exp(-0.5 * xi * xi * nrm2)) / xi * w)
    gauss_hi = math.sqrt(1420.0) / nrm  # integrand underflows past here
    g_tail = np.zeros_like(ts)
    if gauss_hi > cut:
        xi2, w2 = _gl_panels(cut, gauss_hi, max(8, math.ceil((gauss_hi - cut) * omega / 5.0)))
        g_tail = _sine_transform(ts, xi2, np.exp(-0.5 * xi2 * xi2 * nrm2) / xi2 * w2)
    out = normal_upper_tail(ts / nrm) - main / math.pi + g_tail / math.pi
    return float(out[0]) if np.ndim(t) == 0 else out


def bernoulli_gamma_tail_fourier(theta, sigma: float, t):
    """P(sigma G + sum_i theta_i D_i >= t) for symmetric Bernoulli D_i, at a
    scalar t (a float) or an array of t.

    The characteristic function gamma(sigma xi) prod cos(theta_i xi) vanishes
    for |xi| >= 1/sigma, so the inversion is cut there with no truncation error.
    """
    theta = np.asarray(theta, dtype=float)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    nrm2 = float(theta @ theta)
    if nrm2 == 0:
        raise ValueError("theta must be nonzero")
    kernel = build_kernel()
    return _inversion_tail(lambda xi: kernel.char_fn(sigma * xi) * _char_product(np.cos, theta, xi),
                           1.0 / sigma, nrm2, float(np.sum(np.abs(theta))), t)


def cube_marginal_cut(theta) -> float:
    """Cut of the cube inversion.  For a_(1) >= a_(2) >= ... the nonzero
    sqrt(3)|theta_i|, |phi(xi)| <= prod_{i <= k} 1/(a_(i) xi), so the dropped tail
    int_cut^inf |phi|/xi is at most prod_{i <= k} 1/(a_(i) cut) / k for every k;
    the cut is the least one that holds that to _TRUNCATION_TOL.  Raises
    TruncationError past _CUT_BUDGET / |theta|."""
    theta = np.asarray(theta, dtype=float)
    a = np.sort(math.sqrt(3.0) * np.abs(theta[theta != 0]))[::-1]
    if a.size == 0:
        raise ValueError("theta must be nonzero")
    k = np.arange(1, a.size + 1)
    cut = float(np.min(np.exp(-(np.log(k * _TRUNCATION_TOL) + np.cumsum(np.log(a))) / k)))
    reach = cut * math.sqrt(float(theta @ theta))
    if reach > _CUT_BUDGET:
        raise TruncationError(f"the cube inversion needs a cut of {reach:.4g}/|theta| at "
                              f"n = {theta.size}, past the budget {_CUT_BUDGET:g}/|theta|")
    return cut


def cube_marginal_tail(theta, t):
    """P(theta . X >= t) for X uniform on the isotropic cube [-sqrt 3, sqrt 3]^n, at a
    scalar t (a float) or an array of t, from the characteristic function
    prod sinc(sqrt(3) theta_i xi) on [0, cube_marginal_cut(theta)]."""
    theta = np.asarray(theta, dtype=float)
    scaled = theta * (math.sqrt(3.0) / math.pi)  # np.sinc(x) = sin(pi x)/(pi x)
    return _inversion_tail(lambda xi: _char_product(np.sinc, scaled, xi), cube_marginal_cut(theta),
                           float(theta @ theta), math.sqrt(3.0) * float(np.sum(np.abs(theta))), t)


def _all_sign_sums(theta: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for th in theta:
        sums = np.concatenate([sums - th, sums + th])
    return sums


def bernoulli_gamma_tail_bruteforce(theta, sigma: float, t: float) -> float:
    """Oracle by full enumeration: 2^-n sum over sign patterns s of
    P(G >= (t - s)/sigma) = P(G <= (s - t)/sigma), from G's real-space CDF."""
    theta = np.asarray(theta, dtype=float)
    if theta.size > 24:
        raise ValueError("brute force limited to n <= 24")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    sums = _all_sign_sums(theta)
    return float(np.mean(build_kernel().cdf((sums - t) / sigma)))


def tail_grid(nrm: float) -> np.ndarray:
    """The t-grid of the sup errors: _TAIL_POINTS even steps over [-8 nrm, 8 nrm]."""
    return np.linspace(-8.0 * nrm, 8.0 * nrm, _TAIL_POINTS)


class Lemma700Report(NamedTuple):
    sup_error: float
    bound_rhs: float
    argmax_t: float
    n_points: int


def lemma700_report(theta, sigma: float) -> Lemma700Report:
    """Sup over a t-grid of |P(sigma G + sum theta_i D_i >= t) - Phi(t/|theta|)|.

    Requires the small-coefficient hypothesis sum_{|theta_i| >= sigma} theta_i^2
    <= |theta|^2/2.  bound_rhs = sigma^2/|theta|^2 + sum theta_i^4/|theta|^4 is
    the constant-free right side, reported for scaling comparison only.
    """
    theta = np.asarray(theta, dtype=float)
    nrm2 = float(theta @ theta)
    big = np.abs(theta) >= sigma
    if float(theta[big] @ theta[big]) > 0.5 * nrm2 + 1e-15:
        raise ValueError("hypothesis violated: sum over |theta_i| >= sigma of theta_i^2 "
                         "exceeds |theta|^2 / 2")
    nrm = math.sqrt(nrm2)
    ts = tail_grid(nrm)
    if theta.size <= 12:
        ts = np.union1d(ts, _all_sign_sums(theta))
    probs = bernoulli_gamma_tail_fourier(theta, sigma, ts)
    errs = np.abs(probs - normal_upper_tail(ts / nrm))
    k = int(np.argmax(errs))
    bound = sigma ** 2 / nrm2 + float(np.sum(theta ** 4)) / nrm2 ** 2
    return Lemma700Report(float(errs[k]), bound, float(ts[k]), ts.size)


# -- Gaussian tail inequality checks --------------------------------------------

def gauss_tail_bounds_check(t_grid) -> tuple[np.ndarray, bool]:
    """Ratios r(t) = Phi(t)(t+1)/phi(t) over ``t_grid`` in [0, 10], and whether
    all of them lie in the sandwich [0.99, 1.35]."""
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0) or np.any(t > 10):
        raise ValueError("t_grid must lie in [0, 10]")
    r = normal_upper_tail(t) * (t + 1.0) / normal_density(t)
    return r, bool(np.all((r >= _SANDWICH[0]) & (r <= _SANDWICH[1])))


class Lemma1034Report(NamedTuple):
    c1_part_i: float       # max over grid of delta / Phi(t0 + 2 delta^(1/4))
    c1_part_iii: float     # max over grid of 4 phi(t0)^2 / delta
    c2_max: float          # largest admissible c2 = min delta^(3/4) / (2 phi(t0))
    part_ii_min: float     # min of (1 - Phi(t0 - 2 delta^(1/4)))
    implication_ok: bool


def lemma1034_check(t0_grid) -> Lemma1034Report:
    """Measured constants for the shifted-tail lemma on a t0 >= 0 grid.

    (i) Phi(t0 + 2 delta^(1/4)) >= delta/C1 with delta = Phi(t0); (ii) the
    unconditional lower tail bound; (iii) whenever |1/x - 1/phi(t0)| <=
    c2 delta^(-3/4) then x^2 <= C1 delta, certified through x <= 2 phi(t0).
    """
    t0 = np.asarray(t0_grid, dtype=float)
    if np.any(t0 < 0):
        raise ValueError("t0 >= 0 required")
    delta = normal_upper_tail(t0)
    shift = 2.0 * delta ** 0.25
    c1_i = float(np.max(delta / normal_upper_tail(t0 + shift)))
    part_ii = float(np.min(1.0 - normal_upper_tail(t0 - shift)))
    phi0 = normal_density(t0)
    c2 = float(np.min(delta ** 0.75 / (2.0 * phi0)))
    c1_iii = float(np.max(4.0 * phi0 ** 2 / delta))
    # verify the implication with the measured c2: worst admissible x is
    # 1/(1/phi - c2 delta^(-3/4)) <= 2 phi, hence x^2 <= 4 phi^2 <= c1_iii delta
    lower_recip = 1.0 / phi0 - c2 * delta ** (-0.75)
    ok = bool(np.all(lower_recip >= 1.0 / (2.0 * phi0) - 1e-12))
    return Lemma1034Report(c1_i, c1_iii, c2, part_ii, ok)


# -- closed-form oscillatory tails (G's CDF; a cross-check of kernel moments) ----

def _tail_cos_over_xk(a: float, k: int, big_t):
    """int_T^inf cos(a x)/x^k dx by reduction to the sine/cosine integrals,
    elementwise over an array T."""
    if k == 1:
        return -sici(a * big_t)[1]
    return (np.cos(a * big_t) * big_t ** (1 - k)) / (k - 1) \
        - a / (k - 1) * _tail_sin_over_xk(a, k - 1, big_t)


def _tail_sin_over_xk(a: float, k: int, big_t):
    if k == 1:
        return math.pi / 2.0 - sici(a * big_t)[0]
    return (np.sin(a * big_t) * big_t ** (1 - k)) / (k - 1) \
        + a / (k - 1) * _tail_cos_over_xk(a, k - 1, big_t)


def sinc8_tail_integral(k: int, big_t):
    """int_T^inf sin^8(x/8) / x^k dx, exact via the cosine expansion of sin^8.

    Elementwise over an array T; a scalar T gives a float.
    """
    t = np.asarray(big_t, dtype=float)
    if np.any(t <= 0) or k < 2:
        raise ValueError("need T > 0 and k >= 2")
    coefs = ((35.0, 0.0), (-56.0, 0.25), (28.0, 0.5), (-8.0, 0.75), (1.0, 1.0))
    total = coefs[0][0] / 128.0 * t ** (1 - k) / (k - 1)
    for c, a in coefs[1:]:
        total += c / 128.0 * _tail_cos_over_xk(a, k, t)
    return float(total) if t.ndim == 0 else total


def kernel_moment_by_quadrature(kernel: SmoothingKernel, order: int) -> float:
    """E G^order for even order, by quadrature on [0, T] plus the exact tail."""
    if order % 2 or order < 0 or order > 6:
        raise ValueError("order must be one of 0, 2, 4, 6")
    val, _ = quad(lambda x: x ** order * kernel.density(x), 0.0, _MOMENT_CUT,
                  epsabs=1e-13, epsrel=1e-13, limit=4000)
    tail = kernel.kappa1 * sinc8_tail_integral(8 - order, _MOMENT_CUT)
    return 2.0 * (val + tail)
