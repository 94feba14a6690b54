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
(the spline times prod cos(theta_i xi)) by Gil-Pelaez, P(S >= t) = 1/2 -
(1/pi) int_0^cut phi(xi) sin(t xi)/xi dxi: one sine transform on Gauss-Legendre
panels, evaluated once per distinct |t| because it is odd in t.
``bernoulli_gamma_tail_bruteforce`` enumerates the 2^n sign patterns and
evaluates G's CDF in real space, from the sin^8 density alone: the power
series of int_0^y sinc^8 for |x| <= 12 and the Si/Ci closed form of the tail
beyond.  The two share no code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

# Rows per block of the (t-points x nodes) and (nodes x n) tables below: memory
# stays O(_ROWS x columns) however many points or nodes there are.  Each row is
# reduced on its own, so the block size does not change any value.
_ROWS = 256

# G's CDF: the Si/Ci closed form of the tail cancels near the origin, so for
# |x| <= _NEAR the tail is 1/2 minus the power series of the density's integral
# on [0, |x|], to _SERIES_TERMS terms (the first one dropped is below 3e-20 at
# _NEAR); beyond it the closed form holds to rounding.  _NEAR is the largest
# whole |x| at which the series stays within 2e-16 of 40-digit arithmetic.
_NEAR = 12.0
_SERIES_TERMS = 24
# 128 sin^8 y = sum_k _SIN8[k] cos(2 k y)
_SIN8 = (35, -56, 28, -8, 1)

_PANEL_NODES = 16        # Gauss-Legendre nodes per panel of the inversion integrals
_TAIL_POINTS = 4096      # evenly spaced t-points of the sup errors (tail_grid)
_MOMENT_CUT = 400.0      # quadrature of kernel moments on [0, T]; exact tail beyond
_MOMENT_PANELS = 50      # equal panels of _PANEL_NODES Gauss-Legendre nodes on [0, T]
_TRUNCATION_TOL = 1e-13  # bound on the dropped tail int_cut^inf |phi|/xi of the cube inversion
_CUT_BUDGET = 1000.0     # largest cube cut times |theta|: uniform n = 5 needs 372, n = 4 1452


class TruncationError(ValueError):
    """The cube inversion's truncation bound needs a cut past _CUT_BUDGET."""


# -- Gaussian utilities -------------------------------------------------------
# scipy.special is imported in the calls that use it (here, and sici in
# _tail_cos_over_xk), so a run that evaluates none of them loads no scipy.

def normal_density(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def normal_upper_tail(t):
    """Upper tail integral of the standard normal density, via erfc."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


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
    """gamma(xi) = B8(4 xi)/B8(0): even, supported on [-1, 1], knots at k/4.

    With x = 4|xi|, one ``np.piecewise`` picks the piece j <= x < j + 1 of each
    point: the inner three are their degree-7 polynomials in u = x - j, the
    outermost is (4 - x)^7/7!, which does not cancel at the edge, and x >= 4
    takes piecewise's default 0.
    """

    def __init__(self):
        # pieces on [0, 4] in local coordinates u = x - left
        self.pos_pieces = _bspline8_pieces()
        self.center_value = self.pos_pieces[0][2][0]  # B8(0), exact
        self.coeffs = [np.array([float(x) for x in c]) for _, _, c in self.pos_pieces]
        # derivatives of gamma at 0 (exact): gamma^{(k)}(0) = 4^k B8^{(k)}(0)/B8(0)
        c0 = self.pos_pieces[0][2]
        self.derivs0 = [Fraction(4) ** k * math.factorial(k) * c0[k] / self.center_value
                        for k in range(8)]

    def __call__(self, xi):
        x = 4.0 * np.abs(np.asarray(xi, dtype=float))
        polyval = np.polynomial.polynomial.polyval  # loaded on first use, not at import
        pieces = [lambda x, j=j: polyval(x - j, self.coeffs[j]) for j in range(3)]
        pieces.append(lambda x: (4.0 - x) ** 7 / 5040.0)
        out = np.piecewise(x, [(j <= x) & (x < j + 1) for j in range(4)], pieces)
        return out / float(self.center_value)


@dataclass(frozen=True)
class SmoothingKernel:
    char_fn: _CharFnSpline
    kappa1: float
    kappa2: float
    moments: tuple[float, float, float]          # (E G^2, E G^4, E G^6)
    moments_exact: tuple[Fraction, Fraction, Fraction]

    def density(self, x):
        """kappa1 sin^8(kappa2 x)/x^8, 0 at x = +-inf; a scalar x gives a scalar."""
        x = np.asarray(x, dtype=float)
        y = np.atleast_1d(x * self.kappa2)
        infinite = _infinities(y, "SmoothingKernel.density")
        if infinite is not None:
            y[infinite] = 0.0  # sin(inf) is NaN; the density is set to 0 there below
        small = np.abs(y) < 1e-4
        s = np.sin(y)
        np.divide(s, y, out=s, where=~small)
        y2 = y[small] ** 2
        s[small] = 1.0 - y2 / 6.0 + y2 * y2 / 120.0
        s *= s
        s *= s
        s *= s
        s *= self.kappa1 * self.kappa2 ** 8
        if infinite is not None:
            s[infinite] = 0.0
        return s[0] if x.ndim == 0 else s.reshape(x.shape)

    def cdf(self, x):
        """P(G <= x) in real space, from the density alone (no char_fn).

        The upper tail P(G >= |x|) is 1/2 - kappa1 kappa2^7 int_0^y sinc^8 with
        y = kappa2 |x|, the integral summed by Horner's rule in y^2 from its
        power series (_sinc8_series), for |x| <= _NEAR; beyond it, kappa1
        int_|x|^inf sin^8(u/8)/u^8 du in closed form.  The CDF follows by
        symmetry.  Against 40-digit mpmath on a 0.01 grid the tail's absolute
        error is at most 5.6e-17 on |x| <= 4 and 2.0e-16 on |x| <= 12 for the
        series, and 1.8e-15 on (4, 16] for the closed form, whose recurrence
        cancels: far tails below that carry no relative accuracy.  cdf(-inf)
        is 0 and cdf(inf) 1; a scalar x gives a float.
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        ax = np.abs(flat)
        tail = np.empty_like(ax)
        far = ax > _NEAR
        near = ~far
        infinite = _infinities(ax, "SmoothingKernel.cdf")
        if infinite is not None:
            tail[infinite] = 0.0
            far &= ~infinite
        tail[far] = self.kappa1 * sinc8_tail_integral(8, ax[far])
        y = self.kappa2 * ax[near]
        y2 = y * y
        coefs = _sinc8_series()
        acc = np.full_like(y, coefs[-1])
        for c in coefs[-2::-1]:
            acc *= y2
            acc += c
        tail[near] = 0.5 - self.kappa1 * self.kappa2 ** 7 * (y * acc)
        np.subtract(1.0, tail, out=tail, where=flat >= 0)
        return float(tail[0]) if x.ndim == 0 else tail.reshape(x.shape)


def _infinities(x: np.ndarray, caller: str) -> np.ndarray | None:
    """The mask of the infinite entries of ``x``, or None if all are finite;
    a NaN entry raises ValueError."""
    if np.isfinite(x).all():
        return None
    if np.isnan(x).any():
        raise ValueError(f"{caller} needs x that is not NaN")
    return np.isinf(x)


@lru_cache(maxsize=1)
def _sinc8_series() -> np.ndarray:
    """b_0..b_(_SERIES_TERMS - 1) of int_0^y (sin u / u)^8 du = sum_j b_j y^(2j+1),
    read-only.

    By _SIN8 the y^(2m) coefficient of sin^8 y is (-1)^m sum_k _SIN8[k] (2k)^(2m)
    / (128 (2m)!), zero for m < 4, and b_j is the one at m = j + 4 over 2j + 1:
    a ratio of integers, rounded once by the division."""
    coefs = np.array([(-1) ** m * sum(c * (2 * k) ** (2 * m) for k, c in enumerate(_SIN8))
                      / (128 * math.factorial(2 * m) * (2 * m - 7))
                      for m in range(4, 4 + _SERIES_TERMS)])
    coefs.flags.writeable = False
    return coefs


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


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _Panels(NamedTuple):
    """Composite Gauss-Legendre rule: node (g, p) is mid[p] + half * nodes[g],
    with weight half * weights[g]."""
    mid: np.ndarray       # (P,) evenly spaced panel midpoints
    half: float           # common half-width of the panels
    nodes: np.ndarray     # (_PANEL_NODES,) reference nodes on [-1, 1]
    weights: np.ndarray   # (_PANEL_NODES,) reference weights

    @property
    def points(self) -> np.ndarray:
        """The (_PANEL_NODES, P) table of nodes."""
        return self.half * self.nodes[:, None] + self.mid


def _gl_panels(a: float, b: float, n_panels: int) -> _Panels:
    """n_panels equal Gauss-Legendre panels of _PANEL_NODES nodes on [a, b]."""
    half = 0.5 * (b - a) / n_panels
    nodes, weights = _leggauss(_PANEL_NODES)
    return _Panels(a + half * np.arange(1, 2 * n_panels, 2), half, nodes, weights)


# -- Fourier-inversion tails ----------------------------------------------------

def _char_product(factor, theta: np.ndarray, xi):
    """prod_i factor(theta_i xi), vectorized over xi in blocks of _ROWS values.

    Each distinct theta_i is evaluated once and raised to its multiplicity, in
    order of first occurrence; with all theta_i distinct that is the plain
    product in input order (x**1 == x)."""
    xi = np.asarray(xi, dtype=float)
    flat = xi.ravel()
    values, first, counts = np.unique(theta, return_index=True, return_counts=True)
    order = np.argsort(first)
    values, counts = values[order], counts[order]
    out = np.empty(flat.size)
    for i in range(0, flat.size, _ROWS):
        out[i:i + _ROWS] = np.prod(factor(np.multiply.outer(flat[i:i + _ROWS], values)) ** counts,
                                   axis=1)
    return out.reshape(xi.shape)


def _sine_transform(ts: np.ndarray, panels: _Panels, integrand) -> np.ndarray:
    """The panel rule of int sin(t xi) integrand(xi) dxi for each t, in blocks of
    _ROWS t-values.

    With xi_gp = mid_p + half x_g, sin(t xi_gp) = sin(t mid_p) cos(t half x_g)
    + cos(t mid_p) sin(t half x_g): per t that is 2P + 2 _PANEL_NODES sines and
    cosines instead of P _PANEL_NODES.  Every contraction is an einsum, which
    reduces each row on its own, so the block size does not change any value."""
    weights = integrand(panels.points) * (panels.half * panels.weights)[:, None]
    out = np.empty_like(ts)
    for i in range(0, ts.size, _ROWS):
        tb = ts[i:i + _ROWS]
        inner = np.multiply.outer(tb * panels.half, panels.nodes)
        outer = np.multiply.outer(tb, panels.mid)
        cos_part = np.einsum("tg,gp->tp", np.cos(inner), weights)
        sin_part = np.einsum("tg,gp->tp", np.sin(inner), weights)
        out[i:i + _ROWS] = (np.einsum("tp,tp->t", np.sin(outer), cos_part)
                            + np.einsum("tp,tp->t", np.cos(outer), sin_part))
    return out


def _folded_sine_transform(ts: np.ndarray, panels: _Panels, integrand) -> np.ndarray:
    """_sine_transform at each t, evaluated once per distinct |t|.

    The transform is odd in t, and numpy's sin and cos are exactly odd and
    even, so a negative t gets the exact negation of its mirror's value: on a
    grid mirrored about 0 the values are bit-identical to the signed ones."""
    mags, where = np.unique(np.abs(ts), return_inverse=True)
    values = _sine_transform(mags, panels, integrand)[where]
    return np.where(ts < 0, -values, values)


def _inversion_tail(char_fn, cut: float, spread: float, t):
    """P(S >= t) = 1/2 - (1/pi) int_0^cut char_fn(xi) sin(t xi)/xi dxi for a
    symmetric S with |S| <= spread (Gil-Pelaez), char_fn taken as 0 past the cut,
    on Gauss-Legendre panels sized to the oscillation frequency max|t| + spread.
    A scalar t gives a float."""
    ts = _finite_t(np.atleast_1d(np.asarray(t, dtype=float)))
    omega = float(np.max(np.abs(ts))) + spread + 1.0
    panels = _gl_panels(0.0, cut, max(16, math.ceil(cut * omega / 5.0)))
    out = 0.5 - _folded_sine_transform(ts, panels, lambda xi: char_fn(xi) / xi) / math.pi
    return float(out[0]) if np.ndim(t) == 0 else out


def _finite_t(t):
    """t, a scalar or an array, once every entry is checked finite."""
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    return t


def _checked(theta, sigma: float | None = None) -> np.ndarray:
    """theta as a float array: finite with a nonzero entry, sigma finite and > 0."""
    theta = np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(theta)) and np.any(theta)):
        raise ValueError("theta must be finite with a nonzero entry")
    if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
    return theta


def bernoulli_gamma_tail_fourier(theta, sigma: float, t):
    """P(sigma G + sum_i theta_i D_i >= t) for symmetric Bernoulli D_i, at a
    scalar t (a float) or an array of t.

    The characteristic function gamma(sigma xi) prod cos(theta_i xi) vanishes
    for |xi| >= 1/sigma, so the inversion is cut there with no truncation error.
    """
    theta = _checked(theta, sigma)
    kernel = build_kernel()
    return _inversion_tail(lambda xi: kernel.char_fn(sigma * xi) * _char_product(np.cos, theta, xi),
                           1.0 / sigma, float(np.sum(np.abs(theta))), t)


def cube_marginal_cut(theta) -> float:
    """Cut of the cube inversion.  For a_(1) >= a_(2) >= ... the nonzero
    sqrt(3)|theta_i|, |phi(xi)| <= prod_{i <= k} 1/(a_(i) xi), so the dropped tail
    int_cut^inf |phi|/xi is at most prod_{i <= k} 1/(a_(i) cut) / k for every k;
    the cut is the least one that holds that to _TRUNCATION_TOL.  Raises
    TruncationError past _CUT_BUDGET / |theta|."""
    theta = _checked(theta)
    a = np.sort(math.sqrt(3.0) * np.abs(theta[theta != 0]))[::-1]
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
                           math.sqrt(3.0) * float(np.sum(np.abs(theta))), t)


def _all_sign_sums(theta: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for th in theta:
        sums = np.concatenate([sums - th, sums + th])
    return sums


def bernoulli_gamma_tail_bruteforce(theta, sigma: float, t: float) -> float:
    """Oracle by full enumeration: 2^-n sum over sign patterns s of
    P(G >= (t - s)/sigma) = P(G <= (s - t)/sigma), from G's real-space CDF."""
    theta = _checked(theta, sigma)
    if theta.size > 24:
        raise ValueError("brute force limited to n <= 24")
    sums = _all_sign_sums(theta)
    return float(np.mean(build_kernel().cdf((sums - _finite_t(t)) / sigma)))


def tail_grid(nrm: float) -> np.ndarray:
    """The t-grid of the sup errors: _TAIL_POINTS even steps over [-8 nrm, 8 nrm],
    its negative half the exact mirror of its nonnegative one."""
    if not (nrm > 0 and math.isfinite(8.0 * nrm)):
        raise ValueError(f"nrm must be finite and positive, and 8 nrm finite, got {nrm!r}")
    upper = np.linspace(-8.0 * nrm, 8.0 * nrm, _TAIL_POINTS)[_TAIL_POINTS // 2:]
    return np.concatenate([-upper[::-1], upper])


class Lemma700Report(NamedTuple):
    sup_error: float
    bound_rhs: float
    argmax_t: float   # |t| at the sup: the error is even in t
    n_points: int


def lemma700_report(theta, sigma: float) -> Lemma700Report:
    """Sup over ``tail_grid(|theta|)`` of |P(sigma G + sum theta_i D_i >= t) - Phi(t/|theta|)|.

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
    probs = bernoulli_gamma_tail_fourier(theta, sigma, ts)
    errs = np.abs(probs - normal_upper_tail(ts / nrm))
    k = int(np.argmax(errs))
    bound = sigma ** 2 / nrm2 + float(np.sum(theta ** 4)) / nrm2 ** 2
    return Lemma700Report(float(errs[k]), bound, abs(float(ts[k])), ts.size)


# -- the shifted-tail lemma ------------------------------------------------------

class Lemma1034Report(NamedTuple):
    c1_part_i: float       # max over grid of delta / Phi(t0 + 2 delta^(1/4))
    c1_part_iii: float     # max over grid of 4 phi(t0)^2 / delta
    c2_max: float          # largest admissible c2 = min delta^(3/4) / (2 phi(t0))
    part_ii_min: float     # min of (1 - Phi(t0 - 2 delta^(1/4)))
    implication_margin: float  # min of (1/phi - c2 delta^(-3/4)) - 1/(2 phi)


def lemma1034_check(t0_grid) -> Lemma1034Report:
    """Measured constants for the shifted-tail lemma on a t0 >= 0 grid.

    (i) Phi(t0 + 2 delta^(1/4)) >= delta/C1 with delta = Phi(t0); (ii) the
    unconditional lower tail bound; (iii) whenever |1/x - 1/phi(t0)| <=
    c2 delta^(-3/4) then x^2 <= C1 delta, certified through x <= 2 phi(t0).
    """
    t0 = np.asarray(t0_grid, dtype=float)
    if t0.size == 0 or not np.all((0 <= t0) & (t0 < math.inf)):  # a NaN t0 fails too
        raise ValueError("lemma1034_check needs one or more finite t0 >= 0")
    delta = normal_upper_tail(t0)
    shift = 2.0 * delta ** 0.25
    c1_i = float(np.max(delta / normal_upper_tail(t0 + shift)))
    part_ii = float(np.min(1.0 - normal_upper_tail(t0 - shift)))
    phi0 = normal_density(t0)
    c2 = float(np.min(delta ** 0.75 / (2.0 * phi0)))
    c1_iii = float(np.max(4.0 * phi0 ** 2 / delta))
    # the worst admissible x with the measured c2, 1/(1/phi - c2 delta^(-3/4)),
    # is <= 2 phi where the margin is >= 0, hence x^2 <= 4 phi^2 <= c1_iii delta
    lower_recip = 1.0 / phi0 - c2 * delta ** (-0.75)
    margin = float(np.min(lower_recip - 1.0 / (2.0 * phi0)))
    return Lemma1034Report(c1_i, c1_iii, c2, part_ii, margin)


# -- closed-form oscillatory tails (G's CDF; a cross-check of kernel moments) ----

def _tail_cos_over_xk(a: float, k: int, big_t):
    """int_T^inf cos(a x)/x^k dx, elementwise over an array T: upward from the
    sine/cosine integrals at k = 1 by parts, C_j = (cos(aT) T^(1-j) -
    a S_(j-1))/(j-1) and S_j = (sin(aT) T^(1-j) + a C_(j-1))/(j-1)."""
    from scipy.special import sici

    si, ci = sici(a * big_t)
    cos_tail, sin_tail = -ci, math.pi / 2.0 - si
    cos_at, sin_at = np.cos(a * big_t), np.sin(a * big_t)
    power = 1.0  # T^(1-j)
    for j in range(2, k + 1):
        power = power / big_t
        cos_tail, sin_tail = (cos_at * power / (j - 1) - a / (j - 1) * sin_tail,
                              sin_at * power / (j - 1) + a / (j - 1) * cos_tail)
    return cos_tail


def sinc8_tail_integral(k: int, big_t):
    """int_T^inf sin^8(x/8) / x^k dx, exact via the cosine expansion of sin^8.

    Elementwise over an array T; a scalar T gives a float.
    """
    t = np.asarray(big_t, dtype=float)
    if not np.all((0 < t) & (t < math.inf)) or k < 2:  # a NaN T fails too
        raise ValueError("need finite T > 0 and k >= 2")
    total = _SIN8[0] / 128.0 * t ** (1 - k) / (k - 1)
    for j in range(1, len(_SIN8)):
        total += _SIN8[j] / 128.0 * _tail_cos_over_xk(0.25 * j, k, t)
    return float(total) if t.ndim == 0 else total


def quad(func, a: float, b: float) -> float:
    """int_a^b func on the inversions' panel rule (_gl_panels): _MOMENT_PANELS
    equal panels of _PANEL_NODES Gauss-Legendre nodes, func called once on the
    whole (nodes x panels) table.

    On [0, _MOMENT_CUT] it gives the kernel moments 0 to 6 within 9e-16
    relative.  It stays a module-level name so that a tracer or a test can wrap
    ``clt.quad`` and count its calls.
    """
    panels = _gl_panels(a, b, _MOMENT_PANELS)
    return panels.half * float(np.sum(panels.weights @ func(panels.points)))


def kernel_moment_by_quadrature(kernel: SmoothingKernel, order: int) -> float:
    """E G^order for even order, by quadrature on [0, T] plus the exact tail."""
    if order % 2 or order < 0 or order > 6:
        raise ValueError("order must be one of 0, 2, 4, 6")
    val = quad(lambda x: x ** order * kernel.density(x), 0.0, _MOMENT_CUT)
    tail = kernel.kappa1 * sinc8_tail_integral(8 - order, _MOMENT_CUT)
    return 2.0 * (val + tail)
