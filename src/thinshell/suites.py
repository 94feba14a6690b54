"""Named experiment suites.

Each suite returns a SuiteResult of CSV rows plus assertions, with every
assertion carrying the anchor string of the inequality it instantiates, and
the SVG figures it draws from its own values, rendered only when asked for.
Every tolerance lives here: the modules the suites call return what they
measure, and the suites give each measured value the interval it must lie in.
``reporting.Assertion`` derives the verdict and its target text from that
interval, so a check that reads two values is two assertions.  A check
over a quantifier takes its worst case in closed form where one exists:
Cor 204(i)'s sup over every a >= 0 follows from two moments of the squared
coordinates, not from sampled coefficient vectors.  The same functions back
the command-line runner and the acceptance tests.  Each suite
imports its solvers on first call, so a run loads only the scipy its suites use.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import bodies as bd
from . import clt
from . import estimators as est
from . import sampler as smp
from .reporting import Assertion, CsvRow, SuiteResult
from .svgplot import heatmap, line_plot


class BodyTemplate(NamedTuple):
    """Body family from a config block, isotropically normalized at each
    dimension with the closed-form moments of ``bodies.analytic_second_moments``."""

    kind: str
    p: float | None = None

    def instantiate(self, n: int) -> bd.BodySpec:
        return bd.isotropic_body(self.kind, n, self.p)


CUBE = BodyTemplate("cube")
BALL = BodyTemplate("euclidean_ball")
L1_BALL = BodyTemplate("lp_ball", 1.0)

_SLOPE_WINDOW = (-1.15, -0.85)
_ORACLE_INSTANCES = 100        # random (theta, sigma, t) of the 2^n enumeration oracle
_SIGMA_FACTOR = 2.0            # clt smoothing sigma = _SIGMA_FACTOR / sqrt(n)
_GRID_NODES = 4096             # nodes of the Thm 258 segment measure
_EPSILONS = (0.1, 0.05, 0.01)  # Thm 258 perturbation sizes
_N_TRIG = 5                    # random even trig polynomials in the Lemma 2.1 check
_TRIG_DEGREE = 2
_SANDWICH = (0.99, 1.35)       # bounds of Phi(t)(t+1)/phi(t) on [0, 10]
_DUALITY_TOL = 0.02            # relative slack of the Thm 258 comparison
_IMPLICATION_SLACK = 1e-12     # rounding slack of the Lemma 1034 implication margin
# Lemma 2.1's x^2 and x^2+y^2 rows in closed form (Lebesgue measure), per body
# kind and function: (Var, relative tolerance), (bound, relative tolerance).
# Square: 16/45 and 32/15 for x^2, twice that for x^2+y^2, with relative
# errors -1.22e-3 and -2.44e-3 at h = 1/32 for both, falling 4x per halving;
# about 4x of that.  Disc, on the cut-cell raster:
# pi/16 and 7 pi/24 for x^2, with errors +1.04e-3 and -7.85e-4 at h = 1/32,
# falling 3.5-3.9x and 4.0-4.8x per halving from 1/16 to 1/256; pi/12 and
# 7 pi/12 for x^2+y^2, with errors +1.69e-3 and -7.85e-4 at h = 1/32, falling
# 3.7-3.8x and 4.6-4.8x per halving from 1/16 to 1/64; about 5x of that.
# Of these only x^2+y^2 has a d_y part, which the class odd in y alone
# carries, so its closed forms also see a wrong swap x <-> y
_CLOSED_FORMS = {
    ("cube", "x^2"): ((16.0 / 45.0, 0.005), (32.0 / 15.0, 0.01)),
    ("cube", "x^2+y^2"): ((32.0 / 45.0, 0.005), (64.0 / 15.0, 0.01)),
    ("euclidean_ball", "x^2"): ((math.pi / 16.0, 0.005), (7.0 * math.pi / 24.0, 0.004)),
    ("euclidean_ball", "x^2+y^2"): ((math.pi / 12.0, 0.008), (7.0 * math.pi / 12.0, 0.004)),
}
_NORM_TOL = 1e-10              # Thm 258 norm: the CG stops at a 1e-12 relative residual
# the counterexample marginal at uniform theta is uniform on [-sqrt 3, sqrt 3] at
# every n; its density 1/(2 sqrt 3) meets phi at t*, where |F - Phi| peaks
_COUNTER_T = math.sqrt(math.log(6.0 / math.pi))
_COUNTER_DIST = (0.5 * (1.0 + math.erf(_COUNTER_T / math.sqrt(2.0)))
                 - (_COUNTER_T + math.sqrt(3.0)) / (2.0 * math.sqrt(3.0)))  # 0.0572067212
# the sup over clt.tail_grid's 4096 points sits below it by at most
# phi(t*) t* (dt/2)^2 / 2 = 4.4e-7 with dt = 16/4095 (2.44e-7 at n = 16 and 256)
_COUNTER_TOL = 1e-6
# the cube marginal's Edgeworth limit: F(t) - Phi(t) ~ -(kappa_4 / 24 n) He_3(t) phi(t)
# with kappa_4 = -6/5 for a uniform coordinate, so n sup |F - Phi| -> (6/5)/24 times
# max |(t^3 - 3t) phi(t)|, at t^2 = 3 - sqrt 6: 0.0275294
_EDGEWORTH_T = math.sqrt(3.0 - math.sqrt(6.0))
_EDGEWORTH_LIMIT = (0.05 * (3.0 * _EDGEWORTH_T - _EDGEWORTH_T ** 3)
                    * math.exp(-0.5 * _EDGEWORTH_T ** 2) / math.sqrt(2.0 * math.pi))
# |n dist - limit| <= c/n: n (n dist - limit) measured 6.01e-3, 5.98e-3, 5.92e-3 at
# n = 16, 64, 256 (5.2e-3 to 6.3e-3 for n = 5 to 1024); safety factor 2
_EDGEWORTH_C = 1.2e-2
# relative slack of the bounding-cube comparison (Cor 4.3) at h = 1/32: each raw
# lambda_1 there lies at most 2.37e-4 (disc) below its exact value; safety factor 4.2
_COMPARISON_TOL = 1e-3
# relative tolerance of lambda_1 extrapolated from h = 1/16, 1/32, 1/64: the square's
# and the l1 ball's (order 1.9996) lie 1.61e-8 from pi^2/4 and pi^2/2, a factor of 60
# inside; the cut-cell disc's (order 1.9956) 5.1e-8 below the Bessel root, a factor of 20
_LAMBDA1_TOL = 1e-6


def _around(target: float, half_width: float) -> tuple[float, float]:
    """The interval ``target`` +- ``half_width``, as an Assertion's (lo, hi)."""
    return target - half_width, target + half_width


# -- thin-shell suite -----------------------------------------------------------

def _thinshell_task(template: BodyTemplate, n: int, samples: int, seed: int,
                    squares: bool):
    """Draw one (body, n) once and reduce each chunk in the thread that drew it:
    |X|^2 per draw, and if ``squares`` the group moments of sum_i X_i^4 / n
    (``estimators._GroupMoments``), so no per-draw values of those are kept.
    Returns the body's label, its shell statistics and, if ``squares``,
    v = Var X_1^2 = E X_1^4 - 1 (E X_1^2 = 1 by isotropic normalization)."""
    body = template.instantiate(n)
    sq = np.empty(samples)
    fourth = est._GroupMoments(1, samples) if squares else None

    def visit(rows: slice, chunk: np.ndarray) -> None:
        sq[rows] = np.einsum("ij,ij->i", chunk, chunk)
        if squares:
            chunk *= chunk
            y = np.einsum("ij,ij->i", chunk, chunk)[None]
            y /= n
            fourth.add(rows, y)

    smp.for_each_block(body, samples, seed, visit)
    v = None
    if squares:
        mean = est._mean_estimate(fourth.merged(), 0, "cor204i.v")
        v = est.EstimateWithCI(mean.value - 1.0, mean.half_width, "cor204i.v")
    return body.label(), est.thin_shell_stats(sq, body.dim), v


def thinshell_suite(templates: list[BodyTemplate], n_grid: list[int], samples: int,
                    seed: int, shell_n: tuple[int, ...] = (16, 64),
                    shell_templates: tuple[BodyTemplate, ...] = (CUBE, L1_BALL, BALL)
                    ) -> SuiteResult:
    """Thin-shell variance law, shell deviation and the weighted-square bound.

    Checks, per grid body: for cubes Var(|X|^2/n) = 0.8/n within 3 MC sigma
    and the log-log slope in [-1.15, -0.85], for other bodies
    Var(|X|^2/n) <= 16/n; per body at each shell dimension:
    E(|X| - sqrt n)^2 <= 16, and Var(sum a_i X_i^2) <= 16 sum a_i^2 over all
    a >= 0 (Cor 204(i)).  The body is exchangeable, so the covariance of
    (X_1^2, ..., X_n^2) is (v - c)I + cJ with v = Var X_1^2 and
    c = Cov(X_1^2, X_2^2), and the sup of the ratio over a >= 0 is
    max(v, v + (n - 1)c) = max(v, n Var(|X|^2/n)), at e_1 if c <= 0 and at
    the all-ones vector otherwise.  The suite also checks v <= 5, which holds
    for every symmetric log-concave coordinate (Karlin, Proschan and Barlow
    1961), and c <= 0 on the lp balls (Anttila, Ball and Perissinaki 2003);
    the cube's c is 0.  Each distinct (body, n) of the grid and the shell
    checks is drawn once, one after another; the blocks of each draw are
    drawn and reduced on up to one thread per usable core
    (``sampler.for_each_block``).
    """
    if any(n < 2 for n in shell_n):
        raise ValueError(f"Cov(X_1^2, X_2^2) needs shell dimensions n >= 2, got {shell_n}")
    out = SuiteResult("thinshell")
    grid = [(t, n) for t in templates for n in sorted(n_grid)]
    shell = [(t, n) for t in shell_templates for n in shell_n]
    keys = list(dict.fromkeys(grid + shell))
    results = [_thinshell_task(t, n, samples, seed, (t, n) in shell) for t, n in keys]

    by_family: dict[tuple[BodyTemplate, str], list[tuple[int, float]]] = {}
    for key, (label, (vr, sd), v) in zip(keys, results):
        template, n = key
        out.rows.append(CsvRow(sd.estimator_id, label, n, samples, seed, sd.value,
                               sd.half_width, 16.0))
        if key in grid:
            out.rows.append(CsvRow(vr.estimator_id, label, n, samples, seed, vr.value,
                                   vr.half_width, 16.0 / n))
            by_family.setdefault((template, bd.label_family(label)), []).append(
                (n, vr.value))
            if template.kind == "cube":
                out.assertions.append(Assertion(f"thinshell.var_ratio.{label}", "eq (3)",
                                                vr.value, *_around(0.8 / n, vr.half_width)))
            else:
                out.assertions.append(Assertion(f"thinshell.var_bound.{label}",
                                                "Cor 204(i), a = 1", vr.value,
                                                hi=16.0 / n + vr.half_width))
        if key in shell:
            out.assertions.append(Assertion(f"shell_dev.{label}", "abstract, C <= 4",
                                            sd.value, hi=16.0 + sd.half_width))
            # Cor 204(i) from v and n Var(|X|^2/n) = v + (n - 1)c; c's half-width
            # adds those of its two terms, whose errors come from the same draws
            nvr, nvr_hw = n * vr.value, n * vr.half_width
            c = (nvr - v.value) / (n - 1)
            c_hw = (nvr_hw + v.half_width) / (n - 1)
            sup, sup_hw, at = (v.value, v.half_width, "e_1") if c <= 0 else (nvr, nvr_hw, "ones")
            real, real_hw, real_at = ((v.value - c, v.half_width + c_hw, "sum a = 0") if c < 0
                                      else (nvr, nvr_hw, "ones"))
            out.rows += [
                CsvRow("cor204i.v", label, n, samples, seed, v.value, v.half_width, 5.0),
                CsvRow("cor204i.c", label, n, samples, seed, c, c_hw, 0.0),
                CsvRow("cor204i.sup_nonneg", label, n, samples, seed, sup, sup_hw, 16.0,
                       {"maximizer": at}),
                CsvRow("cor204i.sup_real", label, n, samples, seed, real, real_hw,
                       extra={"maximizer": real_at})]
            out.assertions += [
                Assertion(f"weighted_square.{label}", "Cor 204(i)", sup, hi=16.0 + sup_hw),
                Assertion(f"square_variance.{label}",
                          "Var X_i^2 <= 5, Karlin-Proschan-Barlow 1961", v.value,
                          hi=5.0 + v.half_width)]
            if template.kind != "cube":  # the cube's c is 0
                out.assertions.append(Assertion(f"square_covariance.{label}",
                                                "c <= 0, Anttila-Ball-Perissinaki 2003",
                                                c, hi=c_hw))

    # the [-1.15, -0.85] slope window is the cube's law; other bodies are
    # checked against the bound above
    for (template, family), points in by_family.items():
        if len(points) >= 3:
            fit = est.scaling_fit(points)
            out.rows.append(CsvRow("thin_shell.loglog_slope", family, 0,
                                   samples, seed, fit.slope, 0.0, -1.0,
                                   {"intercept": fit.intercept, "r2": fit.r2}))
            if template.kind == "cube":
                out.assertions.append(Assertion(f"thinshell.slope.{template.kind}", "eq (3)",
                                                fit.slope, *_SLOPE_WINDOW))
    out.figures["thinshell_loglog.svg"] = partial(
        line_plot, {family: points for (_, family), points in by_family.items()},
        "n", "Var(|X|^2/n)", "thin-shell variance vs dimension")
    return out


# -- identities suite --------------------------------------------------------------

def identities_suite() -> SuiteResult:
    """The two segment identities on the canonical 12-point (a, p, r) grid."""
    out = SuiteResult("identities")
    for a, p, r in est.IDENTITY_GRID:
        vals = est.verify_identities(a, p, r)
        label = f"a={a:g};p={p:g};r={r:g}"
        err217 = abs(vals.lhs217 - vals.rhs217)
        err333 = abs(vals.lhs333 - vals.rhs333)
        out.rows.append(CsvRow("identity.check", label, 0, 0, 0,
                               max(err217, err333), 0.0, 1e-10,
                               {"lhs217": vals.lhs217, "rhs217": vals.rhs217,
                                "lhs333": vals.lhs333, "rhs333": vals.rhs333}))
        # the larger error of the two, each relative to 1 + |rhs|
        out.assertions.append(Assertion(
            f"identity.{label}", "eq (217)/(333)",
            max(err217 / (1 + abs(vals.rhs217)), err333 / (1 + abs(vals.rhs333))), hi=1e-10))
    return out


# -- smoothing kernel and smoothed-sum suite ------------------------------------------

def clt_suite(seed: int, scaling_ns: tuple[int, ...] = (256, 512, 1024, 2048)) -> SuiteResult:
    """Kernel contract, inversion-vs-enumeration equivalence, sup-error scaling,
    and the Gaussian tail inequalities.

    The sup error at sigma = 2/sqrt(n) is dominated by the smoothing term,
    whose variance sigma^2 E Gamma^2 is 89/n; its 1/n law only shows once that
    variance is small, so the default n range starts at the first power of two
    where it is at most 1/2.
    """
    out = SuiteResult("clt")
    kernel = clt.build_kernel()

    # band-limit and bounds contract
    xi_out = np.linspace(1.0, 2.0, 10 ** 4)
    beyond = float(np.max(np.abs(kernel.char_fn(xi_out))))
    out.assertions.append(Assertion("kernel.support", "eq_1032", beyond, 0.0, 0.0))
    # 1 - 1000 xi^2 <= gamma(xi) <= 1 and gamma >= 0 on a 1e5 grid
    xi = np.linspace(-1.0, 1.0, 10 ** 5)
    g = kernel.char_fn(xi)
    out.assertions += [
        Assertion("kernel.quadratic_bound.margin", "eq_313",
                  float(np.min(g - (1.0 - 1000.0 * xi ** 2))), lo=0.0),
        Assertion("kernel.quadratic_bound.max", "eq_313", float(np.max(g)), hi=1.0),
        Assertion("kernel.quadratic_bound.min", "eq_313", float(np.min(g)), lo=0.0),
        Assertion("kernel.density.min", "sin^8 kernel",
                  float(np.min(kernel.density(np.linspace(-400, 400, 10 ** 5)))), lo=0.0),
        Assertion("kernel.density.mass", "sin^8 kernel",
                  clt.kernel_moment_by_quadrature(kernel, 0), *_around(1.0, 1e-10)),
        # the quadrature converges to the spline value
        Assertion("kernel.sixth_moment", "E Gamma^6 < inf",
                  clt.kernel_moment_by_quadrature(kernel, 6),
                  *_around(kernel.moments[2], 1e-8 * kernel.moments[2]))]
    out.rows.append(CsvRow("kernel.moments", "kernel", 0, 0, 0, kernel.moments[0],
                           0.0, 24.0, {"m4": kernel.moments[1], "m6": kernel.moments[2]}))

    # Fourier inversion vs 2^n enumeration
    rng = smp.substream(seed, 1)
    worst = 0.0
    for _ in range(_ORACLE_INSTANCES):
        n = int(rng.integers(1, 17))
        theta = rng.uniform(-1.0, 1.0, size=n)
        if not np.any(theta):
            theta[0] = 0.5
        sigma = float(rng.uniform(0.05, 1.5))
        t = float(rng.uniform(-3.0, 3.0))
        diff = abs(clt.bernoulli_gamma_tail_fourier(theta, sigma, t)
                   - clt.bernoulli_gamma_tail_bruteforce(theta, sigma, t))
        worst = max(worst, diff)
    out.rows.append(CsvRow("lemma700.oracle_gap", "bernoulli", 0, _ORACLE_INSTANCES,
                           seed, worst, 0.0, 1e-6))
    out.assertions.append(Assertion("lemma700.oracle_equivalence", "Lemma 700", worst, hi=1e-6))

    # sup-error scaling in n
    errs = []
    for n in scaling_ns:
        theta = np.full(n, 1.0 / math.sqrt(n))
        rep = clt.lemma700_report(theta, sigma=_SIGMA_FACTOR / math.sqrt(n))
        errs.append((n, rep.sup_error))
        out.rows.append(CsvRow("lemma700.sup_error", f"uniform_theta(n={n})", n, 0,
                               seed, rep.sup_error, 0.0, rep.bound_rhs,
                               {"theta_spec": "uniform", "n": n,
                                "sigma": _SIGMA_FACTOR / math.sqrt(n),
                                "sup_error": rep.sup_error, "bound_rhs": rep.bound_rhs,
                                "argmax_t": rep.argmax_t}))
    fit = est.scaling_fit(errs)
    out.rows.append(CsvRow("lemma700.scaling_slope", "uniform_theta", 0, 0, seed,
                           fit.slope, 0.0, -1.0, {"r2": fit.r2}))
    scaling = Assertion("lemma700.scaling", "Lemma 700 (O(sigma^2 + sum theta^4))",
                        fit.slope, *_SLOPE_WINDOW)
    out.assertions.append(scaling)
    n0 = min(scaling_ns)
    smoothing_var = kernel.moments[0] * _SIGMA_FACTOR ** 2 / n0
    if not scaling.passed and smoothing_var > 0.5:
        out.notes.append(
            f"lemma700.scaling measured slope {fit.slope:.3f}: with sigma = "
            f"{_SIGMA_FACTOR:g}/sqrt(n) the smoothing variance E(sigma Gamma)^2 = "
            f"{kernel.moments[0] * _SIGMA_FACTOR**2:.0f}/n is {smoothing_var:.2f} at "
            f"n = {n0}, above 1/2, so the measured sup error is still far "
            f"from its 1/n asymptote; start the n range where that variance is small.")

    # Gaussian tail sandwich and the shifted-tail constants
    t = np.linspace(0.0, 10.0, 201)
    ratios = clt.normal_upper_tail(t) * (t + 1.0) / clt.normal_density(t)
    low, high = float(ratios.min()), float(ratios.max())
    out.rows.append(CsvRow("gauss_tail.ratio_range", "normal", 0, 0, 0, low, 0.0, high))
    out.assertions += [Assertion("gauss_tail.sandwich.min", "eq_640", low, lo=_SANDWICH[0]),
                       Assertion("gauss_tail.sandwich.max", "eq_640", high, hi=_SANDWICH[1])]
    rep = clt.lemma1034_check(np.linspace(0.0, 6.0, 121))
    out.rows.append(CsvRow("lemma1034.constants", "normal", 0, 0, 0, rep.c1_part_i,
                           0.0, rep.c1_part_iii,
                           {"c2_max": rep.c2_max, "part_ii_min": rep.part_ii_min}))
    # the implication holds, and the measured C1 (a ratio of tails, so >= 0) is finite
    out.assertions += [Assertion("lemma1034.implications.margin", "Lemma 1034",
                                 rep.implication_margin, lo=-_IMPLICATION_SLACK),
                       Assertion("lemma1034.implications.c1", "Lemma 1034", rep.c1_part_i,
                                 hi=np.finfo(float).max)]
    return out


# -- Berry-Esseen trend suite -----------------------------------------------------------

def _counterexample_cdf(theta: np.ndarray, n: int):
    """CDF of ``sampler.counterexample_marginal``: the mean over i of the uniform
    laws on [-h_i, h_i], h_i = sqrt(3n)|theta_i|, for theta with no zero entry."""
    half, count = np.unique(math.sqrt(3.0 * n) * np.abs(theta), return_counts=True)
    return lambda t: np.clip(np.multiply.outer(t, 0.5 / half) + 0.5, 0.0, 1.0) @ (count / n)


def berry_esseen_suite(seed: int, cube_ns: tuple[int, ...] = (16, 64, 256),
                       counter_ns: tuple[int, ...] = (16, 256),
                       samples: int = 10 ** 5) -> SuiteResult:
    """Exact Kolmogorov distance max |F - Phi| on ``clt.tail_grid`` of uniform-direction
    marginals: decay for the cube (F by ``clt.cube_marginal_tail``), a positive
    constant for the axis-segment counterexample (F in closed form).  The draws
    test each sampler against its exact law (the cube's grid F, linearly
    interpolated) within 3 DKW bands: false failure at most 2 * 200^-9."""
    out = SuiteResult("berry_esseen")
    ts = clt.tail_grid(1.0)

    def exact_and_sampled(law, n, grid_cdf, vals, cdf) -> tuple[float, float]:
        """Sampler row and check against the exact cdf; max |F - Phi| on ts, and the
        |t| where it is attained (the error is even in t)."""
        res = est.kolmogorov_distance(vals, cdf)
        out.rows.append(CsvRow("berry_esseen.sampler", f"{law}(n={n})", n, samples, seed,
                               res.distance, res.dkw_band, 3.0 * res.dkw_band))
        out.assertions.append(Assertion(f"berry_esseen.sampler.{law}.n{n}", "exact sampler",
                                        res.distance, hi=3.0 * res.dkw_band))
        errs = np.abs(grid_cdf - clt.normal_upper_tail(-ts))
        k = int(np.argmax(errs))
        return float(errs[k]), abs(float(ts[k]))

    for n in sorted(set(cube_ns)):
        theta = est.uniform_direction(n)
        grid_cdf = 1.0 - clt.cube_marginal_tail(theta, ts)
        vals = np.empty(samples)

        def visit(rows: slice, chunk: np.ndarray) -> None:
            vals[rows] = chunk @ theta

        smp.for_each_block(bd.isotropic_body("cube", n), samples, seed, visit)
        dist, at = exact_and_sampled("cube", n, grid_cdf, vals,
                                     lambda v: np.interp(v, ts, grid_cdf))
        out.rows.append(CsvRow("berry_esseen.kolmogorov", f"cube(n={n})", n, 0, seed,
                               dist, 0.0, 10.0 / n, {"argmax_t": at}))
        out.assertions += [
            Assertion(f"berry_esseen.cube.n{n}", "Thm 1.1 eq (2)", dist, hi=10.0 / n),
            Assertion(f"berry_esseen.cube.edgeworth.n{n}", "Edgeworth limit", n * dist,
                      *_around(_EDGEWORTH_LIMIT, _EDGEWORTH_C / n))]
    for n in sorted(set(counter_ns)):
        theta = est.uniform_direction(n)
        cdf = _counterexample_cdf(theta, n)
        vals = smp.counterexample_marginal(n, samples, theta, seed)
        dist, at = exact_and_sampled("counterexample", n, cdf(ts), vals, cdf)
        out.rows.append(CsvRow("berry_esseen.counterexample", f"counterexample(n={n})",
                               n, 0, seed, dist, 0.0, 0.045, {"argmax_t": at}))
        # >= 0.045, and within _COUNTER_TOL of its closed form
        out.assertions.append(Assertion(
            f"berry_esseen.counterexample.n{n}", "no gaussian limit: axis-segment density",
            dist, max(0.045, _COUNTER_DIST - _COUNTER_TOL), _COUNTER_DIST + _COUNTER_TOL))
    out.figures["kolmogorov_vs_n.svg"] = partial(line_plot, {"cube marginal": [
        (r.n, r.value) for r in out.rows if r.estimator_id == "berry_esseen.kolmogorov"]},
        "n", "Kolmogorov distance", "marginal distance to normal")
    return out


# -- transport suite ------------------------------------------------------------------------

def _random_even_trig(rng: np.random.Generator):
    c = rng.uniform(-1.0, 1.0, size=(_TRIG_DEGREE + 1, _TRIG_DEGREE + 1))

    def f(x, y, c=c):
        cx = [np.cos(j * math.pi * x) for j in range(c.shape[0])]
        cy = [np.cos(k * math.pi * y) for k in range(c.shape[1])]
        out = np.zeros_like(x)
        for j in range(c.shape[0]):
            for k in range(c.shape[1]):
                out += c[j, k] * cx[j] * cy[k]
        return out

    return f


def transport_suite(seed: int, raster_h: float = 1 / 32) -> SuiteResult:
    """Transport duality on the linear 1D example, the fiberwise monotone map,
    and the variance-vs-dual-norm inequality on 2D rasters."""
    from . import transport as tpt

    out = SuiteResult("transport")
    target = math.sqrt(16.0 / 15.0)

    mu = tpt.DiscreteMeasure.grid_1d(-1.0, 1.0, _GRID_NODES)
    h_fn = 2.0 * mu.support[:, 0]
    rep = tpt.verify_thm258(mu, h_fn, _EPSILONS)
    for eps, ratio in rep.ratios:
        out.rows.append(CsvRow("thm258.ratio", "segment[-1,1]", _GRID_NODES, 0, seed,
                               ratio, 0.0, rep.norm, {"epsilon": eps}))
    out.rows.append(CsvRow("thm258.norm", "segment[-1,1]", _GRID_NODES, 0, seed,
                           rep.norm, 0.0, target))
    out.assertions += [
        Assertion("thm258.norm_value", "Thm 258 example", rep.norm, *_around(target, _NORM_TOL)),
        # W2(mu, mu_eps)/eps within 2% of the dual norm
        Assertion("thm258.ratio_at_0.01", "Thm 258", dict(rep.ratios)[0.01],
                  *_around(rep.norm, 0.02 * rep.norm)),
        Assertion("thm258.duality", "Thm 258", rep.norm,
                  hi=rep.min_ratio + _DUALITY_TOL * max(rep.norm, rep.min_ratio))]

    tmap = tpt.monotone_transport_1d(lambda x: x ** 2, -1.0, 1.0, 0.1)
    defect = tmap.pushforward_defect()
    out.rows.append(CsvRow("monotone_transport.defect", "segment[-1,1]", tpt.PUSHFORWARD_POINTS,
                           0, seed, defect, 0.0, 1e-10, {"epsilon": 0.1}))
    out.assertions.append(Assertion("monotone_transport.pushforward", "Lemma 3.2", defect,
                                    hi=1e-10))

    rng = smp.substream(seed, 7)
    a, b = rng.normal(size=64), rng.normal(size=64)
    mu64 = tpt.DiscreteMeasure(a[:, None], np.full(64, 1 / 64))
    nu64 = tpt.DiscreteMeasure(b[:, None], np.full(64, 1 / 64))
    gap = abs(tpt.w2_assignment(mu64, nu64) - tpt.w2_1d(mu64, nu64))
    out.assertions.append(Assertion("w2.assignment_vs_quantile", "W2 definition", gap, hi=1e-10))

    fns = [("x^2", lambda x, y: x ** 2), ("x^2+y^2", lambda x, y: x ** 2 + y ** 2)]
    fns += [(f"trig{i}", _random_even_trig(rng)) for i in range(_N_TRIG)]
    for body in (bd.BodySpec.cube(2), bd.BodySpec.euclidean_ball(2)):
        body_label = body.label()
        reports = tpt.verify_variance_bound(body, [f for _, f in fns], raster_h)
        for (fname, _), vrep in zip(fns, reports):
            tol = raster_h * (1.0 + vrep.bound)
            out.rows.append(CsvRow("lemma21.variance_bound", f"{body_label}:{fname}",
                                   2, 0, seed, vrep.var, 0.0, vrep.bound, {"tolerance": tol}))
            name = f"lemma21.{body_label}.{fname}"
            out.assertions.append(Assertion(name, "Lemma 2.1", vrep.var, hi=vrep.bound + tol))
            if (body.kind, fname) in _CLOSED_FORMS:
                # the bound above is one-sided: an operator too small only
                # inflates it, so the closed forms pin both sides
                (var, var_tol), (bound, bound_tol) = _CLOSED_FORMS[body.kind, fname]
                out.assertions += [
                    Assertion(f"{name}.closed_form.var", "Lemma 2.1, closed-form oracle",
                              vrep.var, *_around(var, var_tol * var)),
                    Assertion(f"{name}.closed_form.bound", "Lemma 2.1, closed-form oracle",
                              vrep.bound, *_around(bound, bound_tol * bound))]
    return out


# -- spectral suite ----------------------------------------------------------------------------

def spectral_suite(seed: int) -> SuiteResult:
    """Neumann spectra on the square, the disc and the l1 ball: lambda_1 of each
    with Richardson extrapolation; on the square and disc multiplicity, gradient
    bias and an odd flip class below the even one; the bounding-cube comparison
    and a domain-monotonicity witness.

    Every value comes from the flip classes of each (body, h), each raster
    rasterized and solved once.  The 5 rasters whose full spectrum a check reads
    (the flip-class oracle and the eigen reports) solve every class: 3 solves
    on a swap-symmetric raster, whose 4th class is swapped from its twin
    (``spectral.class_eigenpairs``).  The other 6 read only lambda_1 and solve
    only the singly-odd classes: 1 on a swap-symmetric raster, 2 on the
    rectangle.  lambda_1 of every raster, full or not, is the least of the
    lowest values of the singly-odd classes that it solved.  Its figures are
    heatmaps of the first nontrivial eigenfunction of the square and the disc."""
    from scipy.special import jnp_zeros

    from . import spectral as spec

    out = SuiteResult("spectral")
    square = bd.BodySpec.cube(2)
    disc = bd.BodySpec.euclidean_ball(2)
    l1_ball = bd.BodySpec.lp_ball(2, p=1.0)
    # a thin rectangle inscribed in the disc has lambda_1 ~ pi^2/(2 half-length)^2,
    # below the disc value 3.39: domain monotonicity fails for the disc
    rect = bd.BodySpec("cube", 2, (0.9, 0.2))
    rect_label = "rectangle [-0.9,0.9]x[-0.2,0.2]"
    comparison_h = 1 / 32
    witness_h = 1 / 48  # of the disc; the rectangle's raster is twice as fine
    even, *odd_classes = [(x, y) for x in (False, True) for y in (False, True)]  # odd in x, y
    # lambda_1 has an eigenfunction odd under some flip (Cor 4.2(i)), and at most
    # 2 nodal domains (Courant), while one odd in both x and y has at least 4: so
    # lambda_1 of every raster lies in a singly-odd class, odd in y or in x alone
    singly_odd = odd_classes[:2]
    oracle_rasters = [(square, 1 / 16), (disc, 1 / 32), (l1_ball, comparison_h)]
    report_rasters = [(square, "square", 1 / 32), (disc, "disc", 1 / 64)]
    report_grids = {(body, h) for body, _, h in report_rasters}  # read for vectors
    # the rasters whose full spectrum a check reads; every other one reads lambda_1 alone
    full_rasters = set(oracle_rasters) | report_grids
    # (body, h) -> (grid, {parity: the lowest eigenpairs of that flip class}), the
    # grid and the vectors kept only for the report rasters
    solved = {}
    whole_values = {}  # (body, h) -> the lowest eigenvalues of the whole raster, solved as one
    solves = {"full classes": 0, "singly-odd": 0, "whole-raster": 0}  # eigen solves by kind

    def eigen(body, h):
        if (body, h) not in solved:
            grid = spec.rasterize(body, h)
            if (body, h) in full_rasters:
                classes = spec.class_eigenpairs(grid)
                solves["full classes"] += 3 if grid.swap_symmetric else 4
            else:
                # on a swap-symmetric raster the class odd in x has its twin's values
                parities = singly_odd[:1 if grid.swap_symmetric else 2]
                classes = {odd: spec.lowest_eigenpairs(grid, odd) for odd in parities}
                solves["singly-odd"] += len(parities)
            if (body, h) in oracle_rasters:
                # oracle of the split: the whole raster, solved without its symmetry
                whole_values[body, h] = np.array([p.value for p in spec.lowest_eigenpairs(grid)])
                solves["whole-raster"] += 1
            if (body, h) not in report_grids:
                # later checks read only values and residuals: keep neither the
                # grid nor the vectors, which would hold every raster to the end
                grid = None
                classes = {odd: [spec.EigenPair(p.value, None, p.residual) for p in pairs]
                           for odd, pairs in classes.items()}
            solved[body, h] = grid, classes
        return solved[body, h]

    def spectrum(body, h):  # the EIGENPAIRS lowest eigenpairs of a full raster, from its classes
        return sorted((p for pairs in eigen(body, h)[1].values() for p in pairs),
                      key=lambda p: p.value)[:spec.EIGENPAIRS]

    def lambda1(body, h):  # the lowest value of the singly-odd classes it solved
        classes = eigen(body, h)[1]
        return min(classes[odd][0].value for odd in singly_odd if odd in classes)

    for body, h in oracle_rasters:
        classes = eigen(body, h)[1]
        split = np.array([p.value for p in spectrum(body, h)])
        whole = whole_values[body, h]
        dev = float(max(np.max(np.abs(split - whole) / np.maximum(whole, whole[1])),
                        abs(classes[even][0].value) / whole[1],  # constants: even
                        # each class pair, solved or swapped from its twin, against K
                        max(p.residual / max(p.value, whole[1])
                            for pairs in classes.values() for p in pairs)))
        # = whole spectrum, constants even, class residuals; 1e-10 relative
        out.assertions.append(Assertion(f"spectral.flip_classes.{body.label()}", "flip classes",
                                        dev, hi=1e-10))

    target_sq = math.pi ** 2 / 4.0
    target_disc = float(jnp_zeros(1, 1)[0]) ** 2  # (first positive root of J_1')^2
    hs = [1 / 16, 1 / 32, 1 / 64]
    for label, body, target, anchor in [
            ("square", square, target_sq, "interval oracle"),
            ("disc", disc, target_disc, "Bessel-root oracle"),
            # a square of side sqrt 2 turned by 45 degrees: lambda_1 = pi^2/2, double
            ("l1", l1_ball, math.pi ** 2 / 2.0, "rotated-square oracle")]:
        rich = spec.richardson_lambda1(hs, [lambda1(body, h) for h in hs])
        out.rows.append(CsvRow("spectral.lambda1", label, 2, 0, seed, rich.extrapolated, 0.0,
                               target, {"h_values": list(rich.h_values),
                                        "raw": list(rich.lambda1_values),
                                        "order": rich.observed_order}))
        out.assertions.append(Assertion(f"spectral.{label}.lambda1", anchor, rich.extrapolated,
                                        *_around(target, _LAMBDA1_TOL * target)))

    for body, label, h in report_rasters:
        grid, classes = eigen(body, h)
        pairs = spectrum(body, h)
        cluster = spec.lambda1_cluster(pairs)
        size = float(len(cluster))
        out.rows.append(CsvRow("spectral.eigen_report", label, 2, 0, seed,
                               pairs[1].value, 0.0, float("nan"), {
                                   "body": body.label(), "h": h,
                                   "lambda": [p.value for p in pairs],
                                   "residuals": [p.residual for p in pairs]}))
        out.rows.append(CsvRow("spectral.multiplicity", label, 2, 0, seed, size, 0.0, 2.0))
        out.assertions.append(Assertion(f"spectral.multiplicity.{label}", "Cor 4.1", size,
                                        2.0, 2.0))
        rank = spec.gradient_bias_rank(grid, cluster)
        out.rows.append(CsvRow("spectral.bias_rank", label, 2, 0, seed,
                               float(rank.rank), 0.0, 2.0,
                               {"singular_values": list(rank.singular_values)}))
        # the gradient-bias map is injective on the eigenspace
        out.assertions.append(Assertion(f"spectral.bias_rank.{label}", "Cor 4.1",
                                        float(rank.rank), size, size))
        # Cor 4.2(i): lambda_1 has an eigenfunction odd under some flip
        lam_odd = min(classes[odd][0].value for odd in odd_classes)
        margin = classes[even][1].value - lam_odd
        out.rows.append(CsvRow("spectral.antisymmetric_margin", label, 2, 0, seed,
                               margin, 0.0, 0.0, {"lowest_odd": lam_odd}))
        # the lowest odd-class eigenvalue < the first nonzero even-class one
        out.assertions.append(Assertion(f"spectral.antisymmetric_member.{label}", "Cor 4.2(i)",
                                        margin, lo=math.nextafter(0.0, 1.0)))
        out.figures[f"eigenfunction_{label}.svg"] = partial(
            heatmap, grid.mask, grid.image(pairs[1].vector),
            f"first nontrivial Neumann eigenfunction, {label}")

    # Cor 4.3 for bodies in the cube [-1, 1]^2, which the disc and the l1 ball are
    lam_cube = lambda1(square, comparison_h)
    for body in (disc, l1_ball):
        lam = lambda1(body, comparison_h)
        out.rows.append(CsvRow("spectral.cube_comparison", body.label(), 2, 0, seed,
                               lam, 0.0, lam_cube))
        out.assertions.append(Assertion(f"spectral.cube_comparison.{body.label()}", "Cor 4.3",
                                        lam, lo=(1.0 - _COMPARISON_TOL) * lam_cube))
    # published statements of the comparison sometimes carry pi^2/R^2
    out.notes.append(f"observed cube lambda1 {lam_cube:.6f} matches pi^2/(4R^2) = "
                     f"{target_sq:.6f}; the constant pi^2/R^2 = {4 * target_sq:.6f} "
                     f"is 4x larger than observed")

    lam_disc = lambda1(disc, witness_h)
    lam_rect = lambda1(rect, witness_h / 2)
    out.rows.append(CsvRow("spectral.monotonicity_witness", rect_label, 2, 0,
                           seed, lam_rect, 0.0, lam_disc))
    out.notes.append(
        f"domain monotonicity fails for the disc: {rect_label} has lambda1 = "
        f"{lam_rect:.4f} < {lam_disc:.4f} (reported, not asserted)")
    out.notes.append(f"{sum(solves.values())} eigen solves on {len(solved)} rasters: "
                     + ", ".join(f"{n} {kind}" for kind, n in solves.items()))
    return out
