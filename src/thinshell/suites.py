"""Named experiment suites.

Each suite returns a SuiteResult of CSV rows plus pass/fail assertions, with
every assertion carrying the anchor string of the inequality it instantiates.
The same functions back the command-line runner and the acceptance tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bodies as bd
from . import clt
from . import estimators as est
from . import sampler as smp
from . import spectral as spec
from . import transport as tpt
from .reporting import Assertion, CsvRow, SuiteResult

DISC_LAMBDA1 = 3.3900304052  # (first positive root of J_1')^2


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
_COEFF_STREAM = smp.NAMED_STREAM  # the coefficient vectors' named Philox stream


def _within(value: float, target: float, half_width: float) -> bool:
    return abs(value - target) <= half_width


# -- thin-shell suite -----------------------------------------------------------

def _thinshell_task(template: BodyTemplate, n: int, samples: int, seed: int,
                    coeffs: np.ndarray):
    """Draw one (body, n) once and reduce each block in the thread that drew it:
    |X|^2 per draw and, for each coefficient vector a, sum a_i X_i^2 per draw."""
    body = template.instantiate(n)
    sq = np.empty(samples)
    y = np.empty((len(coeffs), samples))

    def visit(rows: slice, block: np.ndarray) -> None:
        sq[rows] = np.einsum("ij,ij->i", block, block)
        if len(coeffs):
            block *= block
            for yk, a in zip(y, coeffs):
                yk[rows] = block @ a

    smp.for_each_block(body, samples, seed, visit)
    weighted = [est.weighted_square_variance(yk, a) for yk, a in zip(y, coeffs)]
    return body.label(), est.thin_shell_stats(sq, body.dim), weighted


def thinshell_suite(templates: list[BodyTemplate], n_grid: list[int], samples: int,
                    seed: int, shell_n: tuple[int, ...] = (16, 64),
                    shell_templates: tuple[BodyTemplate, ...] = (CUBE, L1_BALL, BALL)
                    ) -> SuiteResult:
    """Thin-shell variance law, shell deviation and the weighted-square bound.

    Checks, per grid body: for cubes Var(|X|^2/n) = 0.8/n within 3 MC sigma
    and the log-log slope in [-1.15, -0.85], for other bodies
    Var(|X|^2/n) <= 16/n; per body at the shell dimensions:
    E(|X| - sqrt n)^2 <= 16, and at the largest one
    Var(sum a_i X_i^2) <= 16 sum a_i^2 for 20 random nonnegative coefficient
    vectors.  Each distinct (body, n) of the grid and the shell checks is
    drawn once, one after another; the blocks of each draw are drawn and
    reduced on up to one thread per usable core (``sampler.for_each_block``).
    """
    out = SuiteResult("thinshell")
    grid = [(t, n) for t in templates for n in sorted(n_grid)]
    shell = [(t, n) for t in shell_templates for n in shell_n]
    keys = list(dict.fromkeys(grid + shell))
    coeffs = {}
    if shell_n:
        rng = smp.substream(seed, _COEFF_STREAM)
        coeffs = {(t, max(shell_n)): rng.uniform(0.0, 2.0, size=(20, max(shell_n)))
                  for t in shell_templates}
    results = [_thinshell_task(t, n, samples, seed, coeffs.get((t, n), np.empty((0, n))))
               for t, n in keys]

    by_family: dict[tuple[BodyTemplate, str], list[tuple[int, float]]] = {}
    for key, (label, (vr, sd), weighted) in zip(keys, results):
        template, n = key
        out.rows.append(CsvRow(sd.estimator_id, label, n, samples, seed, sd.value,
                               sd.half_width, 16.0))
        if key in grid:
            out.rows.append(CsvRow(vr.estimator_id, label, n, samples, seed, vr.value,
                                   vr.half_width, 16.0 / n))
            by_family.setdefault((template, bd.label_family(label)), []).append(
                (n, vr.value))
            if template.kind == "cube":
                out.assertions.append(Assertion(
                    f"thinshell.var_ratio.{label}", "eq (3)", vr.value,
                    f"0.8/n +- {vr.half_width:.3g} (3 MC sigma)",
                    _within(vr.value, 0.8 / n, vr.half_width)))
            else:
                out.assertions.append(Assertion(
                    f"thinshell.var_bound.{label}", "Cor 204(i), a = 1", vr.value,
                    f"<= 16/n + {vr.half_width:.3g}", vr.value <= 16.0 / n + vr.half_width))
        if key in shell:
            out.assertions.append(Assertion(
                f"shell_dev.{label}", "abstract, C <= 4", sd.value,
                f"<= 16 + {sd.half_width:.3g}", sd.value <= 16.0 + sd.half_width))
        if weighted:
            worst = max(e.value - bound for e, bound in weighted)
            out.rows.append(CsvRow("cor204i.worst_margin", label, n, samples, seed,
                                   worst, 0.0, 0.0))
            out.assertions.append(Assertion(
                f"weighted_square.{label}", "Cor 204(i)", worst,
                "Var(sum a X^2) <= 16 sum a^2 + 3 MC sigma, 20 random a",
                all(e.value <= bound + e.half_width for e, bound in weighted)))

    # the [-1.15, -0.85] slope window is the cube's law; other bodies are
    # checked against the bound above
    for (template, family), points in by_family.items():
        if len(points) >= 3:
            fit = est.scaling_fit(points)
            out.rows.append(CsvRow("thin_shell.loglog_slope", family, 0,
                                   samples, seed, fit.slope, 0.0, -1.0,
                                   {"intercept": fit.intercept, "r2": fit.r2}))
            if template.kind == "cube":
                out.assertions.append(Assertion(
                    f"thinshell.slope.{template.kind}", "eq (3)", fit.slope,
                    f"slope in [{_SLOPE_WINDOW[0]}, {_SLOPE_WINDOW[1]}]",
                    _SLOPE_WINDOW[0] <= fit.slope <= _SLOPE_WINDOW[1]))
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
        out.assertions.append(Assertion(
            f"identity.{label}", "eq (217)/(333)", max(err217, err333),
            "|lhs - rhs| <= 1e-10 (1 + |rhs|)",
            err217 <= 1e-10 * (1 + abs(vals.rhs217))
            and err333 <= 1e-10 * (1 + abs(vals.rhs333))))
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
    out.assertions.append(Assertion("kernel.support", "eq_1032", beyond,
                                    "gamma(xi) = 0 for |xi| >= 1 (exact)", beyond == 0.0))
    xi = np.linspace(-1.0, 1.0, 10 ** 5)
    g = kernel.char_fn(xi)
    margin = float(np.min(g - (1.0 - 1000.0 * xi ** 2)))
    out.assertions.append(Assertion("kernel.quadratic_bound", "eq_313", margin,
                                    "1 - 1000 xi^2 <= gamma <= 1 on a 1e5 grid",
                                    margin >= 0.0 and float(np.max(g)) <= 1.0
                                    and float(np.min(g)) >= 0.0))
    dens_min = float(np.min(kernel.density(np.linspace(-400, 400, 10 ** 5))))
    mass = clt.kernel_moment_by_quadrature(kernel, 0)
    out.assertions.append(Assertion("kernel.density", "sin^8 kernel", mass,
                                    "density >= 0 and integrates to 1 +- 1e-10",
                                    dens_min >= 0.0 and abs(mass - 1.0) <= 1e-10))
    m6 = clt.kernel_moment_by_quadrature(kernel, 6)
    m6_rel = abs(m6 - kernel.moments[2]) / kernel.moments[2]
    out.assertions.append(Assertion("kernel.sixth_moment", "E Gamma^6 < inf", m6,
                                    "quadrature converges to the spline value",
                                    m6_rel <= 1e-8))
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
    out.assertions.append(Assertion("lemma700.oracle_equivalence", "Lemma 700", worst,
                                    f"max |fourier - brute| <= 1e-6 over "
                                    f"{_ORACLE_INSTANCES} instances", worst <= 1e-6))

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
    in_window = _SLOPE_WINDOW[0] <= fit.slope <= _SLOPE_WINDOW[1]
    out.rows.append(CsvRow("lemma700.scaling_slope", "uniform_theta", 0, 0, seed,
                           fit.slope, 0.0, -1.0, {"r2": fit.r2}))
    out.assertions.append(Assertion(
        "lemma700.scaling", "Lemma 700 (O(sigma^2 + sum theta^4))", fit.slope,
        f"slope in [{_SLOPE_WINDOW[0]}, {_SLOPE_WINDOW[1]}] at sigma = "
        f"{_SIGMA_FACTOR:g}/sqrt(n)", in_window))
    n0 = min(scaling_ns)
    smoothing_var = kernel.moments[0] * _SIGMA_FACTOR ** 2 / n0
    if not in_window and smoothing_var > 0.5:
        out.notes.append(
            f"lemma700.scaling measured slope {fit.slope:.3f}: with sigma = "
            f"{_SIGMA_FACTOR:g}/sqrt(n) the smoothing variance E(sigma Gamma)^2 = "
            f"{kernel.moments[0] * _SIGMA_FACTOR**2:.0f}/n is {smoothing_var:.2f} at "
            f"n = {n0}, above 1/2, so the measured sup error is still far "
            f"from its 1/n asymptote; start the n range where that variance is small.")

    # Gaussian tail sandwich and the shifted-tail constants
    ratios, passed = clt.gauss_tail_bounds_check(np.linspace(0.0, 10.0, 201))
    out.rows.append(CsvRow("gauss_tail.ratio_range", "normal", 0, 0, 0,
                           float(ratios.min()), 0.0, float(ratios.max())))
    out.assertions.append(Assertion("gauss_tail.sandwich", "eq_640",
                                    float(ratios.max()),
                                    "Phi(t)(t+1)/phi(t) in [0.99, 1.35] on [0, 10]",
                                    passed))
    rep = clt.lemma1034_check(np.linspace(0.0, 6.0, 121))
    out.rows.append(CsvRow("lemma1034.constants", "normal", 0, 0, 0, rep.c1_part_i,
                           0.0, rep.c1_part_iii,
                           {"c2_max": rep.c2_max, "part_ii_min": rep.part_ii_min}))
    out.assertions.append(Assertion("lemma1034.implications", "Lemma 1034",
                                    rep.c1_part_i, "measured C1 finite, implication holds",
                                    rep.implication_ok and math.isfinite(rep.c1_part_i)))
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
        out.assertions.append(Assertion(
            f"berry_esseen.sampler.{law}.n{n}", "exact sampler", res.distance,
            f"<= 3 DKW = {3 * res.dkw_band:.3g} against the exact law",
            res.distance <= 3.0 * res.dkw_band))
        errs = np.abs(grid_cdf - clt.normal_cdf(ts))
        k = int(np.argmax(errs))
        return float(errs[k]), abs(float(ts[k]))

    for n in sorted(set(cube_ns)):
        theta = est.uniform_direction(n)
        grid_cdf = 1.0 - clt.cube_marginal_tail(theta, ts)
        vals = np.empty(samples)

        def visit(rows: slice, block: np.ndarray) -> None:
            vals[rows] = block @ theta

        smp.for_each_block(bd.isotropic_body("cube", n), samples, seed, visit)
        dist, at = exact_and_sampled("cube", n, grid_cdf, vals,
                                     lambda v: np.interp(v, ts, grid_cdf))
        out.rows.append(CsvRow("berry_esseen.kolmogorov", f"cube(n={n})", n, 0, seed,
                               dist, 0.0, 10.0 / n, {"argmax_t": at}))
        out.assertions.append(Assertion(
            f"berry_esseen.cube.n{n}", "Thm 1.1 eq (2)", dist,
            f"<= 10/n = {10 / n:.2e} (exact)", dist <= 10.0 / n))
    for n in sorted(set(counter_ns)):
        theta = est.uniform_direction(n)
        cdf = _counterexample_cdf(theta, n)
        vals = smp.counterexample_marginal(n, samples, theta, seed)
        dist, at = exact_and_sampled("counterexample", n, cdf(ts), vals, cdf)
        out.rows.append(CsvRow("berry_esseen.counterexample", f"counterexample(n={n})",
                               n, 0, seed, dist, 0.0, 0.045, {"argmax_t": at}))
        out.assertions.append(Assertion(
            f"berry_esseen.counterexample.n{n}", "no gaussian limit: axis-segment density",
            dist, ">= 0.045 and within 0.0572 +- 0.01 (exact)",
            dist >= 0.045 and abs(dist - 0.0572) <= 0.01))
    return out


# -- transport suite ------------------------------------------------------------------------

def _random_even_trig(rng: np.random.Generator):
    c = rng.uniform(-1.0, 1.0, size=(_TRIG_DEGREE + 1, _TRIG_DEGREE + 1))

    def f(x, y, c=c):
        out = np.zeros_like(x)
        for j in range(c.shape[0]):
            for k in range(c.shape[1]):
                out += c[j, k] * np.cos(j * math.pi * x) * np.cos(k * math.pi * y)
        return out

    return f


def transport_suite(seed: int, raster_h: float = 1 / 32) -> SuiteResult:
    """Transport duality on the linear 1D example, the fiberwise monotone map,
    and the variance-vs-dual-norm inequality on 2D rasters."""
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
    out.assertions.append(Assertion("thm258.norm_value", "Thm 258 example", rep.norm,
                                    f"= {target:.4f} +- 0.01",
                                    abs(rep.norm - target) <= 0.01))
    ratio_001 = dict((e, r) for e, r in rep.ratios)[0.01]
    out.assertions.append(Assertion("thm258.ratio_at_0.01", "Thm 258", ratio_001,
                                    "W2(mu, mu_eps)/eps within 2% of the dual norm",
                                    abs(ratio_001 - rep.norm) <= 0.02 * rep.norm))
    out.assertions.append(Assertion("thm258.duality", "Thm 258", rep.min_ratio,
                                    "norm <= min ratio + tolerance", rep.passed))

    tmap = tpt.monotone_transport_1d(lambda x: x ** 2, -1.0, 1.0, 0.1)
    defect = tmap.pushforward_defect()
    out.rows.append(CsvRow("monotone_transport.defect", "segment[-1,1]", tpt.PUSHFORWARD_POINTS,
                           0, seed, defect, 0.0, 1e-10, {"epsilon": 0.1}))
    out.assertions.append(Assertion("monotone_transport.pushforward", "Lemma 3.2", defect,
                                    f"<= 1e-10 at {tpt.PUSHFORWARD_POINTS} points",
                                    defect <= 1e-10))

    rng = smp.substream(seed, 7)
    a, b = rng.normal(size=64), rng.normal(size=64)
    mu64 = tpt.DiscreteMeasure(a[:, None], np.full(64, 1 / 64))
    nu64 = tpt.DiscreteMeasure(b[:, None], np.full(64, 1 / 64))
    gap = abs(tpt.w2_assignment(mu64, nu64) - tpt.w2_1d(mu64, nu64))
    out.assertions.append(Assertion("w2.assignment_vs_quantile", "W2 definition", gap,
                                    "agree to 1e-10 in 1D", gap <= 1e-10))

    fns = [("x^2", lambda x, y: x ** 2), ("x^2+y^2", lambda x, y: x ** 2 + y ** 2)]
    fns += [(f"trig{i}", _random_even_trig(rng)) for i in range(_N_TRIG)]
    for body in (bd.BodySpec.cube(2), bd.BodySpec.euclidean_ball(2)):
        body_label = body.label()
        reports = tpt.verify_variance_bound(body, [f for _, f in fns], raster_h)
        for (fname, _), vrep in zip(fns, reports):
            out.rows.append(CsvRow("lemma21.variance_bound", f"{body_label}:{fname}",
                                   2, 0, seed, vrep.var, 0.0, vrep.bound,
                                   {"tolerance": vrep.tolerance}))
            out.assertions.append(Assertion(
                f"lemma21.{body_label}.{fname}", "Lemma 2.1", vrep.var,
                f"Var <= dual-norm bound {vrep.bound:.4g} + O(h)", vrep.passed))
    return out


# -- spectral suite ----------------------------------------------------------------------------

def spectral_suite(seed: int, plot_dir=None) -> SuiteResult:
    """Neumann spectra on the square and disc: eigenvalues with Richardson
    extrapolation, multiplicity, gradient bias, flip antisymmetry, the
    bounding-cube comparison and a domain-monotonicity witness; every value
    comes from one eigen solve per (body, h)."""
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
    solved = {}  # (body, h) -> (grid, its lowest eigenpairs)

    def eigen(body, h):
        if (body, h) not in solved:
            grid = spec.rasterize(body, h)
            solved[body, h] = grid, spec.lowest_eigenpairs(grid, k=4)
        return solved[body, h]

    def lambda1(body, h):
        return eigen(body, h)[1][1].value

    h_sq = [1 / 16, 1 / 32, 1 / 64]
    rich_sq = spec.richardson_lambda1(h_sq, [lambda1(square, h) for h in h_sq])
    target_sq = math.pi ** 2 / 4.0
    out.rows.append(CsvRow("spectral.lambda1", "square", 2, 0, seed,
                           rich_sq.extrapolated, 0.0, target_sq,
                           {"h_values": list(rich_sq.h_values),
                            "raw": list(rich_sq.lambda1_values),
                            "order": rich_sq.observed_order}))
    out.assertions.append(Assertion("spectral.square.lambda1", "interval oracle",
                                    rich_sq.extrapolated, f"= {target_sq:.4f} +- 1%",
                                    abs(rich_sq.extrapolated - target_sq) <= 0.01 * target_sq))

    h_disc = [1 / 32, 1 / 64, 1 / 128]
    rich_disc = spec.richardson_lambda1(h_disc, [lambda1(disc, h) for h in h_disc])
    out.rows.append(CsvRow("spectral.lambda1", "disc", 2, 0, seed,
                           rich_disc.extrapolated, 0.0, DISC_LAMBDA1,
                           {"h_values": list(rich_disc.h_values),
                            "raw": list(rich_disc.lambda1_values),
                            "order": rich_disc.observed_order}))
    out.assertions.append(Assertion("spectral.disc.lambda1", "Bessel-root oracle",
                                    rich_disc.extrapolated, f"= {DISC_LAMBDA1:.4f} +- 1%",
                                    abs(rich_disc.extrapolated - DISC_LAMBDA1)
                                    <= 0.01 * DISC_LAMBDA1))

    for body, label, h in [(square, "square", 1 / 32), (disc, "disc", 1 / 64)]:
        grid, pairs = eigen(body, h)
        cluster = spec.lambda1_cluster(pairs)
        out.rows.append(CsvRow("spectral.eigen_report", label, 2, 0, seed,
                               pairs[1].value, 0.0, float("nan"), {
                                   "body": body.label(), "h": h,
                                   "lambda": [p.value for p in pairs],
                                   "residuals": [p.residual for p in pairs]}))
        out.rows.append(CsvRow("spectral.multiplicity", label, 2, 0, seed,
                               float(len(cluster)), 0.0, 2.0))
        out.assertions.append(Assertion(f"spectral.multiplicity.{label}", "Cor 4.1",
                                        float(len(cluster)), "= 2 (and never > 2)",
                                        len(cluster) == 2))
        rank = spec.gradient_bias_rank(grid, cluster)
        out.rows.append(CsvRow("spectral.bias_rank", label, 2, 0, seed,
                               float(rank.rank), 0.0, 2.0,
                               {"singular_values": list(rank.singular_values)}))
        out.assertions.append(Assertion(f"spectral.bias_rank.{label}", "Cor 4.1",
                                        float(rank.rank),
                                        "gradient-bias map injective on the eigenspace",
                                        rank.rank == len(cluster)))
        sym = spec.symmetry_detect(grid, cluster)
        out.rows.append(CsvRow("spectral.antisymmetry_defect", label, 2, 0, seed,
                               sym.defect, 0.0, spec.SYMMETRY_TOL,
                               {"symmetry_report": {"defects": list(sym.defects),
                                                    "defect": sym.defect,
                                                    "central_defect": sym.central_defect,
                                                    "passed": sym.passed}}))
        out.assertions.append(Assertion(f"spectral.antisymmetric_member.{label}",
                                        "Cor 4.2(i)", sym.defect, "defect <= 1e-6",
                                        sym.passed))
        if plot_dir is not None:
            from .svgplot import heatmap
            heatmap(f"{plot_dir}/eigenfunction_{label}.svg", grid.mask,
                    grid.image(pairs[1].vector),
                    f"first nontrivial Neumann eigenfunction, {label}")

    comp = spec.cube_comparison(lambda1(square, comparison_h),
                                [(b, lambda1(b, comparison_h)) for b in (disc, l1_ball)])
    for row in comp.rows:
        out.rows.append(CsvRow("spectral.cube_comparison", row.label, 2, 0, seed,
                               row.lambda1, 0.0, comp.lambda1_cube))
        out.assertions.append(Assertion(f"spectral.cube_comparison.{row.label}",
                                        "Cor 4.3", row.lambda1,
                                        f">= lambda1(cube) = {comp.lambda1_cube:.4f}",
                                        row.passed))
    out.notes.append(comp.note)

    lam_disc, lam_rect = lambda1(disc, witness_h), lambda1(rect, witness_h / 2)
    out.rows.append(CsvRow("spectral.monotonicity_witness", rect_label, 2, 0,
                           seed, lam_rect, 0.0, lam_disc))
    out.notes.append(
        f"domain monotonicity fails for the disc: {rect_label} has lambda1 = "
        f"{lam_rect:.4f} < {lam_disc:.4f} (reported, not asserted)")
    return out
