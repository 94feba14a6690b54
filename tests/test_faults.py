"""Fault injection: a wrong lattice operator, flip-class extension, raster swap,
raster volume fraction, Fourier inversion, isotropic scale, coordinate law or
exact law must fail at least one suite assertion.

Each fault monkeypatches the function that builds the operator, the extension,
the swap x <-> y, the raster or its orthant, the inversion's sine transform,
the isotropic body, the draw or the counterexample's CDF, then runs the suites
that use it: transport at raster spacing 1/32, spectral, clt, berry_esseen, and
thinshell.
"""

import dataclasses

import numpy as np
import pytest

from thinshell import bodies, clt, spectral, suites, transport
from thinshell import sampler as smp
from thinshell.cli import default_config
from thinshell.estimators import weighted_square_variance

SEED = 20250810


def _failed_with(monkeypatch, module, scale):
    build = module.graph_laplacian
    monkeypatch.setattr(module, "graph_laplacian", lambda *args: scale * build(*args))
    result = suites.transport_suite(SEED, raster_h=1 / 32)
    return [a.name for a in result.assertions if not a.passed]


def test_a_small_1d_operator_fails_thm258(monkeypatch):
    failed = _failed_with(monkeypatch, transport, 1e-3)
    assert failed == ["thm258.norm_value", "thm258.ratio_at_0.01", "thm258.duality"]


@pytest.mark.parametrize("scale", [1.01, 0.99])
def test_a_1d_operator_one_percent_off_fails_the_thm258_norm(monkeypatch, scale):
    # the norm moves by about 0.5%, inside the 2% slack of the W2 comparisons
    assert _failed_with(monkeypatch, transport, scale) == ["thm258.norm_value"]


def test_a_large_raster_operator_fails_every_lemma21_bound(monkeypatch):
    failed = _failed_with(monkeypatch, spectral, 1e3)
    bounds = [name for name in failed if name.startswith("lemma21.")
              and ".closed_form." not in name]
    assert len(bounds) == 14


# the closed-form bounds of x^2 and x^2+y^2; their closed-form Var does not read
# the operator
CLOSED_FORMS = [f"lemma21.{body}.{fname}.closed_form.bound"
                for body in ("cube(n=2)", "euclidean_ball(n=2)") for fname in ("x^2", "x^2+y^2")]


@pytest.mark.parametrize("scale", [1e-3, 0.98])
def test_a_small_raster_operator_fails_the_closed_form(monkeypatch, scale):
    # a smaller operator only inflates the dual-norm bound, so the one-sided
    # Lemma 2.1 checks pass; the closed-form bounds of x^2 and x^2+y^2 do not
    # (at 0.98 the disc's x^2 bound reads +1.96% against its 0.4%, the square's
    # +1.79% against 1%)
    assert _failed_with(monkeypatch, spectral, scale) == CLOSED_FORMS


@pytest.mark.parametrize("scale", [1.01, 0.99])
def test_raster_volume_fractions_one_percent_off_fail_the_closed_forms(monkeypatch, scale):
    # the orthant's fractions, mirrored into the cell weights alpha h^2 of the
    # raster measure, carry the fault into the Var that each closed form reads,
    # and into its dual-norm bound; the one-sided Lemma 2.1 checks still hold
    orthant = spectral.orthant

    def scaled(*args):
        cells = orthant(*args)
        return dataclasses.replace(cells, alpha=scale * cells.alpha)

    monkeypatch.setattr(spectral, "orthant", scaled)
    result = suites.transport_suite(SEED, raster_h=1 / 32)
    assert [a.name for a in result.assertions if not a.passed] == [
        name.replace(".bound", part) for name in CLOSED_FORMS for part in (".var", ".bound")]


@pytest.mark.parametrize("scale", [1 + 1e-5, 1 - 1e-5, 0.995])
def test_a_raster_operator_slightly_off_fails_every_lambda1(monkeypatch, scale):
    # the extrapolated lambda_1 of the square, the disc and the l1 ball move by
    # the operator's scale, against their 1e-6 relative tolerance; the
    # bounding-cube comparisons scale on both sides and still hold
    build = spectral.graph_laplacian
    monkeypatch.setattr(spectral, "graph_laplacian", lambda *args: scale * build(*args))
    failed = [a.name for a in suites.spectral_suite(SEED).assertions if not a.passed]
    assert failed == [f"spectral.{label}.lambda1" for label in ("square", "disc", "l1")]


def test_a_sign_error_in_the_parity_extension_fails_both_lattice_suites(monkeypatch):
    # every reflection carries the wrong sign, both in the extension E of class
    # vectors and in the class operator's mirror term, so each class is its
    # opposite: each Lemma 2.1 gradient is solved in the wrong class, and the
    # constants turn up in the odd-odd class; the class spectra together stay right
    flip_class, class_operator = spectral.GridDomain.flip_class, spectral.Orthant.class_operator
    monkeypatch.setattr(spectral.GridDomain, "flip_class",
                        lambda grid, odd: flip_class(grid, tuple(not o for o in odd)))
    monkeypatch.setattr(spectral.Orthant, "class_operator",
                        lambda cells, odd: class_operator(cells, tuple(not o for o in odd)))
    result = suites.transport_suite(SEED, raster_h=1 / 32)
    assert [a.name for a in result.assertions if not a.passed] == CLOSED_FORMS
    failed = [a.name for a in suites.spectral_suite(SEED).assertions if not a.passed]
    assert failed == [f"spectral.flip_classes.{body}" for body in
                      ("cube(n=2)", "euclidean_ball(n=2)", "lp_ball(p=1,n=2)")]


def test_a_wrong_swap_fails_only_the_flip_class_oracle(monkeypatch):
    # the identity for the swap x <-> y: the class odd in x alone is taken from
    # its twin unswapped, so its vectors, extended with that class's parity, are
    # no eigenvectors; their eigenvalues are the twin's, which are right, so only
    # the class residuals that the whole-raster check reads see the fault
    monkeypatch.setattr(spectral.GridDomain, "swap", lambda grid: np.arange(grid.n_nodes))
    failed = [a.name for a in suites.spectral_suite(SEED).assertions if not a.passed]
    assert failed == [f"spectral.flip_classes.{body}" for body in
                      ("cube(n=2)", "euclidean_ball(n=2)", "lp_ball(p=1,n=2)")]


def test_a_wrong_swap_fails_the_x2_plus_y2_closed_forms(monkeypatch):
    # the class odd in y alone is the swapped class odd in x; unswapped, it
    # solves for d_y on the wrong nodes.  x^2 has d_y = 0, and the one-sided
    # bounds stay above Var, so only the x^2+y^2 closed-form bounds see it (the
    # square's bound falls from 4.2563 to 3.5502, -17%)
    monkeypatch.setattr(spectral.Orthant, "swap", lambda cells: np.arange(cells.mask.sum()))
    result = suites.transport_suite(SEED, raster_h=1 / 32)
    assert [a.name for a in result.assertions if not a.passed] == [
        f"lemma21.{body}.x^2+y^2.closed_form.bound"
        for body in ("cube(n=2)", "euclidean_ball(n=2)")]


def test_a_sign_error_in_the_sine_transform_fails_the_oracle_and_the_scaling_law(monkeypatch):
    # negated reference nodes, with the integrand still taken at the true
    # nodes: sin(t half x_g) changes sign and cos(t half x_g) does not, so only
    # the cross term cos(t mid) sin(t half x_g) of the panel rule flips.  The
    # transform carries the whole phi(xi)/xi, so the tails move by O(1): the
    # oracle gap reads 1.47, the sup errors 1.0 to 1.5, their slope -0.19
    sine_transform = clt._sine_transform

    def flipped(ts, panels, integrand):
        return sine_transform(ts, panels._replace(nodes=-panels.nodes),
                              lambda _: integrand(panels.points))

    monkeypatch.setattr(clt, "_sine_transform", flipped)
    failed = [a.name for a in suites.clt_suite(SEED).assertions if not a.passed]
    assert failed == ["lemma700.oracle_equivalence", "lemma700.scaling"]


def test_a_cube_one_percent_too_large_fails_every_thinshell_variance_ratio(monkeypatch):
    # Var(|X|^2/n) grows by 1.01^4, 4%: outside 3 MC sigma at 1e5 draws for
    # every n of the grid; the marginal's cdf moves by at most 0.0025, inside
    # berry_esseen's 3 DKW bands, so its sampler checks do not see the fault
    isotropic_body = bodies.isotropic_body

    def too_large(kind, dim, p=None):
        return bodies.isotropic_scale(isotropic_body(kind, dim, p), [1.01 ** -2] * dim)

    monkeypatch.setattr(bodies, "isotropic_body", too_large)
    cfg = default_config("thinshell")
    result = suites.thinshell_suite([suites.CUBE], cfg.n_grid, cfg.samples, SEED, shell_n=())
    assert [a.name for a in result.assertions if not a.passed] == [
        f"thinshell.var_ratio.cube(n={n})" for n in cfg.n_grid]
    sampler = [a for a in suites.berry_esseen_suite(SEED).assertions
               if a.name.startswith("berry_esseen.sampler.cube")]
    assert len(sampler) == 3 and all(a.passed for a in sampler)


def test_heavy_tailed_coordinates_fail_only_the_var_x_squared_check(monkeypatch):
    # each coordinate times an independent sqrt(W), W = 1/4 or 7/4 with
    # probability 1/2: E X_i^2 stays 1 and Cov(X_1^2, X_2^2) is unchanged, but
    # E X_i^4 grows by E W^2 = 25/16, so the l1 ball's Var X_1^2 moves from
    # 4.65 to 7.8, past the bound 5 that no log-concave coordinate exceeds;
    # the checks of |X|^2, and the ratio Var(sum a_i X_i^2) / |a|^2 at 20
    # random a ~ U[0, 2]^n, far from its worst case, stay well inside theirs
    draw = smp.for_each_block

    def heavy_tailed(body, count, seed, visit):
        def scaled(rows, chunk):
            w = np.random.default_rng(rows.start).choice([0.25, 1.75], size=chunk.shape)
            chunk *= np.sqrt(w)
            visit(rows, chunk)

        draw(body, count, seed, scaled)

    monkeypatch.setattr(smp, "for_each_block", heavy_tailed)
    n, count = 64, 10 ** 5
    label = suites.L1_BALL.instantiate(n).label()
    result = suites.thinshell_suite([suites.L1_BALL], [n], count, SEED, shell_n=(n,),
                                    shell_templates=(suites.L1_BALL,))
    by_name = {a.name: a for a in result.assertions}
    assert [name for name, a in by_name.items() if not a.passed] == [f"square_variance.{label}"]
    assert by_name[f"square_variance.{label}"].measured > 7.0
    assert by_name[f"thinshell.var_bound.{label}"].passed  # n Var(|X|^2/n) = 4.1
    assert by_name[f"shell_dev.{label}"].passed             # 0.99

    coeffs = np.random.default_rng(SEED).uniform(0.0, 2.0, size=(20, n))
    weighted = np.empty((count, 20))

    def keep(rows, chunk):
        weighted[rows] = (chunk * chunk) @ coeffs.T

    smp.for_each_block(suites.L1_BALL.instantiate(n), count, SEED, keep)
    ratios = [weighted_square_variance(y).value / float(a @ a)
              for y, a in zip(weighted.T, coeffs)]
    assert max(ratios) < 16.0  # 5.3


def test_a_counterexample_law_off_by_1e_4_fails_its_exact_distance(monkeypatch):
    # the sup of |F - Phi| moves by 1e-4, against 1e-6 around its closed form;
    # the sampler checks' 3 DKW bands, about 0.015, do not see it
    counterexample_cdf = suites._counterexample_cdf
    monkeypatch.setattr(suites, "_counterexample_cdf", lambda theta, n: (
        lambda t, cdf=counterexample_cdf(theta, n): cdf(t) + 1e-4))
    failed = [a.name for a in suites.berry_esseen_suite(SEED).assertions if not a.passed]
    assert failed == ["berry_esseen.counterexample.n16", "berry_esseen.counterexample.n256"]
