"""Fault injection: a wrong lattice operator, flip-class extension, raster swap,
Fourier inversion, isotropic scale or exact law must fail at least one suite
assertion.

Each fault monkeypatches the function that builds the operator, the extension,
the swap x <-> y, the inversion's sine transform, the isotropic body or the
counterexample's CDF, then runs the suites that use it: transport at raster
spacing 1/32, spectral, clt, berry_esseen, and thinshell on its default cube
grid.
"""

import numpy as np
import pytest

from thinshell import bodies, clt, spectral, suites, transport
from thinshell.cli import default_config

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
    # every reflection carries the wrong sign, so each class is its opposite:
    # each Lemma 2.1 gradient is solved in the wrong class, and the constants
    # turn up in the odd-odd class; the class spectra together stay right
    flip_class = spectral.GridDomain.flip_class
    monkeypatch.setattr(spectral.GridDomain, "flip_class",
                        lambda grid, odd: flip_class(grid, tuple(not o for o in odd)))
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
    monkeypatch.setattr(spectral.GridDomain, "swap", lambda grid: np.arange(grid.n_nodes))
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


def test_a_counterexample_law_off_by_1e_4_fails_its_exact_distance(monkeypatch):
    # the sup of |F - Phi| moves by 1e-4, against 1e-6 around its closed form;
    # the sampler checks' 3 DKW bands, about 0.015, do not see it
    counterexample_cdf = suites._counterexample_cdf
    monkeypatch.setattr(suites, "_counterexample_cdf", lambda theta, n: (
        lambda t, cdf=counterexample_cdf(theta, n): cdf(t) + 1e-4))
    failed = [a.name for a in suites.berry_esseen_suite(SEED).assertions if not a.passed]
    assert failed == ["berry_esseen.counterexample.n16", "berry_esseen.counterexample.n256"]
