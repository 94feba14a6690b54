import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from thinshell import sampler
from thinshell.bodies import (
    KINDS,
    BodySpec,
    DimensionMismatchError,
    analytic_second_moments,
    contains_rows,
    isotropic_body,
    isotropic_scale,
    label_family,
)
from thinshell.cli import parse_config
from thinshell.suites import BALL, CUBE, L1_BALL, BodyTemplate

SQRT3 = math.sqrt(3.0)


def contains(body, x, atol=0.0):
    return bool(contains_rows(body, np.asarray(x, dtype=float)[None], atol)[0])


def test_contains_cube_center_and_outside():
    body = BodySpec.cube(2, half_width=SQRT3)
    assert contains(body, (0.0, 0.0))
    assert not contains(body, (2.0, 0.0))


def test_contains_l1_boundary_counts_as_inside():
    body = BodySpec.lp_ball(3, p=1.0)
    assert contains(body, (0.5, 0.25, 0.25))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(BodySpec.cube(3), (0.0, 0.0))


def test_isotropic_scale_cube():
    body = BodySpec.cube(4)
    iso = isotropic_scale(body, [1 / 3] * 4)
    assert iso.scale == pytest.approx((SQRT3,) * 4)


def test_isotropic_scale_ball_beta_moment_oracle():
    # oracle: E X_1^2 = E|X|^2/n with E|X|^2 = int_0^1 r^2 n r^(n-1) dr
    n = 5
    moment, _ = quad(lambda r: r ** 2 * n * r ** (n - 1), 0, 1)
    assert moment / n * (n + 2) == pytest.approx(1.0, abs=1e-12)
    assert analytic_second_moments(BodySpec.euclidean_ball(n))[0] == pytest.approx(moment / n)
    iso = isotropic_scale(BodySpec.euclidean_ball(n), [moment / n] * n)
    assert iso.scale[0] == pytest.approx(math.sqrt(n + 2))


def test_isotropic_scale_identity():
    body = BodySpec.cube(3, half_width=SQRT3)
    same = isotropic_scale(body, np.ones(3))
    assert same == body
    assert isotropic_scale(same, np.ones(3)) == body


def test_isotropic_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        isotropic_scale(BodySpec.cube(2), [1.0, 0.0])


def test_l1_second_moment_against_quadrature():
    # coordinate density of the l1 ball is proportional to (1-|t|)^(n-1)
    n = 4
    num, _ = quad(lambda t: t ** 2 * (1 - t) ** (n - 1), 0, 1)
    den, _ = quad(lambda t: (1 - t) ** (n - 1), 0, 1)
    assert analytic_second_moments(BodySpec.lp_ball(n, p=1.0))[0] == pytest.approx(num / den)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [2, 8, 128])
def test_lp_second_moment_against_quadrature(n, p):
    # coordinate density of the lp ball is proportional to (1-|t|^p)^((n-1)/p)
    k = (n - 1) / p
    num, _ = quad(lambda t: t ** 2 * (1 - t ** p) ** k, 0, 1, epsabs=0, epsrel=1e-13, limit=200)
    den, _ = quad(lambda t: (1 - t ** p) ** k, 0, 1, epsabs=0, epsrel=1e-13, limit=200)
    got = analytic_second_moments(BodySpec.lp_ball(n, p))
    assert got == pytest.approx(np.full(n, num / den), rel=1e-10, abs=0)


def test_body_template_isotropy_does_not_sample(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("isotropic normalization must not sample")

    monkeypatch.setattr(sampler, "estimate_second_moments", no_sampling)
    monkeypatch.setattr(sampler, "exact_blocks", no_sampling)
    monkeypatch.setattr(sampler, "for_each_block", no_sampling)
    for template in (CUBE, BALL, L1_BALL, BodyTemplate("lp_ball", 3.0)):
        assert template.instantiate(6) == isotropic_body(template.kind, 6, p=template.p)


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_lp_ball_rejects_p_outside_one_to_infinity(p):
    with pytest.raises(ValueError, match="finite p >= 1"):
        BodySpec.lp_ball(4, p)


@pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_scale_must_be_finite_and_positive(half_width):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        BodySpec.cube(2, half_width)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        BodySpec("lp_ball", 2, (1.0, half_width), p=3.0)


def test_p_applies_only_to_lp_ball():
    with pytest.raises(ValueError, match="p does not apply"):
        BodySpec("cube", 2, (1.0, 1.0), p=3.0)
    with pytest.raises(ValueError, match="unknown body kind"):
        BodySpec("product_of_intervals", 2, (1.0, 1.0))


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_samples_inside_and_parses(kind):
    p = 2.5 if kind == "lp_ball" else None
    samples = sampler.sample_exact(isotropic_body(kind, 3, p), 5000, seed=7)
    assert contains_rows(samples.body, samples.data).all()
    body = f"kind = {kind}" + ("\np = 2.5" if p is not None else "")
    cfg = parse_config(f"[experiment]\nname = thinshell\n\n[body.x]\n{body}\n")
    assert cfg.bodies == [BodyTemplate(kind, p)]


@st.composite
def bodies_and_points(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(KINDS))
    p = draw(st.floats(1.0, 8.0)) if kind == "lp_ball" else None
    scale = tuple(draw(st.floats(0.1, 3.0)) for _ in range(n))
    x = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n)])
    return BodySpec(kind, n, scale, p), x


@settings(max_examples=150, deadline=None)
@given(bodies_and_points(), st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6))
def test_sign_flip_invariance(bp, signs):
    body, x = bp
    flips = np.array(signs[: body.dim])
    assert contains(body, x) == contains(body, flips * x)


@settings(max_examples=100, deadline=None)
@given(bodies_and_points(), bodies_and_points(), st.floats(0.0, 1.0))
def test_convexity_spot_check(bp1, bp2, t):
    body, x = bp1
    _, y0 = bp2
    y = y0[: body.dim] if y0.size >= body.dim else np.zeros(body.dim)
    if contains(body, x) and contains(body, y):
        assert contains(body, t * x + (1 - t) * y, atol=1e-9)


def test_isotropic_body_cube_is_unit_variance():
    assert isotropic_body("cube", 7).scale == pytest.approx((SQRT3,) * 7)
    assert analytic_second_moments(isotropic_body("lp_ball", 5, p=1.0)) == pytest.approx(np.ones(5))
    assert analytic_second_moments(isotropic_body("lp_ball", 6, p=3.0)) == pytest.approx(np.ones(6))


def test_label_family_drops_the_dimension():
    assert label_family(BodySpec.lp_ball(16, p=1.0).label()) == "lp_ball(p=1)"
    assert label_family(BodySpec.lp_ball(3, p=3.5).label()) == "lp_ball(p=3.5)"
    assert label_family(BodySpec.cube(128).label()) == "cube"
    assert label_family(BodySpec("cube", 2, (1.0, 2.0)).label()) == "cube"
