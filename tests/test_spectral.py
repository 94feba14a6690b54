import math

import numpy as np
import pytest
from scipy.special import jnp_zeros

from thinshell.bodies import BodySpec
from thinshell.spectral import (
    EigenPair,
    TooCoarseGridError,
    cube_comparison,
    domain_monotonicity_witness,
    gradient_bias,
    gradient_bias_rank,
    lambda1_cluster,
    lowest_eigenpairs,
    rasterize,
    richardson_lambda1,
    symmetry_detect,
)

SQUARE_LAMBDA1 = math.pi ** 2 / 4.0                 # interval oracle, [-1,1]
DISC_LAMBDA1 = float(jnp_zeros(1, 1)[0]) ** 2       # Bessel-derivative root oracle


@pytest.fixture(scope="module")
def square_grid():
    return rasterize(BodySpec.cube(2), h=1 / 32)


@pytest.fixture(scope="module")
def disc_grid():
    return rasterize(BodySpec.euclidean_ball(2), h=1 / 64)


@pytest.fixture(scope="module")
def square_pairs(square_grid):
    return lowest_eigenpairs(square_grid, k=4)


@pytest.fixture(scope="module")
def disc_pairs(disc_grid):
    return lowest_eigenpairs(disc_grid, k=4)


def test_rasterize_square_full_mask(square_grid):
    assert square_grid.mask.shape == (64, 64)
    assert square_grid.mask.all()


def test_rasterize_disc_area(disc_grid):
    assert disc_grid.n_nodes * disc_grid.h ** 2 == pytest.approx(math.pi, rel=0.02)


def test_rasterize_flip_symmetry():
    for body in [BodySpec.cube(2), BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0)]:
        mask = rasterize(body, 1 / 32).mask
        assert np.array_equal(mask, mask[:, ::-1])
        assert np.array_equal(mask, mask[::-1, :])


def test_raster_layout_on_a_rectangle():
    # the two axes differ, so a swapped axis shows; at h = 1/64 the short side
    # would be too coarse, and a power of two keeps the centers exactly mirrored
    grid = rasterize(BodySpec("cube", 2, (0.9, 0.2)), h=1 / 128)
    assert grid.mask.shape == (52, 232)  # (y, x)
    x, y = grid.centers()
    assert np.array_equal(x[grid.flip(0)], -x) and np.array_equal(y[grid.flip(0)], y)
    assert np.array_equal(x[grid.flip(1)], x) and np.array_equal(y[grid.flip(1)], -y)
    v = np.arange(grid.n_nodes, dtype=float)
    assert np.array_equal(grid.image(v)[grid.mask], v)
    for f, expected in [(x, (1.0, 0.0)), (y, (0.0, 1.0))]:
        for g, e in zip(grid.gradient(f), expected):
            assert np.max(np.abs(g - e)) <= 1e-12


def test_rasterize_too_coarse():
    with pytest.raises(TooCoarseGridError):
        rasterize(BodySpec.cube(2), h=0.25)


def test_operator_kernel_and_symmetry(square_grid, disc_grid):
    for grid in (square_grid, disc_grid):
        L = grid.operator
        ones = np.ones(L.shape[0])
        assert np.max(np.abs(L @ ones)) < 1e-10
        assert (L - L.T).count_nonzero() == 0


def test_square_eigenvalues(square_pairs):
    assert square_pairs[0].value == pytest.approx(0.0, abs=1e-9)
    assert np.ptp(square_pairs[0].vector) < 1e-6 * np.max(np.abs(square_pairs[0].vector))
    lam1 = square_pairs[1].value
    assert lam1 == pytest.approx(SQUARE_LAMBDA1, rel=2e-3)
    assert len(lambda1_cluster(square_pairs)) == 2


def test_disc_eigenvalues(disc_pairs):
    assert disc_pairs[1].value == pytest.approx(DISC_LAMBDA1, rel=0.01)
    assert len(lambda1_cluster(disc_pairs)) == 2


def test_rectangle_simple_lowest_mode():
    # [-2,2] x [-1,1]: lambda_1 = pi^2/16 on the long axis, simple
    grid = rasterize(BodySpec("cube", 2, (2.0, 1.0)), h=1 / 16)
    pairs = lowest_eigenpairs(grid, k=3)
    assert pairs[1].value == pytest.approx(math.pi ** 2 / 16.0, rel=2e-3)
    assert len(lambda1_cluster(pairs)) == 1


def test_residuals_and_orthogonality(disc_grid, disc_pairs):
    lam1 = disc_pairs[1].value
    h2 = disc_grid.h ** 2
    for p in disc_pairs:
        assert p.residual <= 1e-8 * max(lam1, 1.0)
    for i, p in enumerate(disc_pairs):
        for q in disc_pairs[i + 1:]:
            if abs(p.value - q.value) > 1e-6:
                assert abs(p.vector @ q.vector) * h2 < 1e-10


def test_multiplicity_at_most_two():
    for body, h in [(BodySpec.cube(2), 1 / 32), (BodySpec.euclidean_ball(2), 1 / 32),
                    (BodySpec.lp_ball(2, p=1.0), 1 / 32),
                    (BodySpec("cube", 2, (1.5, 1.0)), 1 / 32)]:
        pairs = lowest_eigenpairs(rasterize(body, h), k=4)
        assert len(lambda1_cluster(pairs)) <= 2


def test_richardson_square_order_and_value():
    res = richardson_lambda1(BodySpec.cube(2), [1 / 16, 1 / 32, 1 / 64])
    assert res.observed_order >= 1.5
    assert res.extrapolated == pytest.approx(SQUARE_LAMBDA1, rel=1e-4)


def test_gradient_bias_constant_mode(square_grid, square_pairs):
    bias0 = gradient_bias(square_grid, square_pairs[0])
    assert np.allclose(bias0, 0.0, atol=1e-8)


def test_gradient_bias_rank_two(square_grid, square_pairs, disc_grid, disc_pairs):
    for grid, pairs in [(square_grid, square_pairs), (disc_grid, disc_pairs)]:
        space = lambda1_cluster(pairs)
        rep = gradient_bias_rank(grid, space)
        assert rep.rank == 2
        assert len(rep.singular_values) == 2


def test_gradient_bias_separable_oracle(square_grid):
    # phi = -sin(pi x / 2): int dphi/dx = -pi/2 * int cos = -2 per unit y-length
    ny, nx = square_grid.mask.shape
    cx = square_grid.origin[0] + (np.arange(nx) + 0.5) * square_grid.h
    X = np.tile(cx, (ny, 1))
    phi = -np.sin(math.pi * X[square_grid.mask] / 2.0)
    phi /= np.linalg.norm(phi) * square_grid.h
    pair = EigenPair(SQUARE_LAMBDA1, phi, 0.0)
    bias = gradient_bias(square_grid, pair)
    # normalized mode: integral of the derivative is nonzero along x only
    assert abs(bias[0]) > 0.5
    assert abs(bias[1]) < 1e-10


def test_symmetry_detect_square(square_grid, square_pairs):
    rep = symmetry_detect(square_grid, lambda1_cluster(square_pairs))
    assert rep.passed
    assert rep.defect <= 1e-8
    assert rep.central_defect <= 1e-6


def test_symmetry_detect_disc(disc_grid, disc_pairs):
    rep = symmetry_detect(disc_grid, lambda1_cluster(disc_pairs))
    assert rep.passed
    assert rep.defect <= 1e-6
    assert rep.central_defect <= 1e-6


def test_odd_member_rayleigh_is_eigenvalue(square_grid, square_pairs):
    # eigen-identity: any lambda_1-eigenspace member has Rayleigh quotient lambda_1
    v = symmetry_detect(square_grid, lambda1_cluster(square_pairs)).member
    assert v @ (square_grid.operator @ v) / (v @ v) == pytest.approx(
        square_pairs[1].value, rel=1e-9)


def test_cube_comparison_includes_self():
    rep = cube_comparison([BodySpec.cube(2)])
    assert rep.rows[0].passed
    assert rep.rows[0].lambda1 == pytest.approx(rep.lambda1_cube, rel=1e-12)
    assert rep.lambda1_cube == pytest.approx(math.pi ** 2 / 4, rel=2e-3)
    assert "4x" in rep.note


def test_cube_comparison_disc_and_l1():
    rep = cube_comparison([BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0)])
    assert all(row.passed for row in rep.rows)
    assert rep.rows[0].lambda1 == pytest.approx(DISC_LAMBDA1, rel=0.02)
    assert rep.rows[0].lambda1 >= rep.lambda1_cube


def test_cube_comparison_containment_guard():
    with pytest.raises(ValueError):
        cube_comparison([BodySpec.cube(2, half_width=2.0)])


def test_domain_monotonicity_failure_witness():
    rep = domain_monotonicity_witness()
    assert rep.lambda1_subdomain < rep.lambda1_disc
    assert rep.lambda1_subdomain == pytest.approx(math.pi ** 2 / (4 * 0.81), rel=0.02)
