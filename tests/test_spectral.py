import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import j1, jnp_zeros

from thinshell import bodies, spectral, suites
from thinshell.bodies import BodySpec
from thinshell.spectral import (
    EigenPair,
    InvalidSpacingError,
    NotConvergingError,
    TooCoarseGridError,
    class_eigenpairs,
    factorize,
    gradient_bias,
    gradient_bias_rank,
    lambda1_cluster,
    lowest_eigenpairs,
    rasterize,
    richardson_lambda1,
)

SQUARE_LAMBDA1 = math.pi ** 2 / 4.0                 # interval oracle, [-1,1]
DISC_ROOT = float(jnp_zeros(1, 1)[0])               # first positive root of J_1'
DISC_LAMBDA1 = DISC_ROOT ** 2                       # Bessel-derivative root oracle
L1_LAMBDA1 = math.pi ** 2 / 2.0                     # a square of side sqrt 2


@pytest.fixture(scope="module")
def square_grid():
    return rasterize(BodySpec.cube(2), h=1 / 32)


@pytest.fixture(scope="module")
def disc_grid():
    return rasterize(BodySpec.euclidean_ball(2), h=1 / 64)


@pytest.fixture(scope="module")
def square_pairs(square_grid):
    return lowest_eigenpairs(square_grid)


@pytest.fixture(scope="module")
def disc_pairs(disc_grid):
    return lowest_eigenpairs(disc_grid)


def test_rasterize_square_full_mask(square_grid):
    assert square_grid.mask.shape == (64, 64)
    assert square_grid.mask.all()


def test_rasterize_disc_area(disc_grid):
    assert np.sum(disc_grid.alpha) * disc_grid.h ** 2 == pytest.approx(math.pi, rel=1e-14)


def _lp_area(p):
    return 4.0 * math.gamma(1.0 + 1.0 / p) ** 2 / math.gamma(1.0 + 2.0 / p)


@pytest.mark.parametrize("body, area", [
    (BodySpec.cube(2), 4.0), (BodySpec.euclidean_ball(2), math.pi),
    (BodySpec.lp_ball(2, p=1.0), 2.0), (BodySpec("cube", 2, (0.9, 0.2)), 0.72)]
    + [(BodySpec.lp_ball(2, p=p), _lp_area(p)) for p in (1.5, 3.0, 8.0)])
@pytest.mark.parametrize("h", [1 / 80, 1 / 96, 1 / 128])
def test_cut_cells_hold_the_area_and_no_empty_cell(body, area, h):
    grid = rasterize(body, h)
    assert np.sum(grid.alpha) * h * h == pytest.approx(area, rel=1e-14)
    assert np.all((grid.alpha > 0) & (grid.alpha <= 1))
    inside = bodies.contains_rows(body, np.column_stack(grid.centers()), atol=0.0)
    assert np.all(grid.alpha[inside & (grid.alpha < 1)] > 0.25)  # a center inside: over a quarter


def test_cut_cell_fractions_of_the_disc_against_a_fine_subsample():
    # an independent oracle: 64 x 64 midpoints per cell of the orthant's
    # boundary cells at h = 1/16, with membership from bodies.contains_rows;
    # the p = 3 ball's cells too
    offsets = (np.arange(64) + 0.5) / 64 - 0.5
    dx, dy = (a.ravel() / 16 for a in np.meshgrid(offsets, offsets))
    for body in (BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=3.0)):
        grid = rasterize(body, 1 / 16)
        x, y = grid.centers()
        for i in np.flatnonzero((grid.alpha < 1) & (x > 0) & (y > 0)):
            pts = np.column_stack([x[i] + dx, y[i] + dy])
            share = np.mean(bodies.contains_rows(body, pts, atol=0.0))
            assert abs(share - grid.alpha[i]) <= 2e-3, (body, x[i], y[i], share, grid.alpha[i])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 8.0])
def test_cut_cell_fractions_match_a_quadrature_of_the_boundary(p):
    # an independent oracle: alpha of each cut cell of the orthant at h = 1/16 as
    # int clip(H(u) - v0, 0, h) du / h^2 with H(u) = (1 - u^p)^(1/p), by mpmath
    # quadrature split where H crosses v1 and v0; no incomplete beta function
    def H(u):
        return (1 - u ** p) ** (1 / mpmath.mpf(p)) if u < 1 else mpmath.mpf(0)

    grid = rasterize(BodySpec.lp_ball(2, p=p), 1 / 16)
    x, y = grid.centers()
    cut = np.flatnonzero((grid.alpha < 1) & (x > 0) & (y > 0))
    assert cut.size >= 16
    with mpmath.workdps(30):
        h = mpmath.mpf(1) / 16
        for i in cut:
            u0, v0 = (round(c * 16 - 0.5) * h for c in (x[i], y[i]))
            a, b = (min(max(H(v), u0), u0 + h) for v in (v0 + h, v0))
            area = mpmath.quad(lambda u: min(max(H(u) - v0, 0), h), sorted({u0, a, b, u0 + h}))
            assert abs(float(area / h ** 2) - grid.alpha[i]) <= 1e-10, (p, x[i], y[i])


def test_a_corner_the_l1_diagonal_only_touches_is_not_a_node():
    # the rounding of that corner's fraction lies below _SLIVER
    assert rasterize(BodySpec.lp_ball(2, p=1.0), 1 / 48).alpha.min() == pytest.approx(0.5)


def test_rasterize_flip_symmetry():
    for body in [BodySpec.cube(2), BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0),
                 BodySpec.lp_ball(2, p=3.0)]:
        grid = rasterize(body, 1 / 32)
        mask = grid.mask
        assert np.array_equal(mask, mask[:, ::-1])
        assert np.array_equal(mask, mask[::-1, :])
        for axis in (0, 1):  # exact, weights and all
            perm = grid.flip(axis)
            assert np.array_equal(grid.alpha[perm], grid.alpha)
            assert (grid.operator[perm][:, perm] != grid.operator).nnz == 0


PARITIES = list(itertools.product((False, True), repeat=2))  # (x odd, y odd)
SWAP_SYMMETRIC = [BodySpec.cube(2), BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0),
                  BodySpec.lp_ball(2, p=3.0)]


@pytest.mark.parametrize("body", SWAP_SYMMETRIC)
@pytest.mark.parametrize("m", [16, 32, 48, 64, 128])
def test_equal_half_widths_give_an_exactly_swap_symmetric_raster(body, m):
    grid = rasterize(body, 1 / m)
    assert grid.swap_symmetric
    perm = grid.swap()
    x, y = grid.centers()
    assert np.array_equal(x[perm], y) and np.array_equal(y[perm], x)
    assert np.array_equal(grid.alpha[perm], grid.alpha)
    assert (grid.operator[perm][:, perm] != grid.operator).nnz == 0


def test_swap_needs_a_symmetric_mask():
    grid = rasterize(BodySpec("cube", 2, (0.9, 0.2)), 1 / 96)
    assert not grid.swap_symmetric
    with pytest.raises(ValueError, match="swap"):
        grid.swap()


# the spectral suite's swap-symmetric rasters
SUITE_SWAP_RASTERS = ([(BodySpec.cube(2), h) for h in (1 / 16, 1 / 32, 1 / 64)]
                      + [(BodySpec.euclidean_ball(2), h) for h in (1 / 16, 1 / 32, 1 / 48, 1 / 64)]
                      + [(BodySpec.lp_ball(2, p=1.0), 1 / 32)])


@pytest.mark.parametrize("body, h", SUITE_SWAP_RASTERS)
def test_the_swapped_class_matches_its_direct_solve(body, h):
    grid = rasterize(body, h)
    classes = class_eigenpairs(grid)
    assert list(classes) == PARITIES
    swapped, direct = classes[(True, False)], lowest_eigenpairs(grid, (True, False))
    for p, q in zip(swapped, direct, strict=True):
        assert p.value == pytest.approx(q.value, rel=1e-12)
        assert p.residual <= 1e-10 and q.residual <= 1e-10
        assert np.array_equal(p.vector[grid.flip(0)], -p.vector)  # the class's parity
        assert np.array_equal(p.vector[grid.flip(1)], p.vector)
    # the first in the class is simple: the two vectors agree up to sign
    w = grid.alpha * h * h
    assert abs(swapped[0].vector @ (w * direct[0].vector)) == pytest.approx(1.0, rel=1e-9)


def test_raster_layout_on_a_rectangle():
    # the two axes differ, so a swapped axis shows; the centers mirror exactly
    # at any h, a power of two or not
    for half_widths, h, shape in [((0.9, 0.2), 1 / 128, (52, 232)),
                                  ((0.9, 0.4), 1 / 48, (40, 88))]:
        grid = rasterize(BodySpec("cube", 2, half_widths), h)
        assert grid.mask.shape == shape  # (y, x)
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


@pytest.mark.parametrize("h", [float("nan"), 0.0, -1 / 32, float("inf"), -float("inf")])
def test_rasterize_rejects_a_spacing_that_is_not_finite_and_positive(h):
    with pytest.raises(InvalidSpacingError, match="finite and positive"):
        rasterize(BodySpec.cube(2), h)
    assert issubclass(InvalidSpacingError, ValueError)


def test_operator_kernel_and_symmetry(square_grid, disc_grid):
    for grid in (square_grid, disc_grid):
        L = grid.operator
        ones = np.ones(L.shape[0])
        assert np.max(np.abs(L @ ones)) < 1e-10
        assert (L - L.T).count_nonzero() == 0


def _dense_spectrum(grid):
    """The five lowest eigenvalues of K phi = lambda diag(alpha) phi, dense."""
    return scipy.linalg.eigh(grid.operator.toarray(), np.diag(grid.alpha),
                             eigvals_only=True)[:5]


def test_square_eigenvalues(square_pairs):
    assert square_pairs[0].value == pytest.approx(0.0, abs=1e-9)
    assert np.ptp(square_pairs[0].vector) < 1e-6 * np.max(np.abs(square_pairs[0].vector))
    lam1 = square_pairs[1].value
    assert lam1 == pytest.approx(SQUARE_LAMBDA1, rel=2e-3)
    assert len(lambda1_cluster(square_pairs)) == 2


def test_disc_eigenvalues(disc_pairs):
    # the cut-cell disc at h = 1/64 lies 5.95e-5 below the Bessel root
    assert disc_pairs[1].value == pytest.approx(DISC_LAMBDA1, rel=1e-4)
    assert len(lambda1_cluster(disc_pairs)) == 2


def test_rectangle_simple_lowest_mode():
    # [-2,2] x [-1,1]: lambda_1 = pi^2/16 on the long axis, simple
    grid = rasterize(BodySpec("cube", 2, (2.0, 1.0)), h=1 / 16)
    pairs = lowest_eigenpairs(grid)
    assert pairs[1].value == pytest.approx(math.pi ** 2 / 16.0, rel=2e-3)
    assert len(lambda1_cluster(pairs)) == 1


@pytest.mark.parametrize("half_widths, h", [((1.0, 1.0), 1 / 64), ((2.0, 1.0), 1 / 32)])
def test_box_eigenvalues_match_the_exact_raster_spectrum(half_widths, h):
    # the 5-point Neumann operator on an m_x x m_y box raster separates:
    # (4/h^2) (sin^2(pi i / 2 m_x) + sin^2(pi j / 2 m_y))
    grid = rasterize(BodySpec("cube", 2, half_widths), h)
    m_y, m_x = grid.mask.shape
    axis = [np.sin(math.pi * np.arange(m) / (2 * m)) ** 2 for m in (m_x, m_y)]
    exact = np.sort((4 / h ** 2 * np.add.outer(*axis)).ravel())[:5]
    got = np.array([p.value for p in lowest_eigenpairs(grid)])
    np.testing.assert_allclose(got, exact, rtol=1e-10, atol=1e-10 * exact[1])


@pytest.mark.parametrize("body", [BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0)])
def test_cut_cell_eigenvalues_match_a_dense_solve(body):
    grid = rasterize(body, 1 / 16)  # 856 and 544 nodes
    exact = _dense_spectrum(grid)
    got = np.array([p.value for p in lowest_eigenpairs(grid)])
    np.testing.assert_allclose(got, exact, rtol=1e-10, atol=1e-10 * exact[1])


@pytest.mark.parametrize("body", [BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0),
                                  BodySpec("cube", 2, (2.0, 1.0))])
def test_flip_class_spectra_together_match_a_dense_solve(body):
    # the five lowest eigenvalues of each class contain the five lowest of the
    # whole raster, whichever classes they fall in
    grid = rasterize(body, 1 / 16)
    exact = _dense_spectrum(grid)
    pairs = [p for odd in PARITIES for p in lowest_eigenpairs(grid, odd)]
    got = np.sort([p.value for p in pairs])[:5]
    np.testing.assert_allclose(got, exact, rtol=1e-10, atol=1e-10 * exact[1])
    for p in pairs:
        assert p.vector.shape == (grid.n_nodes,)
        assert p.residual <= 1e-10 * max(p.value, 1.0)  # against the whole operator


# the spectral suite's rasters that it reads for lambda_1 alone
SUITE_LAMBDA1_RASTERS = [(BodySpec.cube(2), 1 / 64), (BodySpec.euclidean_ball(2), 1 / 16),
                         (BodySpec.euclidean_ball(2), 1 / 48), (BodySpec.lp_ball(2, p=1.0), 1 / 16),
                         (BodySpec.lp_ball(2, p=1.0), 1 / 64), (BodySpec("cube", 2, (0.9, 0.2)), 1 / 96)]
# the rasters whose full class spectrum it reads, and their lambda_1 by the same rule
SUITE_FULL_RASTERS = [(BodySpec.cube(2), 1 / 16), (BodySpec.cube(2), 1 / 32),
                      (BodySpec.euclidean_ball(2), 1 / 32), (BodySpec.euclidean_ball(2), 1 / 64),
                      (BodySpec.lp_ball(2, p=1.0), 1 / 32)]


@pytest.mark.parametrize("body, h", SUITE_LAMBDA1_RASTERS + SUITE_FULL_RASTERS)
def test_lambda1_lies_in_a_singly_odd_class(body, h):
    # Cor 4.2(i) and Courant's nodal domain theorem: the suite's lambda_1 rule on
    # every raster, the lowest value of the singly-odd classes that it solves, is
    # the second value of the whole class spectrum, to the bit
    grid = rasterize(body, h)
    classes = class_eigenpairs(grid)
    solved = [(False, True)] + ([] if grid.swap_symmetric else [(True, False)])
    rule = min(classes[odd][0].value for odd in solved)
    assert rule == sorted(p.value for pairs in classes.values() for p in pairs)[1]


def test_flip_class_extension_and_operator():
    grid = rasterize(BodySpec.euclidean_ball(2), 1 / 32)
    x, y = grid.centers()
    _, even = grid.flip_class((False, False))
    A_even = grid.operator @ even
    for odd in PARITIES:
        nodes, E = grid.flip_class(odd)
        assert np.all(x[nodes] > 0) and np.all(y[nodes] > 0)
        assert 4 * nodes.size == grid.n_nodes
        np.testing.assert_array_equal((E.T @ E).toarray(), 4 * np.identity(nodes.size))
        psi = np.cos(np.arange(nodes.size))
        v = E @ psi
        assert np.array_equal(v[nodes], psi)
        for axis, odd_axis in enumerate(odd):
            assert np.array_equal(v[grid.flip(axis)], -v if odd_axis else v)
        # a ghost cell holding -psi across the plane of each odd axis adds twice
        # the weight of the edge to the mirror cell, aperture / h^2
        ghost = np.zeros(nodes.size)
        for axis, (c, o) in enumerate(zip((x, y), odd)):
            across = grid.operator[nodes, grid.flip(axis)[nodes]].A1
            if o:
                ghost -= 2.0 * across
            assert np.array_equal(across != 0, np.abs(c[nodes]) < grid.h)
        diff = ((grid.operator @ E)[nodes] - A_even[nodes]).toarray()
        np.testing.assert_array_equal(diff, np.diag(ghost))
    with pytest.raises(ValueError):  # one parity per coordinate
        grid.flip_class((True,))


def test_each_lattice_solve_factors_once_through_the_helper(monkeypatch):
    factored, opinv, generalized, rastered = [], [], [], []

    def counted_factorize(A):
        factored.append(A.shape[0])
        return factorize(A)

    def recorded_eigsh(*args, **kwargs):
        opinv.append(kwargs.get("OPinv") is not None)
        generalized.append(kwargs.get("M") is not None)
        return eigsh(*args, **kwargs)

    def recorded_rasterize(body, h):
        rastered.append((body, h))
        return rasterize(body, h)

    factorize, eigsh = spectral.factorize, spectral.spl.eigsh
    monkeypatch.setattr(spectral, "factorize", counted_factorize)
    monkeypatch.setattr(spectral.spl, "eigsh", recorded_eigsh)
    monkeypatch.setattr(spectral, "rasterize", recorded_rasterize)
    suites.spectral_suite(20250810)
    # one per eigen solve: 3 flip classes of the 5 rasters whose full spectrum is
    # read (the 4th is swapped from its twin), the class odd in y alone of the 5
    # swap-symmetric rasters read for lambda_1 alone, both singly-odd classes of
    # the rectangle, and 3 whole rasters
    assert len(factored) == len(opinv) == 3 * 5 + 5 + 2 + 3
    assert all(opinv)  # so eigsh factors nothing of its own
    assert not any(generalized)  # standard mode: no products with M
    assert len(rastered) == len(set(rastered)) == 11  # each (body, h) once
    factored.clear()
    suites.transport_suite(20250810)
    # the segment's Laplacian, and the odd-x class of the square and of the disc,
    # which serves the odd-y class too
    assert len(factored) == 1 + 2


def test_residuals_and_orthogonality(disc_grid, disc_pairs):
    lam1 = disc_pairs[1].value
    w = disc_grid.alpha * disc_grid.h ** 2  # the cells' measure
    for p in disc_pairs:
        assert p.residual <= 1e-8 * max(lam1, 1.0)
        assert p.vector @ (w * p.vector) == pytest.approx(1.0, rel=1e-12)
    for i, p in enumerate(disc_pairs):
        for q in disc_pairs[i + 1:]:
            if abs(p.value - q.value) > 1e-6:
                assert abs(p.vector @ (w * q.vector)) < 1e-10


# every raster of the lattice suites that is not a full box, with its smallest
# volume fraction: the spectral suite's, and the transport suite's disc at its
# default h = 1/32 and at the benchmark's 1/128
SUITE_CUT_RASTERS = [
    (BodySpec.euclidean_ball(2), 1 / 16, 3.78e-2), (BodySpec.euclidean_ball(2), 1 / 32, 3.39e-3),
    (BodySpec.euclidean_ball(2), 1 / 48, 7.30e-3), (BodySpec.euclidean_ball(2), 1 / 64, 7.18e-4),
    (BodySpec.euclidean_ball(2), 1 / 128, 1.37e-4),
    (BodySpec.lp_ball(2, p=1.0), 1 / 32, 0.5), (BodySpec("cube", 2, (0.9, 0.2)), 1 / 96, 0.08)]


@pytest.mark.parametrize("body, h, smallest", SUITE_CUT_RASTERS)
def test_the_smallest_cut_cell_still_factors(body, h, smallest):
    # M = diag(alpha) is near singular where alpha is small; A - shift M must
    # still factor and solve, and the eigen residuals stay at rounding level
    grid = rasterize(body, h)
    assert grid.alpha.min() == pytest.approx(smallest, rel=0.01)
    shift = 0.5 * math.pi ** 2 / (4.0 * float(np.max(body.scale_array)) ** 2)
    for odd in PARITIES:
        nodes, E = grid.flip_class(odd)
        A, M = (grid.operator @ E)[nodes], sp.diags(grid.alpha[nodes])
        b = np.zeros(nodes.size)
        b[np.argmin(grid.alpha[nodes])] = 1.0
        b += M @ np.cos(np.arange(nodes.size))
        x = factorize(A - shift * M).solve(b)
        assert np.linalg.norm((A - shift * M) @ x - b) <= 1e-10 * np.linalg.norm(b)
        for p in lowest_eigenpairs(grid, odd):
            assert p.residual <= 1e-10 * max(p.value, 1.0)


def _rayleigh_errors(body, phi, lam):
    errs = []
    for m in (16, 32, 64):
        grid = rasterize(body, 1 / m)
        v = phi(*grid.centers())
        errs.append(abs((v @ (grid.operator @ v)) / (v @ (grid.alpha * v)) / lam - 1.0))
    return errs


@pytest.mark.parametrize("body, phi, lam", [
    (BodySpec.euclidean_ball(2),  # J_1(j'_11 r) cos(theta)
     lambda x, y: j1(DISC_ROOT * np.hypot(x, y)) * x / np.hypot(x, y), DISC_LAMBDA1),
    (BodySpec.lp_ball(2, p=1.0), lambda x, y: np.sin(math.pi * (x + y) / 2.0), L1_LAMBDA1)])
def test_rayleigh_quotients_of_exact_eigenfunctions_converge_at_second_order(body, phi, lam):
    # measured: disc 9.43e-4, 2.37e-4, 5.95e-5 (order 1.99); l1 ball 8.03e-4,
    # 2.01e-4, 5.02e-5 (order 2.000) at h = 1/16, 1/32, 1/64
    errs = _rayleigh_errors(body, phi, lam)
    assert errs[0] <= 1.2e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.9 <= math.log2(coarse / fine) <= 2.1, errs


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0])
def test_lp_ball_lambda1_lies_between_published_bounds(p):
    # convex plane domains: Payne-Weinberger lambda_1 >= pi^2/D^2 with the
    # diameter D = 2 max(1, 2^(1/2 - 1/p)), Cor 4.3 lambda_1 >= pi^2/4 inside
    # [-1, 1]^2, and Szego-Weinberger lambda_1 <= j'^2 pi/|K|, equality only on
    # the disc; the singly-odd class at h = 1/32 holds lambda_1 (measured 1.1%
    # and 1.3% below the upper bound at p = 1.5 and 3)
    lam = lowest_eigenpairs(rasterize(BodySpec.lp_ball(2, p=p), 1 / 32), (True, False))[0].value
    diameter = 2.0 * max(1.0, 2.0 ** (0.5 - 1.0 / p))
    assert max(math.pi ** 2 / diameter ** 2, math.pi ** 2 / 4.0) <= lam
    assert lam <= DISC_LAMBDA1 * math.pi / _lp_area(p)


def test_multiplicity_at_most_two():
    for body, h in [(BodySpec.cube(2), 1 / 32), (BodySpec.euclidean_ball(2), 1 / 32),
                    (BodySpec.lp_ball(2, p=1.0), 1 / 32),
                    (BodySpec("cube", 2, (1.5, 1.0)), 1 / 32)]:
        pairs = lowest_eigenpairs(rasterize(body, h))
        assert len(lambda1_cluster(pairs)) <= 2


def _lambda1(body, h):
    return lowest_eigenpairs(rasterize(body, h))[1].value


def test_richardson_square_order_and_value():
    hs = [1 / 16, 1 / 32, 1 / 64]
    res = richardson_lambda1(hs, [_lambda1(BodySpec.cube(2), h) for h in hs])
    assert res.observed_order >= 1.5
    assert res.extrapolated == pytest.approx(SQUARE_LAMBDA1, rel=1e-4)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
def test_richardson_arithmetic_on_a_quadratic_law(order):
    # lambda(h) = 2 + 3 h^2: order 2, extrapolated value 2, in any input order
    hs = [[0.1, 0.05, 0.025][i] for i in order]
    res = richardson_lambda1(hs, [2 + 3 * h * h for h in hs])
    assert res.h_values == (0.1, 0.05, 0.025)
    assert res.observed_order == pytest.approx(2.0, abs=1e-9)
    assert res.extrapolated == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="4:2:1"):
        richardson_lambda1([0.1, 0.05, 0.02], [2.0, 2.0, 2.0])


@pytest.mark.parametrize("lams", [(1.0, 2.0, 1.5), (2.0, 2.0, 2.0), (1.0, 1.5, 1.5),
                                  (3.0, 2.0, 2.0), (1.0, 1.0, 2.0), (3.0, 2.0, 1.0),
                                  (3.0, 2.5, 1.5), (3.0, math.nan, 2.0),
                                  (math.inf, 2.5, 2.25)])
def test_richardson_rejects_values_that_do_not_converge(lams):
    # differences of two signs, a zero one, or no shrinking (order <= 0); a NaN
    # value gave a NaN order and extrapolation, an infinite one an infinite order
    with pytest.raises(NotConvergingError):
        richardson_lambda1([0.1, 0.05, 0.025], lams)
    assert issubclass(NotConvergingError, ValueError)


@pytest.mark.parametrize("call, message", [
    (lambda grid, pairs: lambda1_cluster([]), "two or more eigenpairs"),
    (lambda grid, pairs: lambda1_cluster(pairs[:1]), "two or more eigenpairs"),
    (lambda grid, pairs: gradient_bias_rank(grid, []), "one or more eigenpairs"),
], ids=["no-pairs", "constant-pair-only", "empty-eigenspace"])
def test_eigenspace_readers_need_their_pairs(square_grid, square_pairs, call, message):
    # lambda1_cluster([]) raised IndexError and gradient_bias_rank of an empty
    # eigenspace numpy's "need at least one array to concatenate"
    with pytest.raises(ValueError, match=message):
        call(square_grid, square_pairs)


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
    x, _ = square_grid.centers()
    phi = -np.sin(math.pi * x / 2.0)
    phi /= np.linalg.norm(phi) * square_grid.h
    pair = EigenPair(SQUARE_LAMBDA1, phi, 0.0)
    bias = gradient_bias(square_grid, pair)
    # normalized mode: integral of the derivative is nonzero along x only
    assert abs(bias[0]) > 0.5
    assert abs(bias[1]) < 1e-10


def test_cube_comparison_includes_self():
    assert _lambda1(BodySpec.cube(2), 1 / 32) == pytest.approx(SQUARE_LAMBDA1, rel=2e-3)


def test_cube_comparison_disc_and_l1():
    lam_cube = _lambda1(BodySpec.cube(2), 1 / 32)
    lam_disc, lam_l1 = (_lambda1(b, 1 / 32) for b in
                        (BodySpec.euclidean_ball(2), BodySpec.lp_ball(2, p=1.0)))
    assert lam_disc == pytest.approx(DISC_LAMBDA1, rel=0.02)
    assert lam_disc >= lam_cube and lam_l1 >= (1 - suites._COMPARISON_TOL) * lam_cube


def test_domain_monotonicity_failure_witness():
    lam_disc = _lambda1(BodySpec.euclidean_ball(2), 1 / 48)
    lam_rect = _lambda1(BodySpec("cube", 2, (0.9, 0.2)), 1 / 96)
    assert lam_rect < lam_disc
    assert lam_rect == pytest.approx(math.pi ** 2 / (4 * 0.81), rel=0.02)
