import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn
from scipy.spatial.distance import cdist

import thinshell
from thinshell import spectral, suites, transport
from thinshell.bodies import BodySpec
from thinshell.spectral import InvalidSpacingError, TooCoarseGridError
from thinshell.transport import (
    ConvergenceError,
    DiscreteMeasure,
    EndpointConditionError,
    MassMismatchError,
    NotEvenError,
    VarianceBoundReport,
    hminus1_norm,
    monotone_transport_1d,
    verify_thm258,
    verify_variance_bound,
    w2_1d,
    w2_assignment,
)

TARGET_2X = math.sqrt(16.0 / 15.0)  # antiderivative oracle: int (t^2-1)^2 dt on [-1,1]


def atoms_1d(xs, ws):
    return DiscreteMeasure(np.asarray(xs, dtype=float)[:, None], np.asarray(ws, dtype=float))


# -- W2, quantile route ---------------------------------------------------------

def test_w2_identical_measures():
    mu = atoms_1d([0.0, 1.0, 2.5], [0.2, 0.5, 0.3])
    assert w2_1d(mu, mu) == 0.0


def test_w2_two_atoms():
    assert w2_1d(atoms_1d([0.0], [1.0]), atoms_1d([1.0], [1.0])) == pytest.approx(1.0)


def test_w2_hand_quantile_example():
    mu = atoms_1d([0.0, 1.0], [0.5, 0.5])
    nu = atoms_1d([0.0, 2.0], [0.5, 0.5])
    assert w2_1d(mu, nu) == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_w2_mass_mismatch():
    with pytest.raises(MassMismatchError):
        w2_1d(atoms_1d([0.0], [1.0]), atoms_1d([0.0], [2.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.lists(st.floats(-5, 5), min_size=1, max_size=8))
def test_w2_symmetry_and_triangle(xs, ys, zs):
    mu = atoms_1d(xs, np.ones(len(xs)) / len(xs))
    nu = atoms_1d(ys, np.ones(len(ys)) / len(ys))
    rho = atoms_1d(zs, np.ones(len(zs)) / len(zs))
    assert w2_1d(mu, nu) == pytest.approx(w2_1d(nu, mu), abs=1e-12)
    assert w2_1d(mu, nu) <= w2_1d(mu, rho) + w2_1d(rho, nu) + 1e-9


def test_w2_assignment_permutation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=12)
    mu = DiscreteMeasure(pts, np.full(12, 1 / 12))
    nu = DiscreteMeasure(pts[rng.permutation(12)], np.full(12, 1 / 12))
    assert w2_assignment(mu, nu) == pytest.approx(0.0, abs=1e-12)


def test_w2_assignment_matches_quantiles_in_1d():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        mu = atoms_1d(a, np.full(64, 1 / 64))
        nu = atoms_1d(b, np.full(64, 1 / 64))
        assert w2_assignment(mu, nu) == pytest.approx(w2_1d(mu, nu), abs=1e-10)


def test_w2_assignment_vertical_shift():
    # the cloud moved by 1 along the line: every atom travels 1
    mu = atoms_1d([0.0, 1.0], np.full(2, 0.5))
    nu = atoms_1d([1.0, 2.0], np.full(2, 0.5))
    assert w2_assignment(mu, nu) == pytest.approx(1.0, abs=1e-14)


def test_w2_assignment_cost_matches_scipy_cdist(monkeypatch):
    # the cost matrix is caught on its way into the assignment solver
    solve = transport._assignment
    costs = []
    monkeypatch.setattr(transport, "_assignment", lambda cost: costs.append(cost) or solve(cost))
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(40, 1)), rng.uniform(-3, 3, size=(40, 1))
    w2_assignment(DiscreteMeasure(a, np.full(40, 1 / 40)), DiscreteMeasure(b, np.full(40, 1 / 40)))
    assert np.array_equal(costs[0], cdist(a, b, "sqeuclidean"))


def _lsap_cases():
    rng = np.random.default_rng(29)
    cases = [("1x1", np.array([[2.5]])), ("2x2", np.array([[4.0, 1.0], [2.0, 3.0]])),
             ("2x2-tied", np.ones((2, 2))), ("zeros", np.zeros((5, 5)))]
    for n in (3, 8, 17, 64):
        cases.append((f"ties-{n}", rng.integers(0, 4, size=(n, n)).astype(float)))
        cases.append((f"normal-{n}", rng.normal(size=(n, n))))
        a, b = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        cases.append((f"squared-distance-{n}", ((a[:, None] - b[None]) ** 2).sum(-1)))
    return [pytest.param(cost, id=name) for name, cost in cases]


@pytest.mark.parametrize("cost", _lsap_cases())
def test_assignment_cost_matches_scipy(cost):
    cols = transport._assignment(cost)
    assert np.array_equal(np.sort(cols), np.arange(cost.shape[0]))  # a permutation
    rows, best = scipy.optimize.linear_sum_assignment(cost)
    got, expected = cost[rows, cols].sum(), cost[rows, best].sum()
    if np.array_equal(cost, np.round(cost)):
        assert got == expected  # integer sums are exact, so ties give the same cost
    else:
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_assignment_is_the_best_of_all_permutations_of_small_integer_costs():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for _ in range(20):
            cost = rng.integers(0, 6, size=(n, n)).astype(float)
            best = min(cost[range(n), perm].sum() for perm in itertools.permutations(range(n)))
            assert cost[range(n), transport._assignment(cost)].sum() == best


def test_w2_assignment_is_the_best_of_all_permutations():
    rng = np.random.default_rng(11)
    for _ in range(4):
        a, b = rng.normal(size=6), rng.normal(size=6)
        mu, nu = atoms_1d(a, np.full(6, 0.5 / 6)), atoms_1d(b, np.full(6, 0.5 / 6))
        best = min(sum(float((a[i] - b[j]) ** 2) for i, j in enumerate(perm))
                   for perm in itertools.permutations(range(6)))
        assert w2_assignment(mu, nu) == pytest.approx(math.sqrt(0.5 / 6 * best), rel=1e-12)


def test_w2_assignment_rejects_bad_inputs():
    mu = DiscreteMeasure(np.zeros(3), np.full(3, 1 / 3))
    nu = DiscreteMeasure(np.zeros(2), np.full(2, 0.5))
    with pytest.raises(ValueError):
        w2_assignment(mu, nu)
    nu2 = DiscreteMeasure(np.zeros(3), np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ValueError):
        w2_assignment(mu, nu2)


@pytest.mark.parametrize("support, weights", [
    ([0.0, 1.0], [math.nan, 1.0]), ([0.0, 1.0], [math.inf, 1.0]),
    ([0.0, math.nan], [0.5, 0.5]), ([0.0, -math.inf], [0.5, 0.5])])
def test_measures_reject_non_finite_values(support, weights):
    # np.any(w < 0) is False for a NaN weight, and w2_1d passed such a measure's
    # NaN mass and dropped its atom: weights [nan, 1] on {0, 1} read 0.707 from the
    # uniform measure there
    with pytest.raises(ValueError, match="must be finite"):
        DiscreteMeasure(np.array(support), np.array(weights))


_GRID = DiscreteMeasure.grid_1d(-1.0, 1.0, 8)
_X = _GRID.support[:, 0]
_EMPTY = DiscreteMeasure(np.zeros(0), np.zeros(0))
_MASSLESS = atoms_1d([0.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: DiscreteMeasure.grid_1d(-1.0, 1.0, 0), "integer n_nodes >= 1"),
    (lambda: DiscreteMeasure.grid_1d(-1.0, 1.0, 2.5), "integer n_nodes >= 1"),
    (lambda: DiscreteMeasure.grid_1d(1.0, 1.0, 4), "finite lo < hi"),
    (lambda: DiscreteMeasure.grid_1d(-1.0, math.inf, 4), "finite lo < hi"),
    (lambda: DiscreteMeasure.grid_1d(math.nan, 1.0, 4), "finite lo < hi"),
    (lambda: hminus1_norm(DiscreteMeasure(np.zeros(4), np.full(4, 0.25), spacing=0.0),
                          np.arange(4.0) - 1.5), "finite positive spacing"),
    (lambda: hminus1_norm(_GRID, np.where(_X > 0, math.nan, _X)), "u must be finite"),
    (lambda: hminus1_norm(_GRID, np.where(_X > 0, math.inf, -1.0)), "u must be finite"),
    (lambda: hminus1_norm(_GRID, np.stack([_X, -_X])), "one function"),
    (lambda: verify_thm258(_GRID, np.where(_X > 0, math.nan, _X), [0.1]), "h must be finite"),
    (lambda: verify_thm258(_GRID, np.where(_X > 0, math.inf, -1.0), [0.1]), "h must be finite"),
    (lambda: verify_thm258(_GRID, np.where(_X > 0, 1.0, -math.inf), [0.1]), "h must be finite"),
    (lambda: verify_thm258(_GRID, _X[1:], [0.1]), "h must be finite, one value per atom"),
    (lambda: w2_1d(_MASSLESS, _MASSLESS), "positive mass"),
    (lambda: w2_assignment(_EMPTY, _EMPTY), "at least one atom"),
], ids=["zero-nodes", "fractional-nodes", "empty-segment", "infinite-end", "nan-end",
        "zero-spacing", "nan-u", "infinite-u", "stack-of-u", "nan-h", "inf-h", "minus-inf-h",
        "short-h", "massless", "no-atoms"])
def test_transport_inputs_outside_their_domain_raise_a_value_error(call, message):
    # found by probes: zero or fractional n_nodes reached ZeroDivisionError or
    # np.arange's TypeError; lo = hi gave spacing 0, which hminus1_norm divided
    # by; a NaN or infinite u ran CG into ConvergenceError after 10 steps; an
    # infinite h was blamed on the epsilons and a NaN h on u; massless measures
    # raised IndexError and empty clouds ZeroDivisionError
    with pytest.raises(ValueError, match=message):
        call()


def test_w2_assignment_never_below_quantile_coupling():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, b = rng.normal(size=32), rng.normal(size=32)
        mu, nu = atoms_1d(a, np.full(32, 2.0 / 32)), atoms_1d(b, np.full(32, 2.0 / 32))
        assert w2_assignment(mu, nu) >= w2_1d(mu, nu) - 1e-10


# -- monotone fiber transport ------------------------------------------------------

def test_monotone_transport_quadratic_example():
    tmap = monotone_transport_1d(lambda x: x ** 2, -1.0, 1.0, 0.1)
    xs = np.linspace(-1, 1, 101)
    assert np.allclose(tmap(xs), xs + 0.1 * (xs ** 2 - 1.0), atol=1e-14)
    assert tmap(np.array([-1.0]))[0] == pytest.approx(-1.0, abs=1e-14)
    assert tmap(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(tmap(xs)) > 0)


def test_monotone_transport_zero_epsilon_is_identity():
    tmap = monotone_transport_1d(np.sin, 0.0, 2 * math.pi, 0.0)
    xs = np.linspace(0, 2 * math.pi, 64)
    assert np.array_equal(tmap(xs), xs)


def test_monotone_transport_pushforward_oracle():
    tmap = monotone_transport_1d(lambda x: x ** 2, -1.0, 1.0, 0.1)
    assert tmap.pushforward_defect() < 1e-10


def test_monotone_transport_endpoint_condition():
    with pytest.raises(EndpointConditionError):
        monotone_transport_1d(lambda x: x, 0.0, 1.0, 0.05)


@pytest.mark.parametrize("p, q", [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0),
                                  (-1.0, math.inf), (1.0, 1.0), (1.0, -1.0)])
def test_monotone_transport_needs_finite_p_below_q(p, q):
    # q <= p is False when p or q is NaN: that returned a map of NaN endpoints
    with pytest.raises(ValueError, match="need finite p < q"):
        monotone_transport_1d(lambda x: x ** 2, p, q, 0.1)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_monotone_transport_rejects_a_non_finite_epsilon(epsilon):
    # a NaN epsilon passed the density check, where every comparison with NaN is
    # False, and came back as a map of NaN
    with pytest.raises(ValueError, match="epsilon must be finite"):
        monotone_transport_1d(lambda x: x ** 2, -1.0, 1.0, epsilon)


def test_monotone_transport_rejects_large_epsilon():
    # 1 + eps * 2x changes sign on [-1, 1] when eps > 1/2
    with pytest.raises(ValueError):
        monotone_transport_1d(lambda x: x ** 2, -1.0, 1.0, 0.75)


# -- dual Sobolev norm ----------------------------------------------------------------

def test_hminus1_zero_function():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 256)
    assert hminus1_norm(mu, np.zeros(256)) == 0.0


def test_hminus1_antiderivative_oracle():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 4096)
    u = 2.0 * mu.support[:, 0]
    assert hminus1_norm(mu, u) == pytest.approx(TARGET_2X, abs=1e-6)


def test_hminus1_nonzero_mean_is_infinite():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 64)
    assert hminus1_norm(mu, np.ones(64)) == math.inf


def test_hminus1_scaling_homogeneity():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 512, density=lambda x: 1.0 + 0.5 * np.cos(x))
    u = mu.support[:, 0] ** 3
    u = u - float(u @ mu.weights) / mu.mass
    base = hminus1_norm(mu, u)
    assert hminus1_norm(mu, 3.5 * u) == pytest.approx(3.5 * base, rel=1e-9)


def test_hminus1_grid_refinement_stable():
    vals = []
    for m in (512, 1024):
        mu = DiscreteMeasure.grid_1d(-1.0, 1.0, m)
        vals.append(hminus1_norm(mu, 2.0 * mu.support[:, 0]))
    assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]


def test_hminus1_two_atom_hand_value():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]), spacing=1.0)
    u = np.array([1.0, -1.0])
    assert hminus1_norm(mu, u) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def _x_squared_centered(mu):
    u = mu.support[:, 0] ** 2
    return u - float(u @ mu.weights) / mu.mass


def test_hminus1_zero_density_part_matches_its_support():
    # density max(x, 0) on [-1, 1]: the left half carries no mass and leaves
    # the path graph in pieces; the norm is that of density x on [0, 1]
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 512, density=lambda x: np.maximum(x, 0.0))
    half = DiscreteMeasure.grid_1d(0.0, 1.0, 256, density=lambda x: x)
    full = hminus1_norm(mu, _x_squared_centered(mu))
    assert full == pytest.approx(hminus1_norm(half, _x_squared_centered(half)), rel=1e-12)


def test_hminus1_mean_zero_on_each_component_only():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 512,
                                 density=lambda x: (np.abs(x) > 0.5).astype(float))
    x = mu.support[:, 0]
    assert abs(float(x @ mu.weights)) < 1e-12  # mean zero overall ...
    assert hminus1_norm(mu, x) == math.inf     # ... but not on each half
    per_half = np.sign(x) * (np.abs(x) - 0.75)
    assert math.isfinite(hminus1_norm(mu, per_half))


def test_cg_step_cap_raises_a_named_error():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 4096)
    L = transport.graph_laplacian(4096, np.arange(4095), np.arange(1, 4096),
                                  np.full(4095, 1.0 / mu.spacing))
    b = 2.0 * mu.support[:, 0] * mu.weights
    identity = lambda r: r
    with pytest.raises(ConvergenceError):
        transport._cg(L, b, identity, identity)
    assert issubclass(ConvergenceError, RuntimeError)


def test_dual_norms_match_a_dct_solve_on_the_square():
    # the square raster's operator is a Kronecker sum of path Laplacians, which
    # the orthonormal DCT-II diagonalizes: ||u||^2 = sum_k bhat_k^2 / lambda_k
    h = 1 / 128
    grid = spectral.rasterize(BodySpec.cube(2), h)
    n = grid.mask.shape[0]
    assert grid.mask.all() and grid.mask.shape == (n, n)
    fs = [lambda x, y: x ** 2 + y ** 2,
          lambda x, y: np.cos(math.pi * x) * np.cos(math.pi * y) + x * x * y * y]
    path = 4.0 * np.sin(math.pi * np.arange(n) / (2 * n)) ** 2
    eig = path[:, None] + path[None, :]
    eig[0, 0] = np.inf  # the constants: b has no part there
    for f, rep in zip(fs, verify_variance_bound(BodySpec.cube(2), fs, h)):
        bhats = [dctn(h * h * u.reshape(n, n), type=2, norm="ortho")
                 for u in grid.gradient(f(*grid.centers()))]
        assert rep.bound == pytest.approx(sum(np.sum(b ** 2 / eig) for b in bhats), rel=1e-12)


def test_flip_class_norms_match_the_whole_raster_solve_on_the_disc():
    # the grounded CG solve on the whole raster shares no symmetry with the classes
    h = 1 / 32
    fs = [lambda x, y: x ** 2, lambda x, y: np.cos(math.pi * x) * y ** 2]
    grid = spectral.rasterize(BodySpec.euclidean_ball(2), h)
    rows = np.stack([g for f in fs for g in grid.gradient(f(*grid.centers()))])
    norms = transport._dual_norms(h * h * grid.operator, grid.alpha * h * h, rows)
    whole = (norms ** 2).reshape(len(fs), -1).sum(axis=1)
    for rep, bound in zip(verify_variance_bound(BodySpec.euclidean_ball(2), fs, h), whole):
        assert rep.bound == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("body, factorizations", [
    (BodySpec.cube(2), 1), (BodySpec.euclidean_ball(2), 1), (BodySpec("cube", 2, (1.5, 1.0)), 2)])
def test_the_odd_y_class_reuses_the_odd_x_lu_on_a_swap_symmetric_raster(
        monkeypatch, body, factorizations):
    # the swapped right-hand sides against the odd-x LU give the bound of the
    # direct solve in the odd-y class, which an asymmetric raster still makes
    fs = [lambda x, y: x ** 2 + y ** 2, lambda x, y: np.cos(math.pi * x) * y ** 2]
    factorize, factored = spectral.factorize, []
    monkeypatch.setattr(spectral, "factorize", lambda A: factored.append(A) or factorize(A))
    swapped = verify_variance_bound(body, fs, 1 / 32)
    assert len(factored) == factorizations
    monkeypatch.setattr(spectral.Orthant, "swap_symmetric", False)
    direct = verify_variance_bound(body, fs, 1 / 32)
    assert len(factored) == factorizations + 2
    for s, d in zip(swapped, direct, strict=True):
        assert s.var == d.var and s.bound == pytest.approx(d.bound, rel=1e-13)


def test_variance_bound_factors_before_it_differentiates(monkeypatch):
    # every LU is made before the first gradient, and each function's gradient
    # once, so no list of gradients is held while SuperLU factors
    events = []
    factorize, gradient = spectral.factorize, spectral.Orthant.gradient
    monkeypatch.setattr(spectral, "factorize",
                        lambda A: events.append("factorize") or factorize(A))
    monkeypatch.setattr(spectral.Orthant, "gradient",
                        lambda cells, v: events.append("gradient") or gradient(cells, v))
    fs = [lambda x, y: x ** 2 + y ** 2, lambda x, y: np.cos(math.pi * x) * y ** 2,
          lambda x, y: x ** 2]
    for body, factorizations in ((BodySpec.cube(2), 1), (BodySpec("cube", 2, (1.5, 1.0)), 2)):
        events.clear()
        verify_variance_bound(body, fs, 1 / 16)
        assert events == ["factorize"] * factorizations + ["gradient"] * len(fs)


def test_variance_bound_solves_without_cg(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("a raster solve went through CG")

    monkeypatch.setattr(transport, "_cg", no_cg)
    for body in (BodySpec.cube(2), BodySpec.euclidean_ball(2)):
        [rep] = verify_variance_bound(body, [lambda x, y: x ** 2 + y ** 2], h=1 / 32)
        assert 0.0 < rep.var < rep.bound


@pytest.mark.parametrize("f", [lambda x, y: x, lambda x, y: x * y ** 2,
                               lambda x, y: y + 1e-6 * x ** 2])
def test_variance_bound_rejects_a_function_that_is_not_even(f):
    with pytest.raises(NotEvenError):
        verify_variance_bound(BodySpec.euclidean_ball(2), [lambda x, y: x ** 2, f], h=1 / 32)
    assert issubclass(NotEvenError, ValueError)


def _no_factorization(A):
    raise AssertionError("a raster operator was factored")


@pytest.mark.parametrize("bad, message", [
    (lambda x, y: np.where((x == x.max()) & (y == y.max()), math.nan, x ** 2),
     r"fs\[1\] is not finite"),
    (lambda x, y: np.where((x > 0.5) & (y > 0.5), math.nan, x ** 2), r"fs\[1\] is not finite"),
    (lambda x, y: np.where(np.abs(x) == x.max(), math.inf, x ** 2), r"fs\[1\] is not finite"),
    (lambda x, y: np.where(np.abs(y) == y.max(), -math.inf, y ** 2), r"fs\[1\] is not finite"),
    (lambda x, y: np.ones(3), r"fs\[1\] gives shape \(3,\), not one value per cell"),
    (lambda x, y: x ** 2 + 0j, r"fs\[1\] gives complex values"),
], ids=["nan-at-one-cell", "nan-past-one-half", "inf", "minus-inf", "three-values", "complex"])
def test_variance_bound_names_a_function_without_one_finite_value_per_cell(
        monkeypatch, bad, message):
    # a NaN returned VarianceBoundReport(nan, nan), shape (3,) numpy's
    # broadcast error, and x^2 + 0j its real part with a ComplexWarning; now
    # the function's index is named before any LU
    monkeypatch.setattr(spectral, "factorize", _no_factorization)
    with pytest.raises(ValueError, match=message):
        verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2, bad], h=1 / 16)


@pytest.mark.parametrize("h", [1e-4, 1e-9])
def test_variance_bound_names_a_raster_over_max_cells_before_any_array(h):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpacingError, match="MAX_CELLS"):
            verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2], h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def _whole_raster_variance_bound(body2d, fs, h):
    """verify_variance_bound solved on the whole raster: its operator, the
    parity extension E of each class, and the gradient of every cell."""
    grid = spectral.rasterize(body2d, h)
    centers, d = grid.centers(), grid.mask.ndim
    cell = h ** d
    w = grid.alpha * cell
    vals = [np.asarray(f(*centers), dtype=float) for f in fs]
    swap = grid.swap() if grid.swap_symmetric else None
    solvers = []
    for axis in range(d):
        if swap is None or axis == 0:
            nodes, E = grid.flip_class(tuple(a == axis for a in range(d)))
            lu = spectral.factorize((grid.operator @ E)[nodes])
        solvers.append((nodes, lu))
    bounds = np.zeros(len(fs))
    for j, v in enumerate(vals):
        for axis, (g, (nodes, lu)) in enumerate(zip(grid.gradient(v), solvers)):
            u = grid.alpha[nodes] * (g[swap] if swap is not None and axis > 0 else g)[nodes]
            bounds[j] += 2 ** d * cell * spectral._dot(u, lu.solve(u))
    mass = float(w.sum())
    reports = []
    for v, bound in zip(vals, bounds):
        mean = spectral._dot(v, w) / mass
        reports.append(VarianceBoundReport(spectral._dot((v - mean) ** 2, w), float(bound)))
    return reports


@pytest.mark.parametrize("body", [BodySpec.cube(2), BodySpec.euclidean_ball(2),
                                  BodySpec.lp_ball(2, p=1.0), BodySpec("cube", 2, (1.5, 1.0))])
def test_the_orthant_solve_gives_the_bits_of_the_whole_raster_solve(body):
    rng = np.random.default_rng(5)
    fs = [lambda x, y: x ** 2, lambda x, y: x ** 2 + y ** 2,
          lambda x, y: np.cos(math.pi * x) * y ** 2] + [suites._random_even_trig(rng)
                                                        for _ in range(2)]
    assert (verify_variance_bound(body, fs, 1 / 32)
            == _whole_raster_variance_bound(body, fs, 1 / 32))


def _never(*args, **kwargs):
    raise AssertionError("the whole raster was built")


def test_variance_bound_assembles_no_operator_larger_than_the_orthant(monkeypatch):
    # the whole raster has 4 times the orthant's nodes; neither it nor its
    # parity extensions are built
    sizes, build = [], spectral.graph_laplacian
    monkeypatch.setattr(spectral, "graph_laplacian",
                        lambda n_nodes, *args: sizes.append(n_nodes) or build(n_nodes, *args))
    monkeypatch.setattr(spectral, "rasterize", _never)
    monkeypatch.setattr(spectral.GridDomain, "flip_class", _never)
    for body, operators in ((BodySpec.cube(2), 1), (BodySpec.euclidean_ball(2), 1),
                            (BodySpec("cube", 2, (1.5, 1.0)), 2)):
        sizes.clear()
        verify_variance_bound(body, [lambda x, y: x ** 2 + y ** 2], 1 / 64)
        assert sizes == [int(spectral.orthant(body, 1 / 64).mask.sum())] * operators


# -- duality verification ----------------------------------------------------------------

def test_thm258_linear_example():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 4096)
    h = 2.0 * mu.support[:, 0]
    rep = verify_thm258(mu, h, [0.1, 0.05, 0.01])
    assert rep.norm == pytest.approx(TARGET_2X, abs=0.01)
    assert rep.norm <= 1.02 * rep.min_ratio
    for eps, ratio in rep.ratios:
        assert ratio == pytest.approx(TARGET_2X, rel=0.02)


def test_thm258_zero_perturbation():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 128)
    rep = verify_thm258(mu, np.zeros(128), [0.1])
    assert rep.norm == 0.0 and rep.min_ratio == 0.0


def test_thm258_two_atom_hand_ratio():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]), spacing=1.0)
    h = np.array([1.0, -1.0])
    eps = 0.25
    rep = verify_thm258(mu, h, [eps])
    # mass eps/2 moves distance 1: W2 = sqrt(eps/2)
    assert rep.ratios[0][1] == pytest.approx(math.sqrt(eps / 2.0) / eps, abs=1e-12)
    assert rep.norm <= rep.min_ratio


def test_thm258_epsilon_guard():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 128)
    with pytest.raises(ValueError):
        verify_thm258(mu, 2.0 * mu.support[:, 0], [0.9])
    # eps = 0 divided W2 by zero, and a negative eps gave a negative W2/eps
    for eps in ([], [0.0], [-0.01], [0.01, -0.01], [float("nan")]):
        with pytest.raises(ValueError, match="positive epsilons"):
            verify_thm258(mu, 2.0 * mu.support[:, 0], eps)


# -- variance bound ------------------------------------------------------------------------

def test_variance_bound_constant_function():
    body = BodySpec.cube(2)
    [rep] = verify_variance_bound(body, [lambda x, y: np.full_like(x, 3.3)], h=1 / 16)
    assert rep.var == pytest.approx(0.0, abs=1e-20)
    assert rep.bound == pytest.approx(0.0, abs=1e-20)


def test_variance_bound_x_squared_square():
    # separable oracle: Var = 16/45, bound = ||2x||^2 = 32/15 on [-1,1]^2
    [rep] = verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2], h=1 / 32)
    assert rep.var == pytest.approx(16.0 / 45.0, rel=0.01)
    assert rep.bound == pytest.approx(32.0 / 15.0, rel=0.02)
    assert rep.var <= rep.bound


def test_variance_bound_radial_square():
    [rep] = verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2 + y ** 2], h=1 / 32)
    assert rep.var == pytest.approx(32.0 / 45.0, rel=0.01)
    assert rep.bound == pytest.approx(64.0 / 15.0, rel=0.02)
    assert rep.var <= rep.bound


def test_variance_bound_x_squared_square_refines_to_the_closed_forms():
    # the errors of Var = 16/45 and of the bound 32/15 shrink about 4x per
    # halving of h (order 2); assert at least 3x
    reps = [verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2], h=1 / m)[0]
            for m in (32, 64, 128)]
    for field, exact in (("var", 16.0 / 45.0), ("bound", 32.0 / 15.0)):
        errs = [abs(getattr(rep, field) - exact) for rep in reps]
        assert errs[0] >= 3.0 * errs[1] and errs[1] >= 3.0 * errs[2], (field, errs)
    assert all(rep.var <= rep.bound for rep in reps)


def test_variance_bound_x_squared_disc_bound_error_falls_at_each_halving():
    # Var = pi/16 and bound = 7 pi/24 on the unit disc.  On the cut-cell raster
    # both relative errors fall at second order: Var +1.04e-3, +2.80e-4, +7.34e-5
    # (orders 1.89, 1.93), the bound -7.85e-4, -1.72e-4, -4.30e-5 (orders 2.19,
    # 2.00) at h = 1/32, 1/64, 1/128
    reps = [verify_variance_bound(BodySpec.euclidean_ball(2), [lambda x, y: x ** 2], h=1 / m)[0]
            for m in (32, 64, 128)]
    for field, exact, first in (("var", np.pi / 16.0, 1.1e-3), ("bound", 7.0 * np.pi / 24.0, 8e-4)):
        errs = [abs(getattr(rep, field) / exact - 1.0) for rep in reps]
        assert errs[0] <= first, (field, errs)
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(coarse / fine) <= 2.3, (field, errs)
    assert all(rep.var <= rep.bound for rep in reps)


def test_variance_bound_disc():
    [rep] = verify_variance_bound(BodySpec.euclidean_ball(2), [lambda x, y: x ** 2], h=1 / 32)
    assert rep.var < rep.bound


def test_variance_bound_random_trig():
    rng = np.random.default_rng(21)
    fs = []
    for _ in range(2):
        c = rng.uniform(-1, 1, size=(2, 2))

        def f(x, y, c=c):
            out = np.zeros_like(x)
            for j in range(2):
                for k in range(2):
                    out += c[j, k] * np.cos(j * math.pi * x) * np.cos(k * math.pi * y)
            return out

        fs.append(f)
    reports = verify_variance_bound(BodySpec.cube(2), fs, h=1 / 32)
    assert len(reports) == 2
    assert all(rep.var <= rep.bound for rep in reports)


def test_variance_bound_list_matches_single_calls():
    fs = [lambda x, y: x ** 2, lambda x, y: np.cos(math.pi * x) * y ** 2]
    together = verify_variance_bound(BodySpec.euclidean_ball(2), fs, h=1 / 32)
    alone = [verify_variance_bound(BodySpec.euclidean_ball(2), [f], h=1 / 32)[0] for f in fs]
    assert together == alone


def test_variance_bound_too_coarse():
    with pytest.raises(TooCoarseGridError):
        verify_variance_bound(BodySpec.cube(2), [lambda x, y: x], h=0.25)


def test_transport_suite_rasterizes_once_and_builds_one_laplacian_per_measure(monkeypatch):
    counts = {"orthant": 0, "laplacian": 0, "class operator": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "orthant", counted("orthant", spectral.orthant))
    monkeypatch.setattr(transport, "graph_laplacian",
                        counted("laplacian", transport.graph_laplacian))
    monkeypatch.setattr(spectral, "graph_laplacian",
                        counted("class operator", spectral.graph_laplacian))
    suites.transport_suite(20250810, raster_h=1 / 32)
    assert counts["orthant"] == 2  # the cells of the square and of the disc, once each
    assert counts["laplacian"] == 1  # the 1D example
    # the class odd in x alone of each raster, which serves d_y f too, swapped
    assert counts["class operator"] == 2


_VARIANCE_BOUND_RUN = """
import math
import numpy as np
from thinshell.bodies import BodySpec
from thinshell.transport import verify_variance_bound
fs = [lambda x, y: x ** 2 + y ** 2,
      lambda x, y: np.cos(math.pi * x) * np.cos(math.pi * y) + x * x * y * y]
for rep in verify_variance_bound(BodySpec.cube(2), fs, 1 / 64):
    print(repr(rep))
"""


def test_variance_bound_is_the_same_at_any_blas_thread_count():
    # 16384 cells: OpenBLAS splits dot products of this length across its
    # threads, which reorders the sum
    src = str(Path(thinshell.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _VARIANCE_BOUND_RUN], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# -- measure plumbing -----------------------------------------------------------------------

def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((3, 1)), np.array([1.0, -0.1, 0.2]))
    with pytest.raises(ValueError, match="one weight per support point"):
        DiscreteMeasure(np.zeros((3, 1)), np.ones(2))
    assert DiscreteMeasure(np.array([0.0, 1.0]), [0.5, 0.5]).support.shape == (2, 1)


@pytest.mark.parametrize("support", [np.zeros((3, 2)), np.zeros((3, 3)), [[0.0, 1.0]],
                                     np.zeros((2, 1, 1))])
def test_discrete_measure_rejects_a_planar_support(support):
    # measures live on the line: a support of any other shape is named by it
    shape = np.shape(support)
    with pytest.raises(ValueError, match=re.escape(f"(N,) or (N, 1), got {shape}")):
        DiscreteMeasure(support, np.ones(shape[0]))
