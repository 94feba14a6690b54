import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinshell
from thinshell import spectral, suites, transport
from thinshell.bodies import BodySpec
from thinshell.spectral import TooCoarseGridError
from thinshell.transport import (
    DiscreteMeasure,
    EndpointConditionError,
    MassMismatchError,
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
    pts = rng.uniform(-1, 1, size=(12, 2))
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
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.full(2, 0.5))
    nu = DiscreteMeasure(np.array([[0.0, 1.0], [1.0, 1.0]]), np.full(2, 0.5))
    assert w2_assignment(mu, nu) == pytest.approx(1.0, abs=1e-14)


def test_w2_assignment_rejects_bad_inputs():
    mu = DiscreteMeasure(np.zeros((3, 2)), np.full(3, 1 / 3))
    nu = DiscreteMeasure(np.zeros((2, 2)), np.full(2, 0.5))
    with pytest.raises(ValueError):
        w2_assignment(mu, nu)
    nu2 = DiscreteMeasure(np.zeros((3, 2)), np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ValueError):
        w2_assignment(mu, nu2)


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


def test_hminus1_stack_matches_rows_bit_for_bit():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 128)
    x = mu.support[:, 0]
    u1, u2, c = 2.0 * x, np.sin(math.pi * x), 1.0 + x
    norms = hminus1_norm(mu, np.stack([u1, u2, c]))
    assert isinstance(norms, np.ndarray)
    assert norms.tolist() == [hminus1_norm(mu, u1), hminus1_norm(mu, u2), math.inf]


# -- duality verification ----------------------------------------------------------------

def test_thm258_linear_example():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 4096)
    h = 2.0 * mu.support[:, 0]
    rep = verify_thm258(mu, h, [0.1, 0.05, 0.01])
    assert rep.norm == pytest.approx(TARGET_2X, abs=0.01)
    assert rep.passed
    for eps, ratio in rep.ratios:
        assert ratio == pytest.approx(TARGET_2X, rel=0.02)


def test_thm258_zero_perturbation():
    mu = DiscreteMeasure.grid_1d(-1.0, 1.0, 128)
    rep = verify_thm258(mu, np.zeros(128), [0.1])
    assert rep.norm == 0.0 and rep.min_ratio == 0.0 and rep.passed


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


# -- variance bound ------------------------------------------------------------------------

def test_variance_bound_constant_function():
    body = BodySpec.cube(2)
    [rep] = verify_variance_bound(body, [lambda x, y: np.full_like(x, 3.3)], h=1 / 16)
    assert rep.var == pytest.approx(0.0, abs=1e-20)
    assert rep.bound == pytest.approx(0.0, abs=1e-20)
    assert rep.passed


def test_variance_bound_x_squared_square():
    # separable oracle: Var = 16/45, bound = ||2x||^2 = 32/15 on [-1,1]^2
    [rep] = verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2], h=1 / 32)
    assert rep.var == pytest.approx(16.0 / 45.0, rel=0.01)
    assert rep.bound == pytest.approx(32.0 / 15.0, rel=0.02)
    assert rep.passed


def test_variance_bound_radial_square():
    [rep] = verify_variance_bound(BodySpec.cube(2), [lambda x, y: x ** 2 + y ** 2], h=1 / 32)
    assert rep.var == pytest.approx(32.0 / 45.0, rel=0.01)
    assert rep.bound == pytest.approx(64.0 / 15.0, rel=0.02)
    assert rep.passed


def test_variance_bound_disc():
    [rep] = verify_variance_bound(BodySpec.euclidean_ball(2), [lambda x, y: x ** 2], h=1 / 32)
    assert rep.passed
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
    assert all(rep.passed for rep in reports)


def test_variance_bound_list_matches_single_calls():
    fs = [lambda x, y: x ** 2, lambda x, y: np.cos(math.pi * x) * y]
    together = verify_variance_bound(BodySpec.euclidean_ball(2), fs, h=1 / 32)
    alone = [verify_variance_bound(BodySpec.euclidean_ball(2), [f], h=1 / 32)[0] for f in fs]
    assert together == alone


def test_variance_bound_too_coarse():
    with pytest.raises(TooCoarseGridError):
        verify_variance_bound(BodySpec.cube(2), [lambda x, y: x], h=0.25)


def test_transport_suite_rasterizes_once_and_builds_one_laplacian_per_measure(monkeypatch):
    counts = {"rasterize": 0, "laplacian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "rasterize", counted("rasterize", spectral.rasterize))
    monkeypatch.setattr(transport, "graph_laplacian",
                        counted("laplacian", transport.graph_laplacian))
    suites.transport_suite(20250810, raster_h=1 / 32)
    assert counts["rasterize"] == 2  # the square and the disc
    assert counts["laplacian"] == 1  # the 1D example; rasters reuse the spectral operator


_VARIANCE_BOUND_RUN = """
import math
import numpy as np
from thinshell.bodies import BodySpec
from thinshell.transport import verify_variance_bound
fs = [lambda x, y: x ** 2 + y ** 2,
      lambda x, y: np.cos(math.pi * x) * np.cos(math.pi * y) + x * y]
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
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(ValueError, match="one weight per support point"):
        DiscreteMeasure([[0.0, 1.0]], [0.5, 0.5])  # one 2D atom, not two 1D atoms
    assert DiscreteMeasure(np.array([0.0, 1.0]), [0.5, 0.5]).support.shape == (2, 1)
