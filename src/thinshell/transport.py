"""Discrete optimal transport, dual Sobolev norms via graph-Laplacian solves,
and the fiberwise monotone perturbation map.

W2 between 1D discrete measures is evaluated exactly through merged quantile
functions; small equal-weight clouds in any dimension go through an exact
assignment solve.  The dual norm ||u||_{H^-1(mu)} on grid measures is computed
by solving the weighted Neumann-graph Poisson problem with conjugate gradients
and taking sqrt of the induced inner product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from ._lattice import graph_laplacian, grid_gradient, is_connected, lattice_edges

_MASS_TOL = 1e-12


class MassMismatchError(ValueError):
    pass


class EndpointConditionError(ValueError):
    """The section function does not agree at the two segment endpoints."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point measure in R^d, d in {1, 2}; optionally grid-structured.

    Grid-structured measures carry the lattice spacing (and the boolean cell
    mask in 2D), which enables graph-Laplacian assembly for the dual norm.
    """

    support: np.ndarray          # (N, d)
    weights: np.ndarray          # (N,), nonnegative
    spacing: float | None = None
    mask: np.ndarray | None = None   # 2D bool raster, row-major node order

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.support, dtype=float))
        if s.shape[0] == 1 and np.asarray(self.weights).size > 1:
            s = s.T
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.support.shape[1] not in (1, 2):
            raise ValueError("support must live in R^1 or R^2")
        if self.weights.shape != (self.support.shape[0],):
            raise ValueError("one weight per support point required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if self.mask is not None and int(self.mask.sum()) != self.support.shape[0]:
            raise ValueError("mask cell count must match support size")

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_grid(self) -> bool:
        return self.spacing is not None

    def with_density(self, h: np.ndarray) -> "DiscreteMeasure":
        """The measure h d(self): every weight multiplied by the density value h
        of its point (h = 1 + eps g gives the tilted measure)."""
        return DiscreteMeasure(self.support, self.weights * h, self.spacing, self.mask)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def grid_1d(lo: float, hi: float, n_nodes: int,
                density: Callable | None = None) -> "DiscreteMeasure":
        """Cell-centered discretization of density(x) dx on [lo, hi]."""
        h = (hi - lo) / n_nodes
        x = lo + (np.arange(n_nodes) + 0.5) * h
        w = np.full(n_nodes, h)
        if density is not None:
            w = w * np.asarray(density(x), dtype=float)
        return DiscreteMeasure(x[:, None], w, spacing=h)

    @staticmethod
    def grid_2d(mask: np.ndarray, h: float, origin: tuple[float, float] = (0.0, 0.0),
                density: Callable | None = None) -> "DiscreteMeasure":
        """Cell-centered measure on the True cells of a raster mask."""
        iy, ix = np.nonzero(mask)
        x = origin[0] + (ix + 0.5) * h
        y = origin[1] + (iy + 0.5) * h
        w = np.full(x.size, h * h)
        if density is not None:
            w = w * np.asarray(density(x, y), dtype=float)
        return DiscreteMeasure(np.column_stack([x, y]), w, spacing=h, mask=mask.copy())


# -- Wasserstein-2 -------------------------------------------------------------

def _sorted_1d(mu: DiscreteMeasure):
    x = mu.support[:, 0]
    pos = mu.weights > 0
    order = np.argsort(x[pos], kind="stable")
    return x[pos][order], mu.weights[pos][order]


def w2_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact quantile-coupling W2 between equal-mass 1D discrete measures."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w2_1d requires 1D measures")
    if abs(mu.mass - nu.mass) > _MASS_TOL * max(1.0, mu.mass):
        raise MassMismatchError(f"total masses differ: {mu.mass} vs {nu.mass}")
    x1, w1 = _sorted_1d(mu)
    x2, w2 = _sorted_1d(nu)
    c1, c2 = np.cumsum(w1), np.cumsum(w2)
    m = min(c1[-1], c2[-1])
    levels = np.union1d(c1, c2)
    levels = np.concatenate([[0.0], np.minimum(levels, m)])
    seg = np.diff(levels)
    mids = 0.5 * (levels[:-1] + levels[1:])
    i = np.minimum(np.searchsorted(c1, mids, side="right"), x1.size - 1)
    j = np.minimum(np.searchsorted(c2, mids, side="right"), x2.size - 1)
    return math.sqrt(float(np.sum(seg * (x1[i] - x2[j]) ** 2)))


def w2_assignment(mu: DiscreteMeasure, nu: DiscreteMeasure, max_atoms: int = 256,
                  subsample_seed: int = 0) -> float:
    """Exact optimal assignment W2 for equal-size, equal-weight atom clouds.

    Inputs larger than max_atoms are uniformly subsampled with a warning (the
    result is then an estimate, not an exact distance).
    """
    if mu.support.shape[0] != nu.support.shape[0]:
        raise ValueError("w2_assignment requires equally many atoms")
    if abs(mu.mass - nu.mass) > _MASS_TOL * max(1.0, mu.mass):
        raise MassMismatchError("total masses differ")
    for m in (mu, nu):
        if np.max(np.abs(m.weights - m.mass / m.weights.size)) > 1e-9 * m.mass:
            raise ValueError("w2_assignment requires equal-weight atoms")
    a, b = mu.support, nu.support
    k = a.shape[0]
    if k > max_atoms:
        warnings.warn(f"subsampling {k} atoms to {max_atoms} for the assignment solve")
        rng = np.random.Generator(np.random.Philox(key=np.array([subsample_seed, 0],
                                                                dtype=np.uint64)))
        a = a[rng.choice(k, max_atoms, replace=False)]
        b = b[rng.choice(k, max_atoms, replace=False)]
        k = max_atoms
    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(mu.mass / k * cost[rows, cols].sum()))


# -- monotone fiber transport ----------------------------------------------------

@dataclass(frozen=True)
class TransportMap1D:
    """T(x) = x + eps (Psi(x) - Psi(p)) on [p, q]; fixes endpoints, monotone
    whenever the perturbed density 1 + eps Psi' stays positive."""

    p: float
    q: float
    epsilon: float
    psi: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x + self.epsilon * (self.psi(x) - self.psi(np.array(self.p)))

    def density(self, x, step: float = 1e-6):
        """Perturbed density 1 + eps dPsi/dx via central differences."""
        x = np.asarray(x, dtype=float)
        d = (self.psi(x + step) - self.psi(x - step)) / (2.0 * step)
        return 1.0 + self.epsilon * d

    def pushforward_defect(self, n_points: int = 1000) -> float:
        """max_x |int_p^x (1 + eps Psi') dt - (T(x) - p)|, quadrature oracle.

        The pushforward of the perturbed density under T is Lebesgue on [p, q]
        exactly; this measures the defect with an independent quadrature.
        """
        xg, wg = np.polynomial.legendre.leggauss(24)
        edges = np.linspace(self.p, self.q, n_points + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        nodes = mid + half * xg[None, :]
        panel = np.sum(self.density(nodes) * (half * wg[None, :]), axis=1)
        cdf = np.concatenate([[0.0], np.cumsum(panel)])
        return float(np.max(np.abs(cdf - (self(edges) - self.p))))


def monotone_transport_1d(psi: Callable, p: float, q: float, epsilon: float,
                          endpoint_tol: float = 1e-9, n_check: int = 2048) -> TransportMap1D:
    """Monotone map pushing the density 1 + eps Psi' on [p, q] to Lebesgue.

    Requires Psi(p) = Psi(q) (so the perturbation preserves mass on the fiber)
    and eps small enough that the perturbed density stays positive.
    """
    if q <= p:
        raise ValueError("need p < q")
    psi_v = lambda x: np.asarray(psi(np.asarray(x, dtype=float)), dtype=float)
    scale = 1.0 + float(np.max(np.abs(psi_v(np.linspace(p, q, 64)))))
    if abs(float(psi_v(p)) - float(psi_v(q))) > endpoint_tol * scale:
        raise EndpointConditionError("Psi(p) != Psi(q); fiber mass not preserved")
    tmap = TransportMap1D(p, q, float(epsilon), psi_v)
    if epsilon != 0.0:
        dens = tmap.density(np.linspace(p, q, n_check))
        if np.any(dens <= 0.0):
            raise ValueError("epsilon too large: perturbed density changes sign")
    return tmap


# -- dual Sobolev norm -----------------------------------------------------------

def _cg(L, b: np.ndarray, tol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Plain conjugate gradients; the Krylov space of a mean-zero b stays
    orthogonal to the constant kernel, so the singular system is harmless."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    bn = math.sqrt(float(b @ b))
    if bn == 0.0:
        return x, 0
    for it in range(maxiter):
        lp = L @ p
        alpha = rs / float(p @ lp)
        x += alpha * p
        r -= alpha * lp
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * bn:
            return x, it + 1
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise RuntimeError(f"CG did not reach tol {tol} in {maxiter} iterations")


def _grid_edges(mu: DiscreteMeasure):
    if not mu.is_grid:
        raise ValueError("dual norm needs a grid-structured measure")
    n = mu.weights.size
    if mu.dim == 1:
        x = mu.support[:, 0]
        order = np.argsort(x, kind="stable")
        gaps = np.diff(x[order])
        if np.max(np.abs(gaps - mu.spacing)) > 1e-9 * mu.spacing:
            raise ValueError("1D grid measure must be evenly spaced")
        return order[:-1], order[1:]
    src, dst = lattice_edges(mu.mask)
    return src, dst


def hminus1_norm(mu: DiscreteMeasure, u: np.ndarray, cg_tol: float = 1e-12,
                 meanzero_tol: float = 1e-8) -> float | np.ndarray:
    """Discrete dual norm sup { sum u phi w : sum |grad phi|^2 w <= 1 }.

    Assembles the weighted graph Laplacian (edge weight = mean of the endpoint
    measure weights over h^2), solves L phi = u*w on the mean-zero subspace by
    CG, and returns sqrt(sum u w phi).  Inputs whose mu-mean is not zero have
    infinite norm and return +inf.  One function u of shape (N,) gives a
    float; a stack of k functions of shape (k, N) gives k norms, all solved
    against the one Laplacian of mu.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1:] != mu.weights.shape:
        raise ValueError("u must be given on the support of mu")
    w = mu.weights
    rows = np.atleast_2d(u)
    norms = np.full(rows.shape[0], math.inf)
    means = [float(ui @ w) / mu.mass for ui in rows]
    solve = [i for i, (ui, mean_u) in enumerate(zip(rows, means))
             if abs(mean_u) <= meanzero_tol * (float(np.abs(ui) @ w) / mu.mass + 1e-300)]
    if solve:
        src, dst = _grid_edges(mu)
        if not is_connected(w.size, src, dst):
            raise ValueError("positive-weight support must be connected")
        h = mu.spacing
        ew = (w[src] + w[dst]) / (2.0 * h * h)
        L = graph_laplacian(w.size, src, dst, ew)
    for i in solve:
        b = (rows[i] - means[i]) * w
        b -= b.mean()  # exact orthogonality to the constant kernel
        phi, _ = _cg(L, b, cg_tol, maxiter=200 * w.size)
        norms[i] = math.sqrt(max(float(b @ phi), 0.0))
    return float(norms[0]) if u.ndim == 1 else norms


# -- duality and variance-bound verification --------------------------------------

class DualityReport(NamedTuple):
    norm: float
    ratios: tuple[tuple[float, float], ...]   # (epsilon, W2/epsilon)
    min_ratio: float
    tolerance: float
    passed: bool


def verify_thm258(mu: DiscreteMeasure, h_values: np.ndarray, epsilons,
                  tolerance: float = 0.02) -> DualityReport:
    """Check ||h||_{H^-1(mu)} <= min_eps W2(mu, mu_eps)/eps + tolerance.

    mu_eps has density 1 + eps h with respect to mu; requires mean-zero bounded
    h and eps max|h| < 1.  Ratios for every requested eps are reported.
    """
    h_values = np.asarray(h_values, dtype=float)
    eps_list = [float(e) for e in np.atleast_1d(epsilons)]
    if not eps_list:
        raise ValueError("need at least one epsilon")
    hmax = float(np.max(np.abs(h_values)))
    if any(e * hmax >= 1.0 for e in eps_list):
        raise ValueError("epsilon too large: density 1 + eps h changes sign")
    norm = hminus1_norm(mu, h_values)
    ratios = []
    for eps in eps_list:
        nu = mu.with_density(1.0 + eps * h_values)
        if mu.dim == 1:
            dist = w2_1d(mu, nu)
        else:
            dist = w2_assignment(*_equal_weight_clouds(mu, nu))
        ratios.append((eps, dist / eps))
    min_ratio = min(r for _, r in ratios)
    rel_tol = tolerance * max(norm, min_ratio)
    return DualityReport(norm, tuple(ratios), min_ratio, tolerance,
                         bool(norm <= min_ratio + rel_tol))


def _equal_weight_clouds(mu: DiscreteMeasure, nu: DiscreteMeasure, k: int = 256):
    """Quantize two measures to k equal-weight atoms each (largest remainder)."""
    clouds = []
    for m in (mu, nu):
        quota = m.weights / m.mass * k
        counts = np.floor(quota).astype(int)
        short = k - counts.sum()
        if short > 0:
            counts[np.argsort(quota - counts)[-short:]] += 1
        pts = np.repeat(m.support, counts, axis=0)
        clouds.append(DiscreteMeasure(pts, np.full(k, m.mass / k)))
    return clouds[0], clouds[1]


class VarianceBoundReport(NamedTuple):
    var: float
    bound: float
    per_axis: tuple[float, ...]
    tolerance: float
    passed: bool


def verify_variance_bound(body2d, fs: list[Callable], h: float) -> list[VarianceBoundReport]:
    """Discrete check of Var(f) <= sum_i ||d_i f||^2_{H^-1} for each f in fs on
    one raster of a 2D convex body.

    Each f is a vectorized callable f(x, y) evaluated at the cell centers.
    Gradients are central differences, one-sided at the staircase boundary;
    the bound is evaluated with the uniform grid measure, whose Laplacian
    serves all 2 len(fs) dual-norm solves.  Tolerance is O(h).
    """
    from .spectral import rasterize

    grid = rasterize(body2d, h)
    mask = grid.mask
    mu = DiscreteMeasure.grid_2d(mask, h, grid.origin)
    x, y = np.ascontiguousarray(mu.support.T)
    vals, grads = [], []
    for f in fs:
        full = np.zeros(mask.shape)
        full[mask] = np.asarray(f(x, y), dtype=float)
        vals.append(full[mask])
        grads += [g[mask] for g in grid_gradient(mask, full, h)]
    norms = hminus1_norm(mu, np.stack(grads))
    reports = []
    for vals_f, axes in zip(vals, norms.reshape(-1, 2)):
        mean = float(vals_f @ mu.weights) / mu.mass
        var = float(((vals_f - mean) ** 2) @ mu.weights)
        per_axis = tuple(float(nrm * nrm) for nrm in axes)
        bound = float(sum(per_axis))
        tol = h * (1.0 + bound)
        reports.append(VarianceBoundReport(var, bound, per_axis, tol,
                                           bool(var <= bound + tol)))
    return reports
