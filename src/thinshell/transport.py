"""Discrete optimal transport, dual Sobolev norms via graph-Laplacian solves,
and the fiberwise monotone perturbation map.

Transport measures live on the line.  W2 between them is evaluated exactly
through merged quantile functions; small equal-weight clouds also go through an
exact assignment solve, a shortest-augmenting-path method in numpy.
The dual norm ||u||_{H^-1(mu)} is sqrt of the inner product that a weighted
Neumann-graph Poisson solve induces.  On 1D grid measures (path-graph
Laplacian, ``spectral.graph_laplacian``) CG preconditioned by the grounded LU
solves it; for the Lemma 2.1 check on a raster from ``spectral.rasterize``,
one direct solve in the odd flip class of each gradient, with one LU for both
axes where the raster is symmetric under x <-> y.  Each LU is
``spectral.factorize``, the one factorization that the eigen solves use too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import spectral
from .clt import _gl_panels
from .spectral import _dot, graph_laplacian

_MASS_TOL = 1e-12
_CG_TOL = 1e-12            # relative residual of each H^-1 solve
_CG_MAXITER = 10           # CG steps per solve; the grounded LU needs at most 2
_MEANZERO_TOL = 1e-8       # |mean u| / mean |u| below which u counts as mean zero
_ENDPOINT_TOL = 1e-9       # |Psi(p) - Psi(q)| relative to 1 + max |Psi|
_DENSITY_CHECKS = 2048     # points where 1 + eps Psi' must stay positive
_DIFF_STEP = 1e-6          # central-difference step of Psi'
PUSHFORWARD_POINTS = 1000  # panels of the pushforward-defect quadrature


class MassMismatchError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """An H^-1 solve missed its residual tolerance within its step budget."""


class EndpointConditionError(ValueError):
    """The section function does not agree at the two segment endpoints."""


class NotEvenError(ValueError):
    """A Lemma 2.1 test function is not even in every coordinate."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point measure on the line.

    A grid measure carries its lattice spacing, which enables path-graph
    Laplacian assembly for the dual norm.
    """

    support: np.ndarray          # (N, 1) column; an (N,) array is read as one
    weights: np.ndarray          # (N,), finite and nonnegative
    spacing: float | None = None

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if s.ndim != 2 or s.shape[1] != 1:
            raise ValueError(f"support must have shape (N,) or (N, 1), got {s.shape}")
        if self.weights.shape != (s.shape[0],):
            raise ValueError("one weight per support point required")
        if not np.all(np.isfinite(s)):
            raise ValueError("support points must be finite")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise ValueError("weights must be finite and nonnegative")

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def grid_1d(lo: float, hi: float, n_nodes: int,
                density: Callable | None = None) -> "DiscreteMeasure":
        """Cell-centered discretization of density(x) dx on [lo, hi], finite
        lo < hi, with an integer count n_nodes >= 1 of cells."""
        if not (isinstance(n_nodes, numbers.Integral) and n_nodes >= 1):
            raise ValueError(f"grid_1d needs an integer n_nodes >= 1, got {n_nodes!r}")
        if not (-math.inf < lo < hi < math.inf):  # a NaN end fails too
            raise ValueError(f"grid_1d needs finite lo < hi, got lo = {lo}, hi = {hi}")
        h = (hi - lo) / n_nodes
        x = lo + (np.arange(n_nodes) + 0.5) * h
        w = np.full(n_nodes, h)
        if density is not None:
            w = w * np.asarray(density(x), dtype=float)
        return DiscreteMeasure(x[:, None], w, spacing=h)


# -- Wasserstein-2 -------------------------------------------------------------

def _sorted_1d(mu: DiscreteMeasure):
    x = mu.support[:, 0]
    pos = mu.weights > 0
    order = np.argsort(x[pos], kind="stable")
    return x[pos][order], mu.weights[pos][order]


def w2_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact quantile-coupling W2 between equal-mass discrete measures."""
    if not (mu.mass > 0 and nu.mass > 0):
        raise ValueError("w2_1d requires measures of positive mass")
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


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a least-cost assignment of the square matrix
    ``cost``, by shortest augmenting paths (Kuhn 1955; Jonker and Volgenant
    1987).

    Column minima give the first duals v and a partial assignment.  Each free
    row then runs Dijkstra over the columns on the reduced costs
    c_ij - u_i - v_j, which the duals keep nonnegative and zero on assigned
    pairs, until it reaches a free column; the duals move by each scanned
    column's slack and the path is flipped.  Each scan stores its row of path
    lengths, so the predecessor of a column is the first scan that reached
    its shortest length.
    """
    n = cost.shape[0]
    v = cost.min(axis=0)
    u = np.zeros(n)
    row4col, col4row = np.full(n, -1), np.full(n, -1)
    for j, i in enumerate(cost.argmin(axis=0)):
        if col4row[i] < 0:
            col4row[i], row4col[j] = j, i
    reach = np.empty((n, n))
    for start in np.flatnonzero(col4row < 0):
        shortest = np.full(n, math.inf)
        open_v = v.copy()  # -inf on scanned columns, so no later scan reaches them
        rows, cols, dist = [], [], []
        low, i = 0.0, start
        while True:
            r = reach[len(rows)]
            np.subtract(cost[i], open_v, out=r)
            r += low - u[i]
            rows.append(i)
            np.minimum(shortest, r, out=shortest)
            j = int(shortest.argmin())
            low = float(shortest[j])
            cols.append(j)
            dist.append(low)
            shortest[j], open_v[j] = math.inf, -math.inf
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[start] += low
        scanned = np.array(cols[:-1], dtype=np.intp)
        slack = low - np.array(dist[:-1])
        v[scanned] -= slack
        u[row4col[scanned]] += slack
        while True:  # flip the path back from the free column j
            i = rows[int(reach[:len(rows), j].argmin())]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def w2_assignment(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact optimal assignment W2 for equal-size, equal-weight atom clouds.

    The squared-distance cost matrix goes through ``_assignment``, an exact
    solver in numpy, so the check loads no ``scipy.optimize``."""
    if mu.support.shape[0] != nu.support.shape[0]:
        raise ValueError("w2_assignment requires equally many atoms")
    if mu.support.shape[0] == 0 or not (mu.mass > 0 and nu.mass > 0):
        raise ValueError("w2_assignment requires at least one atom and positive mass")
    if abs(mu.mass - nu.mass) > _MASS_TOL * max(1.0, mu.mass):
        raise MassMismatchError("total masses differ")
    for m in (mu, nu):
        if np.max(np.abs(m.weights - m.mass / m.weights.size)) > 1e-9 * m.mass:
            raise ValueError("w2_assignment requires equal-weight atoms")
    cost = ((mu.support[:, None] - nu.support[None]) ** 2).sum(-1)
    n = cost.shape[0]
    return math.sqrt(float(mu.mass / n * cost[np.arange(n), _assignment(cost)].sum()))


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

    def density(self, x):
        """Perturbed density 1 + eps dPsi/dx via central differences."""
        x = np.asarray(x, dtype=float)
        d = (self.psi(x + _DIFF_STEP) - self.psi(x - _DIFF_STEP)) / (2.0 * _DIFF_STEP)
        return 1.0 + self.epsilon * d

    def pushforward_defect(self) -> float:
        """max_x |int_p^x (1 + eps Psi') dt - (T(x) - p)| over the panel edges,
        quadrature oracle.

        The pushforward of the perturbed density under T is Lebesgue on [p, q]
        exactly; this measures the defect with an independent quadrature, the
        inversions' Gauss-Legendre panels (``clt._gl_panels``) on
        PUSHFORWARD_POINTS equal panels.
        """
        panels = _gl_panels(self.p, self.q, PUSHFORWARD_POINTS)
        mass = panels.half * (panels.weights @ self.density(panels.points))
        cdf = np.concatenate([[0.0], np.cumsum(mass)])
        edges = np.linspace(self.p, self.q, PUSHFORWARD_POINTS + 1)
        return float(np.max(np.abs(cdf - (self(edges) - self.p))))


def monotone_transport_1d(psi: Callable, p: float, q: float, epsilon: float) -> TransportMap1D:
    """Monotone map pushing the density 1 + eps Psi' on [p, q] to Lebesgue.

    Requires Psi(p) = Psi(q) (so the perturbation preserves mass on the fiber)
    and a finite eps small enough that the perturbed density stays positive.
    """
    if not (math.isfinite(p) and math.isfinite(q) and p < q):
        raise ValueError(f"need finite p < q, got p = {p}, q = {q}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    psi_v = lambda x: np.asarray(psi(np.asarray(x, dtype=float)), dtype=float)
    scale = 1.0 + float(np.max(np.abs(psi_v(np.linspace(p, q, 64)))))
    if abs(float(psi_v(p)) - float(psi_v(q))) > _ENDPOINT_TOL * scale:
        raise EndpointConditionError("Psi(p) != Psi(q); fiber mass not preserved")
    tmap = TransportMap1D(p, q, float(epsilon), psi_v)
    if epsilon != 0.0:
        dens = tmap.density(np.linspace(p, q, _DENSITY_CHECKS))
        if np.any(dens <= 0.0):
            raise ValueError("epsilon too large: perturbed density changes sign")
    return tmap


# -- dual Sobolev norm -----------------------------------------------------------

def _cg(L, b: np.ndarray, precondition: Callable, project: Callable) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for L x = b with b orthogonal to the
    kernel of L.  ``project`` removes the kernel part of the residual after
    every update: rounding in L @ p leaves one that no step removes.  Raises
    ConvergenceError when the relative residual misses _CG_TOL within
    _CG_MAXITER steps."""
    x = np.zeros_like(b)
    bn = math.sqrt(_dot(b, b))
    if bn == 0.0:
        return x, 0
    r = b.copy()
    p = precondition(r)
    rz = _dot(r, p)
    for it in range(_CG_MAXITER):
        lp = L @ p
        alpha = rz / _dot(p, lp)
        x += alpha * p
        r = project(r - alpha * lp)
        if math.sqrt(_dot(r, r)) <= _CG_TOL * bn:
            return x, it + 1
        z = precondition(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(f"CG did not reach tol {_CG_TOL} in {_CG_MAXITER} iterations")


def _dual_norms(L, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sqrt(sum u w phi) with L phi = u w on the mean-zero subspace, for each
    row u of ``rows`` against the one Laplacian L of the weights w; +inf for a
    row whose w-mean is not zero on every connected component of L.

    The kernel of L is the constants on each component.  Fixing phi at one
    node per component ("grounding") leaves a nonsingular system; its sparse
    LU preconditions CG, which then converges in one or two steps.
    """
    graph = L.tocsr(copy=True)
    graph.eliminate_zeros()
    n_comp, labels = sp.csgraph.connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=n_comp)
    free = np.ones(w.size)
    free[np.unique(labels, return_index=True)[1]] = 0.0
    # converted before the call, so that the CSR sum is freed before SuperLU runs
    grounded = (sp.diags(free) @ L @ sp.diags(free) + sp.diags(1.0 - free)).tocsc()
    lu = spectral.factorize(grounded)

    def component_sums(v):
        return np.bincount(labels, weights=v, minlength=n_comp)

    def project(v):
        return v - (component_sums(v) / sizes)[labels]

    def precondition(r):
        return lu.solve(r * free)

    mass = component_sums(w)
    mass[mass == 0.0] = 1.0  # a massless component carries u w = 0
    norms = np.full(rows.shape[0], math.inf)
    for i, ui in enumerate(rows):
        uw = ui * w
        sums = component_sums(uw)
        if np.any(np.abs(sums) > _MEANZERO_TOL * (component_sums(np.abs(uw)) + 1e-300)):
            continue
        b = project(uw - (sums / mass)[labels] * w)  # exact orthogonality to the kernel
        phi, _ = _cg(L, b, precondition, project)
        norms[i] = math.sqrt(max(_dot(b, phi), 0.0))
    return norms


def hminus1_norm(mu: DiscreteMeasure, u: np.ndarray) -> float:
    """Discrete dual norm sup { sum u phi w : sum |grad phi|^2 w <= 1 } of one
    finite function u of shape (N,) on an evenly spaced grid measure.

    Assembles the weighted path-graph Laplacian (edge weight = mean of the
    endpoint measure weights over h^2), solves L phi = u*w on the mean-zero
    subspace by CG preconditioned by the grounded sparse LU, and returns
    sqrt(sum u w phi).  Inputs whose mu-mean is not zero on each connected
    piece of the graph have infinite norm and return +inf; where the density
    vanishes on a stretch, the segment falls apart into such pieces.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != mu.weights.shape:
        raise ValueError("u must be one function on the support of mu")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if mu.spacing is None:
        raise ValueError("dual norm needs a grid measure")
    if not 0 < mu.spacing < math.inf:  # a NaN spacing fails too
        raise ValueError(f"dual norm needs a finite positive spacing, got {mu.spacing}")
    x = mu.support[:, 0]
    order = np.argsort(x, kind="stable")
    if np.max(np.abs(np.diff(x[order]) - mu.spacing), initial=0.0) > 1e-9 * mu.spacing:
        raise ValueError("grid measure must be evenly spaced")
    src, dst = order[:-1], order[1:]
    w = mu.weights
    h = mu.spacing
    L = graph_laplacian(w.size, src, dst, (w[src] + w[dst]) / (2.0 * h * h))
    return float(_dual_norms(L, w, u[None])[0])


# -- the two sides of Thm 258 and of Lemma 2.1 -------------------------------------

class DualityReport(NamedTuple):
    norm: float
    ratios: tuple[tuple[float, float], ...]   # (epsilon, W2/epsilon)
    min_ratio: float


def verify_thm258(mu: DiscreteMeasure, h_values: np.ndarray, epsilons) -> DualityReport:
    """The two sides of ||h||_{H^-1(mu)} <= min_eps W2(mu, mu_eps)/eps on a 1D
    grid measure.

    mu_eps has density 1 + eps h with respect to mu; requires finite mean-zero
    h, one value per atom, and eps max|h| < 1.  Ratios for every requested eps
    are reported.
    """
    h_values = np.asarray(h_values, dtype=float)
    if h_values.shape != mu.weights.shape or not np.all(np.isfinite(h_values)):
        raise ValueError(f"h must be finite, one value per atom of mu ({mu.weights.size}), "
                         f"got shape {h_values.shape}")
    eps_list = [float(e) for e in np.atleast_1d(epsilons)]
    if not eps_list or not all(e > 0.0 for e in eps_list):  # NaN fails too
        raise ValueError(f"need one or more positive epsilons, got {eps_list}")
    hmax = float(np.max(np.abs(h_values)))
    if any(e * hmax >= 1.0 for e in eps_list):
        raise ValueError("epsilon too large: density 1 + eps h changes sign")
    norm = hminus1_norm(mu, h_values)
    ratios = []
    for eps in eps_list:
        nu = DiscreteMeasure(mu.support, mu.weights * (1.0 + eps * h_values))
        ratios.append((eps, w2_1d(mu, nu) / eps))
    return DualityReport(norm, tuple(ratios), min(r for _, r in ratios))


class VarianceBoundReport(NamedTuple):
    var: float
    bound: float


def verify_variance_bound(body2d, fs: list[Callable], h: float) -> list[VarianceBoundReport]:
    """The two sides of Var(f) <= sum_i ||d_i f||^2_{H^-1} for each f in fs on
    one raster of a 2D convex body.

    Each f is a vectorized callable f(x, y) evaluated at the cell centers,
    giving one finite value per cell (else ValueError naming its index in fs)
    and even in every coordinate to 1e-12 of max |f| (else NotEvenError), both
    checked before any factorization.  Gradients are central differences,
    one-sided at the edge of the raster, so d_i f lies in the flip class odd in
    x_i alone, whose operator is nonsingular: one LU per class and a direct solve
    per f and axis.  On a raster symmetric under x <-> y (equal half-widths)
    the class odd in y alone is the swap of the class odd in x alone, so its
    one LU serves d_y f too, swapped: one factorization in all.  Every LU is
    made before the first gradient, and each f's gradient is dropped once its
    solves are done, so the factorization runs next to no gradient and the
    solves next to one.  The measure gives each cell alpha h^2, the part of it
    inside the body, and the Dirichlet form is the spectral operator's, so
    ||u||^2 = h^2 (alpha u)^T K^-1 (alpha u).
    """
    grid = spectral.rasterize(body2d, h)
    centers, d = grid.centers(), grid.mask.ndim
    cell = h ** d
    w = grid.alpha * cell
    vals = [np.asarray(f(*centers), dtype=float) for f in fs]
    for i, v in enumerate(vals):
        if v.shape != w.shape:
            raise ValueError(f"fs[{i}] gives shape {v.shape}, not one value per cell {w.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"fs[{i}] is not finite at every cell")
    for axis in range(d):
        mirror = grid.flip(axis)
        if any(np.max(np.abs(v - v[mirror])) > 1e-12 * np.max(np.abs(v)) for v in vals):
            raise NotEvenError(f"a function is not even in coordinate {axis}")
    # on a swap-symmetric raster d_y f, swapped, lies in the class odd in x
    # alone, whose LU then serves both axes
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
            # one f at a time: a block solve rounds otherwise
            u = grid.alpha[nodes] * (g[swap] if swap is not None and axis > 0 else g)[nodes]
            bounds[j] += 2 ** d * cell * _dot(u, lu.solve(u))  # 2^d mirror images per node
    mass = float(w.sum())
    reports = []
    for vals_f, bound in zip(vals, bounds):
        mean = _dot(vals_f, w) / mass
        var = _dot((vals_f - mean) ** 2, w)
        reports.append(VarianceBoundReport(var, float(bound)))
    return reports
