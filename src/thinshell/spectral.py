"""Neumann Laplacian on rasterized 2D convex bodies: its flip classes, lowest
eigenpairs and the gradient bias of the first nontrivial eigenspace.

Discretization: cell-centered raster, cell included iff its center lies in the
body; the operator is the 5-point graph Laplacian over included cells divided
by h^2 (ghost-cell reflection makes missing neighbors drop out), which is
symmetric with the constants in its kernel by construction.

The bodies are unconditional, so the operator commutes with the d coordinate
flips and splits exactly into 2^d flip classes (``GridDomain.flip_class``).

Every lattice solve goes through one sparse factorization, ``factorize``: the
eigen solves here factor a class operator minus a shift with it, the Lemma 2.1
solves in ``transport`` an odd class operator, the 1D H^-1 solves a grounded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .bodies import BodySpec, contains_rows

_REL_TOL = 1e-6  # relative width of an eigenvalue cluster and cut of the bias rank


class TooCoarseGridError(ValueError):
    pass


def _neighbors(k: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slices of each cell and of its successor along array axis k."""
    head = (slice(None),) * k
    return head + (slice(None, -1),), head + (slice(1, None),)


@dataclass(frozen=True)
class GridDomain:
    """The raster of a body.  Array axis ``ndim - 1 - i`` of ``mask`` runs
    along coordinate i, so a 2D mask is indexed (y, x), and the nodes are its
    True cells in row-major order."""

    body: BodySpec
    h: float
    mask: np.ndarray   # over a box centered on the origin, 2 m_k cells along array axis k
    operator: sp.csr_matrix = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return int(self.mask.sum())

    def image(self, values: np.ndarray) -> np.ndarray:
        """The node vector ``values`` laid out on the mask's cells, 0 elsewhere."""
        full = np.zeros(self.mask.shape, dtype=np.result_type(values))
        full[self.mask] = values
        return full

    def centers(self) -> tuple[np.ndarray, ...]:
        """Coordinates of the cell centers, in node order: (x, y) in 2D.  Cell c
        of 2m along an axis is centered at (c - m + 0.5) h: exactly mirrored."""
        cells = np.nonzero(self.mask)[::-1]
        return tuple((c - m // 2 + 0.5) * self.h
                     for c, m in zip(cells, self.mask.shape[::-1]))

    def flip(self, axis: int) -> np.ndarray:
        """Node permutation of the reflection of coordinate ``axis``; the mask
        must be symmetric under it."""
        k = self.mask.ndim - 1 - axis
        if not np.array_equal(self.mask, np.flip(self.mask, k)):
            raise ValueError("mask is not symmetric under this flip")
        return np.flip(self.image(np.arange(self.n_nodes)), k)[self.mask]

    def flip_class(self, odd: tuple[bool, ...]) -> tuple[np.ndarray, sp.csr_matrix]:
        """The positive-orthant nodes and the parity extension E from them to
        the whole raster, odd across the plane x_i = 0 where odd[i], else even.
        The class operator (operator @ E)[nodes] is the orthant Laplacian plus
        2/h^2 on the cells next to the plane of each odd axis."""
        nodes = np.flatnonzero(np.all([c > 0 for c in self.centers()], axis=0))
        rows, signs = [nodes], [np.ones(nodes.size)]
        for axis, odd_axis in zip(range(self.mask.ndim), odd, strict=True):
            perm = self.flip(axis)
            rows += [perm[r] for r in rows]
            signs += [-s if odd_axis else s for s in signs]
        cols = np.tile(np.arange(nodes.size), len(rows))
        E = sp.csr_matrix((np.concatenate(signs), (np.concatenate(rows), cols)),
                          shape=(self.n_nodes, nodes.size))
        return nodes, E

    def gradient(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Node values of (d/dx, d/dy, ...) of the node function ``values``.

        Central differences where both neighbors are nodes, one-sided next to
        the staircase boundary, 0 along an axis where the cell has neither.
        """
        full = self.image(values)
        grads = []
        for k in reversed(range(full.ndim)):
            lo, hi = _neighbors(k)
            both = self.mask[lo] & self.mask[hi]
            up, down = np.zeros_like(full), np.zeros_like(full)
            has_up, has_down = np.zeros_like(self.mask), np.zeros_like(self.mask)
            up[lo], has_up[lo] = full[hi], both
            down[hi], has_down[hi] = full[lo], both
            g = np.select([has_up & has_down, has_up, has_down],
                          [(up - down) / (2.0 * self.h), (up - full) / self.h,
                           (full - down) / self.h])
            grads.append(g[self.mask])
        return tuple(grads)


def graph_laplacian(n_nodes: int, src: np.ndarray, dst: np.ndarray,
                    edge_weights: np.ndarray) -> sp.csr_matrix:
    """Weighted graph Laplacian: quadratic form sum_e w_e (phi_src - phi_dst)^2."""
    deg = np.zeros(n_nodes)
    np.add.at(deg, src, edge_weights)
    np.add.at(deg, dst, edge_weights)
    rows = np.concatenate([src, dst, np.arange(n_nodes)])
    cols = np.concatenate([dst, src, np.arange(n_nodes)])
    vals = np.concatenate([-edge_weights, -edge_weights, deg])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))


def factorize(A: sp.spmatrix) -> spl.SuperLU:
    """Sparse LU of a structurally symmetric matrix, the one factorization of
    every lattice solve.

    SuperLU in symmetric mode with the symmetric MMD_AT_PLUS_A ordering: on the
    h = 1/128 rasters this halves the fill of the default COLAMD ordering,
    factors 1.4-1.6x and solves about 2x faster.  The diagonal pivot threshold
    stays at SuperLU's default: at threshold 0 the indefinite L - shift I of
    the eigen solves loses accuracy (the largest eigen residual of the
    spectral suite rises from 3.6e-11 to 4.0e-9), while the positive definite
    matrices of the other solves pivot on the diagonal either way.
    """
    return spl.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i in numpy's own single-threaded loop.  A BLAS dot splits
    long vectors across threads, so its rounding, and with it report.csv,
    would depend on OPENBLAS_NUM_THREADS."""
    return float(np.einsum("i,i->", a, b))


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray   # on nodes, L2(grid)-normalized
    residual: float


def rasterize(body2d: BodySpec, h: float) -> GridDomain:
    """Raster of a 2D body on a symmetric cell-centered grid.

    The grid is symmetric about the origin (centers at +-(k+1/2)h), so masks of
    unconditional bodies are exactly flip-symmetric.
    """
    if body2d.dim != 2:
        raise ValueError("rasterize expects a 2D body")
    m = [int(math.ceil(b / h)) for b in body2d.scale_array]
    if min(m) * 2 < 32:
        raise TooCoarseGridError(f"grid too coarse: {2 * min(m)} cells per axis, need >= 32")
    box = GridDomain(body2d, h, np.ones([2 * k for k in m[::-1]], dtype=bool), None)
    mask = contains_rows(body2d, np.column_stack(box.centers())).reshape(box.mask.shape)
    node = np.cumsum(mask).reshape(mask.shape) - 1  # the node number on True cells
    src, dst = [], []
    for k in reversed(range(mask.ndim)):  # the edges along x, then along y
        lo, hi = _neighbors(k)
        both = mask[lo] & mask[hi]
        src.append(node[lo][both])
        dst.append(node[hi][both])
    src, dst = np.concatenate(src), np.concatenate(dst)
    L = graph_laplacian(int(mask.sum()), src, dst, np.full(src.size, 1.0 / (h * h)))
    if sp.csgraph.connected_components(L, directed=False, return_labels=False) != 1:
        raise ValueError("rasterized body is not connected at this h")
    return GridDomain(body2d, h, mask, L)


def lowest_eigenpairs(grid: GridDomain, k: int,
                      odd: tuple[bool, ...] | None = None) -> list[EigenPair]:
    """The k + 1 lowest eigenpairs of the flip class ``odd``, or of the whole
    raster when odd is None, by shift-invert Lanczos with A - shift I factored
    once by ``factorize``.  The eigenvectors are extended to the whole raster,
    and their residuals are taken against the whole operator."""
    if not 1 <= k <= 10:
        raise ValueError("k must be between 1 and 10")
    L = grid.operator
    nodes, E = (grid.flip_class(odd) if odd is not None
                else (slice(None), sp.identity(grid.n_nodes, format="csr")))
    A = (L @ E)[nodes]
    n = A.shape[0]
    bhw = float(np.max(grid.body.scale_array))
    shift = 0.5 * math.pi ** 2 / (4.0 * bhw ** 2)  # strictly between 0 and lambda_1
    v0 = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    lu = factorize(A - shift * sp.identity(n, format="csr"))
    vals, vecs = spl.eigsh(A, k=k + 1, sigma=shift, which="LM", v0=v0,
                           OPinv=spl.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype))
    pairs = []
    for idx in np.argsort(vals):
        lam = float(vals[idx])
        vec = E @ vecs[:, idx]
        vec = vec / (math.sqrt(_dot(vec, vec)) * grid.h)  # L2(grid) normalization
        r = L @ vec - lam * vec
        res = math.sqrt(_dot(r, r)) * grid.h
        pairs.append(EigenPair(lam, vec, res))
    return pairs


def lambda1_cluster(pairs: list[EigenPair]) -> list[EigenPair]:
    """The eigenpairs sharing the first nonzero eigenvalue."""
    lam1 = pairs[1].value
    return [p for p in pairs[1:] if abs(p.value - lam1) <= _REL_TOL * max(lam1, 1.0)]


class RichardsonResult(NamedTuple):
    h_values: tuple[float, ...]
    lambda1_values: tuple[float, ...]
    observed_order: float
    extrapolated: float


def richardson_lambda1(h_values, lambda1_values) -> RichardsonResult:
    """The order of lambda_1 estimated from its values on three grids, and
    the extrapolation to h = 0."""
    pairs = sorted(((float(h), float(lam)) for h, lam in
                    zip(h_values, lambda1_values, strict=True)), reverse=True)
    hs, lams = tuple(h for h, _ in pairs), tuple(lam for _, lam in pairs)
    if len(hs) != 3 or not math.isclose(hs[0], 2 * hs[1]) or not math.isclose(hs[1], 2 * hs[2]):
        raise ValueError("need three h values in ratio 4:2:1")
    d1, d2 = lams[0] - lams[1], lams[1] - lams[2]
    order = math.log2(abs(d1 / d2)) if d2 != 0 else float("inf")
    extrap = lams[2] + (lams[2] - lams[1]) / (2.0 ** order - 1.0) if math.isfinite(order) else lams[2]
    return RichardsonResult(hs, lams, order, extrap)


# -- gradient bias -----------------------------------------------------------------

def gradient_bias(grid: GridDomain, pair: EigenPair) -> np.ndarray:
    """Cell-summed discrete gradient integral (int dphi/dx, int dphi/dy, ...)."""
    cell = grid.h ** grid.mask.ndim
    return np.array([float(g.sum() * cell) for g in grid.gradient(pair.vector)])


class BiasRankReport(NamedTuple):
    singular_values: tuple[float, ...]
    rank: int


def gradient_bias_rank(grid: GridDomain, eigenspace: list[EigenPair]) -> BiasRankReport:
    """Rank of phi -> int grad phi on the eigenspace (full rank = every nonzero
    member of some basis has a preferred direction)."""
    M = np.column_stack([gradient_bias(grid, p) for p in eigenspace])
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > _REL_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
    return BiasRankReport(tuple(float(s) for s in sv), rank)
