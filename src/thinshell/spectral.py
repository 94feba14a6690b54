"""Neumann Laplacian on rasterized 2D convex bodies: lowest eigenpairs,
gradient bias of the first nontrivial eigenspace, reflection symmetry
structure, and the bounding-cube comparison.

Discretization: cell-centered raster, cell included iff its center lies in the
body; the operator is the 5-point graph Laplacian over included cells divided
by h^2 (ghost-cell reflection makes missing neighbors drop out), which is
symmetric with the constants in its kernel by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .bodies import BodySpec, contains_rows

_REL_TOL = 1e-6         # relative width of an eigenvalue cluster and cut of the bias rank
SYMMETRY_TOL = 1e-6     # largest flip defect ||sigma_i phi + phi|| / ||phi|| that passes
_COMPARISON_TOL = 0.02  # relative slack of the bounding-cube comparison
_COMPARISON_H = 1 / 32  # raster spacing of the bounding-cube comparison
_WITNESS_H = 1 / 48     # raster spacing of the disc in the monotonicity witness


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
    mask: np.ndarray
    origin: tuple[float, ...]   # lower corner of cell (0, ..., 0), in coordinate order
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
        """Coordinates of the cell centers, in node order: (x, y) in 2D."""
        cells = np.nonzero(self.mask)[::-1]
        return tuple(o + (c + 0.5) * self.h for o, c in zip(self.origin, cells))

    def flip(self, axis: int) -> np.ndarray:
        """Node permutation of the reflection of coordinate ``axis``; the mask
        must be symmetric under it."""
        k = self.mask.ndim - 1 - axis
        if not np.array_equal(self.mask, np.flip(self.mask, k)):
            raise ValueError("mask is not symmetric under this flip")
        return np.flip(self.image(np.arange(self.n_nodes)), k)[self.mask]

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
    axes = [(np.arange(-k, k) + 0.5) * h for k in m]         # cell centers along x, y
    coords = np.meshgrid(*axes[::-1], indexing="ij")[::-1]  # x, y on the (y, x) array
    inside = contains_rows(body2d, np.column_stack([c.ravel() for c in coords]))
    mask = inside.reshape(coords[0].shape)
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
    return GridDomain(body2d, h, mask, tuple(float(-k * h) for k in m), L)


def lowest_eigenpairs(grid: GridDomain, k: int) -> list[EigenPair]:
    """lambda_0 = 0 through lambda_k by shift-invert Lanczos on the sparse operator."""
    if not 1 <= k <= 10:
        raise ValueError("k must be between 1 and 10")
    L = grid.operator
    n = L.shape[0]
    bhw = float(np.max(grid.body.scale_array))
    shift = 0.5 * math.pi ** 2 / (4.0 * bhw ** 2)  # strictly between 0 and lambda_1
    v0 = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    vals, vecs = spl.eigsh(L, k=k + 1, sigma=shift, which="LM", v0=v0)
    order = np.argsort(vals)
    pairs = []
    for idx in order:
        lam = float(vals[idx])
        vec = vecs[:, idx]
        vec = vec / (np.linalg.norm(vec) * grid.h)  # L2(grid) normalization
        res = float(np.linalg.norm(L @ vec - lam * vec) * grid.h)
        pairs.append(EigenPair(lam, vec, res))
    return pairs


def lambda1_cluster(pairs: list[EigenPair]) -> list[EigenPair]:
    """The eigenpairs sharing the first nonzero eigenvalue."""
    lam1 = pairs[1].value
    return [p for p in pairs[1:] if abs(p.value - lam1) <= _REL_TOL * max(lam1, 1.0)]


def lambda1(body2d: BodySpec, h: float) -> float:
    """The first nonzero eigenvalue on the body's raster of spacing h."""
    return lowest_eigenpairs(rasterize(body2d, h), k=2)[1].value


class RichardsonResult(NamedTuple):
    h_values: tuple[float, ...]
    lambda1_values: tuple[float, ...]
    observed_order: float
    extrapolated: float


def richardson_lambda1(body2d: BodySpec, h_values) -> RichardsonResult:
    """lambda_1 on three grids with the order estimated from the differences."""
    hs = sorted((float(h) for h in h_values), reverse=True)
    if len(hs) != 3 or not math.isclose(hs[0], 2 * hs[1]) or not math.isclose(hs[1], 2 * hs[2]):
        raise ValueError("need three h values in ratio 4:2:1")
    lams = [lambda1(body2d, h) for h in hs]
    d1, d2 = lams[0] - lams[1], lams[1] - lams[2]
    order = math.log2(abs(d1 / d2)) if d2 != 0 else float("inf")
    extrap = lams[2] + (lams[2] - lams[1]) / (2.0 ** order - 1.0) if math.isfinite(order) else lams[2]
    return RichardsonResult(tuple(hs), tuple(lams), order, extrap)


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


# -- symmetry structure --------------------------------------------------------------

class SymmetryReport(NamedTuple):
    axis: int                 # axis index with the antisymmetric member
    defect: float             # ||sigma_i phi + phi|| / ||phi||
    member: np.ndarray
    central_defect: float     # odd-under-point-reflection member, when central
    passed: bool


def symmetry_detect(grid: GridDomain, eigenspace: list[EigenPair]) -> SymmetryReport:
    """Find an eigenspace member odd under some coordinate flip.

    The eigenvectors are post-rotated to diagonalize the flip operators inside
    the (possibly degenerate) eigenspace; never passes silently, the defect is
    always measured and reported.
    """
    V = np.column_stack([p.vector for p in eigenspace])
    Q, _ = np.linalg.qr(V)
    best = None
    perms = {a: grid.flip(a) for a in range(grid.mask.ndim)}
    for axis, perm in perms.items():
        S = Q.T @ Q[perm]
        evals, evecs = np.linalg.eigh(0.5 * (S + S.T))
        w = evecs[:, 0]  # most negative eigenvalue ~ -1 when a flip-odd member exists
        member = Q @ w
        defect = float(np.linalg.norm(member[perm] + member) / np.linalg.norm(member))
        if best is None or defect < best[1]:
            best = (axis, defect, member)
    axis, defect, member = best
    # central point reflection = composition of the coordinate flips
    perm_c = np.arange(grid.n_nodes)
    for perm in perms.values():
        perm_c = perm_c[perm]
    S = Q.T @ Q[perm_c]
    evals, evecs = np.linalg.eigh(0.5 * (S + S.T))
    member_c = Q @ evecs[:, 0]
    central_defect = float(np.linalg.norm(member_c[perm_c] + member_c)
                           / np.linalg.norm(member_c))
    return SymmetryReport(axis, defect, member, central_defect, bool(defect <= SYMMETRY_TOL))


# -- bounding-cube comparison -----------------------------------------------------------

class CubeComparisonRow(NamedTuple):
    label: str
    lambda1: float
    passed: bool


class CubeComparisonReport(NamedTuple):
    lambda1_cube: float
    rows: tuple[CubeComparisonRow, ...]
    note: str


def cube_comparison(bodies: list[BodySpec]) -> CubeComparisonReport:
    """lambda_1(body) >= (1 - 2%) lambda_1([-R,R]^2) for bodies in the cube, R = 1.

    The cube eigenvalue is recorded as numerically observed; it agrees with the
    interval value pi^2/(4 R^2), which the note sets beside it because published
    statements of this comparison sometimes carry the constant pi^2/R^2.
    """
    lam_cube = lambda1(BodySpec.cube(2), _COMPARISON_H)
    rows = []
    for body in bodies:
        if np.any(body.scale_array > 1 + 1e-12):
            raise ValueError(f"{body.label()} is not contained in [-R, R]^2")
        lam = lambda1(body, _COMPARISON_H)
        rows.append(CubeComparisonRow(body.label(), lam,
                                      bool(lam >= lam_cube - _COMPARISON_TOL * lam_cube)))
    interval = math.pi ** 2 / 4.0
    note = (f"observed cube lambda1 {lam_cube:.6f} matches pi^2/(4R^2) = {interval:.6f}; "
            f"the constant pi^2/R^2 = {4 * interval:.6f} is 4x larger than observed")
    return CubeComparisonReport(lam_cube, tuple(rows), note)


class MonotonicityWitness(NamedTuple):
    lambda1_disc: float
    lambda1_subdomain: float
    subdomain: str


def domain_monotonicity_witness() -> MonotonicityWitness:
    """Convex subdomain of the unit disc with smaller lambda_1 than the disc.

    A thin inscribed rectangle has first eigenvalue ~ pi^2/(2 half-length)^2,
    below the disc value 3.39; domain monotonicity fails for the disc.
    """
    disc = BodySpec.euclidean_ball(2)
    rect = BodySpec("cube", 2, (0.9, 0.2))
    return MonotonicityWitness(lambda1(disc, _WITNESS_H), lambda1(rect, _WITNESS_H / 2),
                               "rectangle [-0.9,0.9]x[-0.2,0.2]")
