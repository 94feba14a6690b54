"""Neumann Laplacian on cut-cell rasters of 2D convex bodies: its flip classes,
lowest eigenpairs and the gradient bias of the first nontrivial eigenspace.

Discretization: a cell-centered raster whose nodes are the cells the body
meets.  Each node carries its volume fraction alpha (the share of the cell
inside the body) and each face between two nodes its aperture (the share of
the face inside the body), both in closed form from one incomplete-beta
primitive for the cube and every lp ball (``_orthant_cut_cells``).  The
operator K is the graph Laplacian with edge weights aperture / h^2, symmetric
with the constants in its kernel by construction; the cells carry the measure
alpha h^2, so the eigenproblem is K phi = lambda diag(alpha) phi (a finite-volume
cut-cell scheme after Johansen and Colella, J. Comput. Phys. 147, 1998).  With
every fraction 1, as on a cube whose half-widths are multiples of h, this is
the 5-point Neumann Laplacian.

The bodies are unconditional, so the weights are computed on one orthant and
mirrored: the operator commutes exactly with the d coordinate flips and splits
into 2^d flip classes (``GridDomain.flip_class``).  A body with equal
half-widths is also symmetric under the swap x <-> y: its fractions are
computed on one triangle of the orthant and mirrored across the diagonal, and
each node's degree adds its two upper and its two lower edge weights before the
two sums (``graph_laplacian``), so its raster commutes exactly with the swap
(``GridDomain.swap``).  The swap maps the class
odd in x alone onto the class odd in y alone, so ``class_eigenpairs`` solves 3
of the 4 classes of such a raster and takes the 4th from its twin.

Every lattice solve goes through one sparse factorization, ``factorize``: the
eigen solves here factor a class operator minus a shift times its mass with it,
and run ARPACK's standard shift-invert mode on M^-1/2 K M^-1/2 through that LU;
the Lemma 2.1 solves in ``transport`` factor an odd class operator, the 1D H^-1
solves a grounded one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .bodies import BodySpec

_REL_TOL = 1e-6  # relative width of an eigenvalue cluster and cut of the bias rank
EIGENPAIRS = 5   # pairs of each eigen solve: the constant mode, lambda_1 and above
# a volume fraction below this is the rounding of a cell that the boundary only
# touches: at h = 1/48 the l1 ball's diagonal passes a corner 5e-30 off
_SLIVER = 1e-12


class TooCoarseGridError(ValueError):
    pass


class InvalidSpacingError(ValueError):
    """A raster spacing h that is not a finite positive number."""


class NotConvergingError(ValueError):
    """Three lambda_1 values whose differences do not shrink with one sign,
    where Richardson extrapolation has no order to estimate."""


def _neighbors(k: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slices of each cell and of its successor along array axis k."""
    head = (slice(None),) * k
    return head + (slice(None, -1),), head + (slice(1, None),)


@dataclass(frozen=True)
class GridDomain:
    """The raster of a body.  Array axis ``ndim - 1 - i`` of ``mask`` runs
    along coordinate i, so a 2D mask is indexed (y, x), and the nodes are its
    True cells, the cells that the body meets, in row-major order."""

    body: BodySpec
    h: float
    mask: np.ndarray   # over a box centered on the origin, 2 m_k cells along array axis k
    operator: sp.csr_matrix = field(repr=False)
    alpha: np.ndarray = field(repr=False)  # volume fraction of each node, in (0, 1]

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

    def swap(self) -> np.ndarray:
        """Node permutation of the swap x <-> y of a 2D raster; the mask must
        be symmetric under it."""
        if not np.array_equal(self.mask, self.mask.T):
            raise ValueError("mask is not symmetric under the swap x <-> y")
        return self.image(np.arange(self.n_nodes)).T[self.mask]

    @property
    def swap_symmetric(self) -> bool:
        """Whether alpha and the operator commute exactly with ``swap``, as
        ``rasterize`` builds them for a body with equal half-widths."""
        scale = self.body.scale_array
        return bool(scale[0] == scale[1])

    def flip_class(self, odd: tuple[bool, ...]) -> tuple[np.ndarray, sp.csr_matrix]:
        """The positive-orthant nodes and the parity extension E from them to
        the whole raster, odd across the plane x_i = 0 where odd[i], else even.
        The class operator (operator @ E)[nodes] is the orthant Laplacian plus
        twice the edge weight across the plane of each odd axis, aperture / h^2,
        on the cells next to it."""
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
        the edge of the raster, 0 along an axis where the cell has neither.
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
    """Weighted graph Laplacian: quadratic form sum_e w_e (phi_src - phi_dst)^2.

    A node's degree is the sum of its edges as src plus the sum of its edges
    as dst.  On a raster each node is the src of at most one edge per axis
    (to its upper neighbor) and the dst of at most one (from its lower one),
    so each partial sum adds at most two weights, one per axis: the swap
    x <-> y exchanges them, and the degree keeps its bits."""
    deg = (np.bincount(src, weights=edge_weights, minlength=n_nodes)
           + np.bincount(dst, weights=edge_weights, minlength=n_nodes))
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
    vector: np.ndarray   # on nodes, normalized in L2(alpha h^2)
    residual: float


def _boundary(p: float | None):
    """The canonical 2D body's boundary v = H(u) over u >= 0 and the primitive
    F(x) = int_0^x H on [0, 1], by lp exponent p (None: the cube, H a step).  For
    H = (1 - u^p)^(1/p), t = u^p gives F(x) = (1/p) B(1/p, 1 + 1/p) I_{x^p}(1/p, 1 + 1/p).
    Each body is symmetric under u <-> v, so H is its own inverse: u <= H(v) iff v <= H(u)."""
    if p is None:
        return (lambda u: np.where(u <= 1.0, 1.0, 0.0)), (lambda x: np.minimum(x, 1.0))
    from scipy.special import beta, betainc

    s = 1.0 / p
    quarter = s * beta(s, 1.0 + s)  # F(1), a quarter of the body's area
    return (lambda u: np.maximum(1.0 - u ** p, 0.0) ** s,
            lambda x: quarter * betainc(s, 1.0 + s, x ** p))


def _orthant_cut_cells(body2d: BodySpec, h: float, m: list[int]):
    """Volume fractions of the m_y x m_x positive-orthant cells, and the
    apertures of the faces normal to x at x = 0, h, ..., (m_x - 1) h (over each
    row of cells) and normal to y at y = 0, h, ..., (m_y - 1) h (over each
    column), all indexed (y, x).

    In the canonical coordinates u = x / scale_x, v = y / scale_y, a cell
    [u0, u1] x [v0, v1] meets the body in {v <= H(u)}.  Its columns are full for
    u <= a = H(v1) and empty for u >= b = H(v0), each clipped to [u0, u1], so its
    area is (a - u0) dv + F(b) - F(a) - (b - a) v0 (``_boundary``), with F taken
    on the cut cells (a < b) only.  A cell inside the body gets exactly 1, one
    outside exactly 0, and so does a sliver below ``_SLIVER``; rounding above 1
    is cut.
    """
    H, F = _boundary(body2d.exponent)
    U, V = (np.arange(k + 1) * h / s for k, s in zip(m, body2d.scale_array))
    u0, u1, du = U[:-1], U[1:], np.diff(U)
    v0, v1, dv = V[:-1, None], V[1:, None], np.diff(V)[:, None]
    a, b = np.clip(H(v1), u0, u1), np.clip(H(v0), u0, u1)
    area = (a - u0) * dv
    cut = a < b
    a, b, v = a[cut], b[cut], np.broadcast_to(v0, cut.shape)[cut]
    area[cut] += F(b) - F(a) - (b - a) * v
    alpha = np.minimum(area / (du * dv), 1.0)
    alpha[alpha < _SLIVER] = 0.0
    if body2d.scale_array[0] == body2d.scale_array[1]:
        # the body is symmetric under u <-> v: keep the cells with y >= x, where
        # the boundary is no steeper than the diagonal, and mirror them
        alpha = np.where(np.tri(*alpha.shape, dtype=bool), alpha, alpha.T)
    across_x = np.clip(H(u0) - v0, 0.0, dv) / dv
    across_y = np.clip(H(v0) - u0, 0.0, du) / du
    return alpha, across_x, across_y


def _mirror(orthant: np.ndarray, shared: int | None = None) -> np.ndarray:
    """The positive-orthant array reflected across every array axis.  Along
    array axis ``shared`` it holds faces, whose first one lies on the plane
    through the origin and is not repeated."""
    for k in range(orthant.ndim):
        head = orthant[(slice(None),) * k + (slice(1, None),)] if k == shared else orthant
        orthant = np.concatenate([np.flip(head, k), orthant], axis=k)
    return orthant


def rasterize(body2d: BodySpec, h: float) -> GridDomain:
    """Cut-cell raster of a 2D body on a symmetric cell-centered grid.

    The grid is symmetric about the origin (centers at +-(k+1/2)h), and the
    fractions and apertures of one orthant are mirrored to the others, so the
    raster of an unconditional body is exactly flip-symmetric, and with equal
    half-widths exactly swap-symmetric.  Any 2D body: the cube at any
    half-widths, every lp ball (p >= 1) at any scale.  An h that is not finite
    and positive raises InvalidSpacingError.
    """
    if body2d.dim != 2:
        raise ValueError("rasterize expects a 2D body")
    if not (math.isfinite(h) and h > 0.0):
        raise InvalidSpacingError(f"raster spacing must be finite and positive, got {h!r}")
    m = [int(math.ceil(b / h)) for b in body2d.scale_array]
    if min(m) * 2 < 32:
        raise TooCoarseGridError(f"grid too coarse: {2 * min(m)} cells per axis, need >= 32")
    alpha, across_x, across_y = _orthant_cut_cells(body2d, h, m)
    alpha = _mirror(alpha)
    apertures = {1: _mirror(across_x, shared=1), 0: _mirror(across_y, shared=0)}  # by array axis
    mask = alpha > 0.0
    node = np.cumsum(mask).reshape(mask.shape) - 1  # the node number on True cells
    src, dst, faces = [], [], []
    for k in reversed(range(mask.ndim)):  # the edges along x, then along y
        lo, hi = _neighbors(k)
        both = mask[lo] & mask[hi] & (apertures[k] > 0.0)
        src.append(node[lo][both])
        dst.append(node[hi][both])
        faces.append(apertures[k][both])
    src, dst = np.concatenate(src), np.concatenate(dst)
    L = graph_laplacian(int(mask.sum()), src, dst, np.concatenate(faces) / (h * h))
    if sp.csgraph.connected_components(L, directed=False, return_labels=False) != 1:
        raise ValueError("rasterized body is not connected at this h")
    return GridDomain(body2d, h, mask, L, alpha[mask])


def lowest_eigenpairs(grid: GridDomain, odd: tuple[bool, ...] | None = None) -> list[EigenPair]:
    """The EIGENPAIRS lowest eigenpairs of K phi = lambda M phi, M = diag(alpha),
    in the flip class ``odd``, or on the whole raster when odd is None.

    Shift-invert Lanczos on the standard symmetric problem for
    M^-1/2 K M^-1/2, whose operator x -> M^1/2 (A - shift M)^-1 M^1/2 x is one
    solve with the LU of A - shift M from ``factorize``: ARPACK's standard mode
    needs no product with M.  Each vector is mapped back by M^-1/2, extended to
    the whole raster and normalized in L2(alpha h^2); each residual is the
    L2(alpha h^2) norm of M^-1 K phi - lambda phi, taken against the whole
    operator."""
    nodes, E = (grid.flip_class(odd) if odd is not None
                else (slice(None), sp.identity(grid.n_nodes, format="csr")))
    A = (grid.operator @ E)[nodes]
    mass = grid.alpha[nodes]
    n = A.shape[0]
    bhw = float(np.max(grid.body.scale_array))
    shift = 0.5 * math.pi ** 2 / (4.0 * bhw ** 2)  # strictly between 0 and lambda_1
    v0 = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    lu = factorize(A - shift * sp.diags(mass))
    root = np.sqrt(mass)
    # in shift-invert mode eigsh applies only OPinv; the standard operator is
    # passed for its shape and what it stands for
    standard = spl.LinearOperator(A.shape, matvec=lambda y: (A @ (y / root)) / root,
                                  dtype=A.dtype)
    vals, vecs = spl.eigsh(standard, k=EIGENPAIRS, sigma=shift, which="LM", v0=v0,
                           OPinv=spl.LinearOperator(A.shape, dtype=A.dtype,
                                                    matvec=lambda y: root * lu.solve(root * y)))
    return [_extended_pair(grid, E, float(vals[idx]), vecs[:, idx] / root)
            for idx in np.argsort(vals)]


def _extended_pair(grid: GridDomain, E: sp.csr_matrix, lam: float,
                   phi: np.ndarray) -> EigenPair:
    """(lam, E phi), normalized in L2(alpha h^2), with its residual against the
    whole operator."""
    vec = E @ phi
    vec = vec / (math.sqrt(_dot(vec, grid.alpha * vec)) * grid.h)
    r = grid.operator @ vec - lam * (grid.alpha * vec)
    res = math.sqrt(_dot(r, r / grid.alpha)) * grid.h
    return EigenPair(lam, vec, res)


def class_eigenpairs(grid: GridDomain) -> dict[tuple[bool, ...], list[EigenPair]]:
    """The EIGENPAIRS lowest eigenpairs of each flip class of a 2D raster, by parity
    (odd in x, odd in y) in the order (even, even), (even, odd), (odd, even),
    (odd, odd).

    On a swap-symmetric raster the swap x <-> y carries the class (even, odd)
    onto (odd, even), so that class is not solved: each twin vector, swapped,
    is restricted to the orthant and extended with the class's own parity, and
    its residual is taken anew against the whole operator."""
    classes = {}
    for odd in itertools.product((False, True), repeat=2):
        twin = classes.get(odd[::-1]) if grid.swap_symmetric else None
        if twin is None:
            classes[odd] = lowest_eigenpairs(grid, odd)
        else:
            nodes, E = grid.flip_class(odd)
            swap = grid.swap()
            classes[odd] = [_extended_pair(grid, E, p.value, p.vector[swap][nodes])
                            for p in twin]
    return classes


def lambda1_cluster(pairs: list[EigenPair]) -> list[EigenPair]:
    """The eigenpairs sharing the first nonzero eigenvalue."""
    if len(pairs) < 2:
        raise ValueError(f"lambda1_cluster needs two or more eigenpairs, got {len(pairs)}")
    lam1 = pairs[1].value
    return [p for p in pairs[1:] if abs(p.value - lam1) <= _REL_TOL * max(lam1, 1.0)]


class RichardsonResult(NamedTuple):
    h_values: tuple[float, ...]
    lambda1_values: tuple[float, ...]
    observed_order: float
    extrapolated: float


def richardson_lambda1(h_values, lambda1_values) -> RichardsonResult:
    """The order of lambda_1 estimated from its values on three grids, and
    the extrapolation to h = 0.  The differences d1 (coarse pair) and d2 (fine
    pair) must have one sign with |d1| > |d2|, else NotConvergingError: at
    d1/d2 <= 0 there is no order, and at 0 < d1/d2 <= 1 the order is not
    positive and the extrapolation divides by 2^order - 1 <= 0."""
    pairs = sorted(((float(h), float(lam)) for h, lam in
                    zip(h_values, lambda1_values, strict=True)), reverse=True)
    hs, lams = tuple(h for h, _ in pairs), tuple(lam for _, lam in pairs)
    if len(hs) != 3 or not math.isclose(hs[0], 2 * hs[1]) or not math.isclose(hs[1], 2 * hs[2]):
        raise ValueError("need three h values in ratio 4:2:1")
    if not all(map(math.isfinite, lams)):
        raise NotConvergingError(f"lambda_1 values {lams!r} are not all finite")
    d1, d2 = lams[0] - lams[1], lams[1] - lams[2]
    if d2 == 0 or d1 / d2 <= 1.0:
        raise NotConvergingError(f"differences {d1!r}, {d2!r} do not shrink with one sign")
    order = math.log2(d1 / d2)
    return RichardsonResult(hs, lams, order, lams[2] + (lams[2] - lams[1]) / (2.0 ** order - 1.0))


# -- gradient bias -----------------------------------------------------------------

def gradient_bias(grid: GridDomain, pair: EigenPair) -> np.ndarray:
    """Cell-summed discrete gradient integral (int dphi/dx, int dphi/dy, ...),
    each cell weighted by its measure alpha h^d."""
    cell = grid.h ** grid.mask.ndim
    return np.array([float(np.sum(g * grid.alpha) * cell) for g in grid.gradient(pair.vector)])


class BiasRankReport(NamedTuple):
    singular_values: tuple[float, ...]
    rank: int


def gradient_bias_rank(grid: GridDomain, eigenspace: list[EigenPair]) -> BiasRankReport:
    """Rank of phi -> int grad phi on the eigenspace (full rank = every nonzero
    member of some basis has a preferred direction)."""
    if not eigenspace:
        raise ValueError("gradient_bias_rank needs one or more eigenpairs")
    M = np.column_stack([gradient_bias(grid, p) for p in eigenspace])
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > _REL_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
    return BiasRankReport(tuple(float(s) for s in sv), rank)
