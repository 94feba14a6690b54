"""Unconditional convex bodies and the axis-segment density used as a CLT counterexample.

A body is described declaratively by a canonical shape plus a per-axis diagonal
scaling.  Membership, axis sections and isotropic rescaling are exact; every
supported kind is invariant under independent sign flips of the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

KINDS = ("cube", "euclidean_ball", "lp_ball", "product_of_intervals", "counterexample_cross")


class DimensionMismatchError(ValueError):
    pass


class EmptySectionError(ValueError):
    """The projection of the query point lies outside the projected body."""


@dataclass(frozen=True)
class AxisSection:
    """Closed segment of admissible i-th coordinates at a fixed projection."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"section endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)


@dataclass(frozen=True)
class BodySpec:
    """Canonical unconditional shape with per-axis positive scaling.

    Canonical shapes: cube = [-1,1]^n, euclidean_ball / lp_ball = unit ball,
    product_of_intervals = box with given half widths, counterexample_cross =
    union of axis segments of half-length sqrt(3n) (a density support, not a
    convex body).  ``scale`` multiplies coordinates after the canonical shape.
    """

    kind: str
    dim: int
    scale: tuple[float, ...]
    p: float | None = None
    half_widths: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown body kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if len(self.scale) != self.dim:
            raise DimensionMismatchError("scale length must equal dim")
        if any(s <= 0 for s in self.scale):
            raise ValueError("scale entries must be strictly positive")
        if self.kind == "lp_ball" and not (self.p is not None and 1 <= self.p < math.inf):
            raise ValueError(f"lp_ball requires a finite p >= 1, got {self.p!r} "
                             f"(p = inf is the cube)")
        if self.kind == "product_of_intervals":
            if self.half_widths is None or len(self.half_widths) != self.dim:
                raise DimensionMismatchError("product_of_intervals requires dim half_widths")
            if any(w <= 0 for w in self.half_widths):
                raise ValueError("half_widths must be strictly positive")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def cube(dim: int, half_width: float = 1.0) -> "BodySpec":
        return BodySpec("cube", dim, (float(half_width),) * dim)

    @staticmethod
    def euclidean_ball(dim: int, radius: float = 1.0) -> "BodySpec":
        return BodySpec("euclidean_ball", dim, (float(radius),) * dim)

    @staticmethod
    def lp_ball(dim: int, p: float, radius: float = 1.0) -> "BodySpec":
        return BodySpec("lp_ball", dim, (float(radius),) * dim, p=float(p))

    @staticmethod
    def product_of_intervals(half_widths) -> "BodySpec":
        hw = tuple(float(w) for w in half_widths)
        return BodySpec("product_of_intervals", len(hw), (1.0,) * len(hw), half_widths=hw)

    @staticmethod
    def counterexample_cross(dim: int) -> "BodySpec":
        return BodySpec("counterexample_cross", dim, (1.0,) * dim)

    # -- properties ---------------------------------------------------------

    @property
    def is_convex(self) -> bool:
        return self.kind != "counterexample_cross"

    @property
    def scale_array(self) -> np.ndarray:
        return np.asarray(self.scale, dtype=float)

    def bounding_half_widths(self) -> np.ndarray:
        """Per-axis half widths of the smallest centered box containing the body."""
        s = self.scale_array
        if self.kind == "product_of_intervals":
            return s * np.asarray(self.half_widths)
        if self.kind == "counterexample_cross":
            return s * math.sqrt(3 * self.dim)
        return s.copy()

    def label(self) -> str:
        if self.kind == "lp_ball":
            return f"lp_ball(p={self.p:g},n={self.dim})"
        return f"{self.kind}(n={self.dim})"


def label_family(label: str) -> str:
    """A body label without its dimension: ``lp_ball(p=1,n=16)`` gives
    ``lp_ball(p=1)`` and ``cube(n=16)`` gives ``cube``."""
    head = label[:label.rindex("n=")].rstrip(",")
    return head[:-1] if head.endswith("(") else head + ")"


def _canonical(body: BodySpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != body.dim:
        raise DimensionMismatchError(f"point has dim {x.shape[-1]}, body has dim {body.dim}")
    return x / body.scale_array


def contains(body: BodySpec, x, atol: float = 0.0) -> bool:
    """Closed membership test; boundary points count as inside.

    For counterexample_cross this is support membership only (the support has
    measure zero; sampling is done directly and never relies on this test).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError("contains expects a single point")
    if body.is_convex:
        return bool(contains_rows(body, x[None], atol)[0])
    z = _canonical(body, x)
    # counterexample_cross: at most one nonzero coordinate, within the segment
    nz = np.flatnonzero(z != 0.0)
    if nz.size == 0:
        return True
    if nz.size > 1:
        return False
    return bool(abs(z[nz[0]]) <= math.sqrt(3 * body.dim) + atol)


def contains_rows(body: BodySpec, rows: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Vectorized membership for an N x dim array (convex kinds only)."""
    z = _canonical(body, rows)
    if body.kind == "cube":
        return np.max(np.abs(z), axis=1) <= 1.0 + atol
    if body.kind == "euclidean_ball":
        return np.einsum("ij,ij->i", z, z) <= 1.0 + atol
    if body.kind == "lp_ball":
        return np.sum(np.abs(z) ** body.p, axis=1) <= 1.0 + atol
    if body.kind == "product_of_intervals":
        return np.all(np.abs(z) <= np.asarray(body.half_widths) + atol, axis=1)
    raise ValueError(f"no vectorized membership for kind {body.kind!r}")


def axis_section(body: BodySpec, x, i: int) -> AxisSection:
    """Admissible i-th coordinates {t : x with x_i := t stays in the body}.

    Unconditional bodies always yield a symmetric segment [-a, a].  Raises
    EmptySectionError when the projection of x falls outside the projected body.
    """
    if not body.is_convex:
        raise ValueError("axis_section is defined for convex kinds only")
    z = _canonical(body, x)
    if z.ndim != 1:
        raise DimensionMismatchError("axis_section expects a single point")
    if not 0 <= i < body.dim:
        raise IndexError(f"axis index {i} out of range for dim {body.dim}")
    s_i = body.scale[i]
    if body.kind == "cube":
        return AxisSection(-s_i, s_i)
    if body.kind == "product_of_intervals":
        others = np.delete(np.abs(z), i) <= np.delete(np.asarray(body.half_widths), i)
        if not np.all(others):
            raise EmptySectionError("projected point outside projected box")
        a = body.half_widths[i] * s_i
        return AxisSection(-a, a)
    if body.kind == "euclidean_ball":
        rest = z @ z - z[i] ** 2
        if rest > 1.0 + 1e-12:
            raise EmptySectionError("projected point outside projected ball")
        a = s_i * math.sqrt(max(0.0, 1.0 - rest))
        return AxisSection(-a, a)
    # lp_ball
    rest = np.sum(np.abs(np.delete(z, i)) ** body.p)
    if rest > 1.0 + 1e-12:
        raise EmptySectionError("projected point outside projected lp ball")
    a = s_i * max(0.0, 1.0 - rest) ** (1.0 / body.p)
    return AxisSection(-a, a)


def isotropic_scale(body: BodySpec, second_moments) -> BodySpec:
    """Rescale axis j by 1/sqrt(second_moments_j) so E X_j^2 becomes 1."""
    m = np.asarray(second_moments, dtype=float)
    if m.shape != (body.dim,):
        raise DimensionMismatchError("second_moments length must equal dim")
    if np.any(m <= 0):
        raise ValueError("second moments must be strictly positive")
    new_scale = tuple(s / math.sqrt(mj) for s, mj in zip(body.scale, m))
    return replace(body, scale=new_scale)


def analytic_second_moments(body: BodySpec) -> np.ndarray:
    """Per-axis E X_j^2 of the uniform law (or of the counterexample density),
    in closed form for every supported kind.

    For the unit lp ball in R^n (Barthe, Guedon, Mendelson and Naor, Ann.
    Probab. 2005)

        E X_1^2 = Gamma(3/p) Gamma(1 + n/p) / (Gamma(1/p) Gamma(1 + (n+2)/p)),

    evaluated through lgamma; p = 1 and 2 keep their exact rational forms.
    """
    n = body.dim
    s2 = body.scale_array ** 2
    if body.kind in ("cube",):
        return s2 / 3.0
    if body.kind == "product_of_intervals":
        return s2 * np.asarray(body.half_widths) ** 2 / 3.0
    if body.kind == "euclidean_ball":
        return s2 / (n + 2.0)
    if body.kind == "counterexample_cross":
        return s2.copy()
    if body.kind == "lp_ball":
        if body.p == 2:
            return s2 / (n + 2.0)
        if body.p == 1:
            return s2 * 2.0 / ((n + 1.0) * (n + 2.0))
        p = body.p
        return s2 * math.exp(math.lgamma(3.0 / p) + math.lgamma(1.0 + n / p)
                             - math.lgamma(1.0 / p) - math.lgamma(1.0 + (n + 2.0) / p))
    raise ValueError(f"unknown kind {body.kind!r}")


def isotropic_body(kind: str, dim: int, p: float | None = None) -> BodySpec:
    """Canonical body of the given kind rescaled to E X_j^2 = 1 analytically."""
    if kind == "cube":
        base = BodySpec.cube(dim)
    elif kind == "euclidean_ball":
        base = BodySpec.euclidean_ball(dim)
    elif kind == "lp_ball":
        base = BodySpec.lp_ball(dim, p)
    else:
        raise ValueError(f"no canonical isotropic form for kind {kind!r}")
    return isotropic_scale(base, analytic_second_moments(base))

