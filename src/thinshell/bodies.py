"""The unconditional convex bodies of the suites: the cube, the euclidean ball
and the lp ball, each with a per-axis scale.

A body is described declaratively by a canonical shape plus a per-axis diagonal
scaling.  Membership and isotropic rescaling are exact; every kind is invariant
under independent sign flips of the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

KINDS = ("cube", "euclidean_ball", "lp_ball")


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class BodySpec:
    """Canonical unconditional convex shape with per-axis positive scaling.

    Canonical shapes: cube = [-1,1]^n, euclidean_ball = unit euclidean ball,
    lp_ball = unit lp ball (p finite, p >= 1); each fits exactly in [-1,1]^n.
    ``scale`` multiplies coordinates after the canonical shape, so
    ``BodySpec("cube", 2, (0.9, 0.2))`` is the rectangle [-0.9,0.9]x[-0.2,0.2].
    """

    kind: str
    dim: int
    scale: tuple[float, ...]
    p: float | None = None

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
        if self.kind != "lp_ball" and self.p is not None:
            raise ValueError(f"p does not apply to kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def cube(dim: int, half_width: float = 1.0) -> "BodySpec":
        return BodySpec("cube", dim, (float(half_width),) * dim)

    @staticmethod
    def euclidean_ball(dim: int) -> "BodySpec":
        return BodySpec("euclidean_ball", dim, (1.0,) * dim)

    @staticmethod
    def lp_ball(dim: int, p: float) -> "BodySpec":
        return BodySpec("lp_ball", dim, (1.0,) * dim, p=float(p))

    # -- properties ---------------------------------------------------------

    @property
    def scale_array(self) -> np.ndarray:
        """Per-axis scale, also the half widths of the smallest centered box
        containing the body."""
        return np.asarray(self.scale, dtype=float)

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


def contains_rows(body: BodySpec, rows: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Closed membership of each row of an N x dim array; boundary points
    count as inside."""
    z = _canonical(body, rows)
    if body.kind == "cube":
        return np.max(np.abs(z), axis=1) <= 1.0 + atol
    if body.kind == "euclidean_ball":
        return np.einsum("ij,ij->i", z, z) <= 1.0 + atol
    return np.sum(np.abs(z) ** body.p, axis=1) <= 1.0 + atol


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
    """Per-axis E X_j^2 of the uniform law, in closed form for every kind.

    For the unit lp ball in R^n (Barthe, Guedon, Mendelson and Naor, Ann.
    Probab. 2005)

        E X_1^2 = Gamma(3/p) Gamma(1 + n/p) / (Gamma(1/p) Gamma(1 + (n+2)/p)),

    evaluated through lgamma; p = 1 and 2 keep their exact rational forms.
    """
    n = body.dim
    s2 = body.scale_array ** 2
    if body.kind == "cube":
        return s2 / 3.0
    if body.kind == "euclidean_ball" or body.p == 2:
        return s2 / (n + 2.0)
    if body.p == 1:
        return s2 * 2.0 / ((n + 1.0) * (n + 2.0))
    p = body.p
    return s2 * math.exp(math.lgamma(3.0 / p) + math.lgamma(1.0 + n / p)
                         - math.lgamma(1.0 / p) - math.lgamma(1.0 + (n + 2.0) / p))


def isotropic_body(kind: str, dim: int, p: float | None = None) -> BodySpec:
    """Canonical body of the given kind rescaled to E X_j^2 = 1 analytically."""
    base = BodySpec(kind, dim, (1.0,) * dim, p)
    return isotropic_scale(base, analytic_second_moments(base))
