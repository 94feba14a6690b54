"""Monte Carlo estimators for variance, moment and distance quantities of
isotropic unconditional laws, with 3-sigma confidence half-widths.

The thin-shell estimators take per-draw values (|X|^2, sum a_i X_i^2), which
the thinshell suite reduces from each sample block as it is drawn, so no
N x n sample matrix is needed.  All reductions use numpy's fixed-order
pairwise summation, so estimates from identical draws are bit-identical
across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .sampler import SampleMatrix

_DK_ALPHA = 0.01         # level of the DKW band
_SIMPSON_TOL = 0.5e-12   # per integral: half the 1e-12 tolerance of each identity
_SIMPSON_DEPTH = 60      # recursion limit of the adaptive Simpson rule


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 3-sigma Monte Carlo half-width."""

    value: float
    half_width: float
    count: int
    estimator_id: str
    degenerate: bool = False  # all-equal input, half_width forced to 0

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be nonnegative")


class WeightKind:
    DIRECTION = "direction"
    COEFFICIENTS = "coefficients"
    EXPONENTS = "exponents"


@dataclass(frozen=True)
class WeightVector:
    """Validated weights: a unit direction, nonnegative coefficients, or
    strictly positive exponents."""

    entries: tuple[float, ...]
    kind: str

    def __post_init__(self):
        e = np.asarray(self.entries)
        if self.kind == WeightKind.DIRECTION:
            if abs(e @ e - 1.0) > 1e-12:
                raise ValueError("direction weights must satisfy sum(theta^2) = 1 within 1e-12")
        elif self.kind == WeightKind.COEFFICIENTS:
            if np.any(e < 0):
                raise ValueError("coefficient weights must be nonnegative")
        elif self.kind == WeightKind.EXPONENTS:
            if np.any(e <= 0):
                raise ValueError("exponent weights must be strictly positive")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @staticmethod
    def direction(entries) -> "WeightVector":
        e = np.asarray(entries, dtype=float)
        return WeightVector(tuple(e), WeightKind.DIRECTION)

    @staticmethod
    def uniform_direction(n: int) -> "WeightVector":
        e = np.full(n, 1.0 / math.sqrt(n))
        e[0] = math.sqrt(1.0 - float(e[1:] @ e[1:]))  # exact unit norm
        return WeightVector(tuple(e), WeightKind.DIRECTION)

    @staticmethod
    def coefficients(entries) -> "WeightVector":
        return WeightVector(tuple(np.asarray(entries, dtype=float)), WeightKind.COEFFICIENTS)

    @staticmethod
    def exponents(entries) -> "WeightVector":
        return WeightVector(tuple(np.asarray(entries, dtype=float)), WeightKind.EXPONENTS)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.entries)


# -- variance with CI ---------------------------------------------------------

def _variance_estimate(y: np.ndarray, estimator_id: str) -> EstimateWithCI:
    """Sample variance of y with a 3-sigma half-width.

    Uses the asymptotic normal error sqrt((m4 - s^4)/N) from the sample fourth
    moment for N >= 1e4 and a delete-1 jackknife for smaller N.
    """
    n = y.size
    if n < 2:
        raise ValueError("variance needs at least 2 samples")
    mean = y.mean()
    d = y - mean
    d2 = d * d
    sum_d2 = float(np.sum(d2))
    s2 = sum_d2 / (n - 1)
    if s2 == 0.0:
        return EstimateWithCI(0.0, 0.0, n, estimator_id, degenerate=True)
    if n >= 10 ** 4:
        m4 = float(np.sum(d2 * d2)) / n
        var_of_var = max(m4 - s2 * s2, 0.0) / n
    else:
        # closed-form delete-1 jackknife of the unbiased variance
        s2_loo = (sum_d2 - d2 * n / (n - 1)) / (n - 2)
        var_of_var = (n - 1) / n * float(np.sum((s2_loo - s2_loo.mean()) ** 2))
    return EstimateWithCI(s2, 3.0 * math.sqrt(var_of_var), n, estimator_id)


def _mean_estimate(y: np.ndarray, estimator_id: str) -> EstimateWithCI:
    n = y.size
    se = float(y.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return EstimateWithCI(float(y.mean()), 3.0 * se, n, estimator_id,
                          degenerate=(se == 0.0 and n > 1))


# -- shell statistics ---------------------------------------------------------

class ThinShellStats(NamedTuple):
    var_ratio: EstimateWithCI   # Var(|X|^2 / n)
    shell_dev: EstimateWithCI   # E(|X| - sqrt(n))^2


def thin_shell_stats(sq: np.ndarray, n: int) -> ThinShellStats:
    """Shell statistics from the squared norms |X|^2 of N draws in R^n."""
    if sq.size < 100:
        raise ValueError("thin_shell_stats needs N >= 100")
    var_ratio = _variance_estimate(sq / n, "thin_shell.var_ratio")
    dev = (np.sqrt(sq) - math.sqrt(n)) ** 2
    shell_dev = _mean_estimate(dev, "thin_shell.shell_dev")
    return ThinShellStats(var_ratio, shell_dev)


class BoundedEstimate(NamedTuple):
    estimate: EstimateWithCI
    bound: float


def weighted_square_variance(y: np.ndarray, a: WeightVector) -> BoundedEstimate:
    """Var(sum a_i X_i^2) from its per-draw values y, together with the
    comparison bound 16 sum a_i^2."""
    if a.kind != WeightKind.COEFFICIENTS:
        raise ValueError("weighted_square_variance expects coefficient weights")
    av = a.array
    if np.all(av == 0.0):
        est = EstimateWithCI(0.0, 0.0, y.size, "weighted_square_variance", degenerate=True)
    else:
        est = _variance_estimate(y, "weighted_square_variance")
    return BoundedEstimate(est, 16.0 * float(av @ av))


def power_sum_variance(samples: SampleMatrix, a: WeightVector, p: WeightVector) -> BoundedEstimate:
    """Var(sum a_i |X_i|^{p_i}) with the bound sum (2 p_i^2/(p_i+1)) a_i^2 E|X_i|^{2 p_i},
    the expectation estimated from the same sample."""
    if a.kind != WeightKind.COEFFICIENTS or p.kind != WeightKind.EXPONENTS:
        raise ValueError("power_sum_variance expects coefficients a and exponents p")
    av, pv = a.array, p.array
    if av.size != samples.dim or pv.size != samples.dim:
        raise ValueError("weight length mismatch")
    if np.any(pv > 32):
        raise ValueError("exponents above 32 are rejected (overflow guard)")
    absx = np.abs(samples.data)
    y = (absx ** pv) @ av
    est = _variance_estimate(y, "power_sum_variance")
    mom2p = np.mean(absx ** (2.0 * pv), axis=0)
    bound = float(np.sum(2.0 * pv ** 2 / (pv + 1.0) * av ** 2 * mom2p))
    return BoundedEstimate(est, bound)


# -- Kolmogorov distance ------------------------------------------------------

class KolmogorovResult(NamedTuple):
    distance: float
    dkw_band: float


def dkw_band(count: int) -> float:
    return math.sqrt(math.log(2.0 / _DK_ALPHA) / (2.0 * count))


def kolmogorov_distance(values: np.ndarray,
                        reference_cdf: Callable[[np.ndarray], np.ndarray]) -> KolmogorovResult:
    """sup_t |F_hat(t) - F(t)| evaluated exactly at the empirical jump points."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("values must be nonempty")
    if np.any(np.isnan(v)):
        raise ValueError("NaN in values")
    v = np.sort(v)
    n = v.size
    ref = np.asarray(reference_cdf(v), dtype=float)
    upper = np.arange(1, n + 1) / n - ref     # gap just after each jump
    lower = ref - np.arange(0, n) / n         # gap just before each jump
    dist = float(max(upper.max(), lower.max(), 0.0))
    return KolmogorovResult(dist, dkw_band(n))


class ScalingFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def scaling_fit(points) -> ScalingFit:
    """Least-squares fit of log(value) against log(n) over (n, value) pairs."""
    pts = [(float(n), float(v)) for n, v in points]
    if len({n for n, _ in pts}) < 3:
        raise ValueError("scaling_fit needs at least 3 distinct n values")
    if any(v <= 0 for _, v in pts):
        raise ValueError("scaling_fit needs positive values")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(resid @ resid) / ss_tot
    return ScalingFit(float(slope), float(intercept), r2)


# -- deterministic quadrature identities ---------------------------------------

def _adaptive_simpson(f, a: float, b: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
                + recurse(m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))

    return recurse(a, fa, b, fb, m, fm, whole, _SIMPSON_TOL, _SIMPSON_DEPTH)


class IdentityValues(NamedTuple):
    lhs217: float
    rhs217: float
    lhs333: float
    rhs333: float


def verify_identities(a: float, p: float, r: float) -> IdentityValues:
    """Quadrature values of the two segment identities for |t|^p profiles.

    lhs217 = int_{-r}^{r} (a|t|^p - a r^p)^2 dt, rhs217 = (2p^2/(p+1)) int (a|t|^p)^2 dt,
    lhs333 = int (2 a r^p)^2 dt, rhs333 = 4(2p+1) int (a|t|^p)^2 dt.
    The integrands are even with a kink at 0, so integrate on [0, r] and double.
    """
    if a < 0 or p < 0 or r < 0:
        raise ValueError("a, p, r must be nonnegative")
    if r == 0:
        return IdentityValues(0.0, 0.0, 0.0, 0.0)

    def tp(t):
        return 1.0 if (p == 0) else t ** p

    rp = tp(r)
    lhs217 = 2.0 * _adaptive_simpson(lambda t: (a * tp(t) - a * rp) ** 2, 0.0, r)
    ipp = 2.0 * _adaptive_simpson(lambda t: (a * tp(t)) ** 2, 0.0, r)
    rhs217 = 2.0 * p * p / (p + 1.0) * ipp
    lhs333 = 2.0 * r * (2.0 * a * rp) ** 2
    rhs333 = 4.0 * (2.0 * p + 1.0) * ipp
    return IdentityValues(lhs217, rhs217, lhs333, rhs333)


IDENTITY_GRID = tuple((a, p, a) for a in (0.5, 1.0, 2.0) for p in (0.5, 1.0, 2.0, 3.0))
"""Canonical 12-point (a, p, r) grid with r = a."""
