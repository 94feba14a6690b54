"""Monte Carlo estimators for variance, moment and distance quantities of
isotropic unconditional laws, with 3-sigma confidence half-widths, and the
closed-form segment identities behind the power-sum bound.

Every estimator takes plain float arrays: per-draw values (|X|^2,
sum a_i X_i^2, sum a_i |X_i|^{p_i}), which the suites reduce from each sample
block as it is drawn, so no N x n sample matrix is needed, and weight vectors
as numpy arrays.  All reductions use numpy's fixed-order pairwise summation,
so estimates from identical draws are bit-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_DK_ALPHA = 0.01         # level of the DKW band


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 3-sigma Monte Carlo half-width."""

    value: float
    half_width: float
    count: int
    estimator_id: str

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be nonnegative")


def uniform_direction(n: int) -> np.ndarray:
    """The unit vector with equal entries 1/sqrt(n), its first entry adjusted
    so that the norm is 1 to rounding."""
    e = np.full(n, 1.0 / math.sqrt(n))
    e[0] = math.sqrt(1.0 - float(e[1:] @ e[1:]))
    return e


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
    s2 = sum_d2 / (n - 1)  # all-equal y gives s2 = 0 and half-width 0 below
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
    return EstimateWithCI(float(y.mean()), 3.0 * se, n, estimator_id)


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


def _coefficients(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("coefficients must be nonnegative")
    return a


def weighted_square_variance(y: np.ndarray, a) -> BoundedEstimate:
    """Var(sum a_i X_i^2) from its per-draw values y, together with the
    comparison bound 16 sum a_i^2 for the coefficients a >= 0."""
    a = _coefficients(a)
    return BoundedEstimate(_variance_estimate(y, "weighted_square_variance"),
                           16.0 * float(a @ a))


def power_sum_variance(y: np.ndarray, moments, a, p) -> BoundedEstimate:
    """Var(sum a_i |X_i|^{p_i}) from its per-draw values y, together with the
    bound sum (2 p_i^2/(p_i+1)) a_i^2 E|X_i|^{2 p_i}, where ``moments`` holds
    the per-axis E|X_i|^{2 p_i}, for coefficients a >= 0 and exponents
    0 < p_i <= 32 (larger ones overflow |X_i|^{2 p_i})."""
    a = _coefficients(a)
    p, moments = np.asarray(p, dtype=float), np.asarray(moments, dtype=float)
    if not a.shape == p.shape == moments.shape:
        raise ValueError("a, p and moments must have one entry per axis")
    if np.any(p <= 0) or np.any(p > 32):
        raise ValueError("exponents must lie in (0, 32]")
    bound = float(np.sum(2.0 * p ** 2 / (p + 1.0) * a ** 2 * moments))
    return BoundedEstimate(_variance_estimate(y, "power_sum_variance"), bound)


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


# -- segment identities -------------------------------------------------------

class IdentityValues(NamedTuple):
    lhs217: float
    rhs217: float
    lhs333: float
    rhs333: float


def verify_identities(a: float, p: float, r: float) -> IdentityValues:
    """Closed-form values of the two segment identities for |t|^p profiles.

    lhs217 = int_{-r}^{r} (a|t|^p - a r^p)^2 dt, rhs217 = (2p^2/(p+1)) int (a|t|^p)^2 dt,
    lhs333 = int (2 a r^p)^2 dt, rhs333 = 4(2p+1) int (a|t|^p)^2 dt.
    The integrands are even, so each is twice its integral over [0, r],
    expanded into powers of t and integrated by int_0^r t^q dt = r^{q+1}/(q+1).
    """
    if a < 0 or p < 0 or r < 0:
        raise ValueError("a, p, r must be nonnegative")

    def power_integral(q: float) -> float:
        return r ** (q + 1.0) / (q + 1.0)

    rp = r ** p
    lhs217 = 2.0 * a * a * (power_integral(2.0 * p) - 2.0 * rp * power_integral(p)
                            + rp * rp * power_integral(0.0))
    ipp = 2.0 * a * a * power_integral(2.0 * p)
    rhs217 = 2.0 * p * p / (p + 1.0) * ipp
    lhs333 = 2.0 * r * (2.0 * a * rp) ** 2
    rhs333 = 4.0 * (2.0 * p + 1.0) * ipp
    return IdentityValues(lhs217, rhs217, lhs333, rhs333)


IDENTITY_GRID = tuple((a, p, a) for a in (0.5, 1.0, 2.0) for p in (0.5, 1.0, 2.0, 3.0))
"""Canonical 12-point (a, p, r) grid with r = a."""
