"""Monte Carlo estimators for variance, moment and distance quantities of
isotropic unconditional laws, with 3-sigma confidence half-widths, and two
closed-form segment identities.

Every estimator takes plain float arrays of per-draw values (|X|^2,
sum a_i X_i^2), which the suites reduce from each sample block as it is
drawn, so no N x n sample matrix is needed.  All reductions use numpy's
fixed-order pairwise summation, so estimates from identical draws are
bit-identical across reruns.
"""

from __future__ import annotations

import math
import numbers
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
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"a direction needs an integer count n >= 1 of coordinates, got {n!r}")
    e = np.full(n, 1.0 / math.sqrt(n))
    e[0] = math.sqrt(1.0 - float(e[1:] @ e[1:]))
    return e


# -- variance with CI ---------------------------------------------------------

def _variance_estimate(y: np.ndarray, estimator_id: str) -> EstimateWithCI:
    """Sample variance of y with a 3-sigma half-width from the asymptotic
    normal error sqrt((m4 - s^4)/N) of the sample fourth moment m4."""
    n = y.size
    if n < 2:
        raise ValueError("variance needs at least 2 samples")
    mean = y.mean()
    d = y - mean
    d2 = d * d
    s2 = float(np.sum(d2)) / (n - 1)  # all-equal y gives s2 = 0 and half-width 0
    m4 = float(np.sum(d2 * d2)) / n
    var_of_var = max(m4 - s2 * s2, 0.0) / n
    return EstimateWithCI(s2, 3.0 * math.sqrt(var_of_var), n, estimator_id)


def _mean_estimate(y: np.ndarray, estimator_id: str) -> EstimateWithCI:
    n = y.size
    se = float(y.std(ddof=1)) / math.sqrt(n)
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


def weighted_square_variance(y: np.ndarray) -> EstimateWithCI:
    """Var(sum a_i X_i^2) from its per-draw values y."""
    return _variance_estimate(y, "weighted_square_variance")


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
    if not all(0 < n < math.inf and 0 < v < math.inf for n, v in pts):
        raise ValueError("scaling_fit needs finite positive n and values")
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
