"""Monte Carlo estimators for variance, moment and distance quantities of
isotropic unconditional laws, with 3-sigma confidence half-widths, and two
closed-form segment identities.

The variance and mean estimators reduce per-draw values (|X|^2,
sum a_i X_i^2) by one group-moment reduction, ``_GroupMoments``: groups of
the sampler's GROUP_ROWS draws, each reduced by two passes to its mean and
central sums, then merged by exact shift formulas in group order.  The
public ``thin_shell_stats`` and ``weighted_square_variance`` take a whole
array of per-draw values and run it through that reduction; the thinshell
suite reduces each chunk of sum_i X_i^4 / n as it is drawn instead, and gets
the same bits as a whole-array reduction without keeping those values.  The
groups alone fix the order of every sum, so estimates from identical draws
are bit-identical across reruns, thread counts and chunk sizes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .sampler import BLOCK, GROUP_ROWS

_DK_ALPHA = 0.01         # level of the DKW band
# how far a reference CDF may leave [0, 1].  Rounding shows there: the
# berry_esseen suite's interpolated cube CDF reads -2.2e-14 and 1 + 2.2e-14 at
# n = 64.  So does a small bias, which the distance itself reports (the fault
# checks move the counterexample CDF by 1e-4); a reference further out is no CDF.
_CDF_SLACK = 1e-3


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 3-sigma Monte Carlo half-width."""

    value: float
    half_width: float
    estimator_id: str

    def __post_init__(self):
        if not self.half_width >= 0:  # a NaN fails too
            raise ValueError(f"half_width must be nonnegative, got {self.half_width!r}")


def uniform_direction(n: int) -> np.ndarray:
    """The unit vector with equal entries 1/sqrt(n), its first entry adjusted
    so that the norm is 1 to rounding."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValueError(f"a direction needs an integer count n >= 1 of coordinates, got {n!r}")
    e = np.full(n, 1.0 / math.sqrt(n))
    e[0] = math.sqrt(1.0 - float(e[1:] @ e[1:]))
    return e


# -- group moments --------------------------------------------------------------

class _Moments(NamedTuple):
    """The count, means and central sums M_p = sum (y - mean)^p, p = 2 and 4,
    of k series of per-draw values, one array entry per series."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    m4: np.ndarray


class _GroupMoments:
    """Moments of k series of ``count`` per-draw values, reduced group by group.

    Group g holds draws g * GROUP_ROWS onward, the sampler's chunk alignment,
    and only the last group may be short.  ``add`` reduces whole groups in any
    order and from any thread, so a visit of ``sampler.for_each_block`` can
    reduce its chunk as it is drawn.  Two passes over each group give its mean
    m_g and the sums S_p of (y - m_g)^p, p = 1 to 4, in ``table`` (5 x k x
    groups).  ``merged`` shifts every group's sums to the merged mean by the
    exact formulas of Chan, Golub and LeVeque (1979) and Pebay (2008), summed
    over the groups in group order.  A group's sums depend only on its values,
    so the result depends neither on which ``add`` call brought a group nor on
    which thread reduced it.
    """

    def __init__(self, series: int, count: int):
        self.count = count
        self.table = np.empty((5, series, -(-count // GROUP_ROWS)))

    def add(self, rows: slice, values: np.ndarray) -> None:
        """Reduce ``values`` (k x m), the values of the draws in ``rows``, whose
        start is a multiple of GROUP_ROWS, as is m unless ``rows`` ends the draw:
        its whole groups, then the draw's short last group.  ``values`` is
        overwritten."""
        k, m = values.shape
        g = rows.start // GROUP_ROWS
        whole = m // GROUP_ROWS * GROUP_ROWS
        if whole:
            _reduce_groups(values[:, :whole].reshape(k, -1, GROUP_ROWS),
                           self.table[:, :, g:g + whole // GROUP_ROWS])
        if whole < m:
            _reduce_groups(values[:, None, whole:], self.table[:, :, -1:])

    def merged(self) -> _Moments:
        """The moments of all draws about their mean m: the sum over the groups
        of the binomial expansion of ((y - m_g) + d_g)^p with d_g = m_g - m,
        which for p = 4 reads every S_p.

        S_1, which is 0 but for the rounding of m_g, is kept: without it, values
        of mean 10^6 and variance 1 lost 1.8e-12 of their variance."""
        counts = np.full(self.table.shape[-1], float(GROUP_ROWS))
        counts[-1] = self.count - GROUP_ROWS * (counts.size - 1)
        means, s1, s2, s3, s4 = self.table
        mean = np.einsum("kg,g->k", means, counts) / self.count
        d = means - mean[:, None]
        d2 = d * d
        nd2 = d2 * counts
        return _Moments(
            self.count, mean,
            s2.sum(-1) + 2.0 * (d * s1).sum(-1) + nd2.sum(-1),
            s4.sum(-1) + 4.0 * (d * s3).sum(-1) + 6.0 * (d2 * s2).sum(-1)
            + 4.0 * (d2 * d * s1).sum(-1) + (nd2 * d2).sum(-1))


def _reduce_groups(v: np.ndarray, out: np.ndarray) -> None:
    """Two passes over each group v[i, j]: its mean m into out[0, i, j], then
    the sums of (v - m)^p, p = 1 to 4, into out[1:, i, j].  The deviations
    v - m overwrite v."""
    mean = out[0]
    np.einsum("kgr->kg", v, out=mean)
    mean /= v.shape[-1]
    d = v
    d -= mean[..., None]
    d2 = d * d
    np.einsum("kgr->kg", d, out=out[1])
    np.einsum("kgr->kg", d2, out=out[2])
    np.einsum("kgr,kgr->kg", d2, d, out=out[3])
    np.einsum("kgr,kgr->kg", d2, d2, out=out[4])


def _variance_estimate(m: _Moments, k: int, estimator_id: str) -> EstimateWithCI:
    """Sample variance of series k with a 3-sigma half-width from the
    asymptotic normal error sqrt((m4 - s^4)/N) of the sample fourth moment m4."""
    s2 = float(m.m2[k]) / (m.count - 1)  # all-equal values give s2 = 0 and half-width 0
    var_of_var = max(float(m.m4[k]) / m.count - s2 * s2, 0.0) / m.count
    return EstimateWithCI(s2, 3.0 * math.sqrt(var_of_var), estimator_id)


def _mean_estimate(m: _Moments, k: int, estimator_id: str) -> EstimateWithCI:
    """Sample mean of series k with a 3-sigma half-width."""
    se = math.sqrt(float(m.m2[k]) / (m.count - 1) / m.count)
    return EstimateWithCI(float(m.mean[k]), 3.0 * se, estimator_id)


def _per_draw_values(y, caller: str) -> np.ndarray:
    """``y`` as a contiguous 1-D float array, whose groups are reduced as a
    visit's rows are."""
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"{caller} needs a 1-D array of per-draw values, got shape {y.shape}")
    return y


# -- shell statistics ---------------------------------------------------------

class ThinShellStats(NamedTuple):
    var_ratio: EstimateWithCI   # Var(|X|^2 / n)
    shell_dev: EstimateWithCI   # E(|X| - sqrt(n))^2


def thin_shell_stats(sq: np.ndarray, n: int) -> ThinShellStats:
    """Shell statistics from the squared norms |X|^2 of N draws in R^n."""
    sq = _per_draw_values(sq, "thin_shell_stats")
    if sq.size < 100:
        raise ValueError("thin_shell_stats needs N >= 100")
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"thin_shell_stats needs an integer dimension n >= 1, got {n!r}")
    if not (0.0 <= sq.min() and sq.max() < math.inf):  # a NaN fails the first
        raise ValueError("thin_shell_stats needs finite nonnegative squared norms sq")
    moments = _GroupMoments(2, sq.size)
    v = np.empty((2, min(BLOCK, sq.size)))  # |X|^2 / n and (|X| - sqrt n)^2 of a block
    for start in range(0, sq.size, BLOCK):
        part = sq[start:start + BLOCK]
        x = v[:, :part.size]
        np.divide(part, n, out=x[0])
        np.sqrt(part, out=x[1])
        x[1] -= math.sqrt(n)
        x[1] *= x[1]
        moments.add(slice(start, start + part.size), x)
    m = moments.merged()
    return ThinShellStats(_variance_estimate(m, 0, "thin_shell.var_ratio"),
                          _mean_estimate(m, 1, "thin_shell.shell_dev"))


def weighted_square_variance(y: np.ndarray) -> EstimateWithCI:
    """Var(sum a_i X_i^2) from its per-draw values y."""
    y = _per_draw_values(y, "weighted_square_variance")
    if y.size < 2:
        raise ValueError("variance needs at least 2 samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("weighted_square_variance needs finite values y")
    moments = _GroupMoments(1, y.size)
    moments.add(slice(0, y.size), y[None].copy())
    return _variance_estimate(moments.merged(), 0, "weighted_square_variance")


# -- Kolmogorov distance ------------------------------------------------------

class KolmogorovResult(NamedTuple):
    distance: float
    dkw_band: float


def dkw_band(count: int) -> float:
    """Half-width of the level-1% DKW band of an empirical CDF of ``count`` values."""
    if not count >= 1:
        raise ValueError(f"dkw_band needs a count >= 1 of values, got {count!r}")
    return math.sqrt(math.log(2.0 / _DK_ALPHA) / (2.0 * count))


def kolmogorov_distance(values: np.ndarray,
                        reference_cdf: Callable[[np.ndarray], np.ndarray]) -> KolmogorovResult:
    """sup_t |F_hat(t) - F(t)| evaluated exactly at the empirical jump points.

    ``values`` is a nonempty 1-D array without NaN; ``reference_cdf`` gives one
    finite value per value, in [0, 1] to within _CDF_SLACK."""
    v = _per_draw_values(values, "kolmogorov_distance")
    if v.size == 0:
        raise ValueError("values must be nonempty")
    if np.any(np.isnan(v)):
        raise ValueError("NaN in values")
    v = np.sort(v)
    n = v.size
    ref = np.asarray(reference_cdf(v), dtype=float)
    if ref.shape != v.shape:
        raise ValueError(f"reference_cdf gives shape {ref.shape}, not one per value {v.shape}")
    if not np.all((-_CDF_SLACK <= ref) & (ref <= 1.0 + _CDF_SLACK)):  # a NaN fails too
        raise ValueError("reference_cdf must give finite values in [0, 1]")
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
    if not all(0 <= v < math.inf for v in (a, p, r)):  # a NaN fails too
        raise ValueError(f"a, p, r must be finite and nonnegative, got {a!r}, {p!r}, {r!r}")

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
