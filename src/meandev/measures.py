"""Risk measures on sample vectors: VaR, ES, expectiles, and g(D) + mean.

ES integrates the empirical staircase quantile exactly (partial-atom
weights), so the ES level and the matching distortion deviation agree to
machine precision.  The mean-deviation measure applies a risk-weighting
function to a Choquet deviation and adds the sample mean.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distortion import DistortionFunction, choquet_deviation, is_range_normalized
from .distributions import StateVector
from .riskweight import GClassification, RiskWeightFunction, conjugate

__all__ = [
    "MDMeasure",
    "var_alpha",
    "es_alpha",
    "es_alpha_ru",
    "expectile",
    "md_eval",
    "adjusted_es_identity_gap",
]


@dataclass(frozen=True)
class MDMeasure:
    """A monotonic mean-deviation measure: g applied to D_h, plus the mean."""

    g: RiskWeightFunction
    h: DistortionFunction

    @cached_property
    def classification(self) -> GClassification:
        return self.g.classify()

    @property
    def monetary_certified(self) -> bool:
        """True when h is range normalized, which makes the measure monotone."""
        return is_range_normalized(self.h)


def var_alpha(x: StateVector, alpha: float) -> float:
    """Left quantile of the sample: order statistic at index ceil(n * alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    k = max(math.ceil(x.n * alpha), 1)
    return float(x.sorted_values()[k - 1])


def _sorted_with_prefix(x: StateVector):
    xs = x.sorted_values()
    prefix = np.zeros(xs.size + 1)
    np.cumsum(xs, out=prefix[1:])
    return xs, prefix


def es_alpha(x: StateVector, alpha: float) -> float:
    """Tail average: exact integral of the staircase quantile over (alpha, 1]."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    xs, prefix = _sorted_with_prefix(x)
    n = x.n
    k = max(math.ceil(n * alpha), 1)  # atom containing the level alpha
    # integral of the quantile over (0, alpha]: k-1 full atoms plus a partial one
    lower = prefix[k - 1] / n + xs[k - 1] * (alpha - (k - 1) / n)
    return float((prefix[-1] / n - lower) / (1.0 - alpha))


def es_alpha_ru(x: StateVector, alpha: float) -> tuple[float, float]:
    """ES as the minimum of z + mean((x - z)+) / (1 - alpha) over z.

    The piecewise-linear objective is least at the left quantile, the
    reported minimizer, and up to the next order statistic when n * alpha is
    whole (Rockafellar & Uryasev 2002). At those two points only, the sum of
    (x - z)+ is read from one sorted copy and its prefix sums.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    xs, prefix = _sorted_with_prefix(x)
    n = x.n
    k = max(math.ceil(n * alpha), 1)
    z = xs[k - 1:k + 1]
    right = np.searchsorted(xs, z, side="right")
    objective = z + ((prefix[-1] - prefix[right]) - z * (n - right)) / (n * (1.0 - alpha))
    return float(np.min(objective)), float(z[0])


def expectile(x: StateVector, alpha: float) -> float:
    """Root of alpha * E[(X - z)+] = (1 - alpha) * E[(z - X)+], solved exactly.

    The imbalance is decreasing and linear between sorted sample points:
    bisection on one sorted copy and its prefix sums finds the first point
    where it is non-positive, and the root is solved on the segment ending there.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    xs, prefix = _sorted_with_prefix(x)
    n, total = x.n, prefix.item(-1)
    def settled(j: int) -> bool:  # imbalance at xs[j], with j + 1 points at or below it
        xj, pj = xs.item(j), prefix.item(j + 1)  # Python floats: scalar numpy is slower
        return (alpha * (total - pj - xj * (n - j - 1)) - (1.0 - alpha) * (xj * (j + 1) - pj)) <= 0.0

    k = bisect.bisect_left(range(n), True, key=settled)
    if k in (0, n):  # a constant sample, or no point settles
        return float(xs[0])
    if xs[k - 1] == xs[k]:  # inside a tie run the imbalance is flat, so the root is that value
        return float(xs[k])
    # on [xs[k-1], xs[k]] the k smallest points lie below z and the rest above
    return float((alpha * (total - prefix[k]) + (1.0 - alpha) * prefix[k])
                 / (alpha * (n - k) + (1.0 - alpha) * k))


def _grid_sup(objective, grid: np.ndarray) -> float:
    """Supremum of a scalar function over the span of an increasing grid.

    The best grid point is refined by golden-section search between its two
    grid neighbours, down to a bracket of 1e-10.
    """
    values = [objective(x) for x in grid]
    best = int(np.argmax(values))
    a, b = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-10:
        if fc >= fd:  # the larger interior value stays inside the bracket
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = objective(d)
    return float(max(values[best], fc, fd))


def md_eval(m: MDMeasure, x: StateVector) -> float:
    """g(D_h(x)) + mean(x)."""
    return float(m.g(choquet_deviation(m.h, x))) + x.mean()


def adjusted_es_identity_gap(
    g: RiskWeightFunction, alpha: float, x: StateVector, grid_size: int = 2000
) -> float:
    """Gap between g(ES_alpha - mean) + mean and its conjugate dual form.

    For convex g with asymptotic slope 1, writing g through its conjugate
    gives the exact dual representation

        sup over y in [0, 1] of  y * ES_alpha(x) + (1 - y) * mean(x) - g*(y),

    a penalized mixture of the tail average and the mean.  (Parametrizing
    the mixture weight as y = (1-alpha) gamma / (alpha (1-gamma)) maps the
    dual variable to a tail level gamma in [0, alpha].)  The sup is taken
    on a uniform gamma grid, refined by golden-section search around the
    best grid point (the dual objective is concave in y), and the returned
    value is the absolute difference from the direct evaluation.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    cls = g.classify()
    if not cls.is_convex or cls.asymptotic_slope < 1.0 - 1e-12:
        raise ValueError(
            "the conjugate dual form needs a convex risk-weighting function "
            "with asymptotic slope 1"
        )
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")

    es = es_alpha(x, alpha)
    mean = x.mean()

    def dual_objective(gamma: float) -> float:
        # written so gamma == alpha maps to exactly y = 1.0
        y = ((1.0 - alpha) * gamma) / (alpha * (1.0 - gamma))
        return y * es + (1.0 - y) * mean - conjugate(g, y)

    sup = _grid_sup(dual_objective, np.linspace(0.0, alpha, grid_size))
    md = float(g(es - mean)) + mean
    return abs(sup - md)
