"""Risk measures on sample vectors: VaR, ES, expectiles, and g(D) + mean.

ES is the mean plus D_ES from the distortion layer's row kernel (the exact
staircase integral), so ES and the matching distortion deviation are one
computation.  The mean-deviation measure is the pair (g, h): a risk-weighting
function applied to the Choquet deviation D_h, plus the mean.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionFunction, ESDeviation, choquet_deviation
from .distributions import StateVector
from .riskweight import RiskWeightFunction, conjugate

__all__ = [
    "MDMeasure",
    "var_alpha",
    "es_alpha",
    "expectile",
    "md_eval",
    "adjusted_es_identity_gap",
]


@dataclass(frozen=True)
class MDMeasure:
    """A monotonic mean-deviation measure: g applied to D_h, plus the mean."""

    g: RiskWeightFunction
    h: DistortionFunction


def var_alpha(x: StateVector, alpha: float) -> float:
    """Left quantile of the sample: order statistic at index ceil(n * alpha), selected."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    k = max(math.ceil(x.n * alpha), 1)
    return float(np.partition(x.values, k - 1)[k - 1])


_es_h = functools.lru_cache(maxsize=64)(ESDeviation)  # validated once per alpha


def _es_deviation(x: StateVector, alpha: float) -> float:
    """D_ES = ES_alpha - mean, at least 0, from the row kernel; 0 where 1 - alpha rounds to 1."""
    if 1.0 - alpha == 1.0:  # alpha <= 2**-54, which ESDeviation refuses
        return 0.0
    return max(choquet_deviation(_es_h(alpha), x), 0.0)


def es_alpha(x: StateVector, alpha: float) -> float:
    """Tail average: exact integral of the staircase quantile over (alpha, 1].

    D_ES from the row kernel plus the mean; the mean where 1 - alpha rounds to 1.
    For alpha > 0 it is also the least value of z + mean((x - z)+) / (1 - alpha),
    reached at z = var_alpha(x, alpha) (Rockafellar & Uryasev 2002).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return _es_deviation(x, alpha) + x.mean()


def expectile(x: StateVector, alpha: float) -> float:
    """Root of alpha * E[(X - z)+] = (1 - alpha) * E[(z - X)+], solved exactly.

    The imbalance is decreasing and linear between sorted sample points:
    bisection on one sorted copy and its prefix sums finds the first point
    where it is non-positive, and the root is solved on the segment ending there.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    xs = x.sorted_values()
    prefix = np.zeros(xs.size + 1)
    np.cumsum(xs, out=prefix[1:])
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

    a penalized mixture of the tail average and the mean.  Every y gives a
    lower bound (weak duality), and the Fenchel-Young point y* = g'(d), with
    d = max(ES_alpha - mean, 0) and y* = 0 at d = 0, attains the sup; so the
    dual is evaluated once, at y*, and the returned value is its absolute
    difference from the direct evaluation.  ES_alpha - mean is D_ES, read as
    `es_alpha` reads it; ``grid_size`` is only checked.
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

    mean = x.mean()
    d = _es_deviation(x, alpha)
    y = g.left_derivative(d) if d > 0.0 else 0.0
    dual = y * (d + mean) + (1.0 - y) * mean - conjugate(g, y)
    return abs(dual - (float(g(d)) + mean))
