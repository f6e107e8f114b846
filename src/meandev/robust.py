"""Worst-case values of g(D) + mean under partial model information.

Two uncertainty settings are covered: all distributions with a given mean
and central-moment level, and a type-2 Wasserstein ball around an empirical
baseline.  Both reduce to closed forms in the norms of h', with the
Wasserstein case leaving a one-dimensional trade-off between shifting the
mean and inflating the deviation, which is solved to adjacent floats by
bisecting the sign of its derivative between the kinks of g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distortion import DistortionFunction, choquet_deviation
from .distributions import StateVector
from .riskweight import RiskWeightFunction

__all__ = [
    "MomentUncertainty",
    "WassersteinUncertainty",
    "worstcase_moment",
    "worstcase_wasserstein",
]


@dataclass(frozen=True)
class MomentUncertainty:
    """Distributions with mean m and a-th central moment equal to v^a."""

    m: float
    v: float
    a_order: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"mean m must be finite, got {self.m}")
        if not 0.0 < self.v < math.inf:
            raise ValueError(f"dispersion level v must be > 0, got {self.v}")
        if not 1.0 <= self.a_order < math.inf:
            raise ValueError(f"moment order must be >= 1, got {self.a_order}")


@dataclass(frozen=True)
class WassersteinUncertainty:
    """Type-2 Wasserstein ball of radius epsilon around an empirical baseline."""

    center: StateVector
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"radius must be >= 0, got {self.epsilon}")


def worstcase_moment(
    g: RiskWeightFunction, h: DistortionFunction, u: MomentUncertainty
) -> float:
    """Largest value of g(D_h) + mean over the moment uncertainty set.

    Equals g(v * [h]_q) + m with q conjugate to the moment order (for order
    2 the centered norm coincides with ||h'||_2).
    """
    p = u.a_order
    q = math.inf if p == 1.0 else 1.0 / (1.0 - 1.0 / p)
    norm = h.centered_q_norm(q)
    return float(g(u.v * norm)) + u.m


def worstcase_wasserstein(
    g: RiskWeightFunction, h: DistortionFunction, u: WassersteinUncertainty
) -> float:
    """Largest value of g(D_h) + mean over the Wasserstein ball.

    The ball budget epsilon splits between a mean shift t*epsilon and a
    deviation inflation epsilon*c*N on top of the nominal deviation D, with
    c = sqrt(1 - t^2) and N = ||h'||_2; t < 0 never beats -t, so c runs over
    [0, 1].  For linear g = lambda x the supremum is closed, lambda D +
    epsilon sqrt(1 + lambda^2 N^2) + mean, by Cauchy-Schwarz in (t, c).
    Otherwise the derivative in c, epsilon (N g' - c / sqrt(1 - c^2)), falls
    from + to - at most once between the kinks of g: g' is decreasing on the
    cap families, constant on each piece of a piecewise-linear g, and concave
    from g'(0) >= 0 on the shortfall families.  Each piece is bisected on its
    sign down to two adjacent floats, with no grid and no tolerance.
    """
    nominal_dev = choquet_deviation(h, u.center)
    mean = u.center.mean()
    if u.epsilon == 0.0:
        return float(g(nominal_dev)) + mean

    norm = float(h.q_norm(2.0))
    eps = u.epsilon
    cls = g.classify()
    if cls.is_linear:
        lam = cls.asymptotic_slope
        return lam * nominal_dev + eps * math.hypot(1.0, lam * norm) + mean

    def objective(c: float) -> float:  # eps * c first: at c = 0 it is 0 where eps * norm overflows
        t = math.sqrt((1.0 - c) * (1.0 + c))
        return float(g(nominal_dev + eps * c * norm)) + t * eps + mean

    def falls(c: float) -> bool:  # the derivative is <= 0 at c
        # a left derivative needs x > 0; at x = 0 the slope just above it is the one wanted
        slope = g.left_derivative(max(nominal_dev + eps * c * norm, math.ulp(0.0)))
        return norm * slope * math.sqrt((1.0 - c) * (1.0 + c)) <= c

    spread = eps * norm
    cuts = sorted({0.0, 1.0, *((x - nominal_dev) / spread for x in g.kink_points()
                               if nominal_dev < x < nominal_dev + spread)})
    best = -math.inf
    for lo, hi in zip(cuts, cuts[1:]):
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # until lo and hi are adjacent floats
            lo, hi = (lo, mid) if falls(mid) else (mid, hi)
        best = max(best, objective(lo), objective(hi))
    return best
