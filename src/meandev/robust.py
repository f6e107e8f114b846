"""Worst-case values of g(D) + mean under partial model information.

Two uncertainty settings are covered: all distributions with a given mean
and central-moment level, and a type-2 Wasserstein ball around an empirical
baseline.  Both reduce to closed forms in the norms of h', with the
Wasserstein case leaving a one-dimensional trade-off between shifting the
mean and inflating the deviation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionFunction, choquet_deviation
from .distributions import StateVector
from .measures import _grid_sup
from .riskweight import RiskWeightFunction

__all__ = [
    "MomentUncertainty",
    "WassersteinUncertainty",
    "worstcase_moment",
    "worstcase_wasserstein",
]

_GRID_SIZE = 200


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
    deviation inflation epsilon*sqrt(1-t^2)*||h'||_2 on top of the nominal
    deviation.  The objective is even in t apart from the increasing shift,
    so t < 0 never beats -t: the supremum over t in [0, 1] is located on a
    grid and refined by golden-section search.  For linear g = lambda x it
    is closed, lambda D + epsilon sqrt(1 + lambda^2 ||h'||_2^2) + mean, by
    Cauchy-Schwarz in (t, sqrt(1 - t^2)).
    """
    nominal_dev = choquet_deviation(h, u.center)
    mean = u.center.mean()
    if u.epsilon == 0.0:
        return float(g(nominal_dev)) + mean

    norm = h.q_norm(2.0)
    eps = u.epsilon
    cls = g.classify()
    if cls.is_linear:
        lam = cls.asymptotic_slope
        return lam * nominal_dev + eps * math.hypot(1.0, lam * norm) + mean

    def objective(t: float) -> float:
        spread = eps * math.sqrt(max(1.0 - t * t, 0.0)) * norm
        return float(g(spread + nominal_dev)) + t * eps + mean

    return _grid_sup(objective, np.linspace(0.0, 1.0, _GRID_SIZE))
