"""Risk-weighting functions applied to the deviation part of a risk measure.

A risk-weighting function g is increasing, 1-Lipschitz, and has g(0) = 0.
Linearity / convexity / star-shapedness of g decide coherence / convexity /
star-shapedness of the induced measure g(D(X)) + E[X], so classification is
done analytically per family rather than by sampling.

The shortfall families arise as g(x) = E[(x - Y)+] and the cap families as
g(x) = E[x ^ Y] for exponential or Pareto Y; the two evaluations at the same
parameter always sum to x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import minimize_scalar

from ._spec import float_tuple, spec_field

__all__ = [
    "RiskWeightFunction",
    "LinearWeight",
    "ExpShortfallWeight",
    "ParetoShortfallWeight",
    "ExpCapWeight",
    "ParetoCapWeight",
    "PiecewiseLinearWeight",
    "GClassification",
    "conjugate",
    "smallest_coherent_multiplier",
    "g_from_spec",
]

# conjugate bracket expansion stops here; beyond it the slope is treated as
# having reached its limit
_CONJUGATE_X_CAP = 1.0e6


@dataclass(frozen=True)
class GClassification:
    is_linear: bool
    is_convex: bool
    is_star_shaped: bool
    is_concave: bool
    asymptotic_slope: float
    sup_ratio: float

    def as_dict(self) -> dict:
        return {
            "is_linear": self.is_linear,
            "is_convex": self.is_convex,
            "is_star_shaped": self.is_star_shaped,
            "is_concave": self.is_concave,
            "asymptotic_slope": self.asymptotic_slope,
            "sup_ratio": self.sup_ratio,
        }


class RiskWeightFunction:
    """Base class; immutable value objects with closed-form derivatives."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("risk-weighting functions are defined on x >= 0")
        return self._value(x)

    def _value(self, x):
        raise NotImplementedError

    def left_derivative(self, x: float) -> float:
        if x <= 0.0:
            raise ValueError(f"left derivative needs x > 0, got {x}")
        return self._left_derivative(x)

    def _left_derivative(self, x: float) -> float:
        raise NotImplementedError

    def classify(self) -> GClassification:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearWeight(RiskWeightFunction):
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")

    def _value(self, x):
        return self.lam * x

    def _left_derivative(self, x: float) -> float:
        return self.lam

    def classify(self) -> GClassification:
        return GClassification(True, True, True, True, self.lam, self.lam)

    def spec(self) -> dict:
        return {"kind": "linear", "lambda": self.lam}


@dataclass(frozen=True)
class ExpShortfallWeight(RiskWeightFunction):
    """g(x) = x + (e^(-beta x) - 1) / beta = E[(x - Y)+], Y exponential(beta)."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def _value(self, x):
        return x + np.expm1(-self.beta * x) / self.beta

    def _left_derivative(self, x: float) -> float:
        return -math.expm1(-self.beta * x)

    def classify(self) -> GClassification:
        return GClassification(False, True, True, False, 1.0, 1.0)

    def spec(self) -> dict:
        return {"kind": "exp_shortfall", "beta": self.beta}


@dataclass(frozen=True)
class ParetoShortfallWeight(RiskWeightFunction):
    """g(x) = E[(x - Y)+] for Y with survival (1 + y)^(-theta)."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def _value(self, x):
        if self.theta == 1.0:
            return x - np.log1p(x)
        return x + ((1.0 + x) ** (1.0 - self.theta) - 1.0) / (self.theta - 1.0)

    def _left_derivative(self, x: float) -> float:
        return 1.0 - (1.0 + x) ** (-self.theta)

    def classify(self) -> GClassification:
        return GClassification(False, True, True, False, 1.0, 1.0)

    def spec(self) -> dict:
        return {"kind": "pareto_shortfall", "theta": self.theta}


@dataclass(frozen=True)
class ExpCapWeight(RiskWeightFunction):
    """g(x) = (1 - e^(-beta x)) / beta = E[x ^ Y], Y exponential(beta)."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def _value(self, x):
        return -np.expm1(-self.beta * x) / self.beta

    def _left_derivative(self, x: float) -> float:
        return math.exp(-self.beta * x)

    def classify(self) -> GClassification:
        # concave and non-linear, hence g(lam*x) >= lam*g(x): not star-shaped
        return GClassification(False, False, False, True, 0.0, 1.0)

    def spec(self) -> dict:
        return {"kind": "exp_cap", "beta": self.beta}


@dataclass(frozen=True)
class ParetoCapWeight(RiskWeightFunction):
    """g(x) = E[x ^ Y] for Y with survival (1 + y)^(-theta)."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def _value(self, x):
        if self.theta == 1.0:
            return np.log1p(x)
        return (1.0 - (1.0 + x) ** (1.0 - self.theta)) / (self.theta - 1.0)

    def _left_derivative(self, x: float) -> float:
        return (1.0 + x) ** (-self.theta)

    def classify(self) -> GClassification:
        return GClassification(False, False, False, True, 0.0, 1.0)

    def spec(self) -> dict:
        return {"kind": "pareto_cap", "theta": self.theta}


@dataclass(frozen=True)
class PiecewiseLinearWeight(RiskWeightFunction):
    """Continuous piecewise-linear g with interior knots and slopes in [0, 1].

    ``slopes`` has one more entry than ``knots``: slopes[i] applies on
    (knots[i-1], knots[i]], the last one on (knots[-1], inf).
    """

    knots: tuple
    slopes: tuple

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        slopes = np.asarray(self.slopes, dtype=float)
        if knots.ndim != 1 or slopes.ndim != 1 or slopes.size != knots.size + 1:
            raise ValueError("need len(slopes) == len(knots) + 1")
        if knots.size and (np.any(knots <= 0) or np.any(np.diff(knots) <= 0)):
            raise ValueError("knots must be positive and strictly increasing")
        if np.any(slopes < 0.0) or np.any(slopes > 1.0):
            raise ValueError("slopes must lie in [0, 1] (increasing and 1-Lipschitz)")
        if np.all(slopes == 0.0):
            raise ValueError("at least one slope must be positive (g is non-constant)")
        object.__setattr__(self, "knots", tuple(float(v) for v in knots))
        object.__setattr__(self, "slopes", tuple(float(v) for v in slopes))

    def _value(self, x):
        knots = np.asarray(self.knots)
        slopes = np.asarray(self.slopes)
        x = np.asarray(x, dtype=float)
        edges = np.concatenate([[0.0], knots])
        g_at_edges = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(edges))])
        idx = np.searchsorted(edges, x, side="right") - 1
        idx = np.clip(idx, 0, slopes.size - 1)
        return g_at_edges[idx] + slopes[idx] * (x - edges[idx])

    def _left_derivative(self, x: float) -> float:
        knots = np.asarray(self.knots)
        # slope on the segment whose half-open interval (edge, next] contains x
        i = int(np.searchsorted(knots, x, side="left"))
        return float(self.slopes[i])

    def classify(self) -> GClassification:
        knots = np.asarray(self.knots)
        slopes = np.asarray(self.slopes)
        is_convex = bool(np.all(np.diff(slopes) >= -1e-15))
        is_concave = bool(np.all(np.diff(slopes) <= 1e-15))
        is_linear = is_convex and is_concave
        a = float(slopes[-1])
        if knots.size:
            g_at_knots = np.asarray(self(knots), dtype=float)
            ratios = g_at_knots / knots
            # g(x)/x is increasing iff each segment's intercept is <= 0
            is_star = bool(np.all(g_at_knots - slopes[1:] * knots <= 1e-12))
            sup_ratio = float(max(slopes[0], a, np.max(ratios)))
        else:
            is_star = True
            sup_ratio = float(slopes[0])
        if is_convex:
            is_star = True
        return GClassification(is_linear, is_convex, is_star, is_concave, a, sup_ratio)

    def spec(self) -> dict:
        return {"kind": "piecewise_linear", "knots": list(self.knots),
                "slopes": list(self.slopes)}


def conjugate(g: RiskWeightFunction, y: float) -> float:
    """g*(y) = sup over x >= 0 of x*y - g(x).

    Zero for y <= 0, +inf for y above the asymptotic slope, and otherwise
    found by bracket expansion plus bounded scalar maximization.
    """
    if y <= 0.0:
        return 0.0
    a = g.classify().asymptotic_slope
    if y > a + 1e-15:
        return math.inf

    def objective(x: float) -> float:
        return x * y - float(g(x))

    if isinstance(g, PiecewiseLinearWeight):
        # the objective is linear on each segment, so the sup sits at a knot
        # (or at 0; the tail segment has slope y - a <= 0)
        return float(max(objective(x) for x in (0.0, *g.knots)))

    # expand until the left derivative of the objective turns non-positive
    hi = 1.0
    while y > g.left_derivative(hi) and hi < _CONJUGATE_X_CAP:
        hi *= 2.0
    hi = min(hi, _CONJUGATE_X_CAP)
    res = minimize_scalar(lambda x: -objective(x), bounds=(0.0, hi),
                          method="bounded", options={"xatol": 1e-10})
    return float(max(-res.fun, objective(0.0), objective(hi)))


def smallest_coherent_multiplier(g: RiskWeightFunction) -> float:
    """sup over x > 0 of g(x)/x: the factor of the tightest dominating coherent measure."""
    return g.classify().sup_ratio


def g_from_spec(spec: dict) -> RiskWeightFunction:
    """Build a risk-weighting function from a JSON-style dict."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("risk-weight spec must be an object with a 'kind' field")
    kind = spec["kind"]
    field = partial(spec_field, spec, "risk-weight spec")

    if kind == "linear":
        return LinearWeight(lam=field("lambda"))
    if kind in ("exp_shortfall", "gbeta"):
        return ExpShortfallWeight(beta=field("beta"))
    if kind == "pareto_shortfall":
        return ParetoShortfallWeight(theta=field("theta"))
    if kind == "exp_cap":
        return ExpCapWeight(beta=field("beta"))
    if kind == "pareto_cap":
        return ParetoCapWeight(theta=field("theta"))
    if kind == "piecewise_linear":
        return PiecewiseLinearWeight(knots=field("knots", float_tuple),
                                     slopes=field("slopes", float_tuple))
    raise ValueError(f"unknown risk-weight kind: {kind!r}")
