"""Risk-weighting functions applied to the deviation part of a risk measure.

A risk-weighting function g is increasing, 1-Lipschitz, and has g(0) = 0.
Linearity / convexity / star-shapedness of g decide coherence / convexity /
star-shapedness of the induced measure g(D(X)) + E[X], so classification is
done analytically per family rather than by sampling, and built once with each
g, as is the segment table of a piecewise-linear g.  Linear g is the knot-free
piecewise-linear weight.

The shortfall families arise as g(x) = E[(x - Y)+] and the cap families as
g(x) = E[x ^ Y] for exponential or Pareto Y; the two evaluations at the same
parameter always sum to x.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._spec import build, number, numbers, spec_of

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
    "g_from_spec",
]


@dataclass(frozen=True)
class GClassification:
    is_linear: bool
    is_convex: bool
    is_star_shaped: bool
    is_concave: bool
    asymptotic_slope: float
    sup_ratio: float


_SHORTFALL = GClassification(False, True, True, False, 1.0, 1.0)
# concave and non-linear, hence g(lam*x) >= lam*g(x): not star-shaped
_CAP = GClassification(False, False, False, True, 0.0, 1.0)


class RiskWeightFunction:
    """Base class; immutable value objects with closed-form derivatives and a
    classification built once, in ``_classification``."""

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
        return self._classification

    def spec(self) -> dict:
        return spec_of(self, _KINDS)


def _exponent_cap(x, beta: float):
    """x capped where beta * x cannot overflow: expm1(-t) is exactly -1.0 for t > 37.5."""
    return np.minimum(x, 800.0 / beta)


@dataclass(frozen=True)
class ExpShortfallWeight(RiskWeightFunction):
    """g(x) = x + (e^(-beta x) - 1) / beta = E[(x - Y)+], Y exponential(beta)."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def _value(self, x):
        return x + np.expm1(-self.beta * _exponent_cap(x, self.beta)) / self.beta

    def _left_derivative(self, x: float) -> float:
        return -math.expm1(-self.beta * x)

    _classification = _SHORTFALL


@dataclass(frozen=True)
class ParetoShortfallWeight(RiskWeightFunction):
    """g(x) = E[(x - Y)+] for Y with survival (1 + y)^(-theta)."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def _value(self, x):
        if self.theta == 1.0:
            return x - np.log1p(x)
        return x + ((1.0 + x) ** (1.0 - self.theta) - 1.0) / (self.theta - 1.0)

    def _left_derivative(self, x: float) -> float:
        return 1.0 - (1.0 + x) ** (-self.theta)

    _classification = _SHORTFALL


@dataclass(frozen=True)
class ExpCapWeight(RiskWeightFunction):
    """g(x) = (1 - e^(-beta x)) / beta = E[x ^ Y], Y exponential(beta)."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def _value(self, x):
        return -np.expm1(-self.beta * _exponent_cap(x, self.beta)) / self.beta

    def _left_derivative(self, x: float) -> float:
        return math.exp(-self.beta * x)

    _classification = _CAP


@dataclass(frozen=True)
class ParetoCapWeight(RiskWeightFunction):
    """g(x) = E[x ^ Y] for Y with survival (1 + y)^(-theta)."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def _value(self, x):
        if self.theta == 1.0:
            return np.log1p(x)
        return (1.0 - (1.0 + x) ** (1.0 - self.theta)) / (self.theta - 1.0)

    def _left_derivative(self, x: float) -> float:
        return (1.0 + x) ** (-self.theta)

    _classification = _CAP


@dataclass(frozen=True)
class PiecewiseLinearWeight(RiskWeightFunction):
    """Continuous piecewise-linear g with interior knots and slopes in [0, 1].

    ``slopes`` has one more entry than ``knots``: slopes[i] applies on
    (knots[i-1], knots[i]], the last one on (knots[-1], inf).  The segment
    table (edges 0 and the knots, g at the edges, the slopes) and the
    classification are built once, here.
    """

    knots: tuple
    slopes: tuple

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        slopes = np.asarray(self.slopes, dtype=float)
        if knots.ndim != 1 or slopes.ndim != 1 or slopes.size != knots.size + 1:
            raise ValueError("need len(slopes) == len(knots) + 1")
        for name, values in (("knots", knots), ("slopes", slopes)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} entries must all be finite")
        if knots.size and (np.any(knots <= 0) or np.any(np.diff(knots) <= 0)):
            raise ValueError("knots must be positive and strictly increasing")
        if np.any(slopes < 0.0) or np.any(slopes > 1.0):
            raise ValueError("slopes must lie in [0, 1] (increasing and 1-Lipschitz)")
        if np.all(slopes == 0.0):
            raise ValueError("at least one slope must be positive (g is non-constant)")
        object.__setattr__(self, "knots", tuple(float(v) for v in knots))
        object.__setattr__(self, "slopes", tuple(float(v) for v in slopes))
        edges = np.concatenate([[0.0], knots])
        at_edges = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(edges))])
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_at_edges", at_edges)
        object.__setattr__(self, "_slopes", slopes)
        is_convex = bool(np.all(np.diff(slopes) >= -1e-15))
        is_concave = bool(np.all(np.diff(slopes) <= 1e-15))
        # g(x)/x is increasing iff each segment's intercept is <= 0
        is_star = is_convex or bool(np.all(at_edges[1:] - slopes[1:] * knots <= 1e-12))
        sup_ratio = float(max(slopes[0], slopes[-1], *(at_edges[1:] / knots)))
        object.__setattr__(self, "_classification", GClassification(
            is_convex and is_concave, is_convex, is_star, is_concave, float(slopes[-1]), sup_ratio))

    def _value(self, x):
        # segment whose half-open interval [edge, next edge) contains x >= 0 = edges[0]
        i = np.searchsorted(self._edges, x, side="right") - 1
        return self._at_edges[i] + self._slopes[i] * (x - self._edges[i])

    def _left_derivative(self, x: float) -> float:
        # slope on the segment whose half-open interval (edge, next edge] contains x
        return self.slopes[bisect.bisect_left(self.knots, x)]


class LinearWeight(PiecewiseLinearWeight):
    """g(x) = lam * x, which makes g(D) + E[X] coherent: the knot-free
    piecewise-linear weight, whose table and classification are built with it."""

    def __init__(self, lam: float):
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"lambda must be in (0, 1], got {lam}")
        object.__setattr__(self, "lam", lam)
        super().__init__(knots=(), slopes=(lam,))


def conjugate(g: RiskWeightFunction, y: float) -> float:
    """g*(y) = sup over x >= 0 of x*y - g(x), in closed form for every family.

    Zero for y <= 0 and +inf for y above the asymptotic slope (which covers
    the cap families at any y > 0).  For the shortfall families the sup sits
    where g'(x) = y, and at y = 1 it is the limit of x - g(x) as x -> inf.
    """
    if y <= 0.0:
        return 0.0
    a = g.classify().asymptotic_slope
    if y > a + 1e-15:
        return math.inf
    if isinstance(g, ExpShortfallWeight):
        # the sup sits at e^(-beta x) = 1 - y, and runs off to x = inf at y = 1
        if y >= 1.0:
            return 1.0 / g.beta
        if y < 0.1:
            # the closed form below cancels terms of order y down to y^2 / 2;
            # its series, the sum over k >= 2 of y^k / (k (k - 1)), does not,
            # and at y < 0.1 its terms past k = 19 fall below 1e-19 of the first
            return math.fsum(y ** k / (k * (k - 1)) for k in range(2, 20)) / g.beta
        return (y + (1.0 - y) * math.log1p(-y)) / g.beta
    if isinstance(g, ParetoShortfallWeight):
        # the sup sits at (1 + x)^(-theta) = 1 - y; with c = 1 - 1/theta it is
        # -y - theta / (theta - 1) * ((1 - y)^c - 1), or -y - log(1 - y) at theta = 1
        theta, c = g.theta, 1.0 - 1.0 / g.theta
        if y >= 1.0:
            return 1.0 / (theta - 1.0) if theta > 1.0 else math.inf
        if y * max(1.0, (2.0 - c) / 3.0) < 0.1:
            # the series sum over k >= 2 of a_k y^k, a_2 = 1 / (2 theta) and
            # a_(k+1) = a_k (k - c) / (k + 1), has no cancellation; its term
            # ratio is below 0.1 here, so the terms past k = 19 are negligible
            terms = [y * y / (2.0 * theta)]
            for k in range(2, 19):
                terms.append(terms[-1] * y * (k - c) / (k + 1))
            return math.fsum(terms)
        if theta == 1.0:
            return -y - math.log1p(-y)
        if 0.5 <= theta <= 2.0:
            # (theta - 1) / theta keeps c exact to rounding as theta -> 1
            c = (theta - 1.0) / theta
            return -y - math.expm1(c * math.log1p(-y)) / c
        # with (1 - y)^c - 1 = (1 - y) expm1(-log(1 - y) / theta) - y the terms of
        # order y / theta no longer cancel at large theta
        return (y - theta * (1.0 - y) * math.expm1(-math.log1p(-y) / theta)) / (theta - 1.0)
    if isinstance(g, PiecewiseLinearWeight):
        # the objective is linear on each segment, so the sup sits at a knot
        # (or at 0; the tail segment has slope y - a <= 0)
        return float(max(x * y - gx for x, gx in zip(g._edges.tolist(), g._at_edges.tolist())))
    raise TypeError(f"no conjugate for {type(g).__name__}")


# spec() writes the first kind of a class, so "gbeta" (the paper's g_beta) only builds
_KINDS = {
    "linear": (LinearWeight, {"lambda": ("lam", number)}),
    "exp_shortfall": (ExpShortfallWeight, {"beta": ("beta", number)}),
    "gbeta": (ExpShortfallWeight, {"beta": ("beta", number)}),
    "pareto_shortfall": (ParetoShortfallWeight, {"theta": ("theta", number)}),
    "exp_cap": (ExpCapWeight, {"beta": ("beta", number)}),
    "pareto_cap": (ParetoCapWeight, {"theta": ("theta", number)}),
    "piecewise_linear": (PiecewiseLinearWeight, {"knots": ("knots", numbers),
                                                 "slopes": ("slopes", numbers)}),
}


def g_from_spec(spec: dict) -> RiskWeightFunction:
    """Build a risk-weighting function from a JSON-style dict."""
    return build(spec, "risk-weight", _KINDS)
