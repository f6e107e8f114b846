"""Population values, asymptotic variance, and a Monte Carlo harness.

The population deviation is the quantile integral of h'(1 - u); the
asymptotic variance of the plug-in estimator is the double integral of

    (h'(1-s) g'(D) + 1)(h'(1-t) g'(D) + 1)(s^t - st) / (f~(s) f~(t)).

Since s^t - st is the covariance kernel of the Brownian bridge, the double
integral collapses to sigma^2 = integral over u of J(u)^2, where, with
w(s) = h'(1-s) g'(D) + 1,

    J(u) = integral over s of w(s) (1{s >= u} - s) / f~(s) = C(u) - B(u),
    B(u) = integral over (0, u) of w(s) s / f~(s),
    C(u) = integral over (u, 1) of w(s) (1 - s) / f~(s).

Each piece is integrable at its own endpoint, so B and C are running sums
on the nodes that then integrate J^2: one pass, not nested quadrature.

Both integrals use one fixed grid: 32-point Gauss-Legendre panels of width
at most 3 in the substitutions u = e^-t and u = 1 - e^-t over t in
[log 2, 36], split at the kinks of h' and at t = 30.  The grid and h'(1 - u)
at its nodes depend on h alone, so they are built once per distortion and
cached, read-only, for every later call with an equal h; only the quantile
and density evaluations depend on the model.  Within a panel a running sum
is the Legendre integration matrix applied to the node values.
Beyond t = 36 the level 1 - e^-t rounds to 1, so the grid stops there; an
integral whose last window, t in [30, 36], holds more than 1e-3 of its
total decays too slowly to trust the truncation, and it raises
NumericsError, as does a non-finite total.

Monte Carlo estimates add the staircase with `distortion.staircase_sum`, so
like `choquet_deviation` they do not depend on the BLAS thread count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .distortion import staircase_sum, staircase_weights
from .distributions import Normal, ParametricModel
from .measures import MDMeasure

__all__ = [
    "GaussianLimit",
    "MonteCarloReport",
    "NumericsError",
    "md_true",
    "deviation_true",
    "sigma_g_squared",
    "gaussian_limit",
    "monte_carlo",
    "worker_count",
]

_LOG_HALF = math.log(2.0)
_TAIL_CUTOFF = 36.0
_TAIL_CHECK = 30.0
# largest share of an integral allowed in the window [_TAIL_CHECK, _TAIL_CUTOFF]
_TAIL_SHARE = 1e-3


class NumericsError(RuntimeError):
    """Raised when a population integral is not finite or its tail decays too slowly."""


@dataclass(frozen=True)
class GaussianLimit:
    """Center and variance of the sqrt(n)-scaled limit of the plug-in estimator."""

    center: float
    variance: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")


@dataclass(frozen=True)
class MonteCarloReport:
    replications: int
    sample_size: int
    estimates: np.ndarray
    scaled_variance: float
    target_variance: float
    center: float
    estimate_mean: float
    normality_statistic: float

    def as_dict(self) -> dict:
        return {
            "replications": self.replications,
            "sample_size": self.sample_size,
            "scaled_variance": self.scaled_variance,
            "target_variance": self.target_variance,
            "center": self.center,
            "estimate_mean": self.estimate_mean,
            "normality_statistic": self.normality_statistic,
        }


_GL_NODES, _GL_WEIGHTS = legendre.leggauss(32)
# _GL_PREFIX[i, j] is the weight of node j in the integral from -1 to node i;
# column j of the Legendre coefficients below is node j's Lagrange polynomial
_GL_PREFIX = legendre.legval(_GL_NODES, legendre.legint(
    legendre.legvander(_GL_NODES, 31).T * _GL_WEIGHTS * (np.arange(32) + 0.5)[:, None],
    lbnd=-1.0)).T
_GL_SUFFIX = _GL_WEIGHTS - _GL_PREFIX


def _tail_breaks(points_t, lo_t: float, hi_t: float, max_width: float = 3.0) -> np.ndarray:
    """Panel edges on [lo_t, hi_t] splitting at ``points_t`` and capping width."""
    edges = [lo_t, hi_t] + [t for t in points_t if lo_t < t < hi_t]
    edges = np.array(sorted(set(edges)))
    out = [edges[0]]
    for right in edges[1:]:
        left = out[-1]
        pieces = max(1, int(math.ceil((right - left) / max_width)))
        out.extend(left + (right - left) * np.arange(1, pieces + 1) / pieces)
    return np.asarray(out)


@dataclass(frozen=True)
class _Half:
    """Gauss-Legendre nodes of one endpoint substitution, one row per panel.

    The level is u = e^-t (lower half) or u = 1 - e^-t (upper half); ``eps``
    holds e^-t, so evaluations near either endpoint stay exact.  Integrals
    are of f(u) du with f given at the nodes.
    """

    upper: bool
    eps: np.ndarray  # (panels, 32)
    level: np.ndarray  # (panels, 32) u
    complement: np.ndarray  # (panels, 32) 1 - u
    scale: np.ndarray  # (panels,) panel half-widths in t
    tail: np.ndarray  # (panels,) True inside [_TAIL_CHECK, _TAIL_CUTOFF]

    def quantile(self, model: ParametricModel) -> np.ndarray:
        return model.quantile_upper(self.eps) if self.upper else model.quantile(self.eps)

    def density_quantile(self, model: ParametricModel) -> np.ndarray:
        if self.upper:
            return model.density_quantile_upper(self.eps)
        return model.density_quantile(self.eps)

    def panels(self, f: np.ndarray) -> np.ndarray:
        """Integral over each panel."""
        return self.scale * ((f * self.eps) @ _GL_WEIGHTS)

    def running(self, f: np.ndarray, toward_end: bool) -> np.ndarray:
        """Integral from each node to this half's endpoint, or else to u = 1/2."""
        g = f * self.eps
        panels = self.scale * (g @ _GL_WEIGHTS)
        if toward_end:
            rest, within = np.cumsum(np.concatenate(([0.0], panels[:0:-1])))[::-1], _GL_SUFFIX
        else:
            rest, within = np.cumsum(np.concatenate(([0.0], panels[:-1]))), _GL_PREFIX
        return rest[:, None] + self.scale[:, None] * (g @ within.T)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@functools.lru_cache(maxsize=32)
def _nodes(h) -> tuple[tuple[_Half, _Half], tuple[np.ndarray, np.ndarray]]:
    """The fixed grid of h and h'(1 - u) at its nodes, built once per distortion.

    Panels have width <= 3 and split at the kinks of h' and at t = 30.  Equal
    distortions give equal tables, so the cache is keyed by value; every
    array is read-only because all callers share it.
    """
    kinks = [1.0 - s for s in h.kink_points()]
    halves = []
    for upper in (False, True):
        fracs = [1.0 - p if upper else p for p in kinks]
        points = [-math.log(f) for f in fracs if 0.0 < f < 0.5] + [_TAIL_CHECK]
        breaks = _tail_breaks(points, _LOG_HALF, _TAIL_CUTOFF)
        los, his = breaks[:-1], breaks[1:]
        scale = 0.5 * (his - los)
        eps = np.exp(-(0.5 * (his + los)[:, None] + scale[:, None] * _GL_NODES))
        half = _Half(upper, eps, 1.0 - eps if upper else eps, eps if upper else 1.0 - eps,
                     scale, los >= _TAIL_CHECK)
        _read_only(half.eps, half.level, half.complement, half.scale, half.tail)
        halves.append(half)
    with np.errstate(all="ignore"):  # _integral raises on a non-finite total
        weights = tuple(np.asarray(h.quantile_weight(half.level), dtype=float) for half in halves)
    _read_only(*weights)
    return tuple(halves), weights


def _integral(halves, values, what: str) -> float:
    """Integral over (0, 1) from node values on both halves, with the tail rule."""
    total = window = 0.0
    for half, f in zip(halves, values):
        panels = half.panels(f)
        total += float(panels.sum())
        window += abs(float(panels[half.tail].sum()))
    if not math.isfinite(total):
        raise NumericsError(f"{what} integral evaluated to a non-finite value")
    share = window / max(abs(total), 1e-30)
    if share > _TAIL_SHARE:
        raise NumericsError(
            f"{what} integral does not converge: the last tail window holds "
            f"{share:.3g} of its total (the model's tails are too heavy for this "
            "functional)"
        )
    return total


def deviation_true(model: ParametricModel, m: MDMeasure) -> float:
    """Population Choquet deviation: integral of the quantile against h'(1 - u)."""
    halves, weights = _nodes(m.h)
    with np.errstate(all="ignore"):  # _integral raises on a non-finite total
        values = [w * half.quantile(model) for half, w in zip(halves, weights)]
        return _integral(halves, values, "population deviation")


def md_true(model: ParametricModel, m: MDMeasure) -> float:
    """Population value g(D(X)) + E[X]."""
    mean = model.mean()  # raises for heavy tails with no mean
    return float(m.g(deviation_true(model, m))) + mean


def _variance(model: ParametricModel, g, nodes, dev: float) -> float:
    """sigma^2 = integral of (C - B)^2 given h's node table and the population deviation."""
    gprime = g.left_derivative(dev) if dev > 0.0 else g.left_derivative(1e-12)
    halves, weights = nodes
    lower, upper = halves
    with np.errstate(all="ignore"):  # _integral raises on a non-finite total
        ratios = [(w * gprime + 1.0) / half.density_quantile(model)
                  for half, w in zip(halves, weights)]
        b_lower, b_upper = (r * half.level for r, half in zip(ratios, halves))
        c_lower, c_upper = (r * half.complement for r, half in zip(ratios, halves))
        # B(u) runs from u = 0 and C(u) from u = 1; past u = 1/2 each holds the
        # whole of the other half
        j_lower = (upper.panels(c_upper).sum() + lower.running(c_lower, toward_end=False)
                   - lower.running(b_lower, toward_end=True))
        j_upper = (upper.running(c_upper, toward_end=True) - lower.panels(b_lower).sum()
                   - upper.running(b_upper, toward_end=False))
        return _integral(halves, [j_lower ** 2, j_upper ** 2], "asymptotic-variance")


def sigma_g_squared(model: ParametricModel, m: MDMeasure) -> float:
    """Asymptotic variance of the plug-in estimator of g(D) + mean."""
    return _variance(model, m.g, _nodes(m.h), deviation_true(model, m))


def gaussian_limit(model: ParametricModel, m: MDMeasure) -> GaussianLimit:
    """md_true and sigma_g_squared sharing one deviation integral."""
    mean = model.mean()  # raises for heavy tails with no mean
    dev = deviation_true(model, m)
    variance = _variance(model, m.g, _nodes(m.h), dev)
    return GaussianLimit(center=float(m.g(dev)) + mean, variance=variance)


def _ks_statistic(z: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic of z against N(0, 1)."""
    n = z.size
    cdf = Normal().cdf(np.sort(z))
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                     (cdf - np.arange(0.0, n) / n).max()))


def worker_count() -> int:
    """Always 1: `monte_carlo` is serial.  The benchmark's machine record reads it."""
    return 1


def monte_carlo(
    model: ParametricModel,
    m: MDMeasure,
    n: int,
    replications: int,
    seed: int,
) -> MonteCarloReport:
    """Sample `replications` estimates of g(D) + mean at sample size n.

    Per-replication generators come from spawning the master seed, so the
    result does not depend on execution order.  The staircase weights depend
    only on n, so they are built once; each estimate is the float that
    `md_eval` gives on the same sample.
    """
    if n < 100:
        raise ValueError(f"sample size must be >= 100, got {n}")
    if replications < 100:
        raise ValueError(f"replications must be >= 100, got {replications}")

    limit = gaussian_limit(model, m)
    weights = staircase_weights(m.h, n)
    estimates = np.empty(replications)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        x = model.sample(n, child)
        deviation = staircase_sum(weights, np.diff(x.sorted_values()))
        estimates[i] = float(m.g(deviation)) + x.mean()

    scaled_var = float(n * np.var(estimates, ddof=1))
    standardized = (estimates - limit.center) * math.sqrt(n / limit.variance)
    ks = _ks_statistic(standardized)
    return MonteCarloReport(
        replications=replications,
        sample_size=n,
        estimates=estimates,
        scaled_variance=scaled_var,
        target_variance=limit.variance,
        center=limit.center,
        estimate_mean=float(np.mean(estimates)),
        normality_statistic=ks,
    )
