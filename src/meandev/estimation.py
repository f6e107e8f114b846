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

Both integrals use one fixed grid of 32-point Gauss-Legendre panels whose
panels and nodes run in ascending u over (0, 1).  Below u = 1/2 the panels
are in u = e^-t and above it in u = 1 - e^-t, for t in [log 2, 36], of
width at most 3 and split at the kinks of h' and at t = 30; the lower block
is stored reversed, so the symmetric nodes put every panel in increasing u.
Each integrand is formed once over the whole grid: B is one running sum from
u = 0 and C one running sum toward u = 1, and within a panel a running sum
is the Legendre integration matrix applied to the node values.  The grid and
h'(1 - u) at its nodes depend on h alone, so they are built once per
distortion and cached, read-only, for every later call with an equal h; only
the quantile and density evaluations depend on the model.
Beyond t = 36 the level 1 - e^-t rounds to 1, so the grid stops there at
both ends.  Its two tail windows are the panels with t in [30, 36] at
u -> 0 and at u -> 1; an integral whose windows together hold more than
1e-3 of its total decays too slowly to trust the truncation, and it raises
NumericsError, as does a non-finite total.

The deviation integrand is the quantile minus its value at the first node
above u = 1/2: h'(1 - u) integrates to 0, so the constant drops out of the
value, and a large location no longer swamps the sum or the tail windows.

Monte Carlo draws its replications in blocks of rows, one row per spawned
seed, and shares the blocks out over every core the process may run on:
each share runs on a thread of a `concurrent.futures` pool while the calling
thread waits.  A block's element work (the PCG64 fill, the quantile, the row
means and sorts) runs in numpy, which releases the GIL.  Each sorted row goes
through `distortion.staircase_sum`, the kernel of `choquet_deviation`, which
holds one chunk of gaps and weights beside the row; so each estimate is the
float that `md_eval` gives on the same sample, whatever the thread count.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from ._spec import NumericsError
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
# sample values per Monte Carlo block: enough rows that numpy's element work,
# not the per-row calls or the shares' GIL handoffs, takes the time, and few
# enough that each share's one 1 MiB block buffer fits in a 2 MiB L2 cache
_BLOCK_VALUES = 2 ** 17
# largest float spacing at the Monte Carlo center as a share of the estimates'
# standard deviation sqrt(sigma^2 / n), so rounding moves an estimate by a few
# hundredths of one at most (Normal(1e12, 1) at n = 400 reads 1.3e-3)
_SPACING_SHARE = 1e-2


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
    # diagnostics, kept out of as_dict(): threads used, and the standard
    # error of scaled_variance from the estimates' fourth central moment
    workers: int
    scaled_variance_se: float

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
class _Grid:
    """Gauss-Legendre nodes over (0, 1) in ascending u, one row per panel.

    Panels ``[:split]`` hold u = e^-t < 1/2 and ``[split:]`` hold
    u = 1 - e^-t > 1/2; ``eps`` holds e^-t, so evaluations near either
    endpoint stay exact.  The lower block is stored reversed, panels and
    nodes, so node j of every panel sits at standardized abscissa
    ``_GL_NODES[j]`` in increasing u.  Integrals are of f(u) du with f given
    at the nodes.
    """

    eps: np.ndarray  # (panels, 32) e^-t
    level: np.ndarray  # (panels, 32) u
    complement: np.ndarray  # (panels, 32) 1 - u
    scale: np.ndarray  # (panels,) panel half-widths in t
    weight: np.ndarray  # (panels, 32) h'(1 - u)
    split: int  # first panel of the u > 1/2 block
    tails: tuple[slice, slice]  # panels with t in [_TAIL_CHECK, _TAIL_CUTOFF] at u -> 0 and u -> 1

    def evaluate(self, lower, upper) -> np.ndarray:
        """``lower`` at u on the u < 1/2 block beside ``upper`` at 1 - u on the rest."""
        return np.concatenate((lower(self.eps[:self.split]), upper(self.eps[self.split:])))


@functools.lru_cache(maxsize=32)
def _nodes(h) -> _Grid:
    """The fixed grid of h and h'(1 - u) at its nodes, built once per distortion.

    Panels have width <= 3 and split at the kinks of h' and at t = 30.  Equal
    distortions give equal tables, so the cache is keyed by value; every
    array is read-only because all callers share it.
    """
    kinks = [1.0 - s for s in h.kink_points()]
    blocks = []
    for upper in (False, True):
        fracs = [1.0 - p if upper else p for p in kinks]
        points = [-math.log(f) for f in fracs if 0.0 < f < 0.5] + [_TAIL_CHECK]
        breaks = _tail_breaks(points, _LOG_HALF, _TAIL_CUTOFF)
        los, his = breaks[:-1], breaks[1:]
        scale = 0.5 * (his - los)
        eps = np.exp(-(0.5 * (his + los)[:, None] + scale[:, None] * _GL_NODES))
        tail = int(np.count_nonzero(los >= _TAIL_CHECK))
        # t grows away from u = 1/2, so the lower block is turned round
        blocks.append((eps, scale, tail) if upper else (eps[::-1, ::-1], scale[::-1], tail))
    (lower_eps, lower_scale, lower_tail), (upper_eps, upper_scale, upper_tail) = blocks
    split, panels = len(lower_scale), len(lower_scale) + len(upper_scale)
    eps = np.concatenate((lower_eps, upper_eps))
    level = np.concatenate((lower_eps, 1.0 - upper_eps))
    with np.errstate(all="ignore"):  # _integral raises on a non-finite total
        weight = np.asarray(h.quantile_weight(level), dtype=float)
    grid = _Grid(eps, level, np.concatenate((1.0 - lower_eps, upper_eps)),
                 np.concatenate((lower_scale, upper_scale)), weight, split,
                 (slice(0, lower_tail), slice(panels - upper_tail, panels)))
    for a in (grid.eps, grid.level, grid.complement, grid.scale, grid.weight):
        a.setflags(write=False)
    return grid


def _integral(grid: _Grid, f: np.ndarray, what: str) -> float:
    """Integral over (0, 1) of f given at the nodes, with the tail rule."""
    panels = grid.scale * ((f * grid.eps) @ _GL_WEIGHTS)
    total = float(panels.sum())
    if not math.isfinite(total):
        raise NumericsError(f"{what} integral evaluated to a non-finite value")
    low, high = grid.tails
    window = abs(float(panels[low].sum())) + abs(float(panels[high].sum()))
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
    grid = _nodes(m.h)
    with np.errstate(all="ignore"):  # _integral raises on a non-finite total
        q = grid.evaluate(model.quantile, model.quantile_upper)
        # h'(1 - u) integrates to 0, so subtracting a constant leaves the
        # integral unchanged; taking the quantile just above u = 1/2 keeps a
        # large location from swamping the sum and the tail windows
        return _integral(grid, grid.weight * (q - q[grid.split, 0]), "population deviation")


def md_true(model: ParametricModel, m: MDMeasure) -> float:
    """Population value g(D(X)) + E[X]."""
    mean = model.mean()  # raises for heavy tails with no mean
    return float(m.g(deviation_true(model, m))) + mean


def _variance(model: ParametricModel, g, grid: _Grid, dev: float) -> float:
    """sigma^2 = integral of (C - B)^2 given h's grid and the population deviation."""
    gprime = g.left_derivative(dev) if dev > 0.0 else g.left_derivative(1e-12)
    scale = grid.scale[:, None]
    with np.errstate(all="ignore"):  # _integral raises on a non-finite total
        ratio = (grid.weight * gprime + 1.0) / grid.evaluate(
            model.density_quantile, model.density_quantile_upper)
        # the integrands of B and C times |du/dt| = e^-t, as in _integral
        b, c = ratio * grid.level * grid.eps, ratio * grid.complement * grid.eps
        # B(u) runs from u = 0 and C(u) toward u = 1, each a sum of whole
        # panels plus the part of its own panel
        b_panels, c_panels = grid.scale * (b @ _GL_WEIGHTS), grid.scale * (c @ _GL_WEIGHTS)
        b_before = np.cumsum(np.concatenate(([0.0], b_panels[:-1])))
        c_after = np.cumsum(np.concatenate(([0.0], c_panels[:0:-1])))[::-1]
        j = (c_after[:, None] + scale * (c @ _GL_SUFFIX.T)
             - b_before[:, None] - scale * (b @ _GL_PREFIX.T))
        return _integral(grid, j * j, "asymptotic-variance")


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
    """The cores this process may run on: the threads `monte_carlo` can use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def monte_carlo(
    model: ParametricModel,
    m: MDMeasure,
    n: int,
    replications: int,
    seed: int,
) -> MonteCarloReport:
    """Sample `replications` estimates of g(D) + mean at sample size n.

    Per-replication generators come from spawning the master seed, so the
    result does not depend on execution order.  Replications run in blocks
    of min(replications, max(1, 2^17 // n)) rows.  Share k of
    w = min(worker_count(), blocks) takes blocks k, k + w, k + 2w, ... on a
    pool thread while the calling thread waits; it draws each block into one
    buffer of its own, where numpy averages and sorts it, and writes the
    block's own slots of the estimates.  The staircase weights depend only
    on n, so they are built once; each sorted row forms its gaps one chunk
    at a time, and each estimate is the float that `md_eval` gives on
    ``model.sample(n, child)``.  Raises NumericsError when the asymptotic
    variance is too small to standardize the estimates (it underflows to 0,
    or n / sigma^2 overflows), or when the float spacing at the center is
    not small against their standard deviation sqrt(sigma^2 / n).
    """
    if n < 100:
        raise ValueError(f"sample size must be >= 100, got {n}")
    if replications < 100:
        raise ValueError(f"replications must be >= 100, got {replications}")

    limit = gaussian_limit(model, m)
    if limit.variance == 0.0 or math.isinf(n / limit.variance):
        raise NumericsError(
            f"the asymptotic variance {limit.variance:.3g} is too small to standardize "
            f"the estimates at n = {n}, so the normality statistic is undefined")
    spacing, spread = math.ulp(limit.center), math.sqrt(limit.variance / n)
    if spacing > _SPACING_SHARE * spread:
        raise NumericsError(
            f"the float spacing {spacing:.3g} at the center {limit.center:.3g} "
            f"is not small against the estimates' standard deviation {spread:.3g} at n = {n}, "
            "so the draws cannot resolve the estimator's spread")
    from concurrent.futures import ThreadPoolExecutor  # kept out of `import meandev`

    weights = staircase_weights(m.h, n)
    children = np.random.SeedSequence(seed).spawn(replications)
    rows = min(replications, max(1, _BLOCK_VALUES // n))
    workers = min(worker_count(), -(-replications // rows))
    estimates = np.empty(replications)

    def share(k: int) -> None:
        block = np.empty((rows, n))
        for start in range(k * rows, replications, workers * rows):
            x = model.sample_block(n, children[start:start + rows], out=block)
            means = np.mean(x, axis=1)
            x.sort(axis=1)
            for i, (row, mean) in enumerate(zip(x, means.tolist())):
                dev = staircase_sum(lambda a, b: weights[a:b], row)
                estimates[start + i] = float(m.g(dev)) + mean

    # map yields in share order, so the error raised is the first failing
    # share's; leaving the with block joins every thread before it propagates
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(share, range(workers)))
    s2 = float(np.var(estimates, ddof=1))
    # Var(s^2) = (m4 - (R - 3) / (R - 1) s^4) / R, with no normality assumption
    m4 = float(np.mean((estimates - np.mean(estimates)) ** 4))
    var_s2 = (m4 - (replications - 3) / (replications - 1) * s2 * s2) / replications
    standardized = (estimates - limit.center) * math.sqrt(n / limit.variance)
    ks = _ks_statistic(standardized)
    return MonteCarloReport(
        replications=replications,
        sample_size=n,
        estimates=estimates,
        scaled_variance=n * s2,
        target_variance=limit.variance,
        center=limit.center,
        estimate_mean=float(np.mean(estimates)),
        normality_statistic=ks,
        workers=workers,
        scaled_variance_se=n * math.sqrt(max(var_s2, 0.0)),
    )
