"""backtest: in-process ``run_backtest`` and ``markowitz_baseline``.

A seeded panel in the shape of the acceptance panel (10 assets, window 500,
alpha 0.9), cut to 580 business days so that one run of the batch fits in a
benchmark run: 4 rebalances with convex g (exp_shortfall, beta 3) and 4 with
linear g (lambda 1).  One Markowitz solve on a 500-day window (6-7 s, too
long to repeat in a run) runs once after the timed loop and is reported as
``markowitz_s``, outside the batch figures.  ``optimize_md`` and the Markowitz
projection loop do almost all the work.

The gate certifies every rebalance with an exact LP lower bound instead of
comparing with recorded weights, so a better solver passes: for s = g'(d0)
at the solution's deviation d0, convexity of g gives

    min f >= g(d0) - s d0 + min_w [(1 - s) mean(L w) + s ES_alpha(L w)],

and the inner minimum is the Rockafellar-Uryasev LP.
"""
from __future__ import annotations

import datetime as dt

import numpy as np

from common import Gate, es_h, median, no_error, op_times, staircase_deviation, timed

WINDOW = 500
ALPHA = 0.9
N_ASSETS = 10
N_DAYS = 580
QUICK = {"window": 60, "n_assets": 4, "n_days": 100}
N_RANDOM_POINTS = 200
# allowed optimality gap, as a share of the equal-weight ES of the window;
# the projected-subgradient solver reaches about 0.2 of this
GAP_SHARE = 0.05


def make_panel(seed: int, n_days: int, n_assets: int):
    from meandev.portfolio import LossPanel

    rng = np.random.Generator(np.random.PCG64(seed))
    vols = 0.008 + 0.02 * rng.random(n_assets)
    means = rng.normal(0.0002, 0.0004, n_assets)
    losses = rng.normal(means, vols, size=(n_days, n_assets))
    dates, d = [], dt.date(2018, 1, 1)
    while len(dates) < n_days:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return LossPanel(dates=tuple(dates), tickers=tuple(f"A{i}" for i in range(n_assets)),
                     losses=losses)


def make_inputs(seed: int, quick: bool) -> dict:
    from meandev import BacktestConfig, ExpShortfallWeight, LinearWeight

    shape = QUICK if quick else {"window": WINDOW, "n_assets": N_ASSETS, "n_days": N_DAYS}
    panel = make_panel(seed, shape["n_days"], shape["n_assets"])
    window = shape["window"]
    return {
        "panel": panel,
        "window": window,
        "configs": {
            "backtest_convex": BacktestConfig(window=window, alpha=ALPHA,
                                              g_spec=ExpShortfallWeight(3.0)),
            "backtest_linear": BacktestConfig(window=window, alpha=ALPHA,
                                              g_spec=LinearWeight(1.0)),
        },
        "markowitz_window": panel.losses[:window],
        "random_points": np.random.default_rng(seed).dirichlet(
            np.ones(shape["n_assets"]), size=N_RANDOM_POINTS),
    }


def run_batch(inputs) -> list:
    import meandev.portfolio as portfolio

    return [timed(name, portfolio.run_backtest, inputs["panel"], cfg)
            for name, cfg in inputs["configs"].items()]


def run_once(inputs) -> list:
    import meandev.portfolio as portfolio

    return [timed("markowitz", portfolio.markowitz_baseline, inputs["markowitz_window"])]


# --- correctness ---------------------------------------------------------

def objective(window, w, g, alpha) -> float:
    """g(ES_alpha - mean) + mean of the portfolio losses."""
    losses = window @ w
    return float(g(max(staircase_deviation(es_h(alpha), losses), 0.0))) + float(np.mean(losses))


def lp_value(window: np.ndarray, alpha: float, s: float) -> float:
    """min over the simplex of (1 - s) mean(L w) + s ES_alpha(L w), exactly."""
    from scipy.optimize import linprog  # not at the top: set-up time is the library's

    n, k = window.shape
    cost = np.concatenate([(1.0 - s) * window.mean(axis=0), [s],
                           np.full(n, s / ((1.0 - alpha) * n))])
    a_ub = np.hstack([window, -np.ones((n, 1)), -np.eye(n)])
    a_eq = np.concatenate([np.ones(k), [0.0], np.zeros(n)])[None, :]
    bounds = [(0.0, None)] * k + [(None, None)] + [(0.0, None)] * n
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def rebalance_problems(window, w, g, alpha, random_points) -> tuple[float, list[str]]:
    """(objective, problems) of one rebalance's weights."""
    problems = []
    if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
        problems.append("weights leave the simplex")
    f = objective(window, w, g, alpha)
    best_random = min(objective(window, r, g, alpha) for r in random_points)
    if f > best_random + 1e-8:
        problems.append(f"objective {f:.6g} beaten by a random simplex point {best_random:.6g}")
    d0 = max(staircase_deviation(es_h(alpha), window @ w), 0.0)
    s = g.left_derivative(max(d0, 1e-12))
    bound = float(g(d0)) - s * d0 + lp_value(window, alpha, s)
    equal = window.mean(axis=1)
    scale = staircase_deviation(es_h(alpha), equal) + float(np.mean(equal))
    if f < bound - 1e-9:
        problems.append(f"objective {f:.9g} below the certified lower bound {bound:.9g}")
    if f - bound > GAP_SHARE * abs(scale):
        problems.append(f"optimality gap {f - bound:.3g} above {GAP_SHARE} x {abs(scale):.3g}")
    return f, problems


def markowitz_problems(window, result) -> list[str]:
    """Mean-return constraint met and variance within 1e-4 of an SLSQP reference."""
    from scipy.optimize import minimize

    w = result.weights.w
    returns = -window.mean(axis=0)
    cov = np.cov(window, rowvar=False, ddof=1)
    problems = []
    if abs(float(returns @ w) - result.target_daily_return) > 1e-9:
        problems.append("target return not met")
    cons = [{"type": "eq", "fun": lambda v: np.sum(v) - 1.0},
            {"type": "eq", "fun": lambda v: returns @ v - result.target_daily_return}]
    start = np.full(w.size, 1.0 / w.size)
    ref = minimize(lambda v: v @ cov @ v, start, jac=lambda v: 2.0 * cov @ v,
                   bounds=[(0.0, 1.0)] * w.size, constraints=cons, method="SLSQP",
                   options={"ftol": 1e-15, "maxiter": 500})
    var_w, var_ref = float(w @ cov @ w), float(ref.fun)
    if ref.success and var_w > var_ref * (1.0 + 1e-4) + 1e-15:
        problems.append(f"variance {var_w:.6g} above the reference {var_ref:.6g}")
    return problems


def check(inputs, batches, gate: Gate) -> dict:
    """Gate every op; returns the achieved objective summed over rebalances."""
    panel, window = inputs["panel"], inputs["window"]
    objective_sums = []
    for _, ops in batches:
        total = None
        for op in ops:
            def checks(op):
                nonlocal total
                problems = no_error(op)
                if problems:
                    return problems
                if op.name == "markowitz":
                    return markowitz_problems(inputs["markowitz_window"], op.value)
                cfg = inputs["configs"][op.name]
                report = op.value
                if not np.all(np.isfinite(report.wealth)) or len(report.periods) < 1:
                    problems.append("non-finite wealth or no rebalance")
                for _, start, _, w in report.periods:
                    f, found = rebalance_problems(panel.losses[start - window:start], w,
                                                  cfg.g_spec, cfg.alpha, inputs["random_points"])
                    total = (total or 0.0) + f
                    problems += found
                return problems
            gate.op(op, checks)
        if total is not None:
            objective_sums.append(total)
    return {"portfolio.optimize_md.objective_sum": median(objective_sums)}


def end_to_end(batches) -> dict:
    return {f"{name}_s": median(op_times(batches, {name}))
            for name in ("backtest_convex", "backtest_linear", "markowitz")}


def traced_metrics(inputs, untraced, traced) -> dict:
    return {}
