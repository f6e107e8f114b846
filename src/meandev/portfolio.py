"""Portfolio selection minimizing g(ES-deviation) + mean, with backtesting.

With m(w) = mean(L w) and d(w) = ES_alpha(L w) - m(w) on the window's
losses L, the per-period program min over the simplex of m(w) + g(d(w)) is
solved exactly through the LP value psi(s) = min over the simplex of
m(w) + s d(w): one LP at s = lambda for linear g; for convex g, where the
optimum minimizes psi at s* = g'(d(w*)), a breakpoint search over the
vertices of psi.  The certificate is the duality gap f(w) - [psi(s) - g*(s)]
against a lower bound on the optimum that holds for every s, as
g(d) >= s d - g*(s); at s = g'(d0), d0 = d(w), the bound is
g(d0) - s d0 + psi(s).

Backtests rebalance on the first trading day of each calendar month using
the trailing window of losses, compound wealth by exp(-w . loss) daily, and
report annualized return, volatility, and the Sharpe ratio.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.optimize import linprog

from .distributions import StateVector
from .estimation import NumericsError
from .measures import es_alpha
from .riskweight import ExpShortfallWeight, RiskWeightFunction, conjugate

__all__ = [
    "LossPanel",
    "PortfolioWeights",
    "BacktestConfig",
    "BacktestReport",
    "MarkowitzResult",
    "ingest_prices",
    "parse_price_rows",
    "project_simplex",
    "portfolio_objective",
    "optimize_md",
    "run_backtest",
    "wealth_from_periods",
    "markowitz_baseline",
]

TRADING_DAYS_PER_YEAR = 252
_GAP_TOLERANCE = 1e-9  # in units of the largest absolute loss, as is the next
_EDGE_TOLERANCE = 1e-12
_MAX_LP_SOLVES = 100  # every LP of the breakpoint search finds a new vertex of psi
_MARKOWITZ_ITERATIONS = 2000


@dataclass(frozen=True)
class LossPanel:
    """Daily log-losses (negated log-returns), rows = dates, columns = assets."""

    dates: tuple
    tickers: tuple
    losses: np.ndarray

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 2:
            raise ValueError("losses must be a 2-D matrix")
        if len(self.dates) != losses.shape[0]:
            raise ValueError("one date per loss row is required")
        if len(self.tickers) != losses.shape[1]:
            raise ValueError("one ticker per loss column is required")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must all be finite")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        object.__setattr__(self, "losses", losses)
        losses.setflags(write=False)

    @property
    def n_days(self) -> int:
        return self.losses.shape[0]

    @property
    def n_assets(self) -> int:
        return self.losses.shape[1]


@dataclass(frozen=True)
class PortfolioWeights:
    w: np.ndarray
    gap: float | None = None  # set by optimize_md: its duality gap and LP count
    lp_solves: int | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must form a nonempty vector")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        w = np.maximum(w, 0.0)
        w = w / np.sum(w)
        object.__setattr__(self, "w", w)
        w.setflags(write=False)


@dataclass(frozen=True)
class BacktestConfig:
    window: int = 500
    rebalance: str = "monthly"
    alpha: float = 0.9
    g_spec: RiskWeightFunction = field(default_factory=lambda: ExpShortfallWeight(10.0))
    risk_free_rate: float = 0.0213
    initial_wealth: float = 1.0

    def __post_init__(self):
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.rebalance != "monthly":
            raise ValueError(f"unsupported rebalance rule: {self.rebalance!r}")
        if self.initial_wealth <= 0.0:
            raise ValueError("initial wealth must be positive")


@dataclass(frozen=True)
class BacktestReport:
    dates: tuple
    wealth: np.ndarray
    annualized_return: float
    annualized_volatility: float
    sharpe_ratio: float
    periods: tuple  # (rebalance date, start row, end row, weight vector)

    def as_dict(self) -> dict:
        return {
            "annualized_return": self.annualized_return,
            "annualized_volatility": self.annualized_volatility,
            "sharpe_ratio": self.sharpe_ratio,
            "final_wealth": float(self.wealth[-1]),
            "days": len(self.dates),
            "rebalances": len(self.periods),
        }


@dataclass(frozen=True)
class MarkowitzResult:
    weights: PortfolioWeights
    target_daily_return: float
    target_clamped: bool


def parse_price_rows(rows, source: str = "<prices>") -> LossPanel:
    """Build a LossPanel from parsed CSV rows (header first); drops the first date."""
    rows = list(rows)
    if not rows:
        raise ValueError(f"{source}: empty price table")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise ValueError(f"{source}: header must be 'date' followed by one column per ticker")
    tickers = tuple(header[1:])
    dates: list[dt.date] = []
    prices: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{source}: row {lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ValueError(f"{source}: row {lineno}: bad date {row[0]!r}") from exc
        if dates and date <= dates[-1]:
            raise ValueError(f"{source}: row {lineno}: dates must be strictly increasing")
        values = []
        for ticker, cell in zip(tickers, row[1:]):
            cell = cell.strip()
            if not cell:
                raise ValueError(f"{source}: row {lineno}: missing price for {ticker}")
            try:
                price = float(cell)
            except ValueError as exc:
                raise ValueError(f"{source}: row {lineno}: bad price {cell!r} for {ticker}") from exc
            if not math.isfinite(price) or price <= 0.0:
                raise ValueError(f"{source}: row {lineno}: nonpositive price for {ticker}")
            values.append(price)
        dates.append(date)
        prices.append(values)
    if len(prices) < 2:
        raise ValueError(f"{source}: need at least two dates to form losses")
    matrix = np.asarray(prices, dtype=float)
    losses = -np.log(matrix[1:] / matrix[:-1])
    return LossPanel(dates=tuple(dates[1:]), tickers=tickers, losses=losses)


def ingest_prices(path: str) -> LossPanel:
    """Read a price CSV (date column plus one price column per ticker)."""
    with open(path, newline="") as fh:
        return parse_price_rows(csv.reader(fh), source=path)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorting algorithm)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    valid = u * ranks > cumulative
    rho = int(np.nonzero(valid)[0][-1])
    theta = cumulative[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def _mean_and_deviation(portfolio_losses: np.ndarray, alpha: float) -> tuple[float, float]:
    x = StateVector(portfolio_losses)
    mean = x.mean()
    return mean, es_alpha(x, alpha) - mean


def portfolio_objective(
    window: np.ndarray, w: np.ndarray, g: RiskWeightFunction, alpha: float
) -> float:
    """Exact per-period objective: g(ES-deviation of L w) + mean(L w)."""
    mean, dev = _mean_and_deviation(np.asarray(window) @ np.asarray(w), alpha)
    return float(g(max(dev, 0.0))) + mean


@dataclass(frozen=True)
class _Vertex:
    """An optimal w of the tail LP at s.  Its line mean + t dev supports psi
    at s, with mean = psi - s dev exactly even where w is optimal only to the
    LP's tolerance."""

    s: float
    psi: float
    w: np.ndarray
    dev: float
    mean: float


def _tail_lp(window: np.ndarray, alpha: float, s: float, scale: float) -> _Vertex:
    """psi(s) = max eta s.t. eta <= (1 - s) m_j + s q . L_j for every asset j,
    with q in [0, 1/((1 - alpha) n)]^n and sum q = 1, and an optimal vertex.

    The LP runs on L / scale, since the solver's tolerances are absolute.
    """
    n, k = window.shape
    unit = window / scale
    res = linprog(np.append(np.zeros(n), -1.0),
                  A_ub=np.hstack([-s * unit.T, np.ones((k, 1))]),
                  b_ub=(1.0 - s) * unit.mean(axis=0),
                  A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0 / ((1.0 - alpha) * n))] * n + [(None, None)],
                  method="highs", options={"dual_feasibility_tolerance": 1e-10,
                                           "primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise NumericsError(f"tail LP at s = {s:.6g} failed: {res.message}")
    w = np.maximum(-res.ineqlin.marginals, 0.0)
    w = w / np.sum(w)
    psi, dev = -scale * float(res.fun), _mean_and_deviation(window @ w, alpha)[1]
    return _Vertex(s, psi, w, dev, psi - s * dev)


def optimize_md(window: np.ndarray, cfg: BacktestConfig) -> PortfolioWeights:
    """Minimize the per-period objective over the simplex, with a certificate.

    s -> g'(d(w_s)) is nonincreasing, so g' at equal weights and its image
    bracket s*.  An LP where the lines of the two ends cross either finds a
    vertex between them, which replaces the end on its side of s*, or shows
    them adjacent; then m + s d = psi(s) on their edge, and the optimum is the
    edge point minimizing g(d) - s d.  Raises NumericsError when an LP fails
    or the duality gap exceeds its tolerance.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] < 2:
        raise ValueError("need a 2-D loss window with at least two rows")
    g = cfg.g_spec
    if not g.classify().is_convex:
        raise ValueError("the per-period program is convex only for convex "
                         "risk-weighting functions; got a non-convex one")
    if window.shape[1] == 1:
        return PortfolioWeights(np.array([1.0]), gap=0.0, lp_solves=0)

    alpha = cfg.alpha
    scale = float(np.max(np.abs(window))) or 1.0
    tol = _EDGE_TOLERANCE * scale
    vertex = cache(lambda s: _tail_lp(window, alpha, s, scale))

    def slope(d: float) -> float:
        return g.left_derivative(max(d, 1e-12))  # a left derivative needs d > 0

    first = vertex(slope(_mean_and_deviation(window.mean(axis=1), alpha)[1]))
    lo, hi = sorted((first, vertex(slope(first.dev))), key=lambda v: v.s)
    for _ in range(_MAX_LP_SOLVES):
        if lo.dev - hi.dev <= tol:
            w, d = lo.w, lo.dev
            break
        s = min(max((hi.mean - lo.mean) / (lo.dev - hi.dev), lo.s), hi.s)
        mid = vertex(s)
        if mid.psi >= lo.mean + s * lo.dev - tol:  # adjacent: bisect on g'(d) <= s
            d, d_hi = (lo.dev, lo.dev) if slope(lo.dev) <= s else (hi.dev, lo.dev)
            while d < 0.5 * (d + d_hi) < d_hi:
                d_mid = 0.5 * (d + d_hi)
                d, d_hi = (d_mid, d_hi) if slope(d_mid) <= s else (d, d_mid)
            w = lo.w + (lo.dev - d) / (lo.dev - hi.dev) * (hi.w - lo.w)
            break
        lo, hi = (mid, hi) if slope(mid.dev) >= s else (lo, mid)
    else:
        raise NumericsError(f"breakpoint search still open after {_MAX_LP_SOLVES} LPs")
    if not hi.dev < d < lo.dev:  # inside an edge the kink s is in the subdifferential
        s = slope(d)
    mean, dev = _mean_and_deviation(window @ w, alpha)
    gap = mean + float(g(max(dev, 0.0))) - vertex(s).psi + conjugate(g, s)
    if not abs(gap) <= _GAP_TOLERANCE * scale:
        raise NumericsError(f"portfolio solve not certified: duality gap {gap:.3g}")
    return PortfolioWeights(w, gap=gap, lp_solves=vertex.cache_info().misses)


def _month_starts(dates) -> list[int]:
    starts = [0]
    for i in range(1, len(dates)):
        if (dates[i].year, dates[i].month) != (dates[i - 1].year, dates[i - 1].month):
            starts.append(i)
    return starts


def wealth_from_periods(panel: LossPanel, periods, initial_wealth: float) -> np.ndarray:
    """Compound wealth day by day from stored period weights (exact replay)."""
    chunks = []
    wealth = initial_wealth
    for _, start, end, w in periods:
        factors = np.exp(-(panel.losses[start:end] @ w))
        path = wealth * np.cumprod(factors)
        wealth = float(path[-1])
        chunks.append(path)
    return np.concatenate(chunks)


def run_backtest(panel: LossPanel, cfg: BacktestConfig) -> BacktestReport:
    """Monthly-rebalanced backtest on the trailing loss window, no transaction costs."""
    if panel.n_days < cfg.window + 1:
        raise ValueError(
            f"insufficient history: need more than window={cfg.window} rows, "
            f"got {panel.n_days}"
        )
    rebalance_rows = [i for i in _month_starts(panel.dates) if i >= cfg.window]
    if not rebalance_rows:
        raise ValueError("insufficient history: no month start after the first window")

    periods = []
    for j, start in enumerate(rebalance_rows):
        end = rebalance_rows[j + 1] if j + 1 < len(rebalance_rows) else panel.n_days
        weights = optimize_md(panel.losses[start - cfg.window : start], cfg)
        periods.append((panel.dates[start], start, end, weights.w))
    periods = tuple(periods)

    wealth = wealth_from_periods(panel, periods, cfg.initial_wealth)
    first_row = rebalance_rows[0]
    dates = tuple(panel.dates[first_row:])

    log_returns = np.concatenate(
        [-(panel.losses[start:end] @ w) for _, start, end, w in periods]
    )
    ar = TRADING_DAYS_PER_YEAR * float(np.mean(log_returns))
    if np.ptp(log_returns) == 0.0:
        av = 0.0  # all daily returns identical: volatility is exactly zero
    else:
        av = math.sqrt(TRADING_DAYS_PER_YEAR) * float(np.std(log_returns, ddof=1))
    sr = math.inf if av == 0.0 else (ar - cfg.risk_free_rate) / av
    return BacktestReport(
        dates=dates,
        wealth=wealth,
        annualized_return=ar,
        annualized_volatility=av,
        sharpe_ratio=sr,
        periods=periods,
    )


def _project_simplex_with_mean(v: np.ndarray, returns: np.ndarray, target: float) -> np.ndarray:
    """Projection onto the simplex intersected with a mean-return constraint.

    Shifts the point along the return vector before the simplex projection;
    the achieved mean return is monotone in the shift, so bisection finds
    the multiplier.  The target must already be feasible.
    """
    lo_val = float(np.min(returns))
    hi_val = float(np.max(returns))
    if hi_val - lo_val < 1e-15:
        return project_simplex(v)

    def achieved(tau: float) -> float:
        return float(returns @ project_simplex(v + tau * returns))

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if achieved(lo) <= target:
            break
        lo *= 2.0
    for _ in range(80):
        if achieved(hi) >= target:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if achieved(mid) < target:
            lo = mid
        else:
            hi = mid
    return project_simplex(v + 0.5 * (lo + hi) * returns)


def markowitz_baseline(
    window: np.ndarray,
    target_return: float = 0.10,
    periods_per_year: int = TRADING_DAYS_PER_YEAR,
) -> MarkowitzResult:
    """Minimum-variance weights at a fixed annualized expected log-return.

    Projected gradient with a fixed step from an equal-weight start; an
    infeasible target is clamped to the nearest attainable daily mean
    return and flagged.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] < 2:
        raise ValueError("need a 2-D loss window with at least two rows")
    n_assets = window.shape[1]
    if n_assets == 1:
        return MarkowitzResult(PortfolioWeights(np.array([1.0])),
                               float(-window.mean()), False)

    returns = -window.mean(axis=0)
    target = target_return / periods_per_year
    clamped = False
    lo, hi = float(np.min(returns)), float(np.max(returns))
    if target < lo:
        target, clamped = lo, True
    elif target > hi:
        target, clamped = hi, True

    cov = np.cov(window, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eigmax = float(np.max(np.linalg.eigvalsh(cov)))
    step = 1.0 / (2.0 * eigmax + 1e-12)

    w = _project_simplex_with_mean(np.full(n_assets, 1.0 / n_assets), returns, target)
    for _ in range(_MARKOWITZ_ITERATIONS):
        w = _project_simplex_with_mean(w - step * (2.0 * cov @ w), returns, target)
    return MarkowitzResult(PortfolioWeights(w), target, clamped)
