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

Each psi(s) is an LP over the tail probabilities p of the window's days, with
k + 1 rows for k assets, solved by an in-house revised bounded-variable simplex:
the first from the tail of L w0, later ones by a dual simplex from the nearest
solved basis.  A pivot updates the basis inverse by one rank-1 step; it is
refactored every k + 1 pivots and before optimality is declared.  Its primal p
and dual w bracket psi(s) between min_j (L^T p)_j and m(w) + s d(w); the lower
end is the psi the certificate uses, and the LP raises NumericsError when the
ends lie further apart than the gap tolerance.

Backtests rebalance on the first trading day of each calendar month using
the trailing window of losses, compound wealth by exp(-w . loss) daily, and
report annualized return, volatility, and the Sharpe ratio.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from ._spec import NumericsError
from .distributions import StateVector
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
_GAP_TOLERANCE = 1e-9  # relative to max|L| (Markowitz: max|2S| and unit weight), as is the next
_EDGE_TOLERANCE = 1e-12
_MAX_LP_SOLVES = 100  # every LP of the breakpoint search finds a new vertex of psi


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
    gap: float | None = None  # set by optimize_md: its duality gap, LP count
    lp_solves: int | None = None  # and each LP's pivots: basis changes plus bound flips,
    pivots: tuple[int, ...] | None = None  # not the refactors of the basis inverse

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
        if not math.isfinite(self.risk_free_rate):
            raise ValueError(f"risk-free rate must be finite, got {self.risk_free_rate}")
        if not 0.0 < self.initial_wealth < math.inf:
            raise ValueError("initial wealth must be positive")


@dataclass(frozen=True)
class BacktestReport:
    dates: tuple
    wealth: np.ndarray
    annualized_return: float
    annualized_volatility: float
    sharpe_ratio: float
    periods: tuple  # (rebalance date, start row, end row, weight vector)
    max_gap: float  # largest |duality gap| of the rebalance solves
    lp_solves: int  # tail LPs over all rebalance solves
    pivots: int  # their simplex pivots

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
    kkt_residual: float  # the largest KKT violation of the weights: their certificate


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
            if not math.isfinite(price):
                raise ValueError(f"{source}: row {lineno}: non-finite price {cell!r} for {ticker}")
            if price <= 0.0:
                raise ValueError(f"{source}: row {lineno}: nonpositive price for {ticker}")
            values.append(price)
        dates.append(date)
        prices.append(values)
    if len(prices) < 2:
        raise ValueError(f"{source}: need at least two dates to form losses")
    matrix = np.asarray(prices, dtype=float)
    with np.errstate(all="ignore"):  # LossPanel rejects the non-finite losses of extreme prices
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
    """An optimal w of the tail LP at s, and the basis and bound sides that
    restart it at another s.  Its line mean + t dev supports psi at s, with
    mean = psi - s dev exactly even where w is optimal only to its tolerance."""

    s: float
    psi: float
    w: np.ndarray
    dev: float
    mean: float
    basis: np.ndarray
    upper: np.ndarray
    pivots: int


def _tail_lp(window: np.ndarray, alpha: float, s: float, scale: float,
             start: np.ndarray | _Vertex) -> _Vertex:
    """psi(s) = max eta s.t. eta <= (L^T p)_j for every asset j, sum p = 1 and
    (1 - s)/n <= p_i <= (1 - s)/n + s/((1 - alpha) n), with its optimal w.

    A revised bounded-variable simplex on L / scale over (p, eta, slacks), so
    its tolerances are relative to max|L|.  From weights w0 it starts feasible
    at the tail vertex of L w0 (p at its upper bound on the largest losses, one
    p basic); from a vertex at another s, a dual simplex repairs its basis (the
    largest bound violation leaves, the least |d_j / alpha_rj| enters).  Then
    Dantzig's rule prices, or Bland's after degenerate runs.  Each basis change
    updates B^-1 by one eta (rank-1) step and x_B by the step taken; both are
    solved afresh after k + 1 pivots, and always before optimality is declared,
    so the returned vertex comes from a fresh inverse.  w is the asset rows'
    duals; the primal bound psi = min_j (L^T p)_j lies within the gap
    tolerance below the dual m + s d of L w.
    """
    n, k = window.shape
    lo, width = (1.0 - s) / n, s / ((1.0 - alpha) * n)
    lower = np.concatenate([np.full(n, lo), [-np.inf], np.zeros(k)])
    upper = np.concatenate([np.full(n, lo + width), np.full(k + 1, np.inf)])
    a = np.vstack([np.hstack([-window.T / scale, np.ones((k, 1)), np.eye(k)]),
                   np.concatenate([np.ones(n), np.zeros(k + 1)])])
    b = np.eye(k + 1)[k]
    dual, degenerate = isinstance(start, _Vertex), 0
    if dual:
        basis, x = start.basis.tolist(), np.where(start.upper, upper, lower)
    else:
        order = np.argsort(-(window @ start), kind="stable")
        tail, x = order[:min(int((1.0 - alpha) * n), n - 1)], lower.copy()
        x[tail], x[n] = upper[tail], 0.0
        f = int(order[tail.size])  # the one basic p, at the fraction that makes sum p = 1
        x[f] = 1.0 - (np.sum(x[:n]) - x[f])
        tightest = int(np.argmin(x[:n] @ window))  # eta sits on this row, its slack at 0
        basis = [n, f] + [n + 1 + j for j in range(k) if j != tightest]
    side = (x < upper) - (x > lower).astype(float)  # +1 may rise, -1 may fall, 0 basic or fixed
    side[basis] = 0.0
    low, high, tol, cap = lower.tolist(), upper.tolist(), _EDGE_TOLERANCE, 10 * (n + k)
    pivots, stale = 0, None  # stale: pivots since B^-1 and x_B were solved; None: solve now
    while pivots < cap:  # a warm start takes tens of pivots
        if stale is None:
            inverse, stale, rest = np.linalg.inv(a[:, basis]), 0, x.copy()
            rest[basis] = 0.0
            xb = (inverse @ (b - a @ rest)).tolist()
        y = inverse[0]  # the duals: eta is basis[0] and, being free, never leaves
        d = -(y @ a)  # reduced costs off the basis, where the objective has no entry
        if dual:
            excess = [max(low[j] - v, v - high[j]) for j, v in zip(basis, xb)]
            r = excess.index(max(excess))
            dual = excess[r] > tol / n  # relative to the mean p
        if dual:  # x_B[r] leaves at the bound it breaks; moving x_j helps it where toward > 0
            toward = math.copysign(1.0, xb[r] - low[basis[r]]) * side * (inverse[r] @ a)
            able = toward > tol
            ratio = np.divide(np.abs(d), toward, out=np.full(d.size, np.inf), where=able)
            if not able[q := int(ratio.argmin())]:
                raise NumericsError(f"tail LP at s = {s:.6g} found no entering variable")
            column = (col := inverse @ a[:, q]).tolist()
            bound = min(max(xb[r], low[basis[r]]), high[basis[r]])
            step = (xb[r] - bound) / column[r]  # the change in x_q
        else:
            gain = side * d
            bland = degenerate > k
            q = int((gain > tol).argmax() if bland else gain.argmax())
            if not gain[q] > tol:
                if stale == 0:
                    break
                stale = None  # confirm optimality on a fresh B^-1 and x_B
                continue
            column, rising = (col := inverse @ a[:, q]).tolist(), side[q] > 0.0
            rate = [-c if rising else c for c in column]
            # x_B may sit a rounding error outside its bounds
            room = [max(((high[j] if t > 0.0 else low[j]) - v) / t, 0.0) if abs(t) > tol
                    else math.inf for j, v, t in zip(basis, xb, rate)]
            least = min(room)
            r = (min((i for i, t in enumerate(room) if t == least), key=basis.__getitem__)
                 if bland else room.index(least))
            flip = high[q] - low[q]
            move = min(flip, room[r])
            if math.isinf(move):
                raise NumericsError(f"tail LP at s = {s:.6g} is unbounded")
            degenerate = degenerate + 1 if move <= tol * width else 0
            step = move if rising else -move
            bound = high[basis[r]] if rate[r] > 0.0 else low[basis[r]]
            if flip <= room[r]:  # q crosses its box before any basic variable blocks it
                x[q], side[q], r = (high[q], -1.0, None) if rising else (low[q], 1.0, None)
        xb = [v - step * c for v, c in zip(xb, column)]
        if r is not None:  # q enters at row r; the leaving variable rests at its bound
            j = basis[r]
            x[j], side[j] = bound, (bound < high[j]) - (bound > low[j])
            xb[r], side[q], basis[r] = float(x[q]) + step, 0.0, q
            pivot = inverse[r] / column[r]
            inverse -= col[:, None] * pivot
            inverse[r] = pivot
        pivots, stale = pivots + 1, None if stale == k else stale + 1
    else:
        raise NumericsError(f"tail LP at s = {s:.6g} still open after {cap} pivots")
    x[basis] = xb
    w = np.maximum(y[:k], 0.0)
    w = w / np.sum(w)
    psi = float(np.min(x[:n] @ window))
    mean, dev = _mean_and_deviation(window @ w, alpha)
    if not mean + s * dev - psi <= _GAP_TOLERANCE * scale:
        raise NumericsError(f"tail LP at s = {s:.6g} not certified: gap {mean + s * dev - psi:.3g}")
    return _Vertex(s, psi, w, dev, psi - s * dev, np.array(basis), x >= upper, pivots)


def optimize_md(window: np.ndarray, cfg: BacktestConfig,
                w0: np.ndarray | None = None) -> PortfolioWeights:
    """Minimize the per-period objective over the simplex, with a certificate.

    s -> g'(d(w_s)) is nonincreasing, so g' at equal weights and its image
    bracket s*.  An LP where the lines of the two ends cross either finds a
    vertex between them, which replaces the end on its side of s*, or shows
    them adjacent; then m + s d = psi(s) on their edge, and the optimum is the
    edge point minimizing g(d) - s d; the first LP starts at the tail of L w0.
    Raises NumericsError when an LP fails or the duality gap exceeds its tolerance.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] < 2:
        raise ValueError("need a 2-D loss window with at least two rows")
    g = cfg.g_spec
    if not g.classify().is_convex:
        raise ValueError("the per-period program is convex only for convex "
                         "risk-weighting functions; got a non-convex one")
    if window.shape[1] == 1:
        return PortfolioWeights(np.array([1.0]), gap=0.0, lp_solves=0, pivots=())

    alpha = cfg.alpha
    scale = float(np.max(np.abs(window))) or 1.0
    tol = _EDGE_TOLERANCE * scale
    w0 = np.full(window.shape[1], 1.0 / window.shape[1]) if w0 is None else w0
    solved: dict[float, _Vertex] = {}

    def vertex(s: float) -> _Vertex:
        if s not in solved:
            near = min(solved.values(), key=lambda v: abs(v.s - s), default=None)
            solved[s] = _tail_lp(window, alpha, s, scale, w0 if near is None else near)
        return solved[s]

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
    return PortfolioWeights(w, gap=gap, lp_solves=len(solved),
                            pivots=tuple(v.pivots for v in solved.values()))


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
        with np.errstate(all="ignore"):  # wealth past the float range is inf or nan, no warning
            path = wealth * np.cumprod(np.exp(-(panel.losses[start:end] @ w)))
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

    periods, solves = [], []
    for j, start in enumerate(rebalance_rows):
        end = rebalance_rows[j + 1] if j + 1 < len(rebalance_rows) else panel.n_days
        weights = optimize_md(panel.losses[start - cfg.window : start], cfg,
                              w0=periods[-1][3] if periods else None)
        periods.append((panel.dates[start], start, end, weights.w))
        solves.append(weights)
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
    excess = ar - cfg.risk_free_rate
    if av > 0.0:
        sr = excess / av
    else:
        sr = math.copysign(math.inf, excess) if excess else 0.0
    return BacktestReport(
        dates=dates,
        wealth=wealth,
        annualized_return=ar,
        annualized_volatility=av,
        sharpe_ratio=sr,
        periods=periods,
        max_gap=max(abs(weights.gap) for weights in solves),
        lp_solves=sum(weights.lp_solves for weights in solves),
        pivots=sum(sum(weights.pivots) for weights in solves),
    )


def markowitz_baseline(window: np.ndarray, target_return: float = 0.10) -> MarkowitzResult:
    """Minimum-variance weights at a fixed annualized expected log-return, exactly.

    A primal active-set method (Nocedal & Wright, Alg. 16.3) for min w'Sw over
    the simplex with mu'w = target, S the sample covariance.  It starts from the
    mix of the lowest- and highest-return assets that meets the target.  Each
    pass solves the KKT system of the free weights F, [[2 S_FF, A_F'], [A_F, 0]],
    by least squares, so a singular S still solves; it moves toward that solution
    until a free weight hits 0 and binds it, or else frees the bound weight with
    the most negative multiplier, and stops when none is negative.  A target
    outside the assets' returns is clamped and flagged; at an end of their range
    only the assets within the edge tolerance of it may hold weight.  The
    certificate kkt_residual (stationarity, most negative multiplier,
    infeasibility) must be at most the gap tolerance times max|2S|.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] < 2:
        raise ValueError("need a 2-D loss window with at least two rows")
    k = window.shape[1]
    returns = -window.mean(axis=0)
    requested = float(target_return) / TRADING_DAYS_PER_YEAR
    lo, hi = int(np.argmin(returns)), int(np.argmax(returns))
    target = min(max(requested, float(returns[lo])), float(returns[hi]))
    hess = 2.0 * np.atleast_2d(np.cov(window, rowvar=False, ddof=1))
    scale = float(np.max(np.abs(hess))) or 1.0
    hess = hess / scale  # so that the multipliers, and the tolerances on them, are relative

    w = np.zeros(k)
    near = np.abs(returns - target) <= _EDGE_TOLERANCE * (float(np.max(np.abs(window))) or 1.0)
    if near[lo] or near[hi]:
        rows, b, allowed = np.ones((1, k)), np.ones(1), near
        w[np.argmax(near)] = 1.0
    else:  # the mean row in units of the return spread, so that it reads as a weight
        spread = returns[hi] - returns[lo]
        rows = np.vstack([np.ones(k), (returns - returns[lo]) / spread])
        b, allowed = np.array([1.0, (target - returns[lo]) / spread]), np.ones(k, dtype=bool)
        w[lo], w[hi] = 1.0 - b[1], b[1]
    free = w > 0.0
    for _ in range(10 * (k + 1)):  # each pass binds or frees one weight
        f = np.flatnonzero(free)
        kkt = np.block([[hess[np.ix_(f, f)], rows[:, f].T],
                        [rows[:, f], np.zeros((len(rows), len(rows)))]])
        solution = np.linalg.lstsq(kkt, np.r_[np.zeros(f.size), b], rcond=None)[0]
        step = solution[: f.size] - w[f]
        # a weight at 0 blocks only a step beyond rounding: at a degenerate
        # vertex the solve returns it as a rounding error, and binding that
        # would cycle
        falling = np.flatnonzero((step < 0.0) & ((w[f] > 0.0) | (step < -_EDGE_TOLERANCE)))
        ratios = w[f[falling]] / -step[falling]
        if ratios.size and ratios.min() < 1.0:
            w[f] = np.maximum(w[f] + ratios.min() * step, 0.0)
            blocking = f[falling[np.argmin(ratios)]]
            w[blocking], free[blocking] = 0.0, False
            continue
        w[f] = np.maximum(solution[: f.size], 0.0)
        multipliers = hess @ w + rows.T @ solution[f.size :]
        bound = np.flatnonzero(allowed & ~free)
        worst = float(np.min(multipliers[bound], initial=0.0))
        if worst >= -_EDGE_TOLERANCE:
            break
        free[bound[np.argmin(multipliers[bound])]] = True
    else:
        raise NumericsError(f"Markowitz active set still open after {10 * (k + 1)} passes")
    residual = max(float(np.max(np.abs(multipliers[free]), initial=0.0)), -worst,
                   float(np.max(np.abs(rows @ w - b))))
    if not residual <= _GAP_TOLERANCE:
        raise NumericsError(f"Markowitz solve not certified: KKT residual {scale * residual:.3g}")
    return MarkowitzResult(PortfolioWeights(w), target, target != requested, scale * residual)
