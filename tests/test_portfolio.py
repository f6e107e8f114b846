import datetime as dt
import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from meandev.distributions import StateVector
from meandev.measures import es_alpha
from meandev.portfolio import (
    BacktestConfig,
    LossPanel,
    ingest_prices,
    markowitz_baseline,
    optimize_md,
    parse_price_rows,
    portfolio_objective,
    project_simplex,
    run_backtest,
    wealth_from_periods,
    _tail_lp,
)
from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    LinearWeight,
    ParetoShortfallWeight,
    PiecewiseLinearWeight,
)


def trading_dates(n: int, start=dt.date(2020, 1, 1)):
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return tuple(out)


def synthetic_panel(n_days: int, n_assets: int, seed: int) -> LossPanel:
    rng = np.random.Generator(np.random.PCG64(seed))
    vols = 0.008 + 0.02 * rng.random(n_assets)
    means = rng.normal(0.0002, 0.0004, n_assets)
    losses = rng.normal(means, vols, size=(n_days, n_assets))
    tickers = tuple(f"A{i}" for i in range(n_assets))
    return LossPanel(dates=trading_dates(n_days), tickers=tickers, losses=losses)


def rounding_floor(window) -> float:
    """An absolute tolerance of a few roundings at the window's scale, beside rel
    1e-12, for a psi or an objective near 0."""
    return 4.0 * np.finfo(float).eps * float(np.max(np.abs(window)))


class TestIngest:
    def write(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        return str(path)

    def test_single_step_loss(self, tmp_path):
        panel = ingest_prices(self.write(
            tmp_path, "date,XYZ\n2024-01-02,100\n2024-01-03,110\n"))
        assert panel.losses[0, 0] == pytest.approx(-math.log(1.1), abs=1e-12)
        assert len(panel.dates) == 1  # first date dropped

    def test_constant_prices_zero_loss(self, tmp_path):
        panel = ingest_prices(self.write(
            tmp_path, "date,XYZ\n2024-01-02,50\n2024-01-03,50\n2024-01-04,50\n"))
        assert np.all(panel.losses == 0.0)

    def test_three_dates_hand_computed(self, tmp_path):
        panel = ingest_prices(self.write(
            tmp_path, "date,XYZ\n2024-01-02,100\n2024-01-03,90\n2024-01-04,99\n"))
        assert panel.losses[:, 0] == pytest.approx(
            [math.log(10.0 / 9.0), -math.log(1.1)], abs=1e-12)

    def test_missing_cell_names_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 3"):
            ingest_prices(self.write(
                tmp_path, "date,A,B\n2024-01-02,1,2\n2024-01-03,1,\n"))

    @pytest.mark.parametrize("cell, problem", [
        ("-3", "nonpositive price"), ("inf", "non-finite price 'inf'"),
        ("nan", "non-finite price 'nan'"), ("1e400", "non-finite price '1e400'")],
        ids=["-3", "inf", "nan", "1e400"])
    def test_nonpositive_price_names_row(self, tmp_path, cell, problem):
        with pytest.raises(ValueError, match=re.escape(f"row 2: {problem} for A")):
            ingest_prices(self.write(tmp_path, f"date,A\n2024-01-02,{cell}\n2024-01-03,1\n"))

    def test_unsorted_dates_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="row 3"):
            ingest_prices(self.write(
                tmp_path, "date,A\n2024-01-03,1\n2024-01-02,1\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 2"):
            parse_price_rows([["date", "A"], ["2024-01-02", "1", "2"]])


class TestSimplexProjection:
    def test_already_feasible(self):
        w = np.array([0.2, 0.3, 0.5])
        assert project_simplex(w) == pytest.approx(w, abs=1e-12)

    def test_output_feasible(self, rng):
        for _ in range(200):
            v = rng.normal(scale=5.0, size=int(rng.integers(1, 12)))
            p = project_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0.0)

    def test_is_nearest_point(self, rng):
        # projection beats random feasible points in euclidean distance
        for _ in range(50):
            v = rng.normal(scale=2.0, size=6)
            p = project_simplex(v)
            for cand in rng.dirichlet(np.ones(6), size=40):
                assert np.sum((v - p) ** 2) <= np.sum((v - cand) ** 2) + 1e-9


CFG = BacktestConfig(window=60, alpha=0.9, g_spec=ExpShortfallWeight(3.0))


class TestOptimizeMD:
    def test_single_asset(self):
        w = optimize_md(np.zeros((10, 1)), CFG)
        assert w.w == pytest.approx([1.0])

    def test_identical_columns_tie(self, rng):
        col = rng.normal(0.0, 0.01, size=80)
        window = np.column_stack([col, col])
        w = optimize_md(window, CFG)
        mine = portfolio_objective(window, w.w, CFG.g_spec, CFG.alpha)
        half = portfolio_objective(window, np.array([0.5, 0.5]), CFG.g_spec, CFG.alpha)
        assert mine == pytest.approx(half, abs=1e-8)

    def test_dominant_asset(self):
        window = np.zeros((50, 2))
        window[:, 1] = 0.01
        w = optimize_md(window, CFG)
        # grid oracle over w2
        grids = np.linspace(0.0, 1.0, 101)
        objs = [portfolio_objective(window, np.array([1 - t, t]), CFG.g_spec, CFG.alpha)
                for t in grids]
        assert w.w == pytest.approx([1.0, 0.0], abs=1e-9)
        assert portfolio_objective(window, w.w, CFG.g_spec, CFG.alpha) <= min(objs) + 1e-12

    def test_rejects_nonconvex_g(self):
        cfg = BacktestConfig(window=60, alpha=0.9, g_spec=ExpCapWeight(1.0))
        with pytest.raises(ValueError, match="convex"):
            optimize_md(np.zeros((10, 2)), cfg)

    def test_beats_vertices_and_equal_weights(self):
        window = synthetic_panel(400, 6, seed=44).losses
        w = optimize_md(window, CFG)
        mine = portfolio_objective(window, w.w, CFG.g_spec, CFG.alpha)
        for i in range(6):
            vertex = np.zeros(6)
            vertex[i] = 1.0
            assert mine <= portfolio_objective(window, vertex, CFG.g_spec, CFG.alpha) + 1e-10
        equal = np.full(6, 1.0 / 6.0)
        assert mine <= portfolio_objective(window, equal, CFG.g_spec, CFG.alpha) + 1e-10

    def test_beats_random_simplex_points(self, rng):
        window = synthetic_panel(500, 10, seed=5).losses
        w = optimize_md(window, CFG)
        mine = portfolio_objective(window, w.w, CFG.g_spec, CFG.alpha)
        random_best = min(
            portfolio_objective(window, r, CFG.g_spec, CFG.alpha)
            for r in rng.dirichlet(np.ones(10), size=1000))
        assert mine <= random_best + 1e-8

    @pytest.mark.parametrize("g", [ExpShortfallWeight(3.0), LinearWeight(1.0)],
                             ids=["convex", "linear"])
    def test_w0_start_matches_cold(self, g):
        # the losses of the benchmark's backtest panel, which synthetic_panel draws
        # alike; the second rebalance starts from the first one's weights and
        # certified slope, or from its weights alone, or from a vertex
        losses = synthetic_panel(580, 10, seed=61).losses
        cfg = BacktestConfig(window=500, alpha=0.9, g_spec=g)
        previous = optimize_md(losses[:500], cfg)
        window = losses[21:521]
        cold = optimize_md(window, cfg)
        for w0, s0 in ((previous.w, previous.slope), (previous.w, None), (np.eye(10)[3], None)):
            warm = optimize_md(window, cfg, w0=w0, s0=s0)
            assert abs(warm.gap) <= 1e-9 * float(np.max(np.abs(window)))
            assert portfolio_objective(window, warm.w, g, 0.9) == pytest.approx(
                portfolio_objective(window, cold.w, g, 0.9), rel=1e-12, abs=rounding_floor(window))
            if isinstance(g, LinearWeight):  # its one LP sits at lambda whatever the start
                assert warm.slope == previous.slope == 1.0
                assert np.array_equal(warm.w, optimize_md(window, cfg, w0=w0).w)

    # beta = 1e-300 walks at s near 1e-303, where the box of each p is about
    # 1e-304 wide; beta = 1e300 and the knot at 1e-300 put g' at 1 for every
    # deviation the window has; alpha sits at either end of (0, 1).  A walk from
    # s0 = 0, where every p is fixed, must leave each p at the bound its reduced
    # cost asks for once s > 0
    @pytest.mark.parametrize("g, alpha", [
        (ExpShortfallWeight(1e-300), 0.9), (ExpShortfallWeight(1e300), 0.9),
        (PiecewiseLinearWeight(knots=(1e-300,), slopes=(0.0, 1.0)), 0.9),
        (ExpShortfallWeight(3.0), 1e-300), (ExpShortfallWeight(3.0), 1.0 - 2.0 ** -53),
        (ExpShortfallWeight(3.0), 0.9)],
        ids=["beta-1e-300", "beta-1e300", "knot-1e-300", "alpha-1e-300", "alpha-1-2^-53",
             "beta-3"])
    @pytest.mark.parametrize("shape", [(580, 10, 61, 500), (90, 2, 7, 40)])
    def test_certified_at_extreme_s(self, g, alpha, shape):
        n_days, n_assets, seed, n = shape
        losses = synthetic_panel(n_days, n_assets, seed=seed).losses
        cfg = BacktestConfig(window=n, alpha=alpha, g_spec=g)
        tol = 1e-9 * float(np.max(np.abs(losses)))
        first = optimize_md(losses[:n], cfg)
        for w0, s0 in ((None, None), (first.w, first.slope), (None, 0.0)):
            for start in range(0, n_days - n, 10):
                res = optimize_md(losses[start : start + n], cfg, w0=w0, s0=s0)
                assert abs(res.gap) <= tol and 0.0 <= res.slope <= 1.0

    def test_convexity_certificate(self, rng):
        window = synthetic_panel(300, 6, seed=9).losses
        w_star = optimize_md(window, CFG).w
        f_star = portfolio_objective(window, w_star, CFG.g_spec, CFG.alpha)
        for r in rng.dirichlet(np.ones(6), size=100):
            f_r = portfolio_objective(window, r, CFG.g_spec, CFG.alpha)
            f_mid = portfolio_objective(window, 0.5 * (w_star + r), CFG.g_spec, CFG.alpha)
            assert f_mid <= 0.5 * (f_star + f_r) + 1e-9


def primal_lp_min(window, alpha, pieces):
    """min over the simplex of mean(L w) + max_i (a_i + b_i d(w)), all b_i >= 0.

    d(w) = ES_alpha(L w) - mean(L w) in the primal Rockafellar-Uryasev form:
    variables (w, u, z, tau) with u >= L w - z, u >= 0 and
    tau >= a_i + b_i (z + sum(u) / ((1 - alpha) n) - mean(L) . w).
    """
    n, k = window.shape
    mu = window.mean(axis=0)
    rows = [np.hstack([window, -np.eye(n), -np.ones((n, 1)), np.zeros((n, 1))])]
    rhs = [np.zeros(n)]
    for a, b in pieces:
        rows.append(np.concatenate([-b * mu, np.full(n, b / ((1 - alpha) * n)), [b, -1.0]]))
        rhs.append([-a])
    res = linprog(np.concatenate([mu, np.zeros(n), [0.0, 1.0]]),
                  A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  A_eq=np.concatenate([np.ones(k), np.zeros(n + 2)])[None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * (k + n) + [(None, None)] * 2, method="highs")
    assert res.status == 0
    return res.fun


def lower_bound_pieces(g, d0):
    """Affine minorants of g: all pieces of a piecewise-linear g, else its tangent at d0."""
    if isinstance(g, LinearWeight):
        return [(0.0, g.lam)]
    if isinstance(g, PiecewiseLinearWeight):
        edges = np.array((0.0, *g.knots))
        return list(zip(np.asarray(g(edges)) - np.array(g.slopes) * edges, g.slopes))
    s = g.left_derivative(max(d0, 1e-12))
    return [(float(g(d0)) - s * d0, s)]


class TestCertificate:
    # the piecewise g has its optimum at its kink d = 0.008 on the first window
    @pytest.mark.parametrize("g", [
        ExpShortfallWeight(3.0),
        ParetoShortfallWeight(2.0),
        PiecewiseLinearWeight(knots=(0.008,), slopes=(0.1, 0.9)),
        LinearWeight(0.5),
    ], ids=["exp_shortfall", "pareto_shortfall", "piecewise", "linear"])
    @pytest.mark.parametrize("shape", [(500, 10, 5), (300, 6, 9)])
    def test_gap_against_primal_lp(self, g, shape):
        n_days, n_assets, seed = shape
        window = synthetic_panel(n_days, n_assets, seed=seed).losses
        res = optimize_md(window, BacktestConfig(window=n_days, alpha=0.9, g_spec=g))
        assert -1e-12 <= res.gap <= 1e-9
        assert res.pivots > 0
        f = portfolio_objective(window, res.w, g, 0.9)
        losses = StateVector(window @ res.w)
        d0 = max(0.0, es_alpha(losses, 0.9) - losses.mean())
        bound = primal_lp_min(window, 0.9, lower_bound_pieces(g, d0))
        assert -1e-9 <= f - bound <= 1e-9

    def test_linear_g_is_one_lp(self):
        # g' is lambda at every d, so the LP at s = lambda takes no walk
        window = synthetic_panel(500, 10, seed=5).losses
        scale, equal = float(np.max(np.abs(window))), np.full(10, 0.1)
        for lam in (0.5, 1.0):
            res = optimize_md(window, BacktestConfig(window=500, alpha=0.9,
                                                     g_spec=LinearWeight(lam)))
            lp = _tail_lp(window, 0.9, lam, scale, equal)
            assert res.slope == lam and res.pivots == lp.pivots > 0
            assert res.w == pytest.approx(lp.w, abs=1e-15)

    def test_single_asset_needs_no_lp(self):
        res = optimize_md(np.zeros((10, 1)), CFG)
        assert res.gap == 0.0 and res.pivots == 0 and res.slope is None


def highs_tail_lp(window, alpha, s):
    """psi(s) and its w from HiGHS in the ES-primal form: min over the simplex,
    z and u >= L w - z, u >= 0 of (1 - s) mean(L w) + s (z + sum(u) / ((1 - alpha) n)).

    s enters only the cost, so no small s * L entry is dropped from the matrix;
    the cost is divided by s, so its ES part does not fall under the dual
    feasibility tolerance either."""
    n, k = window.shape
    scale = float(np.max(np.abs(window)))
    unit = window / scale
    cost = np.concatenate([(1.0 - s) * unit.mean(axis=0), [s],
                           np.full(n, s / ((1.0 - alpha) * n))])
    res = linprog(cost / (s if s > 0.0 else 1.0),
                  A_ub=np.hstack([unit, -np.ones((n, 1)), -np.eye(n)]), b_ub=np.zeros(n),
                  A_eq=np.concatenate([np.ones(k), np.zeros(n + 1)])[None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(None, None)] + [(0.0, None)] * n,
                  method="highs", options={"dual_feasibility_tolerance": 1e-10,
                                           "primal_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return scale * float(cost @ res.x), res.x[:k]


class TestTailLP:
    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicated-asset"])
    @pytest.mark.parametrize("s", [0.0, 1e-9, 0.05, 0.5, 0.99])
    # the 2000 x 20 window starts from a vertex of the simplex: a chain of hundreds
    # of pivots that crosses several refactors of the basis inverse
    @pytest.mark.parametrize("shape", [(500, 10, 5, "equal"), (300, 6, 9, "equal"),
                                       (2000, 20, 1, "vertex")])
    def test_matches_highs(self, shape, s, duplicate):
        n_days, n_assets, seed, start = shape
        window = synthetic_panel(n_days, n_assets, seed=seed).losses
        if duplicate:  # a degenerate LP: asset 0's weight may split between its copies
            window = np.column_stack([window, window[:, 0]])
        k = window.shape[1]
        w0 = np.full(k, 1.0 / k) if start == "equal" else np.eye(k)[0]
        mine = _tail_lp(window, 0.9, s, float(np.max(np.abs(window))), w0)
        self.assert_matches_highs(window, s, mine.psi, mine.w, duplicate)

    @pytest.mark.parametrize("restart", [False, True], ids=["cold", "restarted"])
    def test_vertex_comes_from_a_fresh_inverse(self, restart):
        # pivots update B^-1 in place; the returned vertex must be the one that a
        # fresh inverse of its basis gives at its s, bit for bit, also after a
        # walk from the LP at s = 0.5 on to s = 0.9
        window = synthetic_panel(500, 10, seed=5).losses
        (n, k), scale = window.shape, float(np.max(np.abs(window)))
        start = np.full(k, 1.0 / k)
        mine = (_tail_lp(window, 0.9, 0.5, scale, start, LinearWeight(0.9).left_derivative)
                if restart else _tail_lp(window, 0.9, 0.9, scale, start))
        assert mine.s == 0.9 and mine.pivots > k + 1  # at least one refactor on the way
        lo, width = (1.0 - mine.s) / n, mine.s / ((1.0 - 0.9) * n)
        lower = np.concatenate([np.full(n, lo), [-np.inf], np.zeros(k)])
        upper = np.concatenate([np.full(n, lo + width), np.full(k + 1, np.inf)])
        a = np.vstack([np.hstack([-window.T / scale, np.ones((k, 1)), np.eye(k)]),
                       np.concatenate([np.ones(n), np.zeros(k + 1)])])
        inverse = np.linalg.inv(a[:, mine.basis])
        x = np.where(mine.upper, upper, lower)
        x[mine.basis] = 0.0
        x[mine.basis] = inverse @ (np.eye(k + 1)[k] - a @ x)
        y = np.maximum(inverse[0, :k], 0.0)
        assert np.array_equal(mine.w, y / np.sum(y))
        assert mine.psi == float(np.min(x[:n] @ window))
        assert np.all(x >= lower - 1e-12 / n) and np.all(x <= upper + 1e-12 / n)

    # optimize_md at s0 = s_from with g = s_to walks its LP from s_from to s_to; the
    # first four pairs, which reach an end of (0, 1], keep the ids they had when s
    # could lie outside it
    @pytest.mark.parametrize("kind", ["distinct", "duplicated-asset", "rounded"])
    @pytest.mark.parametrize("s_from, s_to", [
        pytest.param(1e-12, 0.99, id="0.0-0.99"), pytest.param(0.99, 1e-12, id="0.99-0.0"),
        pytest.param(0.8, 1.0, id="1.02-1.05"), pytest.param(1.0, 0.8, id="1.05-1.02"),
        (0.5, 0.55), (0.55, 0.5), (1e-9, 0.99), (0.99, 1e-9), (1e-6, 0.99), (0.99, 1e-6)])
    def test_restart_matches_highs(self, s_from, s_to, kind):
        window = synthetic_panel(500, 10, seed=5).losses
        if kind == "duplicated-asset":
            window = np.column_stack([window, window[:, 0]])
        elif kind == "rounded":  # many tied losses, so psi has degenerate vertices
            window = np.round(window, 3)
        k = window.shape[1]
        cfg = BacktestConfig(window=500, alpha=0.9, g_spec=LinearWeight(s_to))
        res = optimize_md(window, cfg, w0=np.full(k, 1.0 / k), s0=s_from)
        assert res.slope == s_to
        # for linear g the certificate reads gap = m + s_to d - psi(s_to)
        losses = StateVector(window @ res.w)
        psi = losses.mean() + s_to * (es_alpha(losses, 0.9) - losses.mean()) - res.gap
        # ties leave the optimal w of a rounded window free to move along a face
        self.assert_matches_highs(window, s_to, psi, res.w, kind == "duplicated-asset",
                                  compare_w=kind != "rounded")

    @staticmethod
    def assert_matches_highs(window, s, mine_psi, mine_w, duplicate, compare_w=True):
        psi, w = highs_tail_lp(window, 0.9, s)
        assert mine_psi == pytest.approx(psi, rel=1e-12, abs=rounding_floor(window))
        losses = StateVector(window @ mine_w)
        dual_bound = losses.mean() + s * (es_alpha(losses, 0.9) - losses.mean())
        assert dual_bound == pytest.approx(psi, rel=1e-12, abs=rounding_floor(window))
        if duplicate:
            mine_w, w = np.append(mine_w[1:-1], mine_w[0] + mine_w[-1]), np.append(w[1:-1], w[0] + w[-1])
        if compare_w:
            assert mine_w == pytest.approx(w, abs=1e-9)

    def test_restart_takes_no_more_pivots_than_a_cold_start(self):
        # the benchmark's first 500 x 10 window: the walk from the LP at a convex
        # solve's first s on to s, against one LP at s started from that LP's w
        window = synthetic_panel(580, 10, seed=61).losses[:500]
        k, g = 10, ExpShortfallWeight(3.0)
        equal = StateVector(window.mean(axis=1))
        s_near = g.left_derivative(es_alpha(equal, 0.9) - equal.mean())

        def solve(s, **start):
            return optimize_md(window, BacktestConfig(window=500, alpha=0.9,
                                                      g_spec=LinearWeight(s)), **start)

        near = solve(s_near, w0=np.full(k, 1.0 / k))
        losses = StateVector(window @ near.w)
        for s in (g.left_derivative(es_alpha(losses, 0.9) - losses.mean()), 1.0,
                  0.5 * (s_near + 1.0)):
            walk = solve(s, w0=np.full(k, 1.0 / k), s0=s_near)
            cold = solve(s, w0=near.w)
            assert portfolio_objective(window, walk.w, LinearWeight(s), 0.9) == pytest.approx(
                portfolio_objective(window, cold.w, LinearWeight(s), 0.9), rel=1e-12)
            assert walk.pivots - near.pivots <= cold.pivots

    @pytest.mark.parametrize("s", [1e-12, 1e-10, 0.5])
    def test_small_s_is_exact(self, s):
        # s enters only the bounds of p, so no s * L entry falls below a solver's
        # matrix tolerance (HiGHS gave 0.00999999999997 at s = 1e-12)
        window = np.full((30, 3), 0.01)
        assert _tail_lp(window, 0.9, s, 0.01, np.full(3, 1.0 / 3.0)).psi == pytest.approx(
            0.01, rel=1e-15)
        res = optimize_md(window, BacktestConfig(window=30, g_spec=ExpShortfallWeight(3.0)))
        assert abs(res.gap) <= 1e-15


class TestBacktest:
    def test_constant_loss_single_asset(self):
        n = 300
        losses = np.full((n, 1), -0.001)  # constant daily gain
        panel = LossPanel(dates=trading_dates(n), tickers=("A",), losses=losses)
        cfg = BacktestConfig(window=30, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
        report = run_backtest(panel, cfg)
        t = len(report.dates)
        assert report.wealth[-1] == pytest.approx(math.exp(0.001 * t), rel=1e-9)
        assert report.annualized_volatility == 0.0
        assert report.sharpe_ratio == math.inf

    def test_zero_volatility_sharpe_takes_the_sign_of_the_excess(self):
        # constant prices: zero return and volatility under a positive risk-free rate
        panel = LossPanel(dates=trading_dates(80), tickers=("A", "B"), losses=np.zeros((80, 2)))
        report = run_backtest(panel, BacktestConfig(window=40, risk_free_rate=0.0213))
        assert report.annualized_volatility == 0.0
        assert report.sharpe_ratio == -math.inf
        flat = run_backtest(panel, BacktestConfig(window=40, risk_free_rate=0.0))
        assert flat.sharpe_ratio == 0.0

    def test_report_carries_the_certificate(self):
        panel = synthetic_panel(300, 4, seed=21)
        cfg = BacktestConfig(window=60, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
        report = run_backtest(panel, cfg)
        assert 0.0 <= report.max_gap <= 1e-9 * float(np.max(np.abs(panel.losses)))
        assert report.pivots > 0

    def test_warm_started_rebalances_match_cold_solves(self):
        # the benchmark's convex backtest panel: each rebalance's walk starts at
        # the previous one's weights and certified slope, which reaches the
        # optimum of a solve from equal weights in fewer pivots; both end on the
        # same basis or edge, whose ends come from fresh inverses
        panel = synthetic_panel(580, 10, seed=61)
        cfg = BacktestConfig(window=500, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
        report = run_backtest(panel, cfg)
        tol = 1e-9 * float(np.max(np.abs(panel.losses)))
        cold_pivots = 0
        for _, start, _, w in report.periods:
            window = panel.losses[start - cfg.window : start]
            cold = optimize_md(window, cfg)
            cold_pivots += cold.pivots
            assert abs(cold.gap) <= tol
            assert portfolio_objective(window, w, cfg.g_spec, cfg.alpha) == pytest.approx(
                portfolio_objective(window, cold.w, cfg.g_spec, cfg.alpha), rel=1e-12,
                abs=rounding_floor(window))
            assert np.max(np.abs(w - cold.w)) <= 1e-12
        assert len(report.periods) > 1 and report.max_gap <= tol
        assert report.pivots < cold_pivots

    @pytest.mark.parametrize("seed", [21, 3, 5])
    def test_certified_as_alpha_nears_one(self, seed):
        # d(w) = ES - mean at these levels divides by 1 - alpha, so an ES that
        # cancels misses the duality gap tolerance
        panel = synthetic_panel(300, 3, seed=seed)
        for alpha in (1 - 1e-8, 1 - 1e-9, 1 - 1e-10):
            for g in (ExpShortfallWeight(10.0), LinearWeight(1.0)):
                report = run_backtest(panel, BacktestConfig(window=60, alpha=alpha, g_spec=g))
                assert abs(report.max_gap) <= 1e-9 * float(np.max(np.abs(panel.losses))), (
                    alpha, g)

    def test_deterministic(self):
        panel = synthetic_panel(300, 3, seed=21)
        cfg = BacktestConfig(window=60, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
        a = run_backtest(panel, cfg)
        b = run_backtest(panel, cfg)
        assert np.array_equal(a.wealth, b.wealth)
        assert a.as_dict() == b.as_dict()

    def test_replay_is_bit_identical(self):
        panel = synthetic_panel(280, 4, seed=3)
        cfg = BacktestConfig(window=50, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
        report = run_backtest(panel, cfg)
        replay = wealth_from_periods(panel, report.periods, cfg.initial_wealth)
        assert np.array_equal(replay, report.wealth)

    def test_sharpe_consistency(self):
        panel = synthetic_panel(300, 3, seed=21)
        cfg = BacktestConfig(window=60, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
        r = run_backtest(panel, cfg)
        assert r.sharpe_ratio == pytest.approx(
            (r.annualized_return - cfg.risk_free_rate) / r.annualized_volatility, abs=1e-12)

    def test_insufficient_history(self):
        panel = synthetic_panel(40, 2, seed=1)
        with pytest.raises(ValueError, match="insufficient"):
            run_backtest(panel, BacktestConfig(window=60))

    def test_wealth_positive(self):
        panel = synthetic_panel(260, 5, seed=8)
        cfg = BacktestConfig(window=40, alpha=0.9, g_spec=ExpShortfallWeight(1.0))
        report = run_backtest(panel, cfg)
        assert np.all(report.wealth > 0.0)

    def test_large_beta_matches_pure_es(self):
        panel = synthetic_panel(400, 4, seed=13)
        base = dict(window=80, alpha=0.9)
        big_beta = run_backtest(panel, BacktestConfig(g_spec=ExpShortfallWeight(1e6), **base))
        pure_es = run_backtest(panel, BacktestConfig(g_spec=LinearWeight(1.0), **base))
        assert big_beta.wealth[-1] == pytest.approx(pure_es.wealth[-1], rel=1e-3)

    def test_deviation_monotone_in_beta(self):
        # phi(d) + g_beta(d) is strictly convex in d and g_beta' increases with
        # beta, so the optimal deviation is nonincreasing in beta: all 4
        # adjacent pairs plus the endpoint pair must be ordered
        window = synthetic_panel(500, 10, seed=5).losses
        devs = []
        for beta in (1.0, 3.0, 10.0, 30.0, 100.0):
            cfg = BacktestConfig(window=60, alpha=0.9, g_spec=ExpShortfallWeight(beta))
            w = optimize_md(window, cfg)
            portfolio = window @ w.w
            from meandev.measures import es_alpha
            from meandev.distributions import StateVector
            x = StateVector(portfolio)
            devs.append(es_alpha(x, 0.9) - x.mean())
        pairs = list(zip(devs, devs[1:])) + [(devs[0], devs[-1])]
        ordered = sum(1 for a, b in pairs if b <= a + 1e-12)
        assert ordered == 5


class TestMarkowitz:
    def exact_moment_window(self, sd2: float):
        c1 = np.tile([1.0, 1.0, -1.0, -1.0], 30)
        c2 = np.tile([1.0, -1.0, 1.0, -1.0], 30)
        c1 = c1 / c1.std(ddof=1)
        c2 = sd2 * c2 / c2.std(ddof=1)
        return np.column_stack([c1, c2])

    def test_symmetric_assets(self):
        res = markowitz_baseline(self.exact_moment_window(1.0))
        assert res.weights.w == pytest.approx([0.5, 0.5], abs=1e-6)
        assert res.target_clamped

    def test_carries_no_certificate(self):
        res = markowitz_baseline(self.exact_moment_window(1.0))
        assert res.weights.gap is None and res.weights.pivots is None
        assert res.weights.slope is None

    def test_single_asset(self):
        res = markowitz_baseline(np.zeros((10, 1)))
        assert res.weights.w == pytest.approx([1.0])

    def test_inverse_variance_weights(self):
        res = markowitz_baseline(self.exact_moment_window(2.0))
        assert res.weights.w == pytest.approx([0.8, 0.2], abs=1e-6)

    def test_mean_constraint_enforced_when_feasible(self, rng):
        window = synthetic_panel(300, 5, seed=30).losses
        returns = -window.mean(axis=0)
        target = float(0.3 * returns.min() + 0.7 * returns.max())
        res = markowitz_baseline(window, target_return=target * 252)
        assert not res.target_clamped
        assert float(returns @ res.weights.w) == pytest.approx(target, abs=1e-9)

    def test_infeasible_target_clamped(self):
        window = synthetic_panel(200, 3, seed=31).losses
        res = markowitz_baseline(window, target_return=10.0)  # absurdly high
        assert res.target_clamped

    @staticmethod
    def enumerated_minimum(window, target):
        """The least variance over every support: each support's equality-
        constrained KKT system, kept when its weights are nonnegative and meet
        both rows.  The optimum is the solution on its own support."""
        returns = -window.mean(axis=0)
        cov = np.atleast_2d(np.cov(window, rowvar=False, ddof=1))
        best = math.inf
        for size in range(1, window.shape[1] + 1):
            for support in map(list, itertools.combinations(range(window.shape[1]), size)):
                rows = np.vstack([np.ones(size), returns[support]])
                kkt = np.block([[2.0 * cov[np.ix_(support, support)], rows.T],
                                [rows, np.zeros((2, 2))]])
                w = np.linalg.lstsq(kkt, np.r_[np.zeros(size), 1.0, target], rcond=None)[0][:size]
                feasible = np.allclose(rows @ w, [1.0, target], rtol=0.0, atol=1e-14)
                if feasible and w.min() >= -1e-12:
                    best = min(best, float(w @ cov[np.ix_(support, support)] @ w))
        return best

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumerated_supports(self, seed):
        # k = 2..6 assets; every fourth target lies above every asset's return
        k = 2 + seed % 5
        window = synthetic_panel(60 + 20 * k, k, seed=200 + seed).losses
        returns = -window.mean(axis=0)
        u = np.random.default_rng(seed).uniform(0.05, 0.95) if seed % 4 else 2.0
        res = markowitz_baseline(window, target_return=252 * float(
            returns.min() + u * (returns.max() - returns.min())))
        assert res.target_clamped == (seed % 4 == 0)
        w = res.weights.w
        variance = float(w @ np.cov(window, rowvar=False, ddof=1) @ w)
        assert variance == pytest.approx(self.enumerated_minimum(window, res.target_daily_return),
                                         rel=1e-10)
        assert float(returns @ w) == pytest.approx(res.target_daily_return, abs=1e-12)

    def test_duplicated_asset(self):
        # a repeated column makes the covariance singular: the split between the
        # copies is free, but their sum and the variance are those without the copy
        base = synthetic_panel(200, 4, seed=33).losses
        returns = -base.mean(axis=0)
        target = 252 * float(0.5 * returns.min() + 0.5 * returns.max())
        single = markowitz_baseline(base, target_return=target)
        twice = markowitz_baseline(np.column_stack([base, base[:, 1]]), target_return=target)
        w = twice.weights.w
        assert np.r_[w[0], w[1] + w[4], w[2:4]] == pytest.approx(single.weights.w, abs=1e-9)
        assert twice.target_daily_return == single.target_daily_return
        cov = np.cov(base, rowvar=False, ddof=1)
        assert twice.kkt_residual <= 1e-9 * 2.0 * np.max(np.abs(cov))

    def test_kkt_residual_certifies(self):
        window = synthetic_panel(500, 10, seed=34).losses
        res = markowitz_baseline(window)
        scale = 2.0 * np.max(np.abs(np.cov(window, rowvar=False, ddof=1)))
        assert 0.0 <= res.kkt_residual <= 1e-9 * scale

    def test_single_asset_target_clamped(self):
        # the asset's own daily return is 2^-9: any other target is clamped to it
        window = np.array([[-2.0 ** -9 + 2.0 ** -8], [-2.0 ** -9 - 2.0 ** -8]])
        res = markowitz_baseline(window)
        assert res.target_clamped and res.target_daily_return == 2.0 ** -9
        res = markowitz_baseline(window, target_return=252 * 2.0 ** -9)
        assert not res.target_clamped and res.weights.w == pytest.approx([1.0])

    def test_plain_python_fields(self):
        res = markowitz_baseline(self.exact_moment_window(2.0))
        assert type(res.target_daily_return) is float
        assert type(res.target_clamped) is bool
        assert type(res.kkt_residual) is float


class TestPanelValidation:
    def test_ragged_losses(self):
        with pytest.raises(ValueError):
            LossPanel(dates=trading_dates(3), tickers=("A",), losses=np.zeros((2, 1)))

    def test_unsorted_dates(self):
        d = trading_dates(3)
        with pytest.raises(ValueError):
            LossPanel(dates=(d[1], d[0], d[2]), tickers=("A",), losses=np.zeros((3, 1)))
