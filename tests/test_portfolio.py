import datetime as dt
import math

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

    def test_nonpositive_price_names_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 2"):
            ingest_prices(self.write(tmp_path, "date,A\n2024-01-02,-3\n2024-01-03,1\n"))

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
        f = portfolio_objective(window, res.w, g, 0.9)
        losses = StateVector(window @ res.w)
        d0 = max(0.0, es_alpha(losses, 0.9) - losses.mean())
        bound = primal_lp_min(window, 0.9, lower_bound_pieces(g, d0))
        assert -1e-9 <= f - bound <= 1e-9

    def test_linear_g_is_one_lp(self):
        window = synthetic_panel(500, 10, seed=5).losses
        for lam in (0.5, 1.0):
            res = optimize_md(window, BacktestConfig(window=500, alpha=0.9,
                                                     g_spec=LinearWeight(lam)))
            assert res.lp_solves == 1

    def test_single_asset_needs_no_lp(self):
        res = optimize_md(np.zeros((10, 1)), CFG)
        assert res.gap == 0.0 and res.lp_solves == 0


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
        assert res.weights.gap is None and res.weights.lp_solves is None

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


class TestPanelValidation:
    def test_ragged_losses(self):
        with pytest.raises(ValueError):
            LossPanel(dates=trading_dates(3), tickers=("A",), losses=np.zeros((2, 1)))

    def test_unsorted_dates(self):
        d = trading_dates(3)
        with pytest.raises(ValueError):
            LossPanel(dates=(d[1], d[0], d[2]), tickers=("A",), losses=np.zeros((3, 1)))
