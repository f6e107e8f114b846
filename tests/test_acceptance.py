"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""
import datetime as dt
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from meandev.distortion import ESDeviation, Gini
from meandev.distributions import Lomax, Normal, StateVector
from meandev.estimation import md_true, monte_carlo, sigma_g_squared
from meandev.measures import MDMeasure, adjusted_es_identity_gap, md_eval
from meandev.portfolio import (
    BacktestConfig,
    LossPanel,
    portfolio_objective,
    run_backtest,
)
from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    LinearWeight,
    PiecewiseLinearWeight,
)
from meandev.robust import WassersteinUncertainty, worstcase_wasserstein

H09 = ESDeviation(0.9)

SIX_CASES = [
    ("normal/exp_shortfall", Normal(), ExpShortfallWeight(1.0), 0.93, 0.9279, 2.85),
    ("normal/linear", Normal(), LinearWeight(1.0), 1.76, 1.7550, 3.71),
    ("normal/exp_cap", Normal(), ExpCapWeight(1.0), 0.83, 0.8271, 1.08),
    ("lomax4/exp_shortfall", Lomax(4.0), ExpShortfallWeight(1.0), 0.73, 0.725, 4.88),
    ("lomax4/linear", Lomax(4.0), LinearWeight(1.0), 1.37, 1.3711, 10.19),
    ("lomax4/exp_cap", Lomax(4.0), ExpCapWeight(1.0), 0.98, 0.979, 1.97),
]


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {description}")


def test_criterion_1_asymptotic_variances():
    for name, model, g, _, _, sigma2 in SIX_CASES:
        start = time.time()
        value = sigma_g_squared(model, MDMeasure(g, H09))
        elapsed = time.time() - start
        assert value == pytest.approx(sigma2, rel=0.02), name
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"
    report(1, "all six asymptotic variances within ±2%, each under 10 s")


def test_criterion_2_limit_centers():
    for name, model, g, displayed, derived, _ in SIX_CASES:
        value = md_true(model, MDMeasure(g, H09))
        assert value == pytest.approx(displayed, abs=0.01), name
        assert value == pytest.approx(derived, abs=1e-3), name
    report(2, "all six limit centers within ±0.01 of the displayed values "
              "and ±1e-3 of the analytic ones")


def test_criterion_3_monte_carlo_normality():
    m = MDMeasure(ExpShortfallWeight(1.0), H09)
    start = time.time()
    r = monte_carlo(Normal(), m, n=10 ** 4, replications=1000, seed=2024)
    elapsed = time.time() - start
    assert r.scaled_variance == pytest.approx(r.target_variance, rel=0.10)
    assert r.normality_statistic < 0.05
    assert abs(r.estimate_mean - r.center) < 0.01
    assert elapsed < 60.0
    report(3, f"n·Var {r.scaled_variance:.3f} vs σ² {r.target_variance:.3f}, "
              f"KS {r.normality_statistic:.3f} < 0.05, in {elapsed:.1f}s")


def _random_states(rng, n=None) -> StateVector:
    n = n or int(rng.integers(2, 30))
    return StateVector(rng.normal(scale=rng.uniform(0.5, 2.0), size=n))


def test_criterion_4_axiom_suites():
    rng = np.random.Generator(np.random.PCG64(314159))
    relu = PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0))
    weights = [LinearWeight(1.0), LinearWeight(0.7), ExpShortfallWeight(1.0),
               ExpCapWeight(1.0), relu]
    measures = [MDMeasure(g, H09) for g in weights]

    # cash additivity, up to float absorption of the shift
    for _ in range(500):
        x = _random_states(rng)
        c = float(rng.uniform(-20.0, 20.0))
        for m in measures:
            lhs = md_eval(m, x + c)
            rhs = md_eval(m, x) + c
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(c), abs(rhs))

    # monotonicity for range-normalized distortions
    for h in (H09, Gini()):
        for _ in range(500):
            x = _random_states(rng)
            y = x + StateVector(np.abs(rng.normal(size=x.n)))
            for g in weights:
                m = MDMeasure(g, h)
                assert md_eval(m, x) <= md_eval(m, y) + 1e-12

    # convexity iff g.classify().is_convex; scaled comonotone pairs are the
    # witness family for concave g
    for g in weights:
        m = MDMeasure(g, H09)
        convex = g.classify().is_convex
        violated = False
        for _ in range(500):
            x = _random_states(rng)
            y = StateVector(rng.normal(size=x.n)) if rng.random() < 0.5 else 2.0 * x
            lam = float(rng.uniform(0.1, 0.9))
            mix = lam * x + (1.0 - lam) * y
            lhs = md_eval(m, mix)
            rhs = lam * md_eval(m, x) + (1.0 - lam) * md_eval(m, y)
            if convex:
                assert lhs <= rhs + 1e-12
            elif lhs > rhs + 1e-9:
                violated = True
        assert convex or violated, f"no convexity violation found for {g.spec()}"

    # star-shapedness iff classified so; positive homogeneity iff linear
    for g in weights:
        m = MDMeasure(g, H09)
        cls = g.classify()
        ss_violation = ph_violation = False
        for _ in range(500):
            x = _random_states(rng)
            base = md_eval(m, x)
            lam_ss = float(rng.uniform(0.05, 0.95))
            lhs = md_eval(m, lam_ss * x)
            if cls.is_star_shaped:
                assert lhs <= lam_ss * base + 1e-12
            elif lhs > lam_ss * base + 1e-9:
                ss_violation = True
            lam_ph = float(rng.uniform(0.2, 5.0))
            lhs_ph = md_eval(m, lam_ph * x)
            if cls.is_linear:
                assert lhs_ph == pytest.approx(lam_ph * base, rel=1e-12, abs=1e-12)
            elif abs(lhs_ph - lam_ph * base) > 1e-9:
                ph_violation = True
        assert cls.is_star_shaped or ss_violation, f"no violation for {g.spec()}"
        assert cls.is_linear or ph_violation, f"no violation for {g.spec()}"

    # consistency spot check: mean-preserving spread of one atom never shrinks
    for _ in range(500):
        x = _random_states(rng)
        i = int(rng.integers(0, x.n))
        delta = float(rng.uniform(0.1, 2.0))
        doubled = np.repeat(x.values, 2)
        spread = doubled.copy()
        spread[2 * i] = x.values[i] - delta
        spread[2 * i + 1] = x.values[i] + delta
        for m in measures:
            assert md_eval(m, StateVector(doubled)) <= md_eval(m, StateVector(spread)) + 1e-12

    # the subadditivity counterexample reproduces exactly
    m = MDMeasure(relu, ESDeviation(0.5))
    md_x = md_eval(m, StateVector([0.0, 2.0]))
    md_xy = md_eval(m, StateVector([0.0, 4.0]))
    assert md_x == 1.0 and md_xy == 3.0
    assert md_xy > md_x + md_x
    report(4, "cash additivity, monotonicity, convexity/star/homogeneity iff "
              "classifications, spread consistency on 500 seeded instances; "
              "counterexample md(X+Y)=3 > 2 exact")


def test_criterion_5_adjusted_es_identity():
    x = Normal().sample(10 ** 5, 314)
    gap_exp = adjusted_es_identity_gap(ExpShortfallWeight(1.0), 0.9, x, grid_size=2000)
    assert gap_exp <= 1e-3
    gap_lin = adjusted_es_identity_gap(LinearWeight(1.0), 0.9, x, grid_size=2000)
    assert gap_lin <= 1e-10
    report(5, f"dual-identity gaps: exp_shortfall {gap_exp:.2e} ≤ 1e-3, "
              f"linear {gap_lin:.2e} ≤ 1e-10")


def test_criterion_6_robust_closed_forms():
    assert H09.q_norm(2.0) == pytest.approx(3.0, abs=1e-9)
    assert Gini().q_norm(2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    for alpha in (0.9, 0.95):
        for p in (1.5, 2.0):
            q = 1.0 / (1.0 - 1.0 / p)
            closed = alpha * (alpha ** p * (1 - alpha) + alpha * (1 - alpha) ** p) ** (-1.0 / p)
            assert ESDeviation(alpha).centered_q_norm(q) == pytest.approx(
                closed, abs=1e-9)

    center = Normal().sample(5000, 55)
    nominal = md_eval(MDMeasure(LinearWeight(1.0), H09), center)
    for eps in (0.05, 0.4, 1.0):
        got = worstcase_wasserstein(LinearWeight(1.0), H09,
                                    WassersteinUncertainty(center, eps))
        assert got == pytest.approx(nominal + eps * math.sqrt(10.0), abs=1e-8)
    at_zero = worstcase_wasserstein(LinearWeight(1.0), H09,
                                    WassersteinUncertainty(center, 0.0))
    assert at_zero == nominal
    report(6, "norm closed forms to 1e-9, Wasserstein linear closed form to "
              "1e-8, zero radius recovers the nominal value exactly")


def _acceptance_panel() -> LossPanel:
    rng = np.random.Generator(np.random.PCG64(777))
    n_days, n_assets = 1500, 10
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


def test_criterion_7_portfolio():
    start = time.time()
    panel = _acceptance_panel()
    rng = np.random.Generator(np.random.PCG64(2718))
    cfg = BacktestConfig(window=500, alpha=0.9, g_spec=ExpShortfallWeight(3.0))
    result = run_backtest(panel, cfg)

    random_points = rng.dirichlet(np.ones(panel.n_assets), size=1000)
    for date, row_start, _, w in result.periods:
        window = panel.losses[row_start - cfg.window : row_start]
        mine = portfolio_objective(window, w, cfg.g_spec, cfg.alpha)
        best_random = min(portfolio_objective(window, r, cfg.g_spec, cfg.alpha)
                          for r in random_points)
        assert mine <= best_random + 1e-8, f"beaten by a random point at {date}"
        # convexity certificate at this solve
        for r in rng.dirichlet(np.ones(panel.n_assets), size=100):
            f_w = portfolio_objective(window, w, cfg.g_spec, cfg.alpha)
            f_r = portfolio_objective(window, r, cfg.g_spec, cfg.alpha)
            f_mid = portfolio_objective(window, 0.5 * (w + r), cfg.g_spec, cfg.alpha)
            assert f_mid <= 0.5 * (f_w + f_r) + 1e-9

    big_beta = run_backtest(panel, BacktestConfig(window=500, alpha=0.9,
                                                  g_spec=ExpShortfallWeight(1e6)))
    pure_es = run_backtest(panel, BacktestConfig(window=500, alpha=0.9,
                                                 g_spec=LinearWeight(1.0)))
    assert big_beta.wealth[-1] == pytest.approx(pure_es.wealth[-1], rel=1e-3)

    elapsed = time.time() - start
    assert elapsed < 120.0, f"portfolio criterion took {elapsed:.0f}s"
    report(7, f"{len(result.periods)} rebalances all beat 1000 random points with "
              f"convexity certificates; β→∞ matches pure tail-average backtest "
              f"({big_beta.wealth[-1]:.6f} vs {pure_es.wealth[-1]:.6f}); {elapsed:.0f}s")


def test_criterion_8_cli_determinism(tmp_path):
    data = tmp_path / "sample.csv"
    Normal().sample(300, 9).to_csv(str(data))
    prices = tmp_path / "prices.csv"
    rng = np.random.Generator(np.random.PCG64(31))
    lines = ["date,AAA,BBB"]
    d = dt.date(2023, 1, 2)
    level = np.array([100.0, 80.0])
    count = 0
    while count < 120:
        if d.weekday() < 5:
            level = level * np.exp(rng.normal(0.0002, 0.01, 2))
            lines.append(f"{d.isoformat()},{float(level[0])!r},{float(level[1])!r}")
            count += 1
        d += dt.timedelta(days=1)
    prices.write_text("\n".join(lines) + "\n")

    config = json.dumps({"window": 40, "alpha": 0.9, "g": {"kind": "gbeta", "beta": 3.0}})
    invocations = [
        ["classify", "--g", '{"kind":"pareto_cap","theta":4.0}'],
        ["eval", "--g", '{"kind":"gbeta","beta":3.0}', "--h", '{"kind":"es_dev","alpha":0.9}',
         "--data", str(data)],
        ["asymvar", "--model", '{"kind":"exponential","beta":1.0}',
         "--g", '{"kind":"linear","lambda":0.5}', "--h", '{"kind":"gini"}'],
        ["mc", "--model", '{"kind":"normal","mu":0,"sd":1}',
         "--g", '{"kind":"exp_shortfall","beta":1.0}', "--h", '{"kind":"es_dev","alpha":0.9}',
         "--n", "400", "--reps", "100", "--seed", "17"],
        ["robust", "moment", "--g", '{"kind":"exp_cap","beta":1.0}',
         "--h", '{"kind":"es_dev","alpha":0.95}', "--m", "1.0", "--v", "0.5"],
        ["robust", "wasserstein", "--g", '{"kind":"linear","lambda":1.0}',
         "--h", '{"kind":"gini"}', "--eps", "0.3", "--data", str(data)],
        ["backtest", "--prices", str(prices), "--config", config],
        ["ingest", "--prices", str(prices)],
    ]
    for args in invocations:
        first = subprocess.run([sys.executable, "-m", "meandev", *args], capture_output=True)
        second = subprocess.run([sys.executable, "-m", "meandev", *args], capture_output=True)
        assert first.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
    report(8, f"{len(invocations)} CLI invocations byte-identical across two runs")
