"""Each value object's constructor rejects a bad field, and each library function a
bad argument, with its own message."""
import math

import numpy as np
import pytest

from meandev.distortion import ESDeviation, PiecewiseLinearDistortion
from meandev.distributions import Exponential, Lomax, Normal, StateVector
from meandev.estimation import GaussianLimit
from meandev.measures import adjusted_es_identity_gap, es_alpha, expectile
from meandev.portfolio import (
    BacktestConfig,
    LossPanel,
    PortfolioWeights,
    markowitz_baseline,
    optimize_md,
)
from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    LinearWeight,
    ParetoCapWeight,
    ParetoShortfallWeight,
    PiecewiseLinearWeight,
)
from meandev.robust import MomentUncertainty, WassersteinUncertainty

NAN, INF = math.nan, math.inf

CASES = {
    "weights-empty": (lambda: PortfolioWeights(np.array([])),
                      "weights must form a nonempty vector"),
    "weights-2d": (lambda: PortfolioWeights(np.array([[0.5, 0.5]])),
                   "weights must form a nonempty vector"),
    "weights-outside-unit": (lambda: PortfolioWeights(np.array([1.5, -0.5])),
                             "weights must lie in [0, 1]"),
    "weights-nan": (lambda: PortfolioWeights(np.array([NAN, NAN])), "weights must lie in [0, 1]"),
    "weights-nan-middle": (lambda: PortfolioWeights(np.array([0.5, NAN, 0.5])),
                           "weights must lie in [0, 1]"),
    "weights-sum": (lambda: PortfolioWeights(np.array([0.3, 0.3])), "weights must sum to 1"),
    "panel-1d": (lambda: LossPanel((1, 2), ("A",), np.zeros(2)), "losses must be a 2-D matrix"),
    "panel-tickers": (lambda: LossPanel((1, 2), ("A",), np.zeros((2, 2))),
                      "one ticker per loss column is required"),
    "config-window": (lambda: BacktestConfig(window=1), "window must be >= 2, got 1"),
    "config-alpha": (lambda: BacktestConfig(alpha=1.0), "alpha must be in (0, 1), got 1.0"),
    "config-rebalance": (lambda: BacktestConfig(rebalance="weekly"),
                         "unsupported rebalance rule: 'weekly'"),
    "config-wealth": (lambda: BacktestConfig(initial_wealth=0.0),
                      "initial wealth must be positive"),
    "config-wealth-nan": (lambda: BacktestConfig(initial_wealth=NAN),
                          "initial wealth must be positive"),
    "config-wealth-inf": (lambda: BacktestConfig(initial_wealth=INF),
                          "initial wealth must be positive"),
    "config-rate-nan": (lambda: BacktestConfig(risk_free_rate=NAN),
                        "risk-free rate must be finite, got nan"),
    "config-rate-inf": (lambda: BacktestConfig(risk_free_rate=-INF),
                        "risk-free rate must be finite, got -inf"),
    "distortion-knot-ends": (lambda: PiecewiseLinearDistortion(t=(0.0, 0.5, 0.9), h=(0.0, 0.2, 0.0)),
                             "knots must start at 0 and end at 1"),
    "distortion-knot-order": (lambda: PiecewiseLinearDistortion(t=(0.0, 0.5, 0.5, 1.0),
                                                                h=(0.0, 0.2, 0.2, 0.0)),
                              "knots must be strictly increasing"),
    "es-deviation-tiny-alpha": (lambda: ESDeviation(1e-300),
                                "alpha must exceed 2**-54, where 1 - alpha rounds to 1; got 1e-300"),
    "es-deviation-alpha-2**-54": (lambda: ESDeviation(2.0**-54),
                                  "alpha must exceed 2**-54, where 1 - alpha rounds to 1; "
                                  "got 5.551115123125783e-17"),
    "weight-slope-count": (lambda: PiecewiseLinearWeight(knots=(1.0,), slopes=(0.5,)),
                           "need len(slopes) == len(knots) + 1"),
    "weight-knot-order": (lambda: PiecewiseLinearWeight(knots=(2.0, 1.0), slopes=(0.5, 0.5, 0.5)),
                          "knots must be positive and strictly increasing"),
    "weight-knot-sign": (lambda: PiecewiseLinearWeight(knots=(-1.0,), slopes=(0.5, 0.5)),
                         "knots must be positive and strictly increasing"),
    "weight-zero-slopes": (lambda: PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 0.0)),
                           "at least one slope must be positive (g is non-constant)"),
    "weight-knot-nan": (lambda: PiecewiseLinearWeight(knots=(NAN,), slopes=(0.5, 0.5)),
                        "knots entries must all be finite"),
    "weight-knot-inf": (lambda: PiecewiseLinearWeight(knots=(1.0, INF), slopes=(0.5, 0.5, 1.0)),
                        "knots entries must all be finite"),
    "weight-slope-nan": (lambda: PiecewiseLinearWeight(knots=(1.0,), slopes=(0.5, NAN)),
                         "slopes entries must all be finite"),
    "linear-above-one": (lambda: LinearWeight(1.5), "lambda must be in (0, 1], got 1.5"),
    "linear-nan": (lambda: LinearWeight(NAN), "lambda must be in (0, 1], got nan"),
    "exp-shortfall-nan": (lambda: ExpShortfallWeight(NAN), "beta must be > 0, got nan"),
    "exp-shortfall-inf": (lambda: ExpShortfallWeight(INF), "beta must be > 0, got inf"),
    "pareto-shortfall-nan": (lambda: ParetoShortfallWeight(NAN), "theta must be > 0, got nan"),
    "pareto-shortfall-inf": (lambda: ParetoShortfallWeight(INF), "theta must be > 0, got inf"),
    "exp-cap-nan": (lambda: ExpCapWeight(NAN), "beta must be > 0, got nan"),
    "exp-cap-inf": (lambda: ExpCapWeight(INF), "beta must be > 0, got inf"),
    "pareto-cap-nan": (lambda: ParetoCapWeight(NAN), "theta must be > 0, got nan"),
    "pareto-cap-inf": (lambda: ParetoCapWeight(INF), "theta must be > 0, got inf"),
    "normal-mu-nan": (lambda: Normal(mu=NAN), "mu must be finite, got nan"),
    "normal-mu-inf": (lambda: Normal(mu=INF), "mu must be finite, got inf"),
    "normal-sd-nan": (lambda: Normal(sd=NAN), "sd must be > 0, got nan"),
    "normal-sd-inf": (lambda: Normal(sd=INF), "sd must be > 0, got inf"),
    "lomax-nan": (lambda: Lomax(NAN), "theta must be > 0, got nan"),
    "lomax-inf": (lambda: Lomax(INF), "theta must be > 0, got inf"),
    "exponential-nan": (lambda: Exponential(NAN), "rate must be > 0, got nan"),
    "exponential-inf": (lambda: Exponential(INF), "rate must be > 0, got inf"),
    "moment-mean-nan": (lambda: MomentUncertainty(m=NAN, v=1.0), "mean m must be finite, got nan"),
    "moment-level-nan": (lambda: MomentUncertainty(m=0.0, v=NAN),
                         "dispersion level v must be > 0, got nan"),
    "moment-level-inf": (lambda: MomentUncertainty(m=0.0, v=INF),
                         "dispersion level v must be > 0, got inf"),
    "moment-order-nan": (lambda: MomentUncertainty(m=0.0, v=1.0, a_order=NAN),
                         "moment order must be >= 1, got nan"),
    "moment-order-inf": (lambda: MomentUncertainty(m=0.0, v=1.0, a_order=INF),
                         "moment order must be >= 1, got inf"),
    "radius-nan": (lambda: WassersteinUncertainty(StateVector([0.0, 1.0]), NAN),
                   "radius must be >= 0, got nan"),
    "radius-inf": (lambda: WassersteinUncertainty(StateVector([0.0, 1.0]), INF),
                   "radius must be >= 0, got inf"),
    "state-2d": (lambda: StateVector(np.zeros((2, 2))),
                 "state vector values must be one-dimensional"),
    "limit-variance": (lambda: GaussianLimit(center=0.0, variance=-1.0),
                       "variance must be nonnegative"),
}


@pytest.mark.parametrize("name", CASES)
def test_constructor_rejects_with_its_message(name):
    build, message = CASES[name]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


SAMPLE = StateVector([0.0, 1.0, 2.0, 3.0])
WINDOW_MESSAGE = "need a 2-D loss window with at least two rows"

CALLS = {
    "es-alpha-one": (lambda: es_alpha(SAMPLE, 1.0), "alpha must be in [0, 1), got 1.0"),
    "expectile-alpha-zero": (lambda: expectile(SAMPLE, 0.0), "alpha must be in (0, 1), got 0.0"),
    "identity-gap-alpha-one": (lambda: adjusted_es_identity_gap(ExpShortfallWeight(1.0), 1.0,
                                                                SAMPLE),
                               "alpha must be in (0, 1), got 1.0"),
    "identity-gap-grid-size": (lambda: adjusted_es_identity_gap(ExpShortfallWeight(1.0), 0.9,
                                                                SAMPLE, grid_size=1),
                               "grid_size must be >= 2"),
    "optimize-1d-window": (lambda: optimize_md(np.zeros(5), BacktestConfig()), WINDOW_MESSAGE),
    "optimize-one-row": (lambda: optimize_md(np.zeros((1, 2)), BacktestConfig()), WINDOW_MESSAGE),
    "optimize-s0-negative": (lambda: optimize_md(np.zeros((5, 4)), BacktestConfig(), s0=-0.5),
                             "s0 must be finite and in [0, 1], got -0.5"),
    "optimize-s0-nan": (lambda: optimize_md(np.zeros((5, 4)), BacktestConfig(), s0=NAN),
                        "s0 must be finite and in [0, 1], got nan"),
    "optimize-s0-inf": (lambda: optimize_md(np.zeros((5, 4)), BacktestConfig(), s0=INF),
                        "s0 must be finite and in [0, 1], got inf"),
    "optimize-w0-short": (lambda: optimize_md(np.zeros((5, 4)), BacktestConfig(),
                                              w0=np.full(3, 1.0 / 3.0)),
                          "w0 must hold one finite weight per asset, 4 here"),
    "optimize-w0-nan": (lambda: optimize_md(np.zeros((5, 4)), BacktestConfig(),
                                            w0=np.array([0.5, NAN, 0.25, 0.25])),
                        "w0 must hold one finite weight per asset, 4 here"),
    "markowitz-1d-window": (lambda: markowitz_baseline(np.zeros(5)), WINDOW_MESSAGE),
    "markowitz-one-row": (lambda: markowitz_baseline(np.zeros((1, 2))), WINDOW_MESSAGE),
}


@pytest.mark.parametrize("name", CALLS)
def test_function_rejects_with_its_message(name):
    call, message = CALLS[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
