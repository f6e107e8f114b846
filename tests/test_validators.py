"""Each value object's constructor rejects a bad field with its own message."""
import numpy as np
import pytest

from meandev.distortion import PiecewiseLinearDistortion
from meandev.distributions import StateVector
from meandev.estimation import GaussianLimit
from meandev.portfolio import BacktestConfig, LossPanel, PortfolioWeights
from meandev.riskweight import PiecewiseLinearWeight

CASES = {
    "weights-empty": (lambda: PortfolioWeights(np.array([])),
                      "weights must form a nonempty vector"),
    "weights-2d": (lambda: PortfolioWeights(np.array([[0.5, 0.5]])),
                   "weights must form a nonempty vector"),
    "weights-outside-unit": (lambda: PortfolioWeights(np.array([1.5, -0.5])),
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
    "distortion-knot-ends": (lambda: PiecewiseLinearDistortion(t=(0.0, 0.5, 0.9), h=(0.0, 0.2, 0.0)),
                             "knots must start at 0 and end at 1"),
    "distortion-knot-order": (lambda: PiecewiseLinearDistortion(t=(0.0, 0.5, 0.5, 1.0),
                                                                h=(0.0, 0.2, 0.2, 0.0)),
                              "knots must be strictly increasing"),
    "weight-slope-count": (lambda: PiecewiseLinearWeight(knots=(1.0,), slopes=(0.5,)),
                           "need len(slopes) == len(knots) + 1"),
    "weight-knot-order": (lambda: PiecewiseLinearWeight(knots=(2.0, 1.0), slopes=(0.5, 0.5, 0.5)),
                          "knots must be positive and strictly increasing"),
    "weight-knot-sign": (lambda: PiecewiseLinearWeight(knots=(-1.0,), slopes=(0.5, 0.5)),
                         "knots must be positive and strictly increasing"),
    "weight-zero-slopes": (lambda: PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 0.0)),
                           "at least one slope must be positive (g is non-constant)"),
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
