"""Monotonic mean-deviation risk measures.

Evaluate measures of the form g(D(X)) + E[X] where D is a signed Choquet
deviation with concave distortion h and g is an increasing, 1-Lipschitz
risk-weighting function; estimate them from samples with asymptotic
variance, bound them under moment or Wasserstein uncertainty, and backtest
portfolios that minimize them.

``import meandev`` loads no layer.  The first public name asked of the
package (PEP 562) imports all seven layers together and binds every export
below, so each layer is in ``sys.modules`` once any export is.
"""

# layer -> the names the package exports from it
_EXPORTS = {
    "distortion": ("DistortionFunction", "ESDeviation", "Gini", "MeanAbsDevHalf",
                   "PiecewiseLinearDistortion", "RangeDistortion", "choquet_deviation",
                   "distortion_from_spec", "is_range_normalized"),
    "distributions": ("Exponential", "Lomax", "Normal", "ParametricModel", "StateVector",
                      "model_from_spec"),
    "estimation": ("GaussianLimit", "MonteCarloReport", "NumericsError", "deviation_true",
                   "gaussian_limit", "md_true", "monte_carlo", "sigma_g_squared"),
    "measures": ("MDMeasure", "adjusted_es_identity_gap", "es_alpha", "expectile", "md_eval",
                 "var_alpha"),
    "portfolio": ("BacktestConfig", "BacktestReport", "LossPanel", "MarkowitzResult",
                  "PortfolioWeights", "config_from_spec", "ingest_prices", "markowitz_baseline",
                  "optimize_md", "portfolio_objective", "project_simplex", "run_backtest"),
    "riskweight": ("ExpCapWeight", "ExpShortfallWeight", "GClassification", "LinearWeight",
                   "ParetoCapWeight", "ParetoShortfallWeight", "PiecewiseLinearWeight",
                   "RiskWeightFunction", "conjugate", "g_from_spec"),
    "robust": ("MomentUncertainty", "WassersteinUncertainty", "worstcase_moment",
               "worstcase_wasserstein"),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for layer, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{layer}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
