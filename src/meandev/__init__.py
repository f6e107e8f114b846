"""Monotonic mean-deviation risk measures.

Evaluate measures of the form g(D(X)) + E[X] where D is a signed Choquet
deviation with concave distortion h and g is an increasing, 1-Lipschitz
risk-weighting function; estimate them from samples with asymptotic
variance, bound them under moment or Wasserstein uncertainty, and backtest
portfolios that minimize them.
"""
from .distortion import (
    DistortionFunction,
    ESDeviation,
    Gini,
    MeanAbsDevHalf,
    PiecewiseLinearDistortion,
    RangeDistortion,
    choquet_deviation,
    distortion_from_spec,
    is_range_normalized,
)
from .distributions import (
    Exponential,
    Lomax,
    Normal,
    ParametricModel,
    StateVector,
    model_from_spec,
)
from .estimation import (
    GaussianLimit,
    MonteCarloReport,
    NumericsError,
    deviation_true,
    gaussian_limit,
    md_true,
    monte_carlo,
    sigma_g_squared,
)
from .measures import (
    MDMeasure,
    adjusted_es_identity_gap,
    es_alpha,
    es_alpha_ru,
    expectile,
    md_eval,
    var_alpha,
)
from .portfolio import (
    BacktestConfig,
    BacktestReport,
    LossPanel,
    MarkowitzResult,
    PortfolioWeights,
    ingest_prices,
    markowitz_baseline,
    optimize_md,
    portfolio_objective,
    project_simplex,
    run_backtest,
)
from .riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    GClassification,
    LinearWeight,
    ParetoCapWeight,
    ParetoShortfallWeight,
    PiecewiseLinearWeight,
    RiskWeightFunction,
    conjugate,
    g_from_spec,
)
from .robust import (
    MomentUncertainty,
    WassersteinUncertainty,
    worstcase_moment,
    worstcase_wasserstein,
)

__version__ = "0.1.0"
