import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from meandev.distortion import ESDeviation, Gini, PiecewiseLinearDistortion
from meandev.distributions import Exponential, Lomax, Normal
from meandev.estimation import (
    GaussianLimit,
    NumericsError,
    _ks_statistic,
    _nodes,
    deviation_true,
    gaussian_limit,
    md_true,
    monte_carlo,
    sigma_g_squared,
)
from meandev.measures import MDMeasure, md_eval
from meandev.riskweight import ExpCapWeight, ExpShortfallWeight, LinearWeight

H09 = ESDeviation(0.9)


def normal_es(alpha: float) -> float:
    """Closed form: phi(Phi^-1(alpha)) / (1 - alpha)."""
    from scipy.special import ndtri
    z = ndtri(alpha)
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / (1.0 - alpha)


class TestPopulationValue:
    def test_normal_exp_shortfall(self):
        m = MDMeasure(ExpShortfallWeight(1.0), H09)
        d = normal_es(0.9)
        assert md_true(Normal(), m) == pytest.approx(d + math.exp(-d) - 1.0, abs=1e-6)
        assert md_true(Normal(), m) == pytest.approx(0.9279, abs=1e-3)

    def test_normal_es_itself(self):
        m = MDMeasure(LinearWeight(1.0), H09)
        assert md_true(Normal(), m) == pytest.approx(normal_es(0.9), abs=1e-7)

    def test_lomax_deviation_closed_form(self):
        # ES_0.9 of lomax(4) = ((4/3) * 0.1^(3/4) - 0.1) / 0.1, mean = 1/3
        es = ((4.0 / 3.0) * 0.1 ** 0.75 - 0.1) / 0.1
        m = MDMeasure(LinearWeight(1.0), H09)
        assert deviation_true(Lomax(4.0), m) == pytest.approx(es - 1.0 / 3.0, abs=1e-7)
        assert md_true(Lomax(4.0), m) == pytest.approx(es, abs=1e-7)

    def test_exponential_deviation(self):
        # ES_alpha - mean for the unit exponential is 1 - log(1 - alpha) - 1
        m = MDMeasure(LinearWeight(1.0), ESDeviation(0.9))
        assert deviation_true(Exponential(1.0), m) == pytest.approx(-math.log(0.1), abs=1e-7)

    def test_gini_deviation_normal(self):
        # Gini deviation of N(0, 1) is 1/sqrt(pi)
        m = MDMeasure(LinearWeight(1.0), Gini())
        assert deviation_true(Normal(), m) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-7)

    def test_mean_required(self):
        with pytest.raises(ValueError):
            md_true(Lomax(1.0), MDMeasure(LinearWeight(1.0), H09))


def sigma_es_restricted_oracle(model, alpha: float) -> float:
    """Independent direct double integral of the tail-average variance.

    (1/(1-alpha)^2) * integral over [alpha,1]^2 of (s^t - st)/(f~(s) f~(t)),
    computed as 2x the lower triangle with plain nested quadrature.
    """
    top = 1.0 - 1e-11

    def inner(t: float) -> float:
        val, _ = quad(lambda s: (s - s * t) / float(model.density_quantile(s)),
                      alpha, t, limit=400)
        return val / float(model.density_quantile(t))

    outer, _ = quad(inner, alpha, top, limit=400)
    return 2.0 * outer / (1.0 - alpha) ** 2


class TestAsymptoticVariance:
    @pytest.mark.parametrize("model,g,expected", [
        (Normal(), ExpShortfallWeight(1.0), 2.85),
        (Normal(), LinearWeight(1.0), 3.71),
        (Normal(), ExpCapWeight(1.0), 1.08),
        (Lomax(4.0), ExpShortfallWeight(1.0), 4.88),
        (Lomax(4.0), LinearWeight(1.0), 10.19),
        (Lomax(4.0), ExpCapWeight(1.0), 1.97),
    ])
    def test_reference_values(self, model, g, expected):
        assert sigma_g_squared(model, MDMeasure(g, H09)) == pytest.approx(expected, rel=0.02)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("model", [Normal(), Lomax(4.0), Exponential(1.0)])
    def test_es_case_matches_restricted_double_integral(self, model):
        ours = sigma_g_squared(model, MDMeasure(LinearWeight(1.0), H09))
        oracle = sigma_es_restricted_oracle(model, 0.9)
        assert ours == pytest.approx(oracle, rel=0.005)

    @pytest.mark.parametrize("theta", [4.0, 6.0])
    def test_lomax_es_variance_closed_form(self, theta):
        # with g linear, sigma^2 = (1/(b theta))^2 times the integral over
        # (0, b]^2 of (min(x, y) - xy) (xy)^(-p), b = 1 - alpha, p = 1 + 1/theta;
        # the grid stops at u = 1 - e^-36, which costs 3e-7 relative at theta = 4
        b, p = 0.1, 1.0 + 1.0 / theta
        exact = (2.0 * b ** (3.0 - 2.0 * p) / ((2.0 - p) * (3.0 - 2.0 * p))
                 - b ** (4.0 - 2.0 * p) / (2.0 - p) ** 2) / (b * theta) ** 2
        ours = sigma_g_squared(Lomax(theta), MDMeasure(LinearWeight(1.0), H09))
        assert ours == pytest.approx(exact, rel=1e-6)

    def test_variance_monotone_in_slope(self):
        lams = [1.0, 0.8, 0.5, 0.2]
        sigmas = [sigma_g_squared(Normal(), MDMeasure(LinearWeight(lam), H09))
                  for lam in lams]
        assert all(a >= b - 1e-12 for a, b in zip(sigmas, sigmas[1:]))

    def test_divergent_tail_flagged(self):
        with pytest.raises(NumericsError):
            sigma_g_squared(Lomax(2.0), MDMeasure(LinearWeight(1.0), H09))
        with pytest.raises(NumericsError):
            sigma_g_squared(Lomax(1.5), MDMeasure(LinearWeight(1.0), H09))
        # 5e-3 of the variance integral lies in the last tail window
        with pytest.raises(NumericsError):
            sigma_g_squared(Lomax(2.5), MDMeasure(LinearWeight(1.0), H09))

    def test_lomax3_is_finite(self):
        # the tail window holds 3e-4 of the integral, inside the 1e-3 rule
        value = sigma_g_squared(Lomax(3.0), MDMeasure(LinearWeight(1.0), H09))
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("rate", [1.0, 0.7])
    def test_exponential_gini_closed_form(self, rate):
        # Gini deviation of Exp(rate) is 1/(2 rate); with g = x/2 the center is
        # 5/(4 rate) and the variance 19/(12 rate^2)
        limit = gaussian_limit(Exponential(rate), MDMeasure(LinearWeight(0.5), Gini()))
        assert limit.center == pytest.approx(1.25 / rate, rel=1e-9)
        assert limit.variance == pytest.approx(19.0 / 12.0 / rate ** 2, rel=1e-9)

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaussian_limit(Lomax(4.0), MDMeasure(ExpShortfallWeight(1.0), H09))
            gaussian_limit(Normal(), MDMeasure(ExpCapWeight(1.0), Gini()))

    def test_nonnegative(self):
        limit = gaussian_limit(Exponential(1.0), MDMeasure(ExpShortfallWeight(1.0), H09))
        assert limit.variance > 0.0


class TestMonteCarlo:
    def test_same_seed_identical(self):
        m = MDMeasure(ExpShortfallWeight(1.0), H09)
        a = monte_carlo(Normal(), m, n=200, replications=100, seed=42)
        b = monte_carlo(Normal(), m, n=200, replications=100, seed=42)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.as_dict() == b.as_dict()

    def test_scaled_variance_tracks_target(self):
        m = MDMeasure(ExpShortfallWeight(1.0), H09)
        report = monte_carlo(Normal(), m, n=2000, replications=400, seed=7)
        assert report.scaled_variance == pytest.approx(report.target_variance, rel=0.2)
        assert report.estimate_mean == pytest.approx(report.center, abs=0.02)

    def test_consistency_in_n(self):
        m = MDMeasure(ExpShortfallWeight(1.0), H09)
        center = md_true(Normal(), m)
        errors = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            report = monte_carlo(Normal(), m, n=n, replications=200, seed=17)
            errors.append(abs(report.estimate_mean - center))
        assert errors[0] > errors[1] > errors[2]

    def test_preconditions(self):
        m = MDMeasure(ExpShortfallWeight(1.0), H09)
        with pytest.raises(ValueError):
            monte_carlo(Normal(), m, n=50, replications=100, seed=1)
        with pytest.raises(ValueError):
            monte_carlo(Normal(), m, n=100, replications=50, seed=1)

    def test_gini_variance_against_simulation(self):
        # independent route for a smooth distortion: the quadrature variance
        # must match the replication variance within sampling noise
        m = MDMeasure(ExpShortfallWeight(1.0), Gini())
        r = monte_carlo(Normal(), m, n=10 ** 4, replications=500, seed=5150)
        assert r.scaled_variance == pytest.approx(r.target_variance, rel=0.15)
        assert r.normality_statistic < 0.08

    @pytest.mark.parametrize("model", [Normal(), Lomax(4.0)], ids=["normal", "lomax4"])
    @pytest.mark.parametrize("h", [
        H09, Gini(), PiecewiseLinearDistortion(t=(0.0, 0.2, 0.6, 1.0), h=(0.0, 0.5, 0.4, 0.0)),
    ], ids=["es09", "gini", "piecewise3"])
    def test_estimates_equal_md_eval(self, model, h):
        # the hoisted staircase weights give exactly md_eval's float per sample
        m = MDMeasure(ExpShortfallWeight(1.0), h)
        report = monte_carlo(model, m, n=300, replications=100, seed=61)
        children = np.random.SeedSequence(61).spawn(100)
        expected = [md_eval(m, model.sample(300, c)) for c in children]
        assert np.array_equal(report.estimates, expected)

    def test_estimates_do_not_depend_on_order(self):
        m = MDMeasure(ExpShortfallWeight(1.0), H09)
        forward = monte_carlo(Normal(), m, n=500, replications=120, seed=33).estimates
        children = np.random.SeedSequence(33).spawn(120)
        backward = [md_eval(m, Normal().sample(500, c)) for c in reversed(children)]
        assert np.array_equal(forward, backward[::-1])


def _ks_samples():
    rng = np.random.Generator(np.random.PCG64(2718))
    return {
        "normal-100": rng.standard_normal(100),
        "shifted-1000": rng.normal(0.3, 1.2, 1000),
        "ties-100": np.round(rng.standard_normal(100), 1),
        "student-t-500": rng.standard_t(4.0, 500),
    }


class TestNormalityStatistic:
    @pytest.mark.parametrize("name", sorted(_ks_samples()))
    def test_equals_scipy_kstest(self, name):
        z = _ks_samples()[name]
        assert _ks_statistic(z) == kstest(z, "norm").statistic


class TestNodeTable:
    """The grid and h'(1 - u) at its nodes are built once per distortion and shared."""

    CASES = [(Normal(mu=0.3, sd=1.2), MDMeasure(ExpShortfallWeight(1.0), H09)),
             (Lomax(4.0), MDMeasure(ExpCapWeight(1.0), ESDeviation(0.5))),
             (Exponential(rate=1.7), MDMeasure(LinearWeight(0.5), Gini()))]

    @staticmethod
    def bits(limit: GaussianLimit) -> tuple[str, str]:
        return limit.center.hex(), limit.variance.hex()

    @pytest.mark.parametrize("model, m", CASES)
    def test_gaussian_limit_is_its_parts(self, model, m):
        parts = GaussianLimit(md_true(model, m), sigma_g_squared(model, m))
        assert self.bits(gaussian_limit(model, m)) == self.bits(parts)

    @pytest.mark.parametrize("model, m", CASES)
    def test_repeated_call_is_identical(self, model, m):
        first = gaussian_limit(model, m)
        assert self.bits(gaussian_limit(model, m)) == self.bits(first)
        assert deviation_true(model, m).hex() == deviation_true(model, m).hex()

    def test_equal_distortions_share_one_entry(self):
        a, b = ESDeviation(0.9), ESDeviation(0.9)
        assert a is not b
        assert _nodes(a) is _nodes(b)
        assert _nodes(a) is not _nodes(ESDeviation(0.5))
        assert _nodes.cache_info().maxsize is not None

    def test_cached_arrays_are_read_only(self):
        halves, weights = _nodes(Gini())
        arrays = [*weights] + [getattr(half, field) for half in halves
                               for field in ("eps", "level", "complement", "scale", "tail")]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0


class TestPiecewiseDistortionEquivalence:
    def test_matches_named_family_through_quadrature(self):
        # chord representations of the level-0.5 and level-0.9 tail distortions
        from meandev.distortion import PiecewiseLinearDistortion
        cases = [
            (ESDeviation(0.5), PiecewiseLinearDistortion(t=(0.0, 0.5, 1.0), h=(0.0, 0.5, 0.0)),
             (Normal(), Lomax(4.0))),
            (ESDeviation(0.9), PiecewiseLinearDistortion(t=(0.0, 0.1, 1.0), h=(0.0, 0.9, 0.0)),
             (Lomax(4.0),)),
        ]
        for h_named, h_pw, models in cases:
            for model in models:
                a = MDMeasure(ExpShortfallWeight(1.0), h_named)
                b = MDMeasure(ExpShortfallWeight(1.0), h_pw)
                assert md_true(model, b) == pytest.approx(md_true(model, a), abs=1e-10)
                assert sigma_g_squared(model, b) == pytest.approx(
                    sigma_g_squared(model, a), rel=1e-9)
