import math

import numpy as np
import pytest

from meandev.distortion import ESDeviation, Gini, MeanAbsDevHalf, RangeDistortion
from meandev.distributions import Normal, StateVector
from meandev.measures import MDMeasure, md_eval
from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    LinearWeight,
    ParetoCapWeight,
    ParetoShortfallWeight,
    PiecewiseLinearWeight,
)
from meandev.robust import (
    MomentUncertainty,
    WassersteinUncertainty,
    worstcase_moment,
    worstcase_wasserstein,
)


class TestMomentWorstCase:
    def test_linear_es_dev(self):
        # ||h'||_2 = sqrt(0.9/0.1) = 3 in closed form
        u = MomentUncertainty(m=1.0, v=1.0, a_order=2.0)
        assert worstcase_moment(LinearWeight(1.0), ESDeviation(0.9), u) == pytest.approx(
            4.0, abs=1e-9)

    def test_vanishing_dispersion(self):
        for g in (LinearWeight(1.0), ExpShortfallWeight(1.0), ExpCapWeight(1.0)):
            u = MomentUncertainty(m=2.5, v=1e-12, a_order=2.0)
            assert worstcase_moment(g, ESDeviation(0.9), u) == pytest.approx(2.5, abs=1e-9)

    def test_exp_shortfall_value(self):
        u = MomentUncertainty(m=1.0, v=1.0, a_order=2.0)
        got = worstcase_moment(ExpShortfallWeight(1.0), ESDeviation(0.9), u)
        assert got == pytest.approx(1.0 + ExpShortfallWeight(1.0)(3.0), abs=1e-9)
        assert got == pytest.approx(3.0 + math.exp(-3.0), abs=1e-9)

    def test_general_order_uses_centered_norm(self):
        # at order p the multiplier is [h]_q with q = (1 - 1/p)^(-1)
        alpha, p = 0.9, 1.5
        closed = alpha * (alpha ** p * (1 - alpha) + alpha * (1 - alpha) ** p) ** (-1.0 / p)
        u = MomentUncertainty(m=0.0, v=2.0, a_order=p)
        assert worstcase_moment(LinearWeight(1.0), ESDeviation(alpha), u) == pytest.approx(
            2.0 * closed, abs=1e-8)

    def test_linear_scaling_in_v(self):
        h = Gini()
        for v in (0.5, 1.0, 2.0):
            u = MomentUncertainty(m=0.0, v=v, a_order=2.0)
            assert worstcase_moment(LinearWeight(0.8), h, u) == pytest.approx(
                0.8 * v / math.sqrt(3.0), abs=1e-9)

    def test_range_distortion_rejected(self):
        u = MomentUncertainty(m=0.0, v=1.0, a_order=2.0)
        with pytest.raises(ValueError):
            worstcase_moment(LinearWeight(1.0), RangeDistortion(), u)

    def test_invalid_uncertainty(self):
        with pytest.raises(ValueError):
            MomentUncertainty(m=0.0, v=0.0)
        with pytest.raises(ValueError):
            MomentUncertainty(m=0.0, v=1.0, a_order=0.5)


class TestWassersteinWorstCase:
    def setup_method(self):
        self.center = Normal().sample(2000, 77)

    def test_zero_radius_recovers_nominal_exactly(self):
        for g in (LinearWeight(1.0), ExpShortfallWeight(1.0), ExpCapWeight(1.0)):
            for h in (ESDeviation(0.9), Gini()):
                u = WassersteinUncertainty(self.center, 0.0)
                assert worstcase_wasserstein(g, h, u) == md_eval(MDMeasure(g, h), self.center)

    def test_linear_closed_form(self):
        # sup over t of a sqrt(1-t^2) + b t is sqrt(a^2 + b^2)
        h = ESDeviation(0.9)
        nominal = md_eval(MDMeasure(LinearWeight(1.0), h), self.center)
        for eps in (0.1, 0.5, 2.0):
            u = WassersteinUncertainty(self.center, eps)
            expected = nominal + eps * math.sqrt(9.0 + 1.0)
            assert worstcase_wasserstein(LinearWeight(1.0), h, u) == pytest.approx(
                expected, abs=1e-8)

    @pytest.mark.parametrize("g", [
        LinearWeight(0.3), LinearWeight(1.0), ExpShortfallWeight(1.0), ExpShortfallWeight(30.0),
        ParetoShortfallWeight(0.5), ParetoShortfallWeight(1.0), ParetoShortfallWeight(4.0),
        ExpCapWeight(0.1), ExpCapWeight(10.0), ParetoCapWeight(0.5), ParetoCapWeight(1.0),
        ParetoCapWeight(3.0), PiecewiseLinearWeight((1.0,), (1.0, 0.2)),
        # convex, and its objective has two local maxima
        PiecewiseLinearWeight((0.5, 1.0), (0.0, 0.3, 1.0)),
    ], ids=["linear-0.3", "linear-1.0", "exp-shortfall-1", "exp-shortfall-30",
            "pareto-shortfall-0.5", "pareto-shortfall-1", "pareto-shortfall-4", "exp-cap-0.1",
            "exp-cap-10", "pareto-cap-0.5", "pareto-cap-1", "pareto-cap-3", "piecewise-concave",
            "piecewise-two-maxima"])
    def test_matches_a_dense_scan(self, g):
        # the objective over c = sqrt(1 - t^2) and over t, each on a dense grid; the
        # sup is never below the grid's maximum, and is attained, so not far above
        from meandev.distortion import choquet_deviation
        grid = np.linspace(0.0, 1.0, 100001)
        for center in (self.center, StateVector([0.7] * 50)):  # D = 0 on the constant one
            for h in (ESDeviation(0.9), Gini(), MeanAbsDevHalf()):
                dev, mean, norm = choquet_deviation(h, center), center.mean(), h.q_norm(2.0)
                # at 0.4, 2.5 and 6 the maximum past the kinks of the two-maxima g wins
                for eps in (1e-3, 0.1, 0.4, 1.0, 2.5, 6.0, 10.0):
                    scan = max(np.max(g(dev + eps * grid * norm) + eps * np.sqrt(1 - grid ** 2)),
                               np.max(g(dev + eps * np.sqrt(1 - grid ** 2) * norm) + eps * grid))
                    got = worstcase_wasserstein(g, h, WassersteinUncertainty(center, eps)) - mean
                    assert scan - 1e-12 * abs(scan) <= got <= scan + 1e-6 * eps

    @pytest.mark.parametrize("lam", [0.1, 0.37, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("h", [Gini(), ESDeviation(0.9), MeanAbsDevHalf()])
    def test_piecewise_linear_with_equal_slopes_takes_the_closed_form(self, lam, h):
        # a linear g is one by its classification, knots or not
        center = Normal().sample(500, 3)
        for eps in np.linspace(0.01, 3.0, 13):
            u = WassersteinUncertainty(center, float(eps))
            assert worstcase_wasserstein(PiecewiseLinearWeight((1.0, 2.0), (lam, lam, lam)),
                                         h, u) == worstcase_wasserstein(LinearWeight(lam), h, u)

    def test_linear_closed_form_as_lambda_vanishes(self):
        # lambda = 0 lies outside LinearWeight's (0, 1]; at its smallest float
        # the whole budget shifts the mean (t = 1)
        u = WassersteinUncertainty(self.center, 0.5)
        assert worstcase_wasserstein(LinearWeight(math.ulp(0.0)), Gini(), u) == (
            self.center.mean() + 0.5)

    def test_matches_brute_force_grid(self):
        g = ParetoShortfallWeight(1.0)  # x - log(1 + x)
        h = Gini()
        from meandev.distortion import choquet_deviation
        dev = choquet_deviation(h, self.center)
        mean = self.center.mean()
        norm = h.q_norm(2.0)
        for eps in (0.3, 1.0):
            ts = np.linspace(-1.0, 1.0, 100001)
            brute = np.max(
                np.asarray(g(eps * np.sqrt(1 - ts ** 2) * norm + dev)) + ts * eps + mean)
            u = WassersteinUncertainty(self.center, eps)
            assert worstcase_wasserstein(g, h, u) == pytest.approx(float(brute), abs=1e-6)

    def test_monotone_in_radius(self):
        g, h = ExpShortfallWeight(1.0), ESDeviation(0.9)
        values = [worstcase_wasserstein(g, h, WassersteinUncertainty(self.center, eps))
                  for eps in (0.0, 0.1, 0.5, 1.0, 3.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_dominates_nominal(self):
        for g in (LinearWeight(0.7), ExpCapWeight(1.0)):
            for eps in (0.0, 0.2, 1.0):
                u = WassersteinUncertainty(self.center, eps)
                assert worstcase_wasserstein(g, ESDeviation(0.9), u) >= (
                    md_eval(MDMeasure(g, ESDeviation(0.9)), self.center) - 1e-12)

    def test_lipschitz_damping(self):
        # any g in the class is dominated by the identity weighting
        h = ESDeviation(0.9)
        for g in (ExpShortfallWeight(1.0), ExpCapWeight(1.0), ParetoShortfallWeight(4.0)):
            for eps in (0.1, 1.0):
                u = WassersteinUncertainty(self.center, eps)
                assert worstcase_wasserstein(g, h, u) <= worstcase_wasserstein(
                    LinearWeight(1.0), h, u) + 1e-12

    def test_moment_damping(self):
        for g in (ExpShortfallWeight(1.0), ExpCapWeight(1.0)):
            u = MomentUncertainty(m=1.0, v=1.0, a_order=2.0)
            assert worstcase_moment(g, ESDeviation(0.9), u) <= worstcase_moment(
                LinearWeight(1.0), ESDeviation(0.9), u) + 1e-12

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            WassersteinUncertainty(self.center, -0.1)
