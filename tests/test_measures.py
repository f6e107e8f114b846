import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meandev.distortion import ESDeviation, choquet_deviation
from meandev.distributions import Normal, StateVector
from meandev.measures import (
    MDMeasure,
    adjusted_es_identity_gap,
    es_alpha,
    expectile,
    md_eval,
    var_alpha,
)
from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    LinearWeight,
    PiecewiseLinearWeight,
)


def relu_weight() -> PiecewiseLinearWeight:
    """g(x) = (x - 1)+."""
    return PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0))


def sorted_with_prefix(values):
    xs = np.sort(np.asarray(values, dtype=float))
    prefix = np.zeros(xs.size + 1)
    np.cumsum(xs, out=prefix[1:])
    return xs, prefix


def pinned_samples():
    """Seeded integer samples with ties and normal samples, at sizes where
    n * alpha is whole for the round levels below and at sizes where it is not."""
    rng = np.random.Generator(np.random.PCG64(19))
    for n in (1, 2, 3, 4, 7, 10, 20, 37, 100, 101, 1000, 1001):
        yield rng.integers(-5, 6, size=n).astype(float)
        yield rng.integers(0, 3, size=n).astype(float)
        yield rng.normal(size=n)


PINNED_ALPHAS = (0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 0.95, 0.99, 0.37, 0.8123)


def exact_es(values, alpha: float) -> Fraction:
    """The staircase tail average over (alpha, 1] in rational arithmetic."""
    a, xs = Fraction(alpha), sorted(Fraction(v) for v in values)
    n = len(xs)
    return sum((max(Fraction(0), Fraction(i + 1, n) - max(Fraction(i, n), a)) * v
                for i, v in enumerate(xs)), Fraction(0)) / (1 - a)


class TestVaR:
    def test_left_quantile_at_atom(self):
        assert var_alpha(StateVector([0.0, 2.0]), 0.5) == 0.0

    def test_order_statistic_index(self):
        assert var_alpha(StateVector([1, 2, 3, 4, 5]), 0.8) == 4.0

    def test_constant(self):
        assert var_alpha(StateVector([3.0] * 6), 0.37) == 3.0

    def test_domain(self):
        with pytest.raises(ValueError):
            var_alpha(StateVector([1.0]), 1.0)

    def test_selection_is_the_sorted_order_statistic_bitwise(self, rng):
        for n in (1, 2, 7, 100, 1001, 10**5):
            for values in (rng.standard_normal(n), np.round(rng.standard_normal(n), 1)):
                x = StateVector(values)
                for alpha in (1e-9, 0.1, 0.37, 0.5, 0.9, 0.95, 1.0 - 1e-9):
                    k = max(math.ceil(n * alpha), 1)
                    assert var_alpha(x, alpha) == x.sorted_values()[k - 1]


class TestES:
    def test_two_states(self):
        assert es_alpha(StateVector([0.0, 2.0]), 0.5) == 2.0

    def test_alpha_zero_is_mean(self, rng):
        x = StateVector(rng.normal(size=37))
        assert es_alpha(x, 0.0) == pytest.approx(x.mean(), abs=1e-15)

    def test_normal_closed_form(self):
        # phi(Phi^-1(0.9)) / 0.1 for the standard normal
        from scipy.special import ndtri
        z = ndtri(0.9)
        oracle = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / 0.1
        x = Normal().sample(10 ** 5, 99)
        assert es_alpha(x, 0.9) == pytest.approx(oracle, abs=0.02)

    def test_exact_staircase_integral(self, rng):
        # oracle: integrate the staircase quantile on a fine midpoint grid
        x = StateVector(rng.normal(size=23))
        xs = np.sort(x.values)
        for alpha in (0.31, 0.5, 0.77, 0.9):
            m = 2_000_001
            u = alpha + (1.0 - alpha) * (np.arange(m) + 0.5) / m
            q = xs[np.minimum(np.ceil(23 * u).astype(int), 23) - 1]
            assert es_alpha(x, alpha) == pytest.approx(float(np.mean(q)), abs=1e-4)

    def test_dominates_mean(self, rng):
        for _ in range(50):
            x = StateVector(rng.normal(size=int(rng.integers(2, 40))))
            assert es_alpha(x, 0.8) >= x.mean() - 1e-12

    def test_matches_the_exact_tail_average_as_alpha_nears_one(self):
        # at these levels a lower integral subtracted from the total would cancel
        rng = np.random.Generator(np.random.PCG64(7))
        for n in (1, 10, 37, 1000):
            for location in (0.0, 1e6, -1e6):
                values = location + rng.normal(size=n)
                for alpha in (0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
                    exact = exact_es(values, alpha)
                    got = es_alpha(StateVector(values), alpha)
                    assert abs(Fraction(got) - exact) <= 1e-13 * abs(exact), (n, location, alpha)

    def test_alpha_zero_is_the_mean_bitwise(self):
        # and so is every alpha where 1 - alpha rounds to 1
        for values in pinned_samples():
            x = StateVector(values)
            for alpha in (0.0, 2.0 ** -60, 2.0 ** -54):
                assert es_alpha(x, alpha) == x.mean(), (values, alpha)

    def test_exact_where_running_sums_were_not(self):
        # a difference of two running sums read 0.6999999999970897 on the constant
        # sample, and its partial atom cancelled to 3.000044657e-12 on [-3, 0, 3]
        assert es_alpha(StateVector([0.7] * 10**5), 0.5) == 0.7
        exact = exact_es([-3.0, 0.0, 3.0], 1e-12)  # the mean is 0
        got = es_alpha(StateVector([-3.0, 0.0, 3.0]), 1e-12)
        assert abs(Fraction(got) - exact) <= 1e-13 * abs(exact), got


def ru_scan(values, alpha: float) -> np.ndarray:
    """The Rockafellar–Uryasev objective z + mean((x - z)+) / (1 - alpha) at each
    sorted sample point z, through the prefix sums.  The objective is convex and
    linear between sample points, so its least value over them is its minimum."""
    xs, prefix = sorted_with_prefix(values)
    n = xs.size
    right = np.searchsorted(xs, xs, side="right")
    return xs + ((prefix[-1] - prefix[right]) - xs * (n - right)) / (n * (1.0 - alpha))


def assert_es_is_the_ru_minimum(values, alpha: float):
    # the two ends of a flat stretch can round apart, so both checks allow rounding
    objective = ru_scan(values, alpha)
    x = StateVector(values)
    at_var = objective[np.searchsorted(np.sort(x.values), var_alpha(x, alpha))]
    tol = 1e-13 * max(1.0, float(np.max(np.abs(objective))))
    assert es_alpha(x, alpha) == pytest.approx(float(np.min(objective)), rel=0, abs=tol)
    assert at_var == pytest.approx(float(np.min(objective)), rel=0, abs=tol)


class TestESRockafellarUryasev:
    def test_two_states(self):
        assert np.min(ru_scan([0.0, 2.0], 0.5)) == es_alpha(StateVector([0.0, 2.0]), 0.5) == 2.0
        assert ru_scan([0.0, 2.0], 0.5)[0] == 2.0  # attained at the left quantile, 0

    def test_constant(self):
        assert list(ru_scan([5.0, 5.0, 5.0], 0.4)) == [5.0] * 3
        assert_es_is_the_ru_minimum([5.0, 5.0, 5.0], 0.4)

    def test_breakpoint_enumeration(self):
        assert np.min(ru_scan([1, 2, 3, 4], 0.75)) == 4.0
        assert es_alpha(StateVector([1, 2, 3, 4]), 0.75) == 4.0

    def test_agrees_with_staircase(self, rng):
        for _ in range(100):
            values = rng.normal(size=int(rng.integers(2, 60)))
            assert_es_is_the_ru_minimum(values, float(rng.uniform(0.05, 0.95)))

    def test_equals_the_scan_of_every_sample_point(self):
        for values in pinned_samples():
            for alpha in PINNED_ALPHAS:
                assert_es_is_the_ru_minimum(values, alpha)


def exact_expectile(values, alpha: float) -> Fraction:
    """The expectile in rational arithmetic: the imbalance is linear between
    consecutive distinct values, so interpolate across its sign change."""
    a = Fraction(alpha)
    xs = [Fraction(v) for v in values]

    def imbalance(z):
        return (a * sum(max(x - z, 0) for x in xs)
                - (1 - a) * sum(max(z - x, 0) for x in xs))

    points = sorted(set(xs))
    for lo, hi in zip(points, points[1:]):
        if imbalance(hi) <= 0:
            return lo + imbalance(lo) * (hi - lo) / (imbalance(lo) - imbalance(hi))
    return points[0]


class TestExpectile:
    def test_half_is_mean(self, rng):
        x = StateVector(rng.normal(size=31))
        assert expectile(x, 0.5) == pytest.approx(x.mean(), abs=1e-9)

    def test_two_point_analytic(self):
        # alpha (1 - x) = (1 - alpha)(x + 1) solves to 2*alpha - 1
        assert expectile(StateVector([-1.0, 1.0]), 0.9) == 0.8

    def test_constant(self):
        assert expectile(StateVector([2.5] * 4), 0.7) == 2.5

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.7, 1 / 3, 123.456])
    def test_constant_sample_of_inexact_values(self, c):
        # over a tie run the imbalance is flat in exact arithmetic, so its float
        # sign is rounding noise; the root is still the tied value
        for n in range(1, 60):
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                assert expectile(StateVector([c] * n), alpha) == exact_expectile([c] * n, alpha)

    def test_root_at_a_tie_run(self):
        # the settling point falls inside the run of two 1.4's
        values = [-1.1, 0.3, 0.7, 0.2, 1.4, 1.0, -0.0, -2.0, 1.5, 1.4, 0.5, -1.7, 1.6, -0.6,
                  -0.2, -0.3, 0.1, -0.2, -0.2, -0.9, -1.5]
        assert expectile(StateVector(values), 0.99) == float(exact_expectile(values, 0.99))

    def test_balance_at_root(self, rng):
        x = StateVector(rng.standard_t(4, size=50))
        for alpha in (0.6, 0.9):
            e = expectile(x, alpha)
            v = x.values
            lhs = alpha * np.mean(np.maximum(v - e, 0.0))
            rhs = (1 - alpha) * np.mean(np.maximum(e - v, 0.0))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.05, 0.37, 0.5, 0.9, 0.99])
    def test_matches_rational_arithmetic(self, rng, alpha):
        # small integer samples, so ties are common and every sum is exact; a
        # root near 0 cancels in the prefix sums, hence the absolute floor
        for size in (1, 2, 3, 5, 8, 13, 21):
            values = rng.integers(-4, 5, size=size).astype(float)
            expected = exact_expectile(values, alpha)
            got = expectile(StateVector(values), alpha)
            assert got == pytest.approx(float(expected), rel=1e-15, abs=1e-15), values

    def test_equals_the_imbalance_at_every_sample_point(self):
        # the imbalance at each sorted point, its first non-positive entry by
        # argmax (0 when none is), and the root on the segment ending there
        for values in pinned_samples():
            xs, prefix = sorted_with_prefix(values)
            n, total, count = xs.size, prefix[-1], np.arange(1, xs.size + 1)
            for alpha in PINNED_ALPHAS:
                imbalance = (alpha * (total - prefix[1:] - xs * (n - count))
                             - (1.0 - alpha) * (xs * count - prefix[1:]))
                k = int(np.argmax(imbalance <= 0.0))
                expected = float(xs[0]) if k == 0 else float(
                    (alpha * (total - prefix[k]) + (1.0 - alpha) * prefix[k])
                    / (alpha * (n - k) + (1.0 - alpha) * k))
                assert expectile(StateVector(values), alpha) == expected, (values, alpha)


class TestMDEval:
    def test_counterexample_values(self):
        m = MDMeasure(relu_weight(), ESDeviation(0.5))
        assert md_eval(m, StateVector([0.0, 2.0])) == 1.0
        assert md_eval(m, StateVector([0.0, 4.0])) == 3.0

    def test_subadditivity_violation(self):
        m = MDMeasure(relu_weight(), ESDeviation(0.5))
        md_x = md_eval(m, StateVector([0.0, 2.0]))
        md_sum = md_eval(m, StateVector([0.0, 4.0]))
        assert md_sum == 3.0 and md_x + md_x == 2.0
        assert md_sum > md_x + md_x

    def test_constant(self):
        m = MDMeasure(ExpShortfallWeight(1.0), ESDeviation(0.9))
        assert md_eval(m, StateVector([4.2] * 9)) == 4.2

    @given(c=st.floats(-20.0, 20.0))
    def test_cash_additivity(self, c):
        m = MDMeasure(ExpShortfallWeight(1.0), ESDeviation(0.9))
        x = StateVector([0.4, -1.2, 3.1, 0.0, 2.2])
        assert md_eval(m, x + c) == pytest.approx(md_eval(m, x) + c,
                                                  abs=1e-12 * max(1.0, abs(c)))

    def test_monotone_for_range_normalized(self, rng):
        m = MDMeasure(ExpCapWeight(1.0), ESDeviation(0.9))
        for _ in range(200):
            n = int(rng.integers(2, 30))
            x = StateVector(rng.normal(size=n))
            y = x + StateVector(np.abs(rng.normal(size=n)))
            assert md_eval(m, x) <= md_eval(m, y) + 1e-12

    def test_dominating_coherent_bound(self, rng):
        for g in (LinearWeight(0.7), ExpShortfallWeight(1.0), ExpCapWeight(1.0), relu_weight()):
            m = MDMeasure(g, ESDeviation(0.9))
            mult = g.classify().sup_ratio
            for _ in range(50):
                x = StateVector(rng.normal(size=20))
                bound = mult * choquet_deviation(m.h, x) + x.mean()
                assert md_eval(m, x) <= bound + 1e-12


def es_samples():
    """Seeded samples from n = 1 to 10**4: normal, integer with ties, two-valued,
    constant, and located far from 0."""
    rng = np.random.Generator(np.random.PCG64(30))
    for n in (1, 2, 3, 7, 10, 37, 100, 1001, 10**4):
        yield rng.normal(size=n)
        yield rng.integers(-5, 6, size=n).astype(float)
        yield rng.integers(0, 2, size=n).astype(float)
        yield np.full(n, 0.7)
        yield 1e6 + rng.normal(size=n)


ES_ALPHAS = (1e-12, 1e-6, 0.01, 0.1, 0.37, 0.5, 0.9, 0.95, 0.99, 1 - 1e-6, 1 - 1e-9)


class TestAdjustedESIdentity:
    def test_row_kernel_es_is_the_exact_tail_average(self):
        # ES = D_ES + mean as the dual check and es_alpha read it, against the
        # tail average in rational arithmetic
        for values in es_samples():
            x, n = StateVector(values), values.size
            mean = x.mean()
            xs = sorted(Fraction(v) for v in values)
            prefix = list(itertools.accumulate(xs, initial=Fraction(0)))
            for alpha in ES_ALPHAS:
                a = Fraction(alpha)
                k = math.ceil(n * a)
                exact = ((prefix[-1] - prefix[k]) / n + xs[k - 1] * (Fraction(k, n) - a)) / (1 - a)
                for es in (choquet_deviation(ESDeviation(alpha), x) + mean, es_alpha(x, alpha)):
                    assert abs(Fraction(es) - exact) <= 1e-13 * (abs(exact) + abs(mean)), (n, alpha)

    def test_neither_es_nor_the_dual_check_sorts(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ES sorted the sample")

        monkeypatch.setattr(StateVector, "sorted_values", refuse)
        x = Normal().sample(20000, 5)
        assert es_alpha(x, 0.9) > x.mean()
        assert adjusted_es_identity_gap(LinearWeight(1.0), 0.9, x) <= 1e-10
        assert adjusted_es_identity_gap(ExpShortfallWeight(1.0), 0.9, x) <= 1e-3

    def test_alpha_where_one_minus_alpha_rounds_to_one(self):
        # ESDeviation refuses alpha <= 2**-54; there ES is the mean to rounding
        x = Normal().sample(1000, 9)
        for alpha in (2.0 ** -60, 2.0 ** -54, 2.0 ** -53):
            for g in (ExpShortfallWeight(1.0), LinearWeight(1.0), relu_weight()):
                assert adjusted_es_identity_gap(g, alpha, x) <= 1e-12, (alpha, g)

    def test_linear_gap_tiny(self):
        x = Normal().sample(20000, 5)
        gap = adjusted_es_identity_gap(LinearWeight(1.0), 0.9, x)
        assert gap <= 1e-10

    def test_exp_shortfall_gap_small(self):
        x = Normal().sample(20000, 6)
        gap = adjusted_es_identity_gap(ExpShortfallWeight(1.0), 0.9, x)
        assert gap <= 1e-3

    def test_constant_vector(self):
        # ES(0.95) of 399 copies of 0.7 rounds below their mean, which used to
        # reach g at a negative argument and raise
        for values, alpha in (([2.0] * 200, 0.9), ([0.7] * 399, 0.95)):
            x = StateVector(values)
            assert adjusted_es_identity_gap(ExpShortfallWeight(1.0), alpha, x) <= 1e-12

    def test_piecewise_convex_weight(self):
        x = Normal().sample(20000, 8)
        assert adjusted_es_identity_gap(relu_weight(), 0.9, x) <= 1e-10

    def test_rejects_nonconvex(self):
        x = StateVector([0.0, 1.0])
        with pytest.raises(ValueError):
            adjusted_es_identity_gap(ExpCapWeight(1.0), 0.9, x)

    def test_rejects_slope_below_one(self):
        x = StateVector([0.0, 1.0])
        with pytest.raises(ValueError):
            adjusted_es_identity_gap(LinearWeight(0.5), 0.9, x)
