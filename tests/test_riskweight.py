import math

import mpmath
import numpy as np
import pytest

from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    GClassification,
    LinearWeight,
    ParetoCapWeight,
    ParetoShortfallWeight,
    PiecewiseLinearWeight,
    conjugate,
    g_from_spec,
)

ALL_G = [
    LinearWeight(1.0),
    LinearWeight(0.7),
    ExpShortfallWeight(1.0),
    ExpShortfallWeight(3.0),
    ParetoShortfallWeight(4.0),
    ParetoShortfallWeight(1.0),
    ExpCapWeight(1.0),
    ParetoCapWeight(4.0),
    ParetoCapWeight(1.0),
    PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0)),
    PiecewiseLinearWeight(knots=(1.0, 2.0), slopes=(1.0, 0.5, 0.25)),
]

GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 10000)])


class TestEvaluation:
    def test_exp_shortfall_value(self):
        x = 1.755
        assert ExpShortfallWeight(1.0)(x) == pytest.approx(x + math.exp(-x) - 1.0,
                                                                   rel=1e-12)

    def test_exp_cap_value(self):
        x = 1.755
        assert ExpCapWeight(1.0)(x) == pytest.approx(1.0 - math.exp(-x), rel=1e-12)

    @pytest.mark.parametrize("g", ALL_G)
    def test_zero_at_zero(self, g):
        assert g(0.0) == 0.0

    @pytest.mark.parametrize("g", ALL_G)
    def test_bounded_by_identity(self, g):
        values = np.asarray(g(GRID))
        assert np.all(values >= -1e-15)
        assert np.all(values <= GRID + 1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExpShortfallWeight(1.0)(-0.1)


class TestMembershipInvariants:
    @pytest.mark.parametrize("g", ALL_G)
    def test_increasing_and_lipschitz_on_grid(self, g):
        values = np.asarray(g(GRID))
        diffs = np.diff(values)
        steps = np.diff(GRID)
        assert np.all(diffs >= -1e-12)
        assert np.all(diffs <= steps + 1e-12)
        assert np.ptp(values) > 0.0  # non-constant

    @pytest.mark.parametrize("g", ALL_G)
    def test_increment_bound(self, g):
        # g(d + a) - g(d) <= a on a grid of gaps
        for d in (0.0, 0.3, 2.0, 10.0):
            for a in (1e-3, 0.1, 1.0, 5.0):
                assert g(d + a) - g(d) <= a + 1e-12


class TestLeftDerivative:
    def test_linear(self):
        assert LinearWeight(0.7).left_derivative(5.0) == 0.7

    def test_exp_shortfall_closed_form_and_fd(self):
        g = ExpShortfallWeight(2.0)
        x = 1.0
        assert g.left_derivative(x) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
        fd = (g(x + 5e-7) - g(x - 5e-7)) / 1e-6
        assert g.left_derivative(x) == pytest.approx(fd, abs=1e-6)

    def test_piecewise_left_slope_at_kink(self):
        g = PiecewiseLinearWeight(knots=(1.0,), slopes=(1.0, 0.0))
        assert g.left_derivative(1.0) == 1.0
        assert g.left_derivative(1.0001) == 0.0

    @pytest.mark.parametrize("g", ALL_G)
    def test_in_unit_interval(self, g):
        for x in (0.01, 0.5, 1.0, 7.0):
            assert 0.0 <= g.left_derivative(x) <= 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            LinearWeight(1.0).left_derivative(0.0)


class TestClassification:
    def test_linear(self):
        c = LinearWeight(0.7).classify()
        assert c.is_linear and c.is_convex and c.is_star_shaped and c.is_concave
        assert c.asymptotic_slope == 0.7
        assert c.sup_ratio == 0.7

    def test_exp_shortfall(self):
        c = ExpShortfallWeight(1.0).classify()
        assert c.is_convex and not c.is_linear and c.is_star_shaped and not c.is_concave
        assert c.asymptotic_slope == 1.0
        assert c.sup_ratio == 1.0

    def test_exp_cap(self):
        c = ExpCapWeight(1.0).classify()
        assert c.is_concave and not c.is_convex and not c.is_linear
        # concave and non-linear: scaling down can only raise g(x)/x
        assert not c.is_star_shaped
        assert c.sup_ratio == 1.0
        assert c.asymptotic_slope == 0.0

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_piecewise_without_knots_is_linear(self, lam):
        g, linear = PiecewiseLinearWeight(knots=(), slopes=(lam,)), LinearWeight(lam)
        np.testing.assert_array_equal(g(GRID), linear(GRID))
        assert g.classify() == linear.classify()
        for y in (-1.0, 0.0, 0.5 * lam, lam, lam + 0.1):
            assert conjugate(g, y) == conjugate(linear, y)

    def test_piecewise_convex(self):
        c = PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0)).classify()
        assert c.is_convex and c.is_star_shaped and not c.is_linear
        assert c.asymptotic_slope == 1.0

    def test_piecewise_concave_not_star(self):
        c = PiecewiseLinearWeight(knots=(1.0,), slopes=(1.0, 0.25)).classify()
        assert c.is_concave and not c.is_convex and not c.is_star_shaped
        assert c.sup_ratio == 1.0 and c.asymptotic_slope == 0.25

    @pytest.mark.parametrize("g", ALL_G)
    def test_implication_chain(self, g):
        c = g.classify()
        if c.is_linear:
            assert c.is_convex
        if c.is_convex:
            assert c.is_star_shaped
        assert c.asymptotic_slope <= c.sup_ratio + 1e-15
        assert c.sup_ratio <= 1.0 + 1e-15

    @pytest.mark.parametrize("g", ALL_G)
    def test_star_shape_matches_ratio_monotonicity(self, g):
        # g(x)/x increasing on a grid is the defining property
        xs = np.geomspace(1e-3, 1e3, 500)
        ratios = np.asarray(g(xs)) / xs
        empirically_star = bool(np.all(np.diff(ratios) >= -1e-10))
        assert g.classify().is_star_shaped == empirically_star


def reference_value(knots, slopes, x):
    """The segment lookup with its edges and g at the edges formed afresh."""
    knots, slopes = np.asarray(knots), np.asarray(slopes)
    edges = np.concatenate([[0.0], knots])
    g_at_edges = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(edges))])
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, slopes.size - 1)
    return g_at_edges[idx] + slopes[idx] * (x - edges[idx])


def reference_classification(knots, slopes) -> GClassification:
    knots, slopes = np.asarray(knots), np.asarray(slopes)
    is_convex = bool(np.all(np.diff(slopes) >= -1e-15))
    is_concave = bool(np.all(np.diff(slopes) <= 1e-15))
    a = float(slopes[-1])
    if knots.size:
        g_at_knots = np.asarray(reference_value(knots, slopes, knots), dtype=float)
        is_star = bool(np.all(g_at_knots - slopes[1:] * knots <= 1e-12))
        sup_ratio = float(max(slopes[0], a, np.max(g_at_knots / knots)))
    else:
        is_star, sup_ratio = True, float(slopes[0])
    return GClassification(is_convex and is_concave, is_convex, is_star or is_convex,
                           is_concave, a, sup_ratio)


def reference_conjugate(knots, slopes, y: float) -> float:
    """Zero for y <= 0, +inf above the last slope, else the best knot (or 0)."""
    if y <= 0.0:
        return 0.0
    if y > slopes[-1] + 1e-15:
        return math.inf
    return float(max(x * y - float(reference_value(knots, slopes, x)) for x in (0.0, *knots)))


def seeded_piecewise(rng, case: int):
    """(knots, slopes) with case % 5 knots and slopes random, sorted, reversed,
    equal or rounded to tenths by (case // 5) % 5."""
    m = case % 5
    knots = tuple(np.cumsum(rng.uniform(0.05, 2.0, size=m)).tolist())
    slopes = rng.uniform(0.0, 1.0, size=m + 1)
    slopes = [slopes, np.sort(slopes), np.sort(slopes)[::-1],
              np.full(m + 1, slopes[0]), np.round(slopes, 1)][(case // 5) % 5]
    if not np.any(slopes > 0.0):
        slopes = np.full(m + 1, 0.5)
    return knots, tuple(slopes.tolist())


class TestAgainstReferenceFormulas:
    """Value, left derivative, classification, conjugate and spec, equal to the
    formulas written out afresh, on seeded knots, slopes, lambdas and points."""

    @pytest.mark.parametrize("case", range(50))
    def test_piecewise(self, case):
        rng = np.random.default_rng(case)
        knots, slopes = seeded_piecewise(rng, case)
        g = PiecewiseLinearWeight(knots, slopes)
        xs = np.concatenate([[0.0, 1e-300], knots, rng.exponential(2.0, size=200),
                             [1e6, 1e300]])
        assert np.array_equal(g(xs), reference_value(knots, slopes, xs))
        for x in xs.tolist():
            assert g(x) == reference_value(knots, slopes, x)
            if x > 0.0:
                assert g.left_derivative(x) == float(
                    slopes[int(np.searchsorted(knots, x, side="left"))])
        assert g.classify() == reference_classification(knots, slopes)
        for y in (-1.0, 0.0, *rng.uniform(0.0, 1.0, size=20).tolist(), *slopes, 1.0):
            assert conjugate(g, y) == reference_conjugate(knots, slopes, y)
        assert g.spec() == {"kind": "piecewise_linear", "knots": list(knots),
                            "slopes": list(slopes)}

    @pytest.mark.parametrize("lam", [1.0, 0.5, math.ulp(0.0),
                                     *np.random.default_rng(7).uniform(0.0, 1.0, 12).tolist()])
    def test_linear(self, lam):
        g = LinearWeight(lam)
        assert g.lam == lam
        xs = np.concatenate([[0.0, 1e-300],
                             np.random.default_rng(8).exponential(2.0, size=200), [1e300]])
        assert np.array_equal(g(xs), lam * xs)
        for x in xs.tolist():
            assert g(x) == lam * x
            if x > 0.0:
                assert g.left_derivative(x) == lam
        assert g.classify() == GClassification(True, True, True, True, lam, lam)
        for y in (-1.0, 0.0, 0.5 * lam, lam, lam + 1e-16, lam + 0.1):
            assert conjugate(g, y) == (0.0 if y <= lam + 1e-15 else math.inf)
        assert g.spec() == {"kind": "linear", "lambda": lam}
        assert g_from_spec(g.spec()) == g


def conjugate_oracle(g, y: float) -> float:
    """Dense log-spaced grid maximization of x*y - g(x)."""
    xs = np.concatenate([[0.0], np.geomspace(1e-8, 1e7, 400001)])
    return float(np.max(xs * y - np.asarray(g(xs))))


def sup_at_maximizer(g, y: float) -> float:
    """x* y - g(x*) in 50-digit arithmetic at the x* where g'(x*) = y.

    At y = 1 the sup is the limit of x - g(x) as x -> inf, which is 1 / beta
    for the exponential shortfall; for linear g the sup sits at x = 0.
    """
    if isinstance(g, LinearWeight):
        return 0.0
    with mpmath.workdps(50):
        v = mpmath.mpf(y)
        if isinstance(g, ExpShortfallWeight):
            b = mpmath.mpf(g.beta)
            if y == 1.0:
                return float(1 / b)
            x = -mpmath.log1p(-v) / b
            return float(x * v - (x + mpmath.expm1(-b * x) / b))
        t = mpmath.mpf(g.theta)
        x = (1 - v) ** (-1 / t) - 1
        gx = x - mpmath.log1p(x) if g.theta == 1.0 else x + ((1 + x) ** (1 - t) - 1) / (t - 1)
        return float(x * v - gx)


class TestConjugate:
    @pytest.mark.parametrize("g", ALL_G)
    def test_zero_at_zero(self, g):
        assert conjugate(g, 0.0) == 0.0
        assert conjugate(g, -1.0) == 0.0

    def test_linear_cases(self):
        assert conjugate(LinearWeight(1.0), 1.0) == pytest.approx(0.0, abs=1e-9)
        assert conjugate(LinearWeight(1.0), 1.1) == math.inf

    def test_exp_shortfall_closed_form(self):
        # first-order condition gives (1-y) log(1-y) + y
        g = ExpShortfallWeight(1.0)
        for y in (0.1, 0.5, 0.9):
            expected = (1.0 - y) * math.log(1.0 - y) + y
            assert conjugate(g, y) == pytest.approx(expected, abs=1e-9)
            assert conjugate(g, y) == pytest.approx(conjugate_oracle(g, y), abs=1e-6)

    @pytest.mark.parametrize("g", [LinearWeight(1.0), ExpShortfallWeight(1.0),
                                   ExpShortfallWeight(3.0)])
    @pytest.mark.parametrize("y", [1e-9, 0.3, 0.9, 1.0 - 1e-6, 1.0])
    def test_closed_form_matches_search(self, g, y):
        # the sup evaluated at its maximizer in 50-digit arithmetic
        assert conjugate(g, y) == pytest.approx(sup_at_maximizer(g, y), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("y", [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 0.999])
    def test_exp_shortfall_relative_accuracy(self, beta, y):
        # small y is where the closed form cancels terms of order y
        g = ExpShortfallWeight(beta)
        assert conjugate(g, y) == pytest.approx(sup_at_maximizer(g, y), rel=1e-12, abs=0.0)

    # below theta = 1/2 the series hands over before y = 0.1, so 0.05 probes that switch;
    # the closed form cancels as theta -> 1 and at large theta, and 0.1 and 0.19 sit
    # just past the series region
    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 4.0,
                                       10.0, 30.0, 100.0, 1000.0])
    @pytest.mark.parametrize("y", [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.19, 0.3, 0.999])
    def test_pareto_shortfall_relative_accuracy(self, theta, y):
        g = ParetoShortfallWeight(theta)
        assert conjugate(g, y) == pytest.approx(sup_at_maximizer(g, y), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0, 2.0, 4.0])
    def test_pareto_shortfall_at_one(self, theta):
        # x - g(x) tends to 1 / (theta - 1) for theta > 1 and grows without
        # bound otherwise
        expected = 1.0 / (theta - 1.0) if theta > 1.0 else math.inf
        assert conjugate(ParetoShortfallWeight(theta), 1.0) == expected

    def test_above_slope_infinite(self):
        assert conjugate(ExpCapWeight(1.0), 0.5) == math.inf
        assert conjugate(PiecewiseLinearWeight(knots=(1.0,), slopes=(1.0, 0.5)), 0.75) == math.inf

    @pytest.mark.parametrize("g", [LinearWeight(0.7), ExpShortfallWeight(1.0),
                                   ParetoShortfallWeight(4.0),
                                   PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0))])
    def test_fenchel_inequality(self, g):
        a = g.classify().asymptotic_slope
        for x in np.geomspace(1e-3, 50.0, 25):
            for y in np.linspace(0.0, a, 9):
                assert x * y <= g(x) + conjugate(g, y) + 1e-8

    @pytest.mark.parametrize("g", [ExpShortfallWeight(1.0), ExpShortfallWeight(3.0),
                                   ParetoShortfallWeight(4.0)])
    def test_biconjugation(self, g):
        a = g.classify().asymptotic_slope
        ys = np.linspace(0.0, a, 2001)
        stars = np.array([conjugate(g, y) for y in ys])
        step = ys[1] - ys[0]
        for x in (0.1, 0.7, 2.0, 9.0):
            coarse = ys[int(np.argmax(ys * x - stars))]
            fine = np.linspace(max(coarse - step, 0.0), min(coarse + step, a), 201)
            recovered = float(np.max(fine * x - np.array([conjugate(g, y) for y in fine])))
            assert recovered == pytest.approx(g(x), abs=1e-6)


class TestDuality:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_exp_pair_sums_to_identity(self, beta):
        lhs = ExpShortfallWeight(beta)
        rhs = ExpCapWeight(beta)
        for x in np.linspace(0.0, 20.0, 41):
            assert lhs(x) + rhs(x) == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("theta", [1.0, 2.5, 4.0])
    def test_pareto_pair_sums_to_identity(self, theta):
        lhs = ParetoShortfallWeight(theta)
        rhs = ParetoCapWeight(theta)
        for x in np.linspace(0.0, 20.0, 41):
            assert lhs(x) + rhs(x) == pytest.approx(x, abs=1e-12)


class TestSmallestCoherentMultiplier:
    def ratio_oracle(self, g) -> float:
        xs = np.geomspace(1e-6, 1e6, 200001)
        return float(np.max(np.asarray(g(xs)) / xs))

    def test_linear(self):
        assert LinearWeight(0.7).classify().sup_ratio == 0.7

    @pytest.mark.parametrize("g,expected", [
        (ExpShortfallWeight(1.0), 1.0),
        (ExpShortfallWeight(3.0), 1.0),
        (ExpCapWeight(1.0), 1.0),
        (ParetoCapWeight(4.0), 1.0),
    ])
    def test_families(self, g, expected):
        assert g.classify().sup_ratio == pytest.approx(expected, abs=1e-12)
        assert g.classify().sup_ratio == pytest.approx(self.ratio_oracle(g), rel=1e-5)


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ({"kind": "linear", "lambda": 0.7},
                     {"kind": "exp_shortfall", "beta": 3.0},
                     {"kind": "pareto_shortfall", "theta": 4.0},
                     {"kind": "exp_cap", "beta": 1.0},
                     {"kind": "pareto_cap", "theta": 2.0},
                     {"kind": "piecewise_linear", "knots": [1.0], "slopes": [0.0, 1.0]}):
            assert g_from_spec(spec).spec() == spec

    def test_gbeta_alias(self):
        g = g_from_spec({"kind": "gbeta", "beta": 2.0})
        assert isinstance(g, ExpShortfallWeight)
        assert g.beta == 2.0

    def test_gbeta_is_written_back_as_exp_shortfall(self):
        assert g_from_spec({"kind": "gbeta", "beta": 2.0}).spec() == {"kind": "exp_shortfall",
                                                                      "beta": 2.0}

    def test_slope_validation_is_hard_error(self):
        with pytest.raises(ValueError):
            g_from_spec({"kind": "piecewise_linear", "knots": [1.0], "slopes": [0.5, 1.5]})
        with pytest.raises(ValueError):
            g_from_spec({"kind": "piecewise_linear", "knots": [1.0], "slopes": [-0.1, 0.5]})

    def test_unknown(self):
        with pytest.raises(ValueError):
            g_from_spec({"kind": "quadratic"})
