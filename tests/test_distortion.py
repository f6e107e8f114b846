import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar

from meandev.distortion import (
    ESDeviation,
    Gini,
    MeanAbsDevHalf,
    PiecewiseLinearDistortion,
    RangeDistortion,
    _KINDS,
    choquet_deviation,
    distortion_from_spec,
    is_range_normalized,
    row_deviations,
    staircase_sum,
    staircase_weights,
)
from meandev.distributions import Normal, StateVector
from meandev.measures import MDMeasure, es_alpha, expectile, md_eval
from meandev.riskweight import LinearWeight

ALL_H = [ESDeviation(0.9), ESDeviation(0.5), Gini(), MeanAbsDevHalf()]


def half_gini_piecewise(points: int = 21) -> PiecewiseLinearDistortion:
    """Piecewise-linear chord interpolant of 0.5 * (t - t^2)."""
    t = np.linspace(0.0, 1.0, points)
    return PiecewiseLinearDistortion(t=tuple(t), h=tuple(0.5 * (t - t * t)))


class TestLeftDerivative:
    def test_gini_midpoint(self):
        assert Gini().left_derivative(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_es_dev_slopes(self):
        h = ESDeviation(0.9)
        assert h.left_derivative(0.05) == pytest.approx(9.0, rel=1e-12)
        assert h.left_derivative(1.0) == -1.0

    def test_es_dev_matches_finite_difference(self):
        h = ESDeviation(0.9)
        for s in (0.05, 0.5, 0.95):
            fd = (h(s) - h(s - 1e-7)) / 1e-7
            assert h.left_derivative(s) == pytest.approx(fd, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            Gini().left_derivative(0.0)

    @pytest.mark.parametrize("h", ALL_H)
    def test_decreasing_in_s(self, h):
        grid = np.linspace(0.05, 1.0, 40)
        d = [h.left_derivative(s) for s in grid]
        assert np.all(np.diff(d) <= 1e-12)


def loop_quantile_weight(h, u) -> np.ndarray:
    """Per-element reference: the left derivative at s = 1 - u, one node at a time."""
    return np.array([h.left_derivative(max(1.0 - v, 1e-17)) for v in np.atleast_1d(u)])


PIECEWISE_H = [half_gini_piecewise(), ESDeviation(0.9), MeanAbsDevHalf()]


class TestQuantileWeight:
    @pytest.mark.parametrize("h", PIECEWISE_H)
    def test_matches_per_element_loop(self, h):
        kinks = [1.0 - s for s in h.kink_points()]
        u = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1001), [0.0, 1.0], kinks]))
        assert np.array_equal(h.quantile_weight(u), loop_quantile_weight(h, u))

    @pytest.mark.parametrize("h", PIECEWISE_H)
    def test_scalar_returns_float(self, h):
        for u in (0.0, 0.3, 1.0):
            w = h.quantile_weight(u)
            assert type(w) is float
            assert w == loop_quantile_weight(h, u)[0]

    @pytest.mark.parametrize("h", PIECEWISE_H + [ESDeviation(0.3), half_gini_piecewise(101)])
    def test_exact_in_u_next_to_kinks(self, h):
        # the slope of the segment holding s = 1 - u, decided in exact
        # rational arithmetic; computing 1 - u in floats misplaces some of
        # these u by one segment
        knots = [Fraction(s) for s in h.t]
        slopes = [(b - a) / (d - c) for a, b, c, d in zip(h.h, h.h[1:], h.t, h.t[1:])]
        for s in h.kink_points():
            c = 1.0 - s
            for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)):
                exact = next(i for i in range(len(slopes)) if 1 - Fraction(u) <= knots[i + 1])
                assert h.quantile_weight(u) == slopes[exact]


class TestConcavityAndEndpoints:
    @pytest.mark.parametrize("h", ALL_H + [half_gini_piecewise()])
    def test_endpoints_zero(self, h):
        assert float(h(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(h(1.0)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("h", ALL_H + [half_gini_piecewise()])
    @given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    def test_midpoint_concavity(self, h, s, t):
        lhs = float(h(0.5 * (s + t)))
        rhs = 0.5 * (float(h(s)) + float(h(t)))
        assert lhs >= rhs - 1e-12

    @pytest.mark.parametrize("h", ALL_H)
    def test_nonnegative(self, h):
        assert np.all(np.asarray(h(np.linspace(0, 1, 101))) >= -1e-15)

    def test_piecewise_rejects_convex(self):
        with pytest.raises(ValueError):
            PiecewiseLinearDistortion(t=(0.0, 0.5, 1.0), h=(0.0, -0.2, 0.0))

    def test_piecewise_rejects_nonzero_ends(self):
        with pytest.raises(ValueError):
            PiecewiseLinearDistortion(t=(0.0, 1.0), h=(0.0, 0.5))

    @pytest.mark.parametrize("field, t, h", [
        ("t", (0.0, math.nan, 1.0), (0.0, 0.5, 0.0)),
        ("h", (0.0, 0.5, 1.0), (0.0, math.nan, 0.0)),
        ("h", (0.0, 0.5, 1.0), (0.0, math.inf, 0.0)),
    ], ids=["t-nan", "h-nan", "h-inf"])
    def test_piecewise_rejects_non_finite(self, field, t, h):
        with pytest.raises(ValueError, match=f"^{field} entries must all be finite"):
            PiecewiseLinearDistortion(t=t, h=h)


class TestChoquetDeviation:
    def test_es_dev_two_states(self):
        assert choquet_deviation(ESDeviation(0.5), StateVector([0.0, 2.0])) == 1.0

    @pytest.mark.parametrize("h", ALL_H)
    def test_constant_vector_zero(self, h):
        assert choquet_deviation(h, StateVector([3.0] * 7)) == 0.0

    def test_gini_two_states(self):
        # pairwise oracle: half the average |x_i - x_j| over all 4 pairs
        x = StateVector([0.0, 2.0])
        pairwise = 0.5 * np.mean(np.abs(x.values[:, None] - x.values[None, :]))
        assert choquet_deviation(Gini(), x) == pytest.approx(pairwise, abs=1e-15)
        assert choquet_deviation(Gini(), x) == 0.5

    def test_gini_pairwise_identity(self, rng):
        for n in (2, 3, 17, 50):
            x = StateVector(rng.normal(size=n))
            pairwise = 0.5 * np.mean(np.abs(x.values[:, None] - x.values[None, :]))
            assert choquet_deviation(Gini(), x) == pytest.approx(pairwise, abs=1e-12)

    def test_es_identity_cross_module(self, rng):
        for alpha in (0.5, 0.9, 0.95):
            for n in (10, 101, 1000):
                x = StateVector(rng.normal(size=n))
                lhs = choquet_deviation(ESDeviation(alpha), x)
                rhs = es_alpha(x, alpha) - x.mean()
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("h", ALL_H)
    @given(c=st.floats(-50.0, 50.0))
    def test_translation_invariance(self, h, c):
        # exact up to float absorption of the shift into the values
        x = StateVector([0.4, -1.2, 3.1, 0.0, 2.2])
        assert choquet_deviation(h, x + c) == pytest.approx(
            choquet_deviation(h, x), abs=1e-12 * max(1.0, abs(c)))

    @pytest.mark.parametrize("h", ALL_H)
    def test_translation_invariance_exact_for_halved_shifts(self, h):
        # power-of-two shifts on dyadic values leave every gap bit-identical
        x = StateVector([0.5, -1.25, 3.0, 0.0, 2.75])
        for c in (1.0, -2.0, 8.0, 0.25):
            assert choquet_deviation(h, x + c) == choquet_deviation(h, x)

    @pytest.mark.parametrize("h", ALL_H)
    @given(lam=st.floats(0.0, 20.0))
    def test_positive_homogeneity(self, h, lam):
        x = StateVector([0.4, -1.2, 3.1, 0.0, 2.2])
        base = choquet_deviation(h, x)
        assert choquet_deviation(h, lam * x) == pytest.approx(lam * base, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("h", ALL_H)
    def test_subadditive_on_pairs(self, h, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            x = StateVector(rng.normal(size=n))
            y = StateVector(rng.standard_t(5, size=n))
            assert choquet_deviation(h, x + y) <= (
                choquet_deviation(h, x) + choquet_deviation(h, y) + 1e-12
            )

    @pytest.mark.parametrize("h", [ESDeviation(0.9), Gini()])
    def test_strictly_positive_on_nonconstant(self, h, rng):
        for _ in range(100):
            v = rng.normal(size=int(rng.integers(2, 20)))
            if np.ptp(v) == 0.0:
                continue
            assert choquet_deviation(h, StateVector(v)) > 0.0

    def test_range_distortion_gives_range(self, rng):
        v = rng.normal(size=30)
        assert choquet_deviation(RangeDistortion(), StateVector(v)) == pytest.approx(
            np.max(v) - np.min(v), rel=1e-12)

    def test_ties_handled(self):
        x = StateVector([1.0, 1.0, 1.0, 2.0])
        assert choquet_deviation(ESDeviation(0.5), x) == pytest.approx(
            es_alpha(x, 0.5) - x.mean(), abs=1e-15)


def numeric_q_norm(h, q: float, n: int = 200001) -> float:
    """Quadrature oracle for ||h'||_q on a fine midpoint grid."""
    s = (np.arange(n) + 0.5) / n
    d = np.array([h.left_derivative(v) for v in s])
    return float(np.mean(np.abs(d) ** q) ** (1.0 / q))


# prints the deviation of seeded samples too long for one single-threaded dot product
BLAS_PROBE = """
from meandev import ESDeviation, Gini, Normal, choquet_deviation
for n in (10**5, 10**6):
    x = Normal().sample(n, 11)
    print(repr(choquet_deviation(ESDeviation(0.9), x)), repr(choquet_deviation(Gini(), x)))
"""


class TestStaircaseSum:
    @pytest.mark.parametrize("n", [2, 1000, 10_000, 10_001])
    def test_is_one_dot_up_to_ten_thousand_gaps(self, n, rng):
        h, xs = ESDeviation(0.9), np.sort(rng.standard_normal(n))
        assert staircase_sum(lambda a, b: staircase_weights(h, n, a, b), xs) == float(
            np.dot(staircase_weights(h, n), np.diff(xs)))

    @pytest.mark.parametrize("n", [10_002, 25_001, 10**6])
    def test_chunks_add_up(self, n, rng):
        weights, xs = rng.standard_normal(n), np.sort(rng.standard_normal(n + 1))
        products = weights * np.diff(xs)
        assert staircase_sum(lambda a, b: weights[a:b], xs) == pytest.approx(
            math.fsum(products), rel=1e-12, abs=1e-12 * np.abs(products).sum())

    @pytest.mark.parametrize("n", [2, 10_000, 10_001, 25_001, 10**6])
    @pytest.mark.parametrize("h", [
        ESDeviation(0.9), Gini(),
        PiecewiseLinearDistortion(t=(0.0, 0.2, 0.6, 1.0), h=(0.0, 0.5, 0.4, 0.0)),
    ], ids=["es09", "gini", "piecewise3"])
    def test_equals_full_weights_and_gaps_bitwise(self, n, h, rng):
        # the sum over full-length weights and np.diff gaps, in the same chunks
        xs = np.sort(rng.standard_normal(n))
        weights = np.asarray(h(np.arange(n - 1, 0, -1, dtype=float) / n), dtype=float)
        gaps = np.diff(xs)
        full = np.dot(weights[:10_000], gaps[:10_000])
        for a in range(10_000, n - 1, 10_000):
            full += np.dot(weights[a:a + 10_000], gaps[a:a + 10_000])
        assert staircase_sum(lambda a, b: staircase_weights(h, n, a, b), xs) == float(full)
        if isinstance(h, Gini):  # a piecewise-linear h is selected at its knots instead
            assert choquet_deviation(h, StateVector(xs)) == float(full)
        else:
            assert choquet_deviation(h, StateVector(xs)) == pytest.approx(float(full), rel=1e-12)
        for a, b in ((0, n - 1), (0, min(n - 1, 7)), (n // 3, n - 1)):
            assert np.array_equal(staircase_weights(h, n, a, b), weights[a:b])

    @pytest.mark.parametrize("h", [ESDeviation(0.9), Gini()], ids=["es09", "gini"])
    def test_holds_one_sorted_copy_plus_one_chunk(self, h):
        n = 2 * 10**5
        x = Normal().sample(n, 5)
        m = MDMeasure(LinearWeight(1.0), h)
        calls = {"choquet_deviation": (lambda: choquet_deviation(h, x), 1.25),
                 "md_eval": (lambda: md_eval(m, x), 1.25),
                 "es_alpha": (lambda: es_alpha(x, 0.9), 2.1),
                 "expectile": (lambda: expectile(x, 0.9), 2.1)}
        for name, (call, doubles) in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= doubles * 8 * n, (name, peak / (8 * n))

    def test_does_not_depend_on_blas_threads(self):
        outputs = [subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                                  text=True, check=True,
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert outputs[0].count("\n") == 2 and outputs[0] == outputs[1]


def exact_deviation(h: PiecewiseLinearDistortion, xs) -> Fraction:
    """Sum over i of (h((n - i) / n) - h((n - i - 1) / n)) x_(i), in rational arithmetic."""
    t, v = [Fraction(a) for a in h.t], [Fraction(a) for a in h.h]

    def at(s: Fraction) -> Fraction:
        j = next(j for j in range(len(t) - 1) if s <= t[j + 1])
        return v[j] + (v[j + 1] - v[j]) * (s - t[j]) / (t[j + 1] - t[j])

    n, xs = len(xs), sorted(xs)
    levels = [at(Fraction(n - i, n)) for i in range(n + 1)]
    return sum((levels[i] - levels[i + 1]) * Fraction(x) for i, x in enumerate(xs))


def random_piecewise(rng, knots) -> PiecewiseLinearDistortion:
    """A concave piecewise-linear h with these interior knots and random slopes."""
    t = [0.0, *sorted(knots), 1.0]
    lengths = np.diff(t)
    slopes = np.sort(rng.uniform(-1.0, 3.0, lengths.size))[::-1]
    slopes -= slopes @ lengths  # so that h(1) = 0, up to rounding
    h = np.concatenate(([0.0], np.cumsum(slopes * lengths)))
    h[-1] = 0.0
    return PiecewiseLinearDistortion(tuple(t), tuple(h.tolist()))


PIECEWISE_H = [ESDeviation(0.9), ESDeviation(0.37), ESDeviation(0.5), MeanAbsDevHalf(),
               PiecewiseLinearDistortion(t=(0.0, 0.2, 0.6, 1.0), h=(0.0, 0.5, 0.4, 0.0))]
PIECEWISE_IDS = ["es09", "es037", "es05", "mad_half", "piecewise3"]


class TestRowDeviations:
    """Selection at the knots of a piecewise-linear h against the exact staircase."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 17, 32, 39, 48, 59, 60])
    @pytest.mark.parametrize("dyadic", [False, True], ids=["straddling", "dyadic"])
    def test_matches_rational_oracle(self, n, dyadic, rng):
        # knots at multiples of 1/16 fall between order statistics when 16 | n;
        # random knots fall inside one, whose weight is then h's exact difference
        for k in (1, 2, 3):
            knots = rng.integers(1, 16, k) / 16 if dyadic else rng.uniform(0.01, 0.99, k)
            h = random_piecewise(rng, set(knots.tolist()))
            for loc, scale in ((0.0, 1.0), (1e3, 1e-3), (-5.0, 1e3)):
                xs = loc + scale * rng.standard_normal(n)
                want = exact_deviation(h, xs.tolist())
                got = choquet_deviation(h, StateVector(xs))
                assert abs(Fraction(got) - want) <= 6 * math.ulp(float(want)), (h, xs)

    @pytest.mark.parametrize("h", PIECEWISE_H, ids=PIECEWISE_IDS)
    @pytest.mark.parametrize("n", [2, 7, 100, 1001, 10_000])
    def test_named_distortions_match_rational_oracle(self, h, n, rng):
        xs = 1e3 + rng.standard_normal(n)
        want = exact_deviation(h, xs.tolist())
        assert abs(Fraction(choquet_deviation(h, StateVector(xs))) - want) <= 6 * math.ulp(
            float(want))

    @pytest.mark.parametrize("h", PIECEWISE_H, ids=PIECEWISE_IDS)
    def test_constant_samples_give_exactly_zero(self, h):
        for n in range(1, 70):
            for c in (0.1, -3.7, 1e8, 1e-300, -2.5e300 / n):
                assert choquet_deviation(h, StateVector([c] * n)) == 0.0
        assert np.array_equal(row_deviations(h, np.full((4, 33), 0.3)), np.zeros(4))

    def test_zero_distortion_gives_positive_zero(self):
        zero = PiecewiseLinearDistortion(t=(0.0, 1.0), h=(0.0, 0.0))
        devs = row_deviations(zero, np.array([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]]))
        assert np.array_equal(devs, [0.0, 0.0]) and not np.signbit(devs).any()

    @pytest.mark.parametrize("h", PIECEWISE_H, ids=PIECEWISE_IDS)
    def test_shift_by_1e8_moves_only_by_the_rounding_of_the_shift(self, h, rng):
        # x + 1e8 rounds each value by up to ulp(1e8) / 2, and the weights'
        # absolute values sum to at most 2 max h, so D moves by at most
        # max h * ulp(1e8); the arithmetic adds a few ulps of D
        for n in (10, 1000, 100_001):
            x = StateVector(rng.standard_normal(n))
            base = choquet_deviation(h, x)
            bound = max(h.h) * math.ulp(1e8) + 8 * math.ulp(base)
            assert abs(choquet_deviation(h, x + 1e8) - base) <= bound

    @pytest.mark.parametrize("h", PIECEWISE_H, ids=PIECEWISE_IDS)
    def test_ties(self, h, rng):
        for n in (4, 20, 57, 1000):
            xs = rng.integers(0, 3, n).astype(float)
            want = exact_deviation(h, xs.tolist())
            assert abs(Fraction(choquet_deviation(h, StateVector(xs))) - want) <= 6 * math.ulp(
                float(want))

    @pytest.mark.parametrize("h", [*PIECEWISE_H, Gini(), RangeDistortion()],
                             ids=[*PIECEWISE_IDS, "gini", "range"])
    @pytest.mark.parametrize("n", [1, 37, 1000, 10_001])
    def test_each_row_gives_its_choquet_deviation_bitwise(self, h, n, rng):
        block = rng.standard_normal((5, n)) * rng.uniform(0.1, 10.0, (5, 1))
        expected = [choquet_deviation(h, StateVector(row)) for row in block]
        assert np.array_equal(row_deviations(h, block), expected)


class TestNorms:
    def test_es_dev_l2_closed_form(self):
        l2_norm = ESDeviation(0.9).q_norm(2.0)
        assert l2_norm == pytest.approx(3.0, abs=1e-9)
        assert l2_norm == pytest.approx(numeric_q_norm(ESDeviation(0.9), 2.0), rel=1e-4)

    def test_gini_l2(self):
        l2_norm = Gini().q_norm(2.0)
        assert l2_norm == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert l2_norm == pytest.approx(numeric_q_norm(Gini(), 2.0), rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.9, 0.95])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_es_dev_centered_closed_form(self, alpha, p):
        q = 1.0 / (1.0 - 1.0 / p)
        expected = alpha * (alpha ** p * (1 - alpha) + alpha * (1 - alpha) ** p) ** (-1.0 / p)
        assert ESDeviation(alpha).centered_q_norm(q) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("p", [1.01, 1.001, 1.0001, 1.00001])
    def test_es_dev_centered_closed_form_near_order_one(self, p):
        # q = p / (p - 1) up to 1e5: unscaled, |h' - x|^q overflowed at 5 and
        # the centering's balance underflowed to 0
        alpha, q = 0.9, 1.0 / (1.0 - 1.0 / p)
        expected = alpha * (alpha ** p * (1 - alpha) + alpha * (1 - alpha) ** p) ** (-1.0 / p)
        assert ESDeviation(alpha).centered_q_norm(q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", [1001.0, 1e5])
    def test_gini_objective_at_large_q(self, q):
        # at x = 0.5, h' - x runs over [-1.5, 0.5]; unscaled, 1.5^(q+1) overflowed
        expected = math.exp((1.0 + 1.0 / q) * math.log(1.5) - math.log(2.0 * (q + 1.0)) / q
                            + math.log1p(3.0 ** -(q + 1.0)) / q)
        assert Gini().centered_norm_objective(0.5, q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("h", ALL_H + [half_gini_piecewise()])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_centering_shrinks(self, h, q):
        assert h.centered_q_norm(q) <= h.q_norm(q) + 1e-12

    @pytest.mark.parametrize("h", [ESDeviation(0.9), ESDeviation(0.95), MeanAbsDevHalf(),
                                   Gini(), half_gini_piecewise()])
    def test_centered_l2_is_the_l2_norm(self, h):
        search = minimize_scalar(lambda x: h.centered_norm_objective(x, 2.0),
                                 bounds=h.derivative_range(), method="bounded",
                                 options={"xatol": 1e-12})
        assert h.centered_q_norm(2.0) == pytest.approx(search.fun, abs=1e-12)

    @pytest.mark.parametrize("h", [ESDeviation(0.9), ESDeviation(0.95), MeanAbsDevHalf()])
    @pytest.mark.parametrize("q", [1.5, 3.0, 7.0])
    def test_one_kink_centered_closed_form(self, h, q):
        # slopes a = alpha / (1 - alpha) on (0, 1 - alpha) and -1 after it; the
        # first-order condition (1 - alpha)(a - x)^(q-1) = alpha (x + 1)^(q-1)
        alpha = h.h[1]
        a = alpha / (1.0 - alpha)
        r = a ** (1.0 / (q - 1.0))
        x = (a - r) / (1.0 + r)
        expected = ((1.0 - alpha) * abs(a - x) ** q + alpha * abs(1.0 + x) ** q) ** (1.0 / q)
        assert h.centered_q_norm(q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("h", [ESDeviation(0.9), ESDeviation(0.95), MeanAbsDevHalf(),
                                   half_gini_piecewise()])
    def test_centered_l1_at_the_weighted_median(self, h):
        slopes, lengths = np.diff(h.h) / np.diff(h.t), np.diff(h.t)
        order = np.argsort(slopes)
        median = slopes[order][np.searchsorted(np.cumsum(lengths[order]), 0.5)]
        expected = float(np.sum(lengths * np.abs(slopes - median)))
        assert h.centered_q_norm(1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("h", [Gini(), half_gini_piecewise()])
    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0, 7.0])
    def test_antisymmetric_derivative_centers_at_zero(self, h, q):
        # h'(s) = -h'(1 - s), so the minimizing constant is 0
        assert h.centered_q_norm(q) == pytest.approx(h.q_norm(q), rel=1e-12)

    def test_range_rejects(self):
        with pytest.raises(ValueError):
            RangeDistortion().q_norm(2.0)
        for q in (1.5, 2.0, math.inf):
            with pytest.raises(ValueError, match="norm undefined for the range distortion"):
                RangeDistortion().centered_q_norm(q)

    @pytest.mark.parametrize("x", [-1.5, -0.3, 0.0, 0.7, 1.2])
    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
    def test_gini_centered_objective_closed_form(self, x, q):
        # midpoint rule for the integral of |1 - 2t - x|^q over (0, 1)
        t = (np.arange(200000) + 0.5) / 200000
        numeric = float(np.mean(np.abs(1.0 - 2.0 * t - x) ** q)) ** (1.0 / q)
        assert Gini().centered_norm_objective(x, q) == pytest.approx(numeric, rel=1e-8)

    @pytest.mark.parametrize("q", [0.5, -1.0, math.nan])
    def test_exponent_below_one_rejected(self, q):
        with pytest.raises(ValueError):
            Gini().q_norm(q)
        with pytest.raises(ValueError):
            ESDeviation(0.9).centered_q_norm(q)

    def test_mad_half_unit_norms(self):
        for q in (1.0, 2.0, 4.0, math.inf):
            assert MeanAbsDevHalf().q_norm(q) == pytest.approx(1.0, abs=1e-12)


class TestRangeNormalization:
    def test_named_families(self):
        assert is_range_normalized(ESDeviation(0.9))
        assert is_range_normalized(Gini())
        assert is_range_normalized(MeanAbsDevHalf())
        assert not is_range_normalized(RangeDistortion())

    def test_scaled_gini_not_normalized(self):
        assert not is_range_normalized(half_gini_piecewise())

    def test_piecewise_normalized_when_last_slope_is_minus_one(self):
        h = PiecewiseLinearDistortion(t=(0.0, 0.5, 1.0), h=(0.0, 0.5, 0.0))
        assert is_range_normalized(h)


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ({"kind": "es_dev", "alpha": 0.9}, {"kind": "gini"},
                     {"kind": "mad_half"}, {"kind": "range"},
                     {"kind": "piecewise_linear", "t": [0.0, 0.5, 1.0], "h": [0.0, 0.5, 0.0]}):
            assert distortion_from_spec(spec).spec() == spec

    def test_unknown(self):
        with pytest.raises(ValueError):
            distortion_from_spec({"kind": "wang"})

    @pytest.mark.parametrize("field", ["t", "h"])
    def test_piecewise_non_finite_entry(self, field):
        spec = {"kind": "piecewise_linear", "t": [0.0, 0.5, 1.0], "h": [0.0, 0.5, 0.0]}
        spec[field][1] = math.nan
        with pytest.raises(ValueError, match=f"{field} entries must all be finite"):
            distortion_from_spec(spec)

    def test_every_kind_is_a_hashable_value(self):
        # the population quadrature caches its node table keyed by the distortion
        specs = [{"kind": "es_dev", "alpha": 0.9}, {"kind": "gini"}, {"kind": "mad_half"},
                 {"kind": "range"},
                 {"kind": "piecewise_linear", "t": [0.0, 0.5, 1.0], "h": [0.0, 0.5, 0.0]}]
        assert {s["kind"] for s in specs} == set(_KINDS)
        for spec in specs:
            first, second = distortion_from_spec(spec), distortion_from_spec(spec)
            assert first is not second and first == second and hash(first) == hash(second)
