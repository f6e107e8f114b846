import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import meandev.estimation
from meandev.distortion import ESDeviation, Gini, MeanAbsDevHalf, PiecewiseLinearDistortion
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
from meandev.riskweight import (
    ExpCapWeight,
    ExpShortfallWeight,
    LinearWeight,
    ParetoCapWeight,
    ParetoShortfallWeight,
    PiecewiseLinearWeight,
)

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

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    def test_normal_es_itself(self, alpha):
        m = MDMeasure(LinearWeight(1.0), ESDeviation(alpha))
        assert md_true(Normal(), m) == pytest.approx(normal_es(alpha), rel=1e-12)

    def test_lomax_deviation_closed_form(self):
        # ES_0.9 of lomax(4) = ((4/3) * 0.1^(3/4) - 0.1) / 0.1, mean = 1/3; the
        # grid stops at u = 1 - e^-36, which costs 2e-11 relative
        es = ((4.0 / 3.0) * 0.1 ** 0.75 - 0.1) / 0.1
        m = MDMeasure(LinearWeight(1.0), H09)
        assert deviation_true(Lomax(4.0), m) == pytest.approx(es - 1.0 / 3.0, rel=1e-10)
        assert md_true(Lomax(4.0), m) == pytest.approx(es, rel=1e-10)

    def test_exponential_deviation(self):
        # ES_alpha - mean for the unit exponential is 1 - log(1 - alpha) - 1
        m = MDMeasure(LinearWeight(1.0), ESDeviation(0.9))
        assert deviation_true(Exponential(1.0), m) == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_gini_deviation_normal(self):
        # Gini deviation of N(0, 1) is 1/sqrt(pi)
        m = MDMeasure(LinearWeight(1.0), Gini())
        assert deviation_true(Normal(), m) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("mu", [1e3, 1e8, 1e10, 1e12])
    def test_translation_invariant(self, mu):
        # h'(1 - u) integrates to 0, so mu must cancel; at mu = 1e8 the
        # uncentered sum was off by 1.1e-7 relative, and from 1e10 on its
        # rounding swamped the tail windows and raised NumericsError
        m = MDMeasure(LinearWeight(1.0), H09)
        base = deviation_true(Normal(0.0, 1.0), m)
        assert abs(deviation_true(Normal(mu, 1.0), m) - base) <= 1e-15 * mu + 1e-13

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
        assert limit.center == pytest.approx(1.25 / rate, rel=1e-12)
        assert limit.variance == pytest.approx(19.0 / 12.0 / rate ** 2, rel=1e-11)

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
    @pytest.mark.parametrize("g, h", [
        # the exponential shortfall g, the first one, keeps the bare h id
        pytest.param(g, h, id=h_id if g_id == "exp_shortfall" else f"{g_id}-{h_id}")
        for g_id, g in [("exp_shortfall", ExpShortfallWeight(1.0)),
                        ("pareto_shortfall", ParetoShortfallWeight(2.5)),
                        ("pareto_cap", ParetoCapWeight(0.5)), ("exp_cap", ExpCapWeight(2.0)),
                        ("piecewise", PiecewiseLinearWeight(knots=(0.5, 1.0), slopes=(0.0, 0.3, 1.0)))]
        for h_id, h in [("es09", H09), ("gini", Gini()),
                        ("piecewise3", PiecewiseLinearDistortion(t=(0.0, 0.2, 0.6, 1.0),
                                                                 h=(0.0, 0.5, 0.4, 0.0))),
                        ("mad_half", MeanAbsDevHalf())]
    ])
    def test_estimates_equal_md_eval(self, model, g, h):
        # g on a block of deviations gives, row by row, exactly md_eval's float
        m = MDMeasure(g, h)
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


class TestChildStates:
    @pytest.mark.parametrize("seed", [
        0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 11, 2 ** 200 + 1, np.int64(5), [3, 2 ** 40],
    ], ids=repr)
    @pytest.mark.parametrize("count", [1, 257])
    def test_rows_are_spawned_states(self, seed, count):
        # entropy of 1 to 7 words: the padded short ones and the long ones
        # whose extra words shift the hash constant of the child's index
        states = meandev.estimation._child_states(seed, count)
        expected = [c.generate_state(4, np.uint64)
                    for c in np.random.SeedSequence(seed).spawn(count)]
        assert states.dtype == np.uint64 and states.flags.c_contiguous
        assert np.array_equal(states, expected)

    def test_negative_seed_raises_as_seed_sequence_does(self):
        with pytest.raises(ValueError) as theirs:
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError) as ours:
            meandev.estimation._child_states(-1, 3)
        assert str(ours.value) == str(theirs.value)

    def test_count_beyond_one_word_is_refused(self):
        with pytest.raises(ValueError, match="child count"):
            meandev.estimation._child_states(1, 2 ** 32)


class _HugeTopDraws(Normal):
    # the population integrals take the quantile below u = 1/2 only, so just
    # the sample blocks see levels above 0.999
    def quantile(self, u, out=None):
        top = np.asarray(u) > 0.999  # before out, which may be u, is written
        x = super().quantile(u, out=out)
        x[top] = 1e306
        return x


def _failing_at(seed, reps, *starts):
    """A standard normal whose blocks starting at these replications raise."""
    states = meandev.estimation._child_states(seed, reps)
    failing = {states[start].tobytes(): start for start in starts}

    class FailsAt(Normal):
        def sample_block(self, n, seeds, out=None):
            start = failing.get(seeds[0].generate_state(4, np.uint64).tobytes())
            if start is not None:
                raise ValueError(f"block at replication {start}")
            return super().sample_block(n, seeds, out=out)
    return FailsAt()


class TestMonteCarloBlocks:
    M = MDMeasure(ExpShortfallWeight(1.0), H09)

    @pytest.mark.parametrize("n, reps", [(10 ** 4, 101), (10 ** 5 + 3, 101)],
                             ids=["ragged-last-block", "one-row-blocks"])
    def test_threads_match_one_thread_and_md_eval(self, n, reps, monkeypatch):
        # n = 1e4 gives 13-row blocks, the last one holding 10 rows
        threaded = monte_carlo(Normal(), self.M, n=n, replications=reps, seed=8)
        blocks = -(-reps // max(1, meandev.estimation._BLOCK_VALUES // n))
        assert threaded.workers == min(meandev.estimation.worker_count(), blocks)
        children = np.random.SeedSequence(8).spawn(reps)
        expected = [md_eval(self.M, Normal().sample(n, c)) for c in children]
        assert np.array_equal(threaded.estimates, expected)
        monkeypatch.setattr(meandev.estimation, "worker_count", lambda: 1)
        serial = monte_carlo(Normal(), self.M, n=n, replications=reps, seed=8)
        assert serial.workers == 1
        assert np.array_equal(serial.estimates, threaded.estimates)
        assert serial.as_dict() == threaded.as_dict()

    def test_more_threads_than_cores(self, monkeypatch):
        # 17 blocks over eight shares switching every 10 us, each share drawing
        # two or three of them into its one buffer: a lost or misplaced write, or
        # rows left over from a share's previous block, would leave a slot unlike
        # the one-thread result
        n = 10 ** 4
        reps = 16 * max(1, meandev.estimation._BLOCK_VALUES // n) + 1
        monkeypatch.setattr(meandev.estimation, "worker_count", lambda: 1)
        serial = monte_carlo(Lomax(4.0), self.M, n=n, replications=reps, seed=21)
        monkeypatch.setattr(meandev.estimation, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = monte_carlo(Lomax(4.0), self.M, n=n, replications=reps, seed=21)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.workers == 8
        assert np.array_equal(threaded.estimates, serial.estimates)

    def test_block_error_reaches_the_caller(self):
        # draws of 1e306 pass the population integrals but not the sample check
        before = threading.active_count()
        with pytest.raises(ValueError, match="state vector values must all be finite"):
            monte_carlo(_HugeTopDraws(), MDMeasure(LinearWeight(1.0), H09),
                        n=10 ** 4, replications=101, seed=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("shares", [(1,), (1, 0)], ids=["second-share-only", "both-shares"])
    def test_first_failing_share_raises(self, shares, monkeypatch):
        # two shares: share 0 takes the even blocks and share 1 the odd ones,
        # and the blocks of `shares` fail at the last block each share takes
        n, reps = 10 ** 4, 101
        block_starts = range(0, reps, max(1, meandev.estimation._BLOCK_VALUES // n))
        assert len(block_starts) >= 4  # so each share fails after a block it finished
        last = [block_starts[k::2][-1] for k in (0, 1)]
        monkeypatch.setattr(meandev.estimation, "worker_count", lambda: 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^block at replication {last[min(shares)]}$"):
            monte_carlo(_failing_at(3, reps, *(last[k] for k in shares)), self.M, n=n,
                        replications=reps, seed=3)
        assert threading.active_count() == before

    def test_scaled_variance_standard_error(self):
        # for normal estimates the fourth-moment SE is near the normal-theory
        # n s^2 sqrt(2 / (R - 1))
        r = monte_carlo(Normal(), self.M, n=10 ** 3, replications=2000, seed=12)
        normal_theory = r.scaled_variance * math.sqrt(2.0 / (r.replications - 1))
        assert r.scaled_variance_se == pytest.approx(normal_theory, rel=0.25)
        assert "scaled_variance_se" not in r.as_dict() and "workers" not in r.as_dict()


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
        maxsize = _nodes.cache_info().maxsize
        assert maxsize is not None
        for k in range(maxsize + 4):
            _nodes(ESDeviation(0.5 + 0.01 * k))
        assert _nodes.cache_info().currsize == maxsize

    def test_cached_arrays_are_read_only(self):
        grid = _nodes(Gini())
        arrays = [getattr(grid, f.name) for f in dataclasses.fields(grid)
                  if isinstance(getattr(grid, f.name), np.ndarray)]
        assert len(arrays) == 5
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("h", [H09, Gini(), PiecewiseLinearDistortion(
        t=(0.0, 0.2, 0.6, 1.0), h=(0.0, 0.5, 0.4, 0.0))], ids=["es09", "gini", "piecewise3"])
    def test_grid_ascends_in_u(self, h):
        # one ordered grid: e^-t rises to u = 1/2 and then falls toward u = 1
        grid = _nodes(h)
        assert np.all(np.diff(grid.eps[:grid.split].ravel()) > 0.0)
        assert np.all(np.diff(grid.eps[grid.split:].ravel()) < 0.0)
        assert np.all(np.diff(grid.level.ravel()) >= 0.0)
        assert grid.level[grid.split - 1, -1] < 0.5 < grid.level[grid.split, 0]
        np.testing.assert_array_equal(grid.eps[:grid.split], grid.level[:grid.split])
        np.testing.assert_array_equal(grid.eps[grid.split:], grid.complement[grid.split:])
        # each tail window covers t in [30, 36]: two panels at each end
        low, high = grid.tails
        assert grid.scale[low].sum() == pytest.approx(3.0) == grid.scale[high].sum()
        assert grid.eps[low].min() == pytest.approx(math.exp(-36.0), rel=1e-3)
        assert grid.eps[high].min() == pytest.approx(math.exp(-36.0), rel=1e-3)


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
