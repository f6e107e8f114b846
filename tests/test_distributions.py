import math

import numpy as np
import pytest

from meandev.distributions import (
    Exponential,
    Lomax,
    Normal,
    StateVector,
    model_from_spec,
)

ALL_MODELS = [Normal(0.0, 1.0), Normal(1.5, 2.0), Lomax(4.0), Lomax(2.5), Exponential(1.0),
              Exponential(0.5)]
LEVEL_METHODS = ("quantile", "quantile_upper", "density_quantile", "density_quantile_upper")


class TestQuantile:
    def test_normal_median_is_zero(self):
        assert Normal(0.0, 1.0).quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_lomax_inverts_survival(self):
        # invert (1+x)^-4 = 1-u analytically at u = 0.9
        assert Lomax(4.0).quantile(0.9) == pytest.approx(0.1 ** -0.25 - 1.0, rel=1e-12)

    def test_exponential_unit_point(self):
        assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_monotone(self, model):
        grid = np.linspace(0.01, 0.99, 99)
        q = model.quantile(grid)
        assert np.all(np.diff(q) > 0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_out_receives_the_quantiles(self, model):
        u = np.linspace(0.01, 0.99, 99).reshape(9, 11)
        levels = u.copy()
        expected = model.quantile(levels)
        assert np.array_equal(levels, u)  # without out, the levels are left as they were
        assert model.quantile(u, out=u) is u
        assert np.array_equal(u, expected)
        assert isinstance(model.quantile(0.3), float)  # a scalar level gives a scalar

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_domain_errors(self, u):
        for model in (Normal(), Lomax(4.0), Exponential(1.0)):
            for method in LEVEL_METHODS:
                for levels in (u, [0.5, u], np.array([[0.25, 0.5], [u, 0.75]])):
                    with pytest.raises(ValueError, match="strictly inside"):
                        getattr(model, method)(levels)

    @pytest.mark.parametrize("model", [Normal(), Lomax(4.0), Exponential(1.0)])
    def test_empty_levels_accepted(self, model):
        for method in LEVEL_METHODS:
            assert getattr(model, method)(np.array([])).shape == (0,)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_inverse_transform_consistency(self, model):
        for u in np.arange(0.01, 1.0, 0.01):
            assert model.cdf(model.quantile(u)) == pytest.approx(u, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_levels_untouched_and_scalar_stays_scalar(self, model):
        # the quantiles update their own result in place, never the levels
        u = np.array([0.1, 0.5, 0.9])
        model.quantile(u)
        assert np.array_equal(u, [0.1, 0.5, 0.9])
        assert not isinstance(model.quantile(0.3), np.ndarray)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_upper_variant_matches(self, model):
        for u in (0.6, 0.9, 0.99):
            assert model.quantile_upper(1.0 - u) == pytest.approx(model.quantile(u), rel=1e-9)


class TestDensityQuantile:
    def test_normal_at_median(self):
        assert Normal().density_quantile(0.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                               rel=1e-12)

    def test_lomax_closed_form(self):
        theta = 4.0
        for u in (0.1, 0.5, 0.9):
            assert Lomax(theta).density_quantile(u) == pytest.approx(
                theta * (1 - u) ** (1 + 1 / theta), rel=1e-12)

    def test_exponential_closed_form(self):
        for u in (0.1, 0.5, 0.9):
            assert Exponential(2.0).density_quantile(u) == pytest.approx(2.0 * (1 - u), rel=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_quantile_derivative(self, model):
        # f(F^-1(u)) is the reciprocal slope of the quantile
        du = 1e-7
        for u in (0.2, 0.5, 0.8, 0.95):
            slope = (model.quantile(u + du) - model.quantile(u - du)) / (2 * du)
            assert model.density_quantile(u) == pytest.approx(1.0 / slope, rel=1e-5)

    def test_lomax_matches_cdf_difference(self):
        model = Lomax(4.0)
        dx = 1e-6
        for u in (0.3, 0.7, 0.9):
            x = model.quantile(u)
            fd = (model.cdf(x + dx) - model.cdf(x - dx)) / (2 * dx)
            assert model.density_quantile(u) == pytest.approx(fd, rel=1e-5)

    def test_positive_inside(self):
        for model in ALL_MODELS:
            assert np.all(model.density_quantile(np.linspace(0.01, 0.99, 50)) > 0)


class TestSampling:
    def test_same_seed_identical(self):
        a = Normal().sample(1000, 7)
        b = Normal().sample(1000, 7)
        assert np.array_equal(a.values, b.values)

    def test_normal_clt_bound(self):
        x = Normal().sample(10 ** 5, 123)
        assert abs(x.mean()) < 0.02

    def test_lomax_mean_one_third(self):
        x = Lomax(4.0).sample(10 ** 5, 456)
        assert abs(x.mean() - 1.0 / 3.0) < 0.02

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Normal().sample(0, 1)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_block_rows_are_samples(self, model):
        # each row is the one-seed inverse-transform draw, bit for bit
        n, seeds = 1001, [3, np.random.SeedSequence(4), 5]
        block = model.sample_block(n, seeds)
        assert block.shape == (3, n)
        for row, seed in zip(block, seeds):
            u = np.random.Generator(np.random.PCG64(seed)).random(n)
            expected = model.quantile(np.clip(u, 2.0 ** -53, 1.0 - 2.0 ** -53))
            assert np.array_equal(row, expected)
            assert np.array_equal(row, model.sample(n, seed).values)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_block_fills_the_first_rows_of_out(self, model):
        # a ragged last block: fewer seeds than the buffer has rows
        n, seeds = 1001, [3, np.random.SeedSequence(4)]
        buf = np.full((3, n), -7.0)
        block = model.sample_block(n, seeds, out=buf)
        assert block.shape == (2, n) and block.base is buf
        assert np.array_equal(block, model.sample_block(n, seeds))
        assert np.all(buf[2] == -7.0)
        with pytest.raises(TypeError, match="buffer is too small"):
            model.sample_block(n, seeds, out=buf[:1])

    def test_block_check_is_the_state_vector_check(self):
        with pytest.raises(ValueError) as from_vector:
            StateVector(np.full(1000, 1e306))
        with pytest.raises(ValueError) as from_block:
            Normal(1e306, 1.0).sample_block(1000, [1, 2])
        assert str(from_block.value) == str(from_vector.value)


class TestNormalCdf:
    """The in-house Phi is a port of cephes ndtr: bit for bit scipy.special.ndtr."""

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0, 40.0])
    def test_equals_scipy_ndtr_bitwise(self, scale, rng):
        from scipy.special import ndtr

        z = scale * rng.standard_normal(200_000)
        assert np.array_equal(Normal().cdf(z), ndtr(z))

    def test_edges_equal_scipy_ndtr(self):
        from scipy.special import ndtr

        # the branch points 1/sqrt(2), 1 and 8 of |x| = |z| / sqrt(2), the
        # underflow of e^(-x^2), signed zeros, subnormals and infinities
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.sqrt(2.0), 1.0 / math.sqrt(0.5),
                 8.0 * math.sqrt(2.0), 37.5, -37.5, 38.5, -38.6, 1e300, -1e300, math.inf,
                 -math.inf, math.nan]
        z = np.array([v for e in edges for v in (np.nextafter(e, -math.inf), e,
                                                  np.nextafter(e, math.inf))])
        assert np.array_equal(Normal().cdf(z), ndtr(z), equal_nan=True)

    def test_location_scale_and_scalars(self):
        from scipy.special import ndtr

        assert Normal(1.5, 2.0).cdf(0.3) == ndtr((0.3 - 1.5) / 2.0)
        assert np.shape(Normal().cdf(0.3)) == () and Normal().cdf([[0.3]]).shape == (1, 1)


class TestStateVector:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector([1.0, math.inf])
        with pytest.raises(ValueError):
            StateVector([])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 2.0]) + StateVector([1.0, 2.0, 3.0])

    def test_pointwise_combination(self):
        z = StateVector([1.0, 2.0]) + StateVector([3.0, 4.0])
        assert np.array_equal(z.values, [4.0, 6.0])
        assert np.array_equal((2.0 * StateVector([1.0, 2.0])).values, [2.0, 4.0])

    def test_sorting_idempotent(self, rng):
        x = StateVector(rng.normal(size=40))
        once = np.sort(x.values)
        assert np.array_equal(np.sort(once), once)

    def test_csv_round_trip(self, tmp_path):
        x = StateVector([1.25, -3.5, 0.0625])
        path = tmp_path / "x.csv"
        x.to_csv(str(path))
        back = StateVector.from_csv(str(path))
        assert np.array_equal(back.values, x.values)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("price\n1.0\n")
        with pytest.raises(ValueError):
            StateVector.from_csv(str(path))


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ({"kind": "normal", "mu": 0.5, "sd": 2.0},
                     {"kind": "lomax", "theta": 4.0},
                     {"kind": "exponential", "beta": 1.5}):
            assert model_from_spec(spec).spec() == spec

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_spec({"kind": "cauchy"})

    def test_fields_with_a_default_are_optional(self):
        assert model_from_spec({"kind": "normal"}) == Normal()
        assert model_from_spec({"kind": "normal", "sd": 2}) == Normal(0.0, 2.0)
        assert model_from_spec({"kind": "exponential"}) == Exponential(1.0)
        with pytest.raises(ValueError, match="missing the field 'theta'"):
            model_from_spec({"kind": "lomax"})

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            model_from_spec({"kind": "normal", "mu": 0.0, "sd": -1.0})
        with pytest.raises(ValueError):
            model_from_spec({"kind": "lomax", "theta": 0.0})


class TestMoments:
    def test_lomax_mean(self):
        assert Lomax(4.0).mean() == pytest.approx(1.0 / 3.0)
        with pytest.raises(ValueError):
            Lomax(1.0).mean()

    def test_lomax_variance(self):
        assert Lomax(4.0).variance() == pytest.approx(4.0 / (9.0 * 2.0))
        with pytest.raises(ValueError):
            Lomax(2.0).variance()

    def test_exponential(self):
        assert Exponential(2.0).mean() == pytest.approx(0.5)
        assert Exponential(2.0).variance() == pytest.approx(0.25)
