import numpy as np
import pytest

from skewlab import (
    DomainError,
    MarshallOlkin,
    OrderStatistics,
    RngState,
    SkewSymmetric,
    TwoPiece,
    compose,
    ks_test,
    moment_estimate,
    oracle_cdf,
    sample_skewed,
)
from skewlab.numcore import normal_cdf


class TestOracleCdf:
    def test_identity_median(self, std):
        dist = compose(std, OrderStatistics(1.0, 1.0))
        assert oracle_cdf(dist, 0.0) == pytest.approx(0.5, abs=1e-10)

    def test_marshall_olkin_at_zero(self, std):
        dist = compose(std, MarshallOlkin(2.0))
        assert oracle_cdf(dist, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_twopiece_spot(self, std):
        dist = compose(std, TwoPiece.epsilon_skew(-0.5))
        assert oracle_cdf(dist, 1.0) == pytest.approx(0.62126119367961563, abs=1e-9)

    def test_twopiece_pinned(self, std):
        # the values of the panels split at -8, 0 and 8, bit for bit
        dist = compose(std, TwoPiece(5.0, 0.1))
        got = [oracle_cdf(dist, y) for y in (-1.0, 0.5, 3.0)]
        assert got == [3.0408484824388214e-25, 0.0977016417196647, 0.46224878872534597]

    def test_total_mass_one(self, std):
        for mech in (SkewSymmetric.azzalini(3.0), TwoPiece.epsilon_skew(0.3)):
            assert oracle_cdf(compose(std, mech), float("inf")) == pytest.approx(1.0, abs=1e-8)

    def test_deep_left_is_tiny(self, std):
        dist = compose(std, MarshallOlkin(2.0))
        assert oracle_cdf(dist, -9.0) < 1e-18


class TestKsTest:
    def test_constructed_quantile_samples(self, std):
        n = 999
        qs = (np.arange(1, n + 1)) / (n + 1)
        samples = std.quantile_array(qs)
        res = ks_test(samples, normal_cdf)
        assert res.statistic <= 1.0 / (n + 1) + 1.0 / n

    def test_identity_sampler_passes(self, std):
        dist = compose(std, OrderStatistics(1.0, 1.0))
        draws = sample_skewed(dist, RngState(42), 10**5)
        res = ks_test(draws, normal_cdf)
        assert res.passed
        assert res.critical_1pct == pytest.approx(1.6276 / np.sqrt(10**5), rel=1e-12)

    def test_wrong_model_fails(self, std):
        # normal draws against a strongly tilted model: CDFs differ by
        # |1/5 - 1/2| at the origin, far beyond the 1% band
        draws = std.sample(RngState(42), 10**5)
        gamma = 4.0
        res = ks_test(draws, lambda y: np.asarray(normal_cdf(y)) /
                      (gamma + (1 - gamma) * np.asarray(normal_cdf(y))))
        assert not res.passed
        assert res.statistic > 0.25

    def test_scalar_callable_accepted(self, std):
        draws = std.sample(RngState(1), 500)
        res = ks_test(draws, lambda y: std.cdf(float(y)))
        assert 0.0 <= res.statistic <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_test([], normal_cdf)

    def test_any_shape_of_draws(self, std):
        # one test over all the draws, whatever their shape
        draws = std.sample(RngState(3), 1000)
        for cdf in (normal_cdf, lambda y: std.cdf(float(y))):
            assert ks_test(draws.reshape(2, -1), cdf) == ks_test(draws, cdf)
            assert ks_test(draws.reshape(10, 10, 10), cdf) == ks_test(draws, cdf)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 200_003])
    def test_statistic_bit_for_bit(self, std, n):
        # the statistic in place equals max(i/n - F, F - (i - 1)/n) from an
        # integer i, bit for bit, in the bulk and on skewed and exact-fit CDFs
        draws = std.sample(RngState(n), n)
        x = np.sort(draws)
        i = np.arange(1, n + 1)
        for cdf in (normal_cdf, lambda y: np.asarray(normal_cdf(y)) ** 3,
                    lambda y: (np.argsort(np.argsort(y)) + 0.5) / y.size):
            f = np.asarray(cdf(x), dtype=float)
            want = max(np.max(i / n - f), np.max(f - (i - 1) / n))
            got = ks_test(draws.reshape(1, -1), cdf).statistic
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


class TestMoments:
    def test_identity_first_two(self, std):
        n = 10**6
        draws = compose(std, MarshallOlkin(1.0)).sample(RngState(123), n)
        assert abs(moment_estimate(draws, 1)) < 4.0 / np.sqrt(n)
        assert abs(moment_estimate(draws, 2) - 1.0) < 6.0 / np.sqrt(n)

    def test_azzalini_mean(self, std):
        # oracle: mean of the alpha=1 composition is sqrt(1/pi)
        n = 10**6
        dist = compose(std, SkewSymmetric.azzalini(1.0))
        draws = sample_skewed(dist, RngState(11), n)
        assert moment_estimate(draws, 1) == pytest.approx(0.56418958354775629, abs=4.0 / np.sqrt(n))

    def test_order_validation(self):
        with pytest.raises(DomainError):
            moment_estimate([1.0], 5)
        with pytest.raises(DomainError):
            moment_estimate([1.0], 0)
        with pytest.raises(DomainError):
            moment_estimate([], 2)
