import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import mp_log_normal_sf
from skewlab import DomainError, RngState, log_tail_mass
from skewlab.numcore import integrate, normal_pdf


class TestStandardNormal:
    def test_symmetry(self, std):
        for y in np.linspace(0.1, 6, 20):
            assert std.cdf(-y) == pytest.approx(1.0 - std.cdf(y), abs=1e-15)

    def test_total_mass(self, std):
        assert integrate(std.pdf, float("-inf"), float("inf")) == pytest.approx(1.0, abs=1e-8)

    def test_quantile_cdf_identity_central(self, std):
        # central 99.9% region
        for q in np.linspace(0.0005, 0.9995, 99):
            y = std.quantile(float(q))
            assert std.quantile(std.cdf(y)) == pytest.approx(y, abs=1e-7)

    def test_log_pdf(self, std):
        for y in (0.0, 1.0, 20.0):
            assert std.log_pdf(y) == pytest.approx(-0.5 * y * y - 0.9189385332046727, rel=1e-15)

    def test_sf_matches_quadrature(self, std):
        for y in np.linspace(-8, 8, 17):
            mass = integrate(std.pdf, float(y), float("inf"))
            assert math.exp(std.log_sf(float(y))) == pytest.approx(
                mass, abs=1e-10 * max(1.0, mass))


class TestGenericQuantile:
    def test_expanding_bracket_inversion(self, std):
        # exercise the generic path through a distribution that only
        # overrides the abstract surface
        from skewlab.distributions import ContinuousDistribution

        class Shifted(ContinuousDistribution):
            def pdf(self, y):
                return float(normal_pdf(y - 3.0))

            def cdf(self, y):
                return std.cdf(y - 3.0)

            def log_cdf(self, y):
                return std.log_cdf(y - 3.0)

            def log_sf(self, y):
                return std.log_sf(y - 3.0)

        d = Shifted()
        assert d.quantile(0.5) == pytest.approx(3.0, abs=1e-9)
        assert d.quantile(0.975) == pytest.approx(3.0 + 1.9599639845400542, abs=1e-9)
        with pytest.raises(DomainError):
            d.quantile(1.0)

    def test_array_of_any_shape(self, std):
        # a source whose methods take floats only: quantile_array keeps an
        # array's shape, a 0-d one gives a float, each element the float's
        from skewlab.distributions import ContinuousDistribution

        class FloatOnly(ContinuousDistribution):
            def pdf(self, y):
                raise AssertionError("not used")

            def cdf(self, y):
                assert isinstance(y, float)
                return std.cdf(y - 3.0)

            log_cdf = log_sf = pdf

        d = FloatOnly()
        qs = np.array([[0.01, 0.2, 0.5], [0.7, 0.9, 0.999]])
        out = d.quantile_array(qs)
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        assert out.tolist() == [[d.quantile(float(q)) for q in row] for row in qs]
        assert d.quantile_array(qs[0]).tolist() == out[0].tolist()
        assert type(d.quantile_array(np.array(0.3))) is float
        assert d.quantile_array(np.array(0.3)) == d.quantile(0.3)

    def test_normal_quantile_array_keeps_shape(self, std):
        qs = np.array([[0.01, 0.2], [0.7, 0.999]])
        assert std.quantile_array(qs).shape == (2, 2)
        assert std.quantile_array(qs).tolist() == [[std.quantile(float(q)) for q in r] for r in qs]
        assert type(std.quantile_array(np.array(0.3))) is float
        assert std.quantile_array(np.array(0.3)) == std.quantile(0.3)


class TestLogTailMass:
    def test_is_log2_plus_log_sf_exactly(self, std):
        # the base class's log-sum-exp of the two equal tails, bit for bit
        ys = (1e-300, 0.5, 1.5, 5.0, 10.0, 30.0, 38.5, 40.0, 1e200)
        for y in ys:
            assert log_tail_mass(std, y) == math.log(2.0) + std.log_sf(y)
            assert log_tail_mass(std, y) == math.log(2.0) + float(special.log_ndtr(-y))
        assert np.array_equal(log_tail_mass(std, np.array(ys)),
                              math.log(2.0) + special.log_ndtr(-np.array(ys)))

    def test_spot_value_y10(self, std):
        # oracle: ln(2 Phi(-10)) = ln 2 - 53.2312851505...
        assert log_tail_mass(std, 10.0) == pytest.approx(-52.538137969952476, rel=1e-13)

    def test_whole_mass_at_zero_plus(self, std):
        assert log_tail_mass(std, 1e-300) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_decreasing(self, std):
        ys = np.linspace(0.5, 38, 120)
        vals = [log_tail_mass(std, float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_never_underflows_to_40(self, std):
        assert math.isfinite(log_tail_mass(std, 40.0))
        assert log_tail_mass(std, 40.0) == pytest.approx(
            math.log(2.0) + mp_log_normal_sf(40.0), rel=1e-12)

    def test_domain(self, std):
        with pytest.raises(DomainError):
            log_tail_mass(std, 0.0)
        with pytest.raises(DomainError):
            log_tail_mass(std, -1.0)


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(123).uniform(64)
        b = RngState(123).uniform(64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngState(1).uniform(16), RngState(2).uniform(16))

    def test_split_deterministic_and_disjoint(self):
        kids = RngState(9).split(3)
        again = RngState(9).split(3)
        for k, g in zip(kids, again):
            assert np.array_equal(k.uniform(32), g.uniform(32))
        draws = [tuple(k.uniform(8)) for k in RngState(9).split(3)]
        assert len(set(draws)) == 3

    def test_uniform_open_interval(self):
        u = RngState(5).uniform(10**5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RngState(-1)
        with pytest.raises(DomainError):
            RngState(2**64)

    def test_entropy_seed_when_none(self):
        assert RngState().uniform(4).shape == (4,)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=20)
    def test_any_seed_reproducible(self, seed):
        assert np.array_equal(RngState(seed).uniform(8), RngState(seed).uniform(8))


def test_sampling_via_inversion_matches_cdf(std):
    rng = RngState(2024)
    draws = std.sample(rng, 2000)
    # crude empirical CDF agreement at the median
    assert abs(np.mean(draws < 0.0) - 0.5) < 0.05


def test_sharded_sampling_merges_deterministically(std):
    from skewlab import MarshallOlkin, compose

    dist = compose(std, MarshallOlkin(2.0))
    merged = []
    for shard in RngState(64).split(4):
        merged.extend(dist.sample(shard, 250))
    again = []
    for shard in RngState(64).split(4):
        again.extend(dist.sample(shard, 250))
    assert np.array_equal(merged, again)
    assert len(set(np.round(merged, 12))) > 990  # shards do not repeat each other
