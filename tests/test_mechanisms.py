import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MO_GAMMAS, OS_SHAPES, shipped_instances
from oracles import (
    _mp_skew_normal_light,
    mp_log_normal_sf,
    mp_reg_inc_beta,
    mp_skew_normal_log_tails,
    mp_skew_symmetric_log_tails,
)
from skewlab import ConvergenceError, cli, mechanisms, numcore
from skewlab import (
    AzzaliniPi,
    DomainError,
    MarshallOlkin,
    NumericMechanism,
    OrderStatistics,
    ParameterError,
    RngState,
    SkewSymmetric,
    StandardNormal,
    TwoPiece,
    Verdict,
    compose,
    divisibility_verdict,
    extract_mechanism,
    ks_test,
    mo_cdf_P,
    sample_flip,
    sample_skewed,
    twopiece_cdf,
    verify_theorem1_bound,
)
from skewlab.numcore import Tolerance, integrate, normal_cdf, normal_pdf, normal_quantile


class TestConstruction:
    # at 1e-310 the mirror's 1/gamma overflows
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e-310])
    def test_marshall_olkin_rejects(self, bad):
        with pytest.raises(ParameterError):
            MarshallOlkin(bad)

    @pytest.mark.parametrize("p1,p2", [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)])
    def test_orderstats_rejects(self, p1, p2):
        with pytest.raises(ParameterError):
            OrderStatistics(p1, p2)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_twopiece_rejects(self, a, b):
        with pytest.raises(ParameterError):
            TwoPiece(a, b)

    def test_twopiece_epsilon_skew_range(self):
        with pytest.raises(ParameterError):
            TwoPiece.epsilon_skew(1.0)
        m = TwoPiece.epsilon_skew(-0.5)
        assert (m.a, m.b) == (1.5, 0.5)

    def test_twopiece_inverse_scale_factors(self):
        m = TwoPiece.inverse_scale_factors(2.0)
        assert (m.a, m.b) == (0.5, 2.0)
        with pytest.raises(ParameterError):
            TwoPiece.inverse_scale_factors(0.0)

    def test_skewsym_rejects_out_of_range_pi(self):
        with pytest.raises(ParameterError):
            SkewSymmetric(lambda y: 1.5 * np.ones_like(np.asarray(y, dtype=float)))

    def test_skewsym_rejects_asymmetric_pi(self):
        with pytest.raises(ParameterError):
            SkewSymmetric(lambda y: np.clip(np.asarray(y, dtype=float) * 0 + 0.7, 0, 1))

    def test_identity_predicates(self):
        assert MarshallOlkin(1.0).is_identity
        assert not MarshallOlkin(2.0).is_identity
        assert OrderStatistics(1.0, 1.0).is_identity
        assert not OrderStatistics(2.0, 1.0).is_identity
        assert TwoPiece(2.0, 2.0).is_identity  # composes to a plain normal
        assert not TwoPiece(0.5, 1.5).is_identity
        assert SkewSymmetric.azzalini(0.0).is_identity
        assert not SkewSymmetric.azzalini(0.5).is_identity
        assert SkewSymmetric(lambda y: np.full_like(np.asarray(y, dtype=float), 0.5)).is_identity


class TestComposeBasics:
    def test_identity_mechanism_reproduces_base(self, std):
        for mech in (OrderStatistics(1.0, 1.0), MarshallOlkin(1.0)):
            dist = compose(std, mech)
            for y in np.linspace(-4, 4, 41):
                y = float(y)
                assert dist.pdf(y) == pytest.approx(std.pdf(y), abs=1e-12)
                assert dist.cdf(y) == pytest.approx(std.cdf(y), abs=1e-12)

    def test_orderstats_2_1_closed_form(self, std):
        dist = compose(std, OrderStatistics(2.0, 1.0))
        for y in np.linspace(-5, 5, 21):
            y = float(y)
            assert dist.pdf(y) == pytest.approx(2.0 * std.pdf(y) * std.cdf(y), rel=1e-13)

    def test_azzalini_pdf_at_zero(self, std):
        dist = compose(std, SkewSymmetric.azzalini(1.0))
        assert dist.pdf(0.0) == pytest.approx(std.pdf(0.0), rel=1e-14)

    def test_azzalini_alpha1_cdf_is_squared_base(self, std):
        # alpha = 1 admits the closed form C(y) = Phi(y)^2
        dist = compose(std, SkewSymmetric.azzalini(1.0))
        assert dist.cdf(0.7) == pytest.approx(0.5746191045509822, abs=1e-11)
        assert dist.cdf(-1.3) == pytest.approx(0.0093703338160089837, abs=1e-11)
        for y in np.linspace(-3, 3, 13):
            assert dist.cdf(float(y)) == pytest.approx(std.cdf(float(y)) ** 2, abs=1e-10)

    def test_quantile_inverts_cdf(self, std):
        for _, mech in shipped_instances():
            dist = compose(std, mech)
            for q in (0.01, 0.3, 0.5, 0.9, 0.999):
                y = dist.quantile(q)
                assert dist.cdf(y) == pytest.approx(q, abs=1e-7)

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_quantile_cdf_identity_central_region(self, name, mech, std):
        dist = compose(std, mech)
        for q in np.linspace(0.0005, 0.9995, 99):
            y = dist.quantile(float(q))
            assert dist.quantile(dist.cdf(y)) == pytest.approx(y, abs=1e-7)


class TestMarshallOlkinForms:
    def test_cdf_spot_values(self):
        assert mo_cdf_P(2.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert mo_cdf_P(0.5, 0.25) == pytest.approx(0.4, rel=1e-14)

    def test_gamma_one_is_identity(self):
        for x in np.linspace(0, 1, 11):
            assert mo_cdf_P(1.0, float(x)) == x

    @pytest.mark.parametrize("gamma", MO_GAMMAS)
    def test_cdf_matches_quadrature_of_density(self, gamma):
        mech = MarshallOlkin(gamma)
        for x in (0.1, 0.25, 0.5, 0.9):
            mass = integrate(mech.p, 0.0, x)
            assert mech.cdf_P(x) == pytest.approx(mass, abs=1e-9)

    def test_quantile_closed_form_inverts(self):
        mech = MarshallOlkin(4.0)
        for q in np.linspace(0.01, 0.99, 23):
            assert mech.cdf_P(mech.quantile_P(float(q))) == pytest.approx(q, abs=1e-13)

    def test_deep_log_sf(self, std):
        # oracle: ln(4 eps / (1 + 3 eps)) at eps = Phi(-30)
        dist = compose(std, MarshallOlkin(4.0))
        assert dist.log_sf(30.0) == pytest.approx(-452.93494959522331, rel=1e-13)

    def test_analytic_sup(self):
        assert MarshallOlkin(4.0).analytic_sup == 4.0
        assert MarshallOlkin(0.25).analytic_sup == 4.0


class TestOrderStatisticsForms:
    @pytest.mark.parametrize("p1,p2", OS_SHAPES)
    def test_cdf_is_regularized_incomplete_beta(self, p1, p2):
        mech = OrderStatistics(p1, p2)
        for x in (0.05, 0.3, 0.5, 0.95):
            assert mech.cdf_P(x) == pytest.approx(mp_reg_inc_beta(x, p1, p2), rel=1e-12)

    def test_composed_cdf_spot(self, std):
        # oracle: I_{Phi(0.7)}(1.5, 3)
        dist = compose(std, OrderStatistics(1.5, 3.0))
        assert dist.cdf(0.7) == pytest.approx(0.97197530082741936, rel=1e-12)

    def test_deep_tails_via_series(self, std):
        # oracles: ln I_eps(a, b) via mpmath at eps = Phi(-30)
        assert compose(std, OrderStatistics(5.0, 1.2)).log_sf(30.0) == pytest.approx(
            -543.32819525691313, rel=1e-12)
        assert compose(std, OrderStatistics(1.5, 3.0)).log_cdf(-30.0) == pytest.approx(
            -680.00595941470522, rel=1e-12)
        assert compose(std, OrderStatistics(1.5, 3.0)).log_sf(30.0) == pytest.approx(
            -1362.18097252978, rel=1e-12)

    def test_density_normalizes(self):
        mech = OrderStatistics(5.0, 1.2)
        assert integrate(mech.p, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_analytic_sup(self):
        assert OrderStatistics(2.0, 2.0).analytic_sup == pytest.approx(1.5, abs=1e-12)
        assert OrderStatistics(1.0, 2.0).analytic_sup == pytest.approx(2.0, abs=1e-12)
        assert OrderStatistics(0.5, 2.0).analytic_sup is None
        assert OrderStatistics(1.0, 1.0).analytic_sup == 1.0

    @pytest.mark.parametrize("p1,p2", [(1.0, 1.0000000000000002), (1.0 + 1e-14, 1.0),
                                       (1.0 + 1e-15, 1.0), (1.0000000000000002, 1.0)])
    def test_analytic_sup_with_a_shape_of_one(self, p1, p2):
        # the other shape is the density's value at the mode, an endpoint;
        # psi1 + psi2 - 2 once rounded to 0 or put the mode outside [0, 1]
        assert OrderStatistics(p1, p2).analytic_sup == pytest.approx(max(p1, p2), rel=1e-15)

    @given(st.sampled_from([1.0, 1.0 + 2**-52, 1.0 + 1e-15, 1.0 + 1e-14, 1.0 + 1e-9, 2.0, 1e3]),
           st.sampled_from([1.0, 1.0 + 2**-52, 1.0 + 1e-15, 1.0 + 1e-14, 1.0 + 1e-9, 2.0, 1e3]))
    @settings(max_examples=49, deadline=None)
    def test_analytic_sup_is_the_density_at_the_mode(self, p1, p2):
        # against the Beta density at the exact mode in mpmath
        a, b = mp.mpf(p1) - 1, mp.mpf(p2) - 1
        mode = mp.mpf(0) if a == 0 else (mp.mpf(1) if b == 0 else a / (a + b))
        want = mode ** a * (1 - mode) ** b / mp.beta(p1, p2)
        assert OrderStatistics(p1, p2).analytic_sup == pytest.approx(float(want), rel=1e-12)


class TestTwoPieceForms:
    def test_equal_scales_is_rescaled_base(self):
        for a in (0.5, 1.0, 2.0):
            for y in np.linspace(-4, 4, 17):
                assert twopiece_cdf(a, a, float(y)) == pytest.approx(
                    float(normal_cdf(y / a)), abs=1e-15)

    def test_mass_split_at_zero(self):
        assert twopiece_cdf(1.5, 0.5, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_spot_value(self):
        # oracle: -0.5 + 1.5 Phi(2/3)
        assert twopiece_cdf(1.5, 0.5, 1.0) == pytest.approx(0.62126119367961563, rel=1e-14)

    def test_limits(self):
        assert twopiece_cdf(1.5, 0.5, -40.0) == pytest.approx(0.0, abs=1e-300)
        assert twopiece_cdf(1.5, 0.5, 40.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_quadrature_of_density(self, std):
        dist = compose(std, TwoPiece.epsilon_skew(-0.5))
        for y in (-2.0, -0.5, 0.0, 1.0, 2.5):
            mass = integrate(dist.pdf, float("-inf"), 0.0 if y >= 0 else y)
            if y >= 0:
                mass += integrate(dist.pdf, 0.0, y)
            assert twopiece_cdf(1.5, 0.5, y) == pytest.approx(mass, abs=1e-9)

    def test_reflection_is_exact(self, std):
        da = compose(std, TwoPiece(0.7, 1.3))
        db = compose(std, TwoPiece(1.3, 0.7))
        for y in np.linspace(-6, 6, 101):
            assert da.pdf(float(y)) == db.pdf(float(-y))

    def test_continuity_at_knot(self, std):
        dist = compose(std, TwoPiece.epsilon_skew(0.3))
        assert dist.pdf(-1e-12) == pytest.approx(dist.pdf(1e-12), rel=1e-9)

    def test_deep_log_tails(self, std):
        dist = compose(std, TwoPiece.epsilon_skew(-0.5))
        # right piece has scale a = 1.5: sf(y) = 1.5 Phi(-y/1.5)
        assert dist.log_sf(30.0) == pytest.approx(
            math.log(1.5) + mp_log_normal_sf(20.0), rel=1e-13)
        assert dist.log_cdf(-30.0) == pytest.approx(
            math.log(0.5) + mp_log_normal_sf(60.0), rel=1e-13)


class TestSkewSymmetric:
    def test_defining_pdf_identity(self, std):
        # pdf(y) + pdf(-y) = 2 phi(y) for every skewing function
        for alpha in (0.5, 1.0, 3.0):
            dist = compose(std, SkewSymmetric.azzalini(alpha))
            for y in np.linspace(-5, 5, 201):
                y = float(y)
                assert dist.pdf(y) + dist.pdf(-y) == pytest.approx(
                    2.0 * std.pdf(y), abs=1e-12)

    def test_two_sided_tail_equals_base(self, std):
        # pi(t) + pi(-t) = 1 collapses the two-sided tail to the base's
        from skewlab import log_tail_mass
        dist = compose(std, SkewSymmetric.azzalini(3.0))
        for y in (2.0, 10.0, 30.0):
            assert log_tail_mass(dist, y) == pytest.approx(
                math.log(2.0) + mp_log_normal_sf(y), rel=1e-10)

    def test_p_is_twice_pi(self):
        mech = SkewSymmetric.azzalini(2.0)
        for x in (0.1, 0.5, 0.9):
            z = float(normal_quantile(x))
            assert mech.p(x) == pytest.approx(2.0 * float(normal_cdf(2.0 * z)), rel=1e-13)
        assert mech.p(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_p_open_interval_only(self):
        mech = SkewSymmetric.azzalini(1.0)
        with pytest.raises(DomainError):
            mech.p(0.0)
        with pytest.raises(DomainError):
            mech.p(1.0)

    def test_cdf_P_normalizes(self):
        mech = SkewSymmetric.azzalini(1.0)
        assert mech.cdf_P(0.0) == 0.0
        assert mech.cdf_P(1.0) == 1.0
        assert mech.cdf_P(1e-12) < 1e-6
        assert mech.cdf_P(1.0 - 1e-12) > 1.0 - 1e-6

    def test_quantile_P_inverts(self):
        mech = SkewSymmetric.azzalini(1.0)
        for q in (0.05, 0.5, 0.95):
            assert mech.cdf_P(mech.quantile_P(q)) == pytest.approx(q, abs=1e-10)

    def test_quantile_honours_tolerance(self, std):
        dist = compose(std, SkewSymmetric.azzalini(3.0))
        assert dist.quantile(0.3) == 0.3634905791997558
        assert dist.quantile(0.3, Tolerance(abs_tol=1e-3)) == 0.3637386750936479
        extracted = extract_mechanism(dist, std)
        assert extracted.quantile_P(0.3, Tolerance(abs_tol=1e-3)) == float(
            normal_cdf(0.3637386750936479))

    def test_azzalini_pi_object(self):
        pi = AzzaliniPi(2.5)
        assert pi(0.0) == 0.5
        assert float(pi.log(1.0)) == pytest.approx(math.log(float(normal_cdf(2.5))), rel=1e-13)


class TestMechanismNormalization:
    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_density_mass_or_cdf_limits(self, name, mech):
        sup = mech.analytic_sup
        if sup is not None and "twopiece" not in name:
            mass = integrate(mech.p, 1e-8, 1.0 - 1e-8)
            assert mass >= 1.0 - 1e-6
            assert mass <= 1.0 + 1e-8
        else:
            for eps, bound in ((1e-4, 0.2), (1e-8, 0.05), (1e-12, 0.01)):
                assert mech.cdf_P(eps) <= bound
                assert mech.cdf_P(1.0 - eps) >= 1.0 - bound

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_cdf_P_monotone_unit_range(self, name, mech):
        xs = np.linspace(0.0, 1.0, 101)
        vals = np.array([mech.cdf_P(float(x)) for x in xs])
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-15))

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_analytic_sup_dominates_density(self, name, mech):
        if mech.analytic_sup is None:
            pytest.skip("no analytic bound for this instance")
        xs = np.linspace(1e-6, 1.0 - 1e-6, 501)
        assert np.all(mech.p(xs) <= mech.analytic_sup * (1.0 + 1e-12))


class TestComposedCdfAgainstPdfQuadrature:
    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_25_point_agreement(self, name, mech, std):
        dist = compose(std, mech)
        from skewlab import oracle_cdf
        for y in np.linspace(-3, 3, 25):
            assert dist.cdf(float(y)) == pytest.approx(
                oracle_cdf(dist, float(y)), abs=1e-8)


class TestComposedConsistency:
    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_cdf_plus_sf_is_one_at_moderate_y(self, name, mech, std):
        dist = compose(std, mech)
        for y in np.linspace(-6, 6, 13):
            y = float(y)
            total = dist.cdf(y) + math.exp(dist.log_sf(y))
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_tail_mass_strictly_decreasing(self, name, mech, std):
        from skewlab import log_tail_mass
        dist = compose(std, mech)
        ys = np.linspace(0.5, 30, 31)
        vals = [log_tail_mass(dist, float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestExtraction:
    def test_base_extracts_to_identity(self, std):
        mech = extract_mechanism(std, std)
        for x in np.linspace(0.01, 0.99, 25):
            assert mech.p(float(x)) == pytest.approx(1.0, abs=1e-12)
        assert mech.is_identity

    def test_azzalini_extraction_closed_form(self, std):
        alpha = 1.7
        mech = extract_mechanism(compose(std, SkewSymmetric.azzalini(alpha)), std)
        for x in np.linspace(0.01, 0.99, 25):
            z = float(normal_quantile(float(x)))
            assert mech.p(float(x)) == pytest.approx(
                2.0 * float(normal_cdf(alpha * z)), rel=1e-10)
        assert mech.p(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_marshall_olkin_extraction(self, std):
        gamma = 2.0
        source = compose(std, MarshallOlkin(gamma))
        mech = extract_mechanism(source, std)
        for x in np.arange(0.01, 1.0, 0.01):
            x = float(x)
            expect = gamma / (x + gamma * (1.0 - x)) ** 2
            assert mech.p(x) == pytest.approx(expect, abs=1e-8)

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_roundtrip_reproduces_p_and_pdf(self, name, mech, std):
        dist = compose(std, mech)
        extracted = extract_mechanism(dist, std)
        rebuilt = compose(std, extracted)
        for x in np.linspace(0.01, 0.99, 49):
            x = float(x)
            assert extracted.p(x) == pytest.approx(mech.p(x), abs=1e-7)
            y = float(normal_quantile(x))
            assert rebuilt.pdf(y) == pytest.approx(dist.pdf(y), abs=1e-7)

    def test_open_interval_contract(self, std):
        mech = extract_mechanism(compose(std, MarshallOlkin(2.0)), std)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                mech.p(bad)
        assert mech.cdf_P(0.0) == 0.0
        assert mech.cdf_P(1.0) == 1.0

    @pytest.mark.parametrize("mech", [MarshallOlkin(2.0), OrderStatistics(2.0, 3.0),
                                      TwoPiece.epsilon_skew(-0.5)])
    def test_rebuilt_log_tails_are_the_source(self, mech, std):
        # S(y) = source.cdf(y) with no round trip through Phi(y), which sits
        # a few ulps below 1 from y = 6 on
        dist = compose(std, mech)
        extracted = extract_mechanism(dist, std)
        rebuilt = compose(std, extracted)
        for y in (-30.0, -8.0, 0.0, 6.0, 7.0, 8.0, 8.2, 30.0):
            assert rebuilt.log_cdf(y) == dist.log_cdf(y)
            assert rebuilt.log_sf(y) == dist.log_sf(y)
        qs = np.array([[1e-6, 0.1, 0.5], [0.7, 0.9, 0.999]])
        assert np.array_equal(extracted.quantile_P(qs),
                              [[extracted.quantile_P(float(q)) for q in row] for row in qs])

    def test_extraction_type(self, std):
        assert isinstance(extract_mechanism(std, std), NumericMechanism)


class TestSamplers:
    def test_inversion_deterministic(self, std):
        dist = compose(std, MarshallOlkin(2.0))
        a = sample_skewed(dist, RngState(77), 32)
        b = sample_skewed(dist, RngState(77), 32)
        assert np.array_equal(a, b)

    def test_identity_sampler_matches_base(self, std):
        dist = compose(std, OrderStatistics(1.0, 1.0))
        draws = sample_skewed(dist, RngState(42), 10**5)
        res = ks_test(draws, normal_cdf)
        assert res.passed, res

    def test_marshall_olkin_sampler_matches_closed_cdf(self, std):
        gamma = 2.0
        dist = compose(std, MarshallOlkin(gamma))
        draws = sample_skewed(dist, RngState(42), 10**5)
        res = ks_test(draws, lambda y: mo_cdf_P(gamma, np.asarray(normal_cdf(y))))
        assert res.passed, res

    def test_flip_with_constant_half_is_base(self, std):
        draws = sample_flip(lambda y: np.full_like(np.asarray(y, dtype=float), 0.5),
                            RngState(3), 10**5)
        res = ks_test(draws, normal_cdf)
        assert res.passed, res

    def test_flip_azzalini_matches_composed_cdf(self, std):
        mech = SkewSymmetric.azzalini(1.0)
        dist = compose(std, mech)
        draws = sample_flip(mech, RngState(5), 10**5)
        res = ks_test(draws, dist.cdf_array)
        assert res.passed, res

    def test_flip_indicator_gives_half_normal(self, std):
        draws = sample_flip(lambda y: (np.asarray(y, dtype=float) >= 0.0).astype(float),
                            RngState(8), 10**5)
        assert np.all(draws >= 0.0)
        res = ks_test(draws, lambda y: np.maximum(0.0, 2.0 * np.asarray(normal_cdf(y)) - 1.0))
        assert res.passed, res

    def test_flip_and_inversion_agree_in_distribution(self, std):
        from scipy import stats
        mech = SkewSymmetric.azzalini(3.0)
        dist = compose(std, mech)
        a = dist.quantile_array(RngState(11).uniform(10**5))  # inversion
        b = sample_flip(mech, RngState(12), 10**5)
        d = stats.ks_2samp(a, b).statistic
        assert d < 1.6276 * math.sqrt(2.0 / 10**5)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_mo_cdf_quantile_roundtrip_property(gamma):
    mech = MarshallOlkin(gamma)
    for q in (0.1, 0.5, 0.9):
        assert mech.cdf_P(mech.quantile_P(q)) == pytest.approx(q, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=8.0), st.floats(min_value=0.1, max_value=8.0))
@settings(max_examples=30, deadline=None)
def test_orderstats_cdf_monotone_property(p1, p2):
    mech = OrderStatistics(p1, p2)
    xs = np.linspace(0.001, 0.999, 41)
    vals = mech.cdf_P(xs)
    assert np.all(np.diff(vals) >= -1e-14)


class TestSideOfZeroTails:
    """Each tail comes from the log tail on its side of 0, so it keeps its
    digits where Phi(y) rounds to 1 or underflows."""

    @pytest.mark.parametrize("y", [7.5, 9.0])
    def test_twopiece_heavy_right_tail_cdf(self, std, y):
        dist = compose(std, TwoPiece(5.0, 0.1))
        assert dist.cdf(y) == pytest.approx(twopiece_cdf(5.0, 0.1, y), rel=1e-14)

    @pytest.mark.parametrize("y", [8.5, -38.0])
    def test_orderstats_cdf_in_both_tails(self, std, y):
        want = mp.betainc(0.5, 0.5, 0, mp.ncdf(mp.mpf(y)), regularized=True)
        assert compose(std, OrderStatistics(0.5, 0.5)).cdf(y) == pytest.approx(
            float(want), rel=1e-12, abs=0.0)

    def test_azzalini_bulk_side_log_tails_are_zero(self, std):
        dist = compose(std, SkewSymmetric.azzalini(3.0))
        assert abs(dist.log_sf(-40.0)) <= 1e-12
        assert abs(dist.log_sf(-20.0)) <= 1e-12
        assert abs(dist.log_cdf(40.0)) <= 1e-12

    def test_indicator_pi_log_cdf_right_of_zero(self, std):
        mech = SkewSymmetric(lambda y: (np.asarray(y, dtype=float) >= 0.0).astype(float))
        got = compose(std, mech).log_cdf(20.0)
        # half-normal: ln(1 - 2 Phi(-20))
        assert math.isfinite(got)
        assert got == pytest.approx(float(mp.log1p(-2 * mp.ncdf(-20))), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("mech", [MarshallOlkin(2.0), SkewSymmetric.azzalini(3.0)])
    @pytest.mark.parametrize("fn", ["pdf", "log_pdf", "cdf", "log_cdf", "log_sf"])
    @pytest.mark.parametrize("y", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_y_raises(self, std, mech, fn, y):
        with pytest.raises(DomainError):
            getattr(compose(std, mech), fn)(y)


def _table_accuracy(mech):
    """h^2/8 * max|s'|, the stated bound on the skew-symmetric table."""
    h = 2.0 * SkewSymmetric._TABLE_SPAN / (SkewSymmetric._TABLE_N - 1)
    z = np.linspace(-8.0, 8.0, 160001)
    alpha = mech.pi.alpha
    slope = 2.0 * normal_pdf(z) * (alpha * normal_pdf(alpha * z) - z * normal_cdf(alpha * z))
    return h * h / 8.0 * float(np.max(np.abs(slope))) + 1e-10


class TestOneEvaluationPath:
    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_array_calls_equal_scalar_calls(self, name, mech):
        skew = isinstance(mech, SkewSymmetric)
        xs = np.linspace(0.0, 1.0, 101)
        qs = np.concatenate([[1e-9], np.linspace(0.05, 0.95, 91), [1 - 1e-9]])
        inner = xs[1:-1]
        assert np.array_equal(mech.p(inner), [mech.p(float(x)) for x in inner])
        cdf_arr = mech.cdf_P(xs)
        cdf_one = np.array([mech.cdf_P(float(x)) for x in xs])
        q_arr = mech.quantile_P(qs)
        if skew:
            tol = _table_accuracy(mech)
            assert np.max(np.abs(cdf_arr - cdf_one)) <= tol
            back = np.array([mech.cdf_P(float(x)) for x in q_arr])
            assert np.max(np.abs(back - qs)) <= tol
        else:
            assert np.array_equal(cdf_arr, cdf_one)
            assert np.array_equal(q_arr, [mech.quantile_P(float(q)) for q in qs])

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_zero_d_input_returns_float(self, name, mech):
        for fn in (mech.p, mech.log_p, mech.cdf_P, mech.quantile_P):
            for x in (0.3, np.float64(0.3), np.array(0.3)):
                assert type(fn(x)) is float

    def test_array_out_of_range_raises(self):
        with pytest.raises(DomainError):
            MarshallOlkin(2.0).quantile_P(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            OrderStatistics(2.0, 3.0).p(np.array([0.5, 1.5]))

    def test_scalar_only_pi_rejected(self):
        with pytest.raises(ParameterError):
            SkewSymmetric(lambda y: 0.5 + 0.5 * math.erf(y))
        with pytest.raises(ParameterError):
            SkewSymmetric(lambda y: 0.5)

    def test_base_other_than_standard_normal_rejected(self, std):
        other = compose(std, MarshallOlkin(2.0))
        with pytest.raises(ParameterError):
            compose(other, MarshallOlkin(2.0))
        with pytest.raises(ParameterError):
            extract_mechanism(other, other)


class TestArrayPathInY:
    """``cdf_array`` and ``quantile_array`` are each family's own formulas
    in y. Through x = Phi(y), x rounded to 1 from y = 8.2: 9.98% of
    TwoPiece(5, 0.1) draws sat at Phi^-1(1 - 2^-53) = 8.209536151601387.
    The checks run against the scalar calls, which share no code with
    the array path."""

    def test_two_piece_draws_fit_the_scalar_cdf(self, std):
        dist = compose(std, TwoPiece(5.0, 0.1))
        draws = np.sort(sample_skewed(dist, RngState(1), 200_000))
        assert not np.any(draws == 8.209536151601387)
        n = draws.size
        f = np.array([dist.cdf(float(y)) for y in draws])
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert d < 1.6276 / math.sqrt(n)  # the 1% point of the KS limit law

    @pytest.mark.parametrize("y", [7.5, 9.0, 20.0, 40.0])
    def test_two_piece_cdf_array_in_the_heavy_tail(self, std, y):
        dist = compose(std, TwoPiece(5.0, 0.1))
        assert abs(dist.cdf_array(np.array([y]))[0] - dist.cdf(y)) <= 1e-15

    @pytest.mark.parametrize("psi1,psi2", [(2.0, 0.05), (5.0, 1e-3), (1e-3, 5.0)])
    def test_order_statistics_draws_fit_cdf_array(self, std, psi1, psi2):
        # about half the draws of the last two laws lie beyond |y| = 38, where
        # Phi(y) rounds to 1 or underflows; the gamma-ratio draws share no
        # code with cdf_array
        dist = compose(std, OrderStatistics(psi1, psi2))
        draws = sample_skewed(dist, RngState(1), 200_000)
        res = ks_test(draws, dist.cdf_array)
        assert res.statistic < 1.6276 / math.sqrt(res.n)

    @pytest.mark.parametrize("psi1,psi2", [(2.0, 0.05), (5.0, 1e-3), (1e-3, 5.0), (2.0, 3.0),
                                           (0.5, 0.5)])
    def test_order_statistics_cdf_array_matches_cdf(self, std, psi1, psi2):
        dist = compose(std, OrderStatistics(psi1, psi2))
        ys = [-40.0, -38.5, -8.0, -1.0, 0.0, 0.5, 2.0, 8.2, 9.0, 12.0, 30.0, 40.0]
        dev = np.abs(dist.cdf_array(np.array(ys)) - [dist.cdf(y) for y in ys])
        assert np.max(dev) <= 1e-15

    def test_azzalini_table_is_read_in_y(self, std):
        mech = SkewSymmetric.azzalini(3.0)
        dist = compose(std, mech)
        tol = _table_accuracy(mech)
        ys = np.linspace(-12.0, 12.0, 97)
        assert np.max(np.abs(dist.cdf_array(ys) - [dist.cdf(float(y)) for y in ys])) <= tol
        qs = np.concatenate([[1e-9], np.linspace(0.05, 0.95, 19), [1 - 1e-9]])
        back = np.array([dist.cdf(float(y)) for y in dist.quantile_array(qs)])
        assert np.max(np.abs(back - qs)) <= tol


# Azzalini shapes and ordinates for the closed form against the mpmath
# oracle, plus ordinates on both sides of its switch points:
# h sqrt(1 + alpha^2) = 0.5 and alpha h = 3, with h = -y.
AZZ_ALPHAS = tuple(s * a for a in (1e-3, 0.5, 3.0, 50.0, 1e3) for s in (1.0, -1.0))
AZZ_YS = (0.0,) + tuple(s * y for y in (0.5, 2.0, 5.0, 8.0, 20.0, 30.0, 40.0) for s in (1.0, -1.0))
AZZ_SWITCHES = tuple(
    (a, -edge * f)
    for a in (0.5, 3.0, 50.0)
    for edge in (0.5 / math.hypot(1.0, a), 3.0 / a)
    for f in (1.0 - 1e-9, 1.0 + 1e-9)
)
AZZ_POINTS = tuple((a, y) for a in AZZ_ALPHAS for y in AZZ_YS) + AZZ_SWITCHES
# The stated accuracy of the closed-form log tails (SkewSymmetric docstring).
AZZ_LOG_REL = 1e-14


def _assert_log_tails(alpha, y):
    dist = compose(StandardNormal(), SkewSymmetric.azzalini(alpha))
    want_cdf, want_sf = mp_skew_normal_log_tails(y, alpha)
    for got, want in ((dist.log_cdf(y), want_cdf), (dist.log_sf(y), want_sf)):
        assert abs(got - want) <= AZZ_LOG_REL * max(1.0, abs(want)), (got, want)
    # cdf = 1 - exp(log_sf) where 1 - S(y) <= 1/2 at y > 0, exp(log_cdf)
    # elsewhere: the error of the log carries over, times the mass it is
    # the log of
    upper = y > 0.0 and want_sf <= -math.log(2.0)
    log_mass = want_sf if upper else want_cdf
    want = -math.expm1(want_sf) if upper else math.exp(want_cdf)
    tol = AZZ_LOG_REL * max(1.0, abs(log_mass)) * math.exp(log_mass) + 4e-16 * want
    assert abs(dist.cdf(y) - want) <= tol, (dist.cdf(y), want)


class TestAzzaliniClosedForm:
    """Owen's T closed form against the mpmath integral oracle."""

    @pytest.mark.parametrize("alpha,y", AZZ_POINTS)
    def test_log_tails_and_cdf(self, alpha, y):
        _assert_log_tails(alpha, y)

    @given(st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=-40.0, max_value=40.0))
    @settings(max_examples=40, deadline=None)
    @example(alpha=1.0, y=2.499971029285763e-10)  # the oracle once missed S here by 1.4e-14
    def test_log_tails_and_cdf_property(self, alpha, y):
        _assert_log_tails(alpha, y)

    @pytest.mark.parametrize("alpha,y", [(a, y) for a, y in AZZ_POINTS if abs(y) <= 8.0])
    def test_quantile_hits_the_tail_mass(self, alpha, y):
        # q = S(y) from the oracle; the oracle's tail mass at quantile(q)
        # must be q below the median and 1 - q (exact in doubles) above
        dist = compose(StandardNormal(), SkewSymmetric.azzalini(alpha))
        log_cdf, log_sf = mp_skew_normal_log_tails(y, alpha)
        if log_cdf <= -math.log(2.0):
            q = math.exp(log_cdf)
            if q < 1e-300:
                pytest.skip("S(y) is below the doubles' normal range")
            got = mp_skew_normal_log_tails(dist.quantile(q), alpha)[0]
            want = math.log(q)
        else:
            q = -math.expm1(log_sf)
            if q == 1.0:
                pytest.skip("S(y) rounds to 1")
            got = mp_skew_normal_log_tails(dist.quantile(q), alpha)[1]
            want = math.log1p(-q)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)

    @pytest.mark.parametrize("y", [1e-3, 3e-4])
    def test_cdf_above_zero_below_the_median(self, y):
        # alpha = 1e3 has its median at 0.67: for y in (0, 0.67), S(y) is the
        # smaller tail and 1 - exp(log_sf) would lose 5.9e-14 and 1.5e-13
        dist = compose(StandardNormal(), SkewSymmetric.azzalini(1e3))
        want = math.exp(mp_skew_normal_log_tails(y, 1e3)[0])
        assert dist.cdf(y) == pytest.approx(want, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("h", [2.499971029285763e-10, *np.geomspace(1e-300, 40.0, 24)])
    def test_oracle_at_alpha_one_is_phi_squared(self, h):
        # S = Phi^2 at alpha = 1, down to h = 1e-300, where the light-side
        # integrand's rise near p = 0 spans every scale up to the top
        h = float(h)
        light = _mp_skew_normal_light(h, 1.0)
        assert abs(light / mp.ncdf(-mp.mpf(h)) ** 2 - 1) <= 1e-18
        for y in (-h, h):
            want_cdf = 2 * mp.log(mp.ncdf(mp.mpf(y)))
            want_sf = mp.log(mp.ncdf(-mp.mpf(y)) * (1 + mp.ncdf(mp.mpf(y))))  # 1 - Phi^2
            got_cdf, got_sf = mp_skew_normal_log_tails(y, 1.0)
            assert got_cdf == pytest.approx(float(want_cdf), rel=1e-15, abs=0.0)
            assert got_sf == pytest.approx(float(want_sf), rel=1e-15, abs=0.0)

    def test_oracle_matches_known_values(self):
        # S(0) = 1/2 - atan(alpha)/pi, and alpha = 1 gives S = Phi^2
        for alpha in (-50.0, -0.5, 0.0, 3.0, 1e3):
            want = float(mp.log(mp.mpf(1) / 2 - mp.atan(alpha) / mp.pi))
            assert mp_skew_normal_log_tails(0.0, alpha)[0] == pytest.approx(want, rel=1e-15)
        for y in (-30.0, -5.0, 0.5, 8.0):
            want = float(2 * mp.log(mp.ncdf(y)))
            assert mp_skew_normal_log_tails(y, 1.0)[0] == pytest.approx(want, rel=1e-15, abs=1e-300)
        # alpha = 0 gives S = Phi, also within 1e-12 of the mode
        for y in (-40.0, -1e-12, 1e-300, 1e-12, 3.0):
            want = float(mp.log(mp.ncdf(y)))
            assert mp_skew_normal_log_tails(y, 0.0)[0] == pytest.approx(want, rel=1e-15, abs=1e-300)


class TestSkewSymmetricQuantileInY:
    @pytest.mark.parametrize("q", [0.3, 1 - 1e-6, 1 - 1e-12])
    def test_indicator_pi_is_half_normal(self, std, q):
        # pi = 1[y >= 0] composes to the half-normal, S(y) = erf(y / sqrt 2)
        dist = compose(std, SkewSymmetric(lambda y: (np.asarray(y, dtype=float) >= 0.0).astype(float)))
        assert dist.quantile(q) == pytest.approx(float(mp.sqrt(2) * mp.erfinv(q)), rel=1e-9)

    def test_upper_quantile_of_custom_pi(self, std):
        # logistic pi: the root is taken on the upper log tail
        mech = SkewSymmetric(lambda y: 1.0 / (1.0 + np.exp(-2.0 * np.asarray(y, dtype=float))))
        dist = compose(std, mech)
        q = 1 - 1e-12
        y = dist.quantile(q)
        assert dist.log_sf(y) == pytest.approx(math.log1p(-q), abs=1e-9)
        assert mech.quantile_P(q) == float(normal_cdf(y))


def _mp_log_erf(y):
    """ln S(y) of the half-normal, S(y) = erf(y / sqrt 2)."""
    return float(mp.log(mp.erf(mp.mpf(y) / mp.sqrt(2))))


class TestCustomPiNearZero:
    """ln S(y) at 0 < y < Phi^-1(3/4) is the panel rule's integral from y
    down, with an edge at 0, and ln(1 - S(y)) at -Phi^-1(3/4) < y < 0 its
    mirror. As ln(1 - e^v), with e^v the mass beyond y, it was 8.5e-6
    off in relative terms at y = 1e-12. pi = 1[y >= 0] composes to the
    half-normal, and pi = 1[y <= 0] to its mirror image."""

    @pytest.mark.parametrize("y", [1e-12, 1e-6, 0.3])
    def test_log_tails_against_erf(self, std, y):
        right = compose(std, SkewSymmetric(lambda t: (t >= 0.0) * 1.0))
        left = compose(std, SkewSymmetric(lambda t: (t <= 0.0) * 1.0))
        want = _mp_log_erf(y)
        assert right.log_cdf(y) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert left.log_sf(-y) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("y", [1e-12, 1e-6, 0.3])
    def test_log_tails_near_zero_nats(self, std, y):
        # ln(1 - erf(y / sqrt 2)) is log1p of minus the smaller mass, not
        # the log of a mass near 1, which lost 2.7e-4 of it at y = 1e-12;
        # that mass is exp of a log of 28 nats, good to 28 ulp
        right = compose(std, SkewSymmetric(lambda t: (t >= 0.0) * 1.0))
        left = compose(std, SkewSymmetric(lambda t: (t <= 0.0) * 1.0))
        want = float(mp.log1p(-mp.erf(mp.mpf(y) / mp.sqrt(2))))
        assert right.log_sf(y) == pytest.approx(want, rel=4e-15, abs=0.0)
        assert left.log_cdf(-y) == pytest.approx(want, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("q", [1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_left_skewed_upper_quantile_hits_its_mass(self, std, q):
        # minus the mirror's quantile at 1 - q: the root lies just below 0,
        # where 1 - S jumps to 0; rooted on ln(1 - S) it was 0.16 off in ln
        # at q = 1 - 1e-12
        dist = compose(std, SkewSymmetric(lambda t: (t <= 0.0) * 1.0))
        assert abs(_mp_log_erf(-dist.quantile(q)) - math.log1p(-q)) <= 1e-12

    @pytest.mark.parametrize("q", [1e-12, 1e-6])
    def test_lower_quantile_hits_its_mass(self, std, q):
        # the root lies just above 0; it was 3.4e-5 off in ln at q = 1e-12
        dist = compose(std, SkewSymmetric(lambda t: (t >= 0.0) * 1.0))
        assert abs(_mp_log_erf(dist.quantile(q)) - math.log(q)) <= 1e-12


# Custom pis for the panel rule, each with its mpmath twin and the points
# where it jumps: the CLI's named pis, and one that jumps at -1 and 1.
def _jump_pi(t):
    t = np.asarray(t, dtype=float)
    return np.where(t >= 1.0, 1.0, np.where(t > -1.0, 0.5, 0.0))


def _mp_jump_pi(t):
    return mp.mpf(1) if t >= 1 else (mp.mpf(1) / 2 if t > -1 else mp.mpf(0))


def _mp_logistic(alpha):
    return lambda t: 1 / (1 + mp.exp(-alpha * t))


def _named_pi(kind, alpha=1.0):
    return cli.build_mechanism("skewsym-custom", {"pi": kind, "alpha": alpha})


CUSTOM_PIS = {
    "sign": (_named_pi("sign"), lambda t: mp.mpf(1 if t >= 0 else 0), (0,)),
    "logistic-1": (_named_pi("logistic", 1.0), _mp_logistic(1), ()),
    "logistic-10": (_named_pi("logistic", 10.0), _mp_logistic(10), ()),
    "cauchy-cdf": (_named_pi("cauchy-cdf"), lambda t: mp.mpf(1) / 2 + mp.atan(t) / mp.pi, ()),
    "jump": (SkewSymmetric(_jump_pi), _mp_jump_pi, (-1, 1)),
}
# The stated accuracy of the panel rule (SkewSymmetric docstring): in nats
# times max(1, |ln|) for a pi smooth off 0, and rel_tol in S and 1 - S
# for one that jumps elsewhere.
CUSTOM_LOG_REL = {"jump": 1e-10}


def _assert_custom_log_tails(name, y):
    mech, mp_pi, jumps = CUSTOM_PIS[name]
    dist = compose(StandardNormal(), mech)
    want_cdf, want_sf = mp_skew_symmetric_log_tails(mp_pi, y, jumps)
    tol = CUSTOM_LOG_REL.get(name, 1e-14)
    for got, want in ((dist.log_cdf(y), want_cdf), (dist.log_sf(y), want_sf)):
        if math.isinf(want):
            assert got == want, (got, want)
        else:
            assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)
    upper = y > 0.0 and want_sf <= -math.log(2.0)
    log_mass = want_sf if upper else want_cdf
    want = -math.expm1(want_sf) if upper else math.exp(want_cdf)
    tol_cdf = tol * max(1.0, abs(log_mass)) * want + 4e-16 * want if want > 0.0 else 0.0
    assert abs(dist.cdf(y) - want) <= tol_cdf, (dist.cdf(y), want)


class TestCustomPiPanelRule:
    """The custom-pi log tails by the composite Gauss-Legendre rule, against
    the split mpmath oracle."""

    @given(st.sampled_from(sorted(CUSTOM_PIS)), st.floats(min_value=-40.0, max_value=40.0))
    @settings(max_examples=60, deadline=None)
    @example(name="jump", y=-0.999)  # the jump 1e-3 below y; quadpack gave -inf
    @example(name="jump", y=0.6744897501960817)  # Phi^-1(3/4), the rule's top
    @example(name="sign", y=1e-9)
    @example(name="logistic-10", y=-40.0)  # pi(y) = e^-400 needs a second stretch
    @example(name="cauchy-cdf", y=40.0)
    def test_log_tails_and_cdf(self, name, y):
        _assert_custom_log_tails(name, y)

    @staticmethod
    def _count(monkeypatch, method):
        calls = []
        original = getattr(SkewSymmetric, method)

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(SkewSymmetric, method, counted)
        return calls

    def test_truncation_extends_past_a_pi_empty_near_y(self, monkeypatch):
        # pi = 1 below -12 and on [0, 12], else 0: S(y) = 2 Phi(-12) for y in
        # (-12, 0), all of it below the first stretch's end at t = -9.5
        def far_pi(t):
            t = np.asarray(t, dtype=float)
            return ((t < -12.0) | ((t >= 0.0) & (t <= 12.0))) * 1.0

        stretches = self._count(monkeypatch, "_log_stretch")
        got = compose(StandardNormal(), SkewSymmetric(far_pi)).log_cdf(-1.0)
        assert len(stretches) == 2
        want = float(mp.log(2 * mp.ncdf(-12)))
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_truncation_extends_for_a_fast_decaying_pi(self, monkeypatch):
        # logistic 10 at y = -40: 2 Phi(y - b) at the first stretch's end
        # is above rel_tol of S ~ e^-1204, so a second stretch is taken
        stretches = self._count(monkeypatch, "_log_stretch")
        _assert_custom_log_tails("logistic-10", -40.0)
        assert len(stretches) >= 2

    def test_a_jump_off_zero_is_bisected(self, monkeypatch):
        # pi jumps at t = -1, 0.5 above the left end of y = -0.5's stretch;
        # S(-0.5) = Phi(-0.5) - Phi(-1)
        rounds = self._count(monkeypatch, "_panel_logs")
        got = compose(StandardNormal(), SkewSymmetric(_jump_pi)).log_cdf(-0.5)
        assert len(rounds) > 10
        want = float(mp.log(mp.ncdf(-0.5) - mp.ncdf(-1)))
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_smooth_pi_takes_one_round(self, monkeypatch):
        rounds = self._count(monkeypatch, "_panel_logs")
        compose(StandardNormal(), CUSTOM_PIS["cauchy-cdf"][0]).log_cdf(-2.0)
        assert len(rounds) == 1

    def test_panel_cap_raises_with_the_partial(self):
        # a jump every pi/50 in t: the cap of panels comes first
        def comb_pi(t):
            return 0.5 + 0.5 * np.sign(np.sin(50.0 * np.asarray(t, dtype=float)))

        mech = SkewSymmetric(comb_pi)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            mech.composed_log_cdf(-1.0)
        # about half the mass of 2 phi below -1, which is 2 Phi(-1)
        assert info.value.partial == pytest.approx(math.log(float(normal_cdf(-1.0))), abs=0.1)

    def test_pi_zero_below_y_gives_minus_inf(self):
        mech = CUSTOM_PIS["jump"][0]
        assert mech.composed_log_cdf(-1.5) == float("-inf")
        assert compose(StandardNormal(), mech).cdf(-30.0) == 0.0

    def test_rule_nodes_are_made_on_first_use(self):
        # not at import or construction, so setup costs no eigensolve
        code = ("from skewlab import cli, mechanisms; "
                "cli.build_mechanism('skewsym-custom', {'pi': 'logistic'}); "
                "print(mechanisms._panel_rule.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0"
        x, w_gauss, w_lobatto = mechanisms._panel_rule()
        assert np.all(np.abs(x) < 1.0)
        for w in (w_gauss, w_lobatto):  # exact up to degree 27 on [-1, 1]
            for k in range(28):
                assert w @ x**k == pytest.approx((1 + (-1) ** k) / (k + 1), abs=2e-15)


class TestAzzaliniRunsNoQuadrature:
    def test_quadrature_is_never_reached(self, std, monkeypatch):
        # neither quadpack nor the custom-pi panel rule; the control, a
        # custom pi equal to Azzalini's, does reach the rule
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(numcore, "log_integrate", forbidden("numcore.log_integrate"))
        monkeypatch.setattr(SkewSymmetric, "_rule_log_cdf", forbidden("the panel rule"))
        mech = SkewSymmetric.azzalini(3.0)
        dist = compose(std, mech)
        for y in (-30.0, -2.0, 0.0, 2.0, 30.0):
            dist.cdf(y), dist.log_cdf(y), dist.log_sf(y)
        for q in (1e-12, 0.3, 1 - 1e-12):
            dist.quantile(q), mech.quantile_P(q)
        mech.cdf_P(0.3), dist.cdf_array(np.array([-1.0, 1.0]))
        assert all(row.passed for row in verify_theorem1_bound(mech))
        assert divisibility_verdict(mech).verdict is Verdict.NOT_ID
        custom = compose(std, SkewSymmetric(lambda y: normal_cdf(3.0 * np.asarray(y, dtype=float))))
        with pytest.raises(AssertionError, match="panel rule"):
            custom.log_sf(2.0)


# Upper-tail quantiles of the closed families, from 1 - q, against the
# mpmath survival function at the returned ordinate.
def _mp_sf_marshall_olkin(gamma, y):
    eps = mp.ncdf(-mp.mpf(y))
    return gamma * eps / (1 - (1 - mp.mpf(gamma)) * eps)


def _mp_sf_two_piece(a, b, y):
    y, a, b = mp.mpf(y), mp.mpf(a), mp.mpf(b)
    if y >= 0:
        return 2 * a / (a + b) * mp.ncdf(-y / a)
    return 1 - 2 * b / (a + b) * mp.ncdf(y / b)


def _mp_sf_order_statistics(psi1, psi2, y):
    return mp.betainc(psi2, psi1, 0, mp.ncdf(-mp.mpf(y)), regularized=True)


UPPER_QUANTILE_LAWS = [
    pytest.param(MarshallOlkin(2.0), lambda y: _mp_sf_marshall_olkin(2.0, y), id="mo-2"),
    pytest.param(MarshallOlkin(0.25), lambda y: _mp_sf_marshall_olkin(0.25, y), id="mo-0.25"),
    pytest.param(TwoPiece(5.0, 0.1), lambda y: _mp_sf_two_piece(5.0, 0.1, y), id="twopiece-5-0.1"),
    pytest.param(TwoPiece(0.5, 2.0), lambda y: _mp_sf_two_piece(0.5, 2.0, y), id="twopiece-0.5-2"),
    pytest.param(OrderStatistics(0.5, 0.5), lambda y: _mp_sf_order_statistics(0.5, 0.5, y),
                 id="orderstats-0.5-0.5"),
    pytest.param(OrderStatistics(2.0, 3.0), lambda y: _mp_sf_order_statistics(2.0, 3.0, y),
                 id="orderstats-2-3"),
]


class TestUpperTailQuantiles:
    """Above 1/2 the closed families invert their upper tail from 1 - q,
    exact in doubles there. Through x = Pinv(q) the tail is lost as x
    rounds to 1: MarshallOlkin(2) was 1.1e-4 off in ln at q = 1 - 1e-12,
    and TwoPiece(5, 0.1) raised DomainError from q = 0.999."""

    @pytest.mark.parametrize("mech,sf", UPPER_QUANTILE_LAWS)
    @pytest.mark.parametrize("q", [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_tail_mass_at_the_quantile(self, std, mech, sf, q):
        y = compose(std, mech).quantile(q)
        # measured within 6e-15; 1 - q is exact in doubles
        assert abs(mp.log(sf(y)) - mp.log(1 - mp.mpf(q))) <= 2e-14

    @pytest.mark.parametrize("mech,sf", [law for law in UPPER_QUANTILE_LAWS
                                         if not isinstance(law.values[0], TwoPiece)])
    def test_lower_half_keeps_the_mechanism_quantile(self, std, mech, sf):
        dist = compose(std, mech)
        for q in (1e-9, 0.1, 0.5):
            assert dist.quantile(q) == float(normal_quantile(mech.quantile_P(q)))

    @pytest.mark.parametrize("a,b", [(5.0, 0.1), (0.5, 2.0), (0.7, 1.3)],
                             ids=["twopiece-5-0.1", "twopiece-0.5-2", "twopiece-eps-0.3"])
    def test_two_piece_below_the_knee(self, std, a, b):
        # TwoPiece writes its quantile in y: below the knee b/(a+b) it
        # inverts S(y) = (2b/(a+b)) Phi(y/b) directly, and the mechanism
        # quantile is Phi of it
        mech = TwoPiece(a, b)
        dist = compose(std, mech)
        knee = b / (a + b)
        for q in (1e-300, 1e-9, 0.5 * knee, 0.6, knee * (1.0 - 1e-12)):
            if q < knee:
                assert dist.quantile(q) == b * float(normal_quantile(q * (a + b) / (2.0 * b)))
        for q in (1e-9, 0.1, 0.5, 0.6, 0.9, 1.0 - 1e-12):
            assert mech.quantile_P(q) == float(normal_cdf(dist.quantile(q)))

    @pytest.mark.parametrize("mech", [MarshallOlkin(2.0), TwoPiece(5.0, 0.1), OrderStatistics(2.0, 3.0)])
    @pytest.mark.parametrize("q", [1.0, 1.5, float("nan")])
    def test_out_of_range_q_raises(self, std, mech, q):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            compose(std, mech).quantile(q)


# (name, call, message): {s} is str() of the argument as a float array,
# {r} its repr(), as the guard that raises prints it
_MECH_GUARDS = [
    ("mo-p", MarshallOlkin(2.0).p, "x must lie in [0, 1], got {s}"),
    ("mo-cdf_P", MarshallOlkin(2.0).cdf_P, "x must lie in [0, 1], got {s}"),
    ("mo-quantile_P", MarshallOlkin(2.0).quantile_P, "q must lie in (0, 1), got {s}"),
    ("skewsym-p", SkewSymmetric.azzalini(3.0).p, "x must lie in (0, 1), got {s}"),
    ("skewsym-cdf_P", SkewSymmetric.azzalini(3.0).cdf_P, "x must lie in [0, 1], got {s}"),
    ("skewsym-quantile_P", SkewSymmetric.azzalini(3.0).quantile_P, "q must lie in (0, 1), got {s}"),
    ("twopiece-p", TwoPiece(5.0, 0.1).p, "x must lie in (0, 1), got {s}"),
    ("twopiece-cdf_P", TwoPiece(5.0, 0.1).cdf_P, "x must lie in [0, 1], got {s}"),
    ("orderstats-log_p", OrderStatistics(2.0, 3.0).log_p, "x must lie in [0, 1], got {s}"),
    ("orderstats-cdf_P", OrderStatistics(2.0, 3.0).cdf_P, "x must lie in [0, 1], got {r}"),
    ("orderstats-quantile_P", OrderStatistics(2.0, 3.0).quantile_P, "q must lie in (0, 1), got {r}"),
]


def _forms(v):
    """v as a float, an np.float64, a 0-d array and inside an array."""
    return (float(v), np.float64(v), np.array(v), np.array([0.5, v]))


class TestScalarGuards:
    """A float argument is range-checked without numpy, an array with it;
    the error and the value are the same on both paths."""

    @pytest.mark.parametrize("name,call,message", _MECH_GUARDS, ids=[g[0] for g in _MECH_GUARDS])
    @pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf"), -0.5, 1.5])
    def test_out_of_range_raises_one_message(self, name, call, message, v):
        for x in _forms(v):
            with pytest.raises(DomainError) as info:
                call(x)
            want = message.format(s=np.asarray(x, dtype=float), r=repr(x))
            assert str(info.value) == want

    @pytest.mark.parametrize("fn", ["log_p", "cdf_P"])
    @pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf"), -0.5, 1.5])
    def test_extracted_mechanism_rejects_each_form(self, std, fn, v):
        mech = extract_mechanism(compose(std, MarshallOlkin(2.0)), std)
        for x in _forms(v):
            with pytest.raises(DomainError) as info:
                getattr(mech, fn)(x)
            assert str(info.value) == f"extracted mechanism is defined on (0, 1), got {float(v)!r}"

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_float_and_zero_d_agree_bitwise(self, name, mech):
        xs = np.linspace(0.0, 1.0, 41)
        for fn, grid in ((mech.p, xs[1:-1]), (mech.log_p, xs[1:-1]), (mech.cdf_P, xs),
                         (mech.quantile_P, xs[1:-1])):
            for v in grid:
                a, b = fn(float(v)), fn(np.array(v))
                assert np.float64(a).tobytes() == np.float64(b).tobytes(), (fn, v)

    def test_scalar_calls_skip_numpy_all_and_asarray(self, std, monkeypatch):
        mo = MarshallOlkin(2.0)
        extracted = extract_mechanism(compose(std, mo), std)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.all or numpy.asarray was called")

        # a float reaches the kernel without an array made of it
        monkeypatch.setattr(np, "all", forbidden)
        monkeypatch.setattr(np, "asarray", forbidden)
        numcore.normal_cdf(0.7), numcore.log_normal_sf(0.7)
        numcore.normal_quantile(0.3), numcore.reg_inc_beta(0.3, 2.0, 3.0)
        assert mo.p(0.3) == mo.p(np.float64(0.3))
        assert extracted.log_p(0.3) == pytest.approx(mo.log_p(0.3), abs=1e-12)
        with pytest.raises(AssertionError, match="numpy.all"):
            numcore.normal_cdf(np.array([0.7]))


# x = k/1024, where 1 - x is exact; 1/2 is left out, where an indicator pi
# need not be symmetric
_DYADIC = np.delete(np.arange(1, 1024) / 1024.0, 511)


def _reflects(mech, mirror) -> bool:
    """Whether mirror's density is mech's reflected, p_m(1 - x) = p(x)."""
    return bool(np.allclose(mirror.p(1.0 - _DYADIC), mech.p(_DYADIC), rtol=1e-12, atol=0.0))


MIRRORED = shipped_instances() + [
    ("twopiece-0.1-5", TwoPiece(0.1, 5.0)),
    ("orderstats-0.5-2", OrderStatistics(0.5, 2.0)),
    ("marshall-olkin-0.3", MarshallOlkin(0.3)),
    ("pi-logistic", cli.build_mechanism("skewsym-custom", {"pi": "logistic"})),
    ("pi-sign", cli.build_mechanism("skewsym-custom", {"pi": "sign"})),
]


class TestMirror:
    """Each family's mirror is the mechanism of -Y, x -> 1 - P(1 - x); the
    upper tail and the quantiles above 1/2 are taken from it. These tests
    check it from the densities alone, without the tails."""

    @pytest.mark.parametrize("name,mech", MIRRORED)
    def test_mirror_is_the_reflection(self, name, mech):
        assert _reflects(mech, mech.mirror)
        assert repr(mech.mirror.mirror) == repr(mech)

    @pytest.mark.parametrize("mech,wrong", [
        (MarshallOlkin(0.3), MarshallOlkin(0.3)),
        (OrderStatistics(0.5, 2.0), OrderStatistics(0.5, 2.0)),
        (TwoPiece(0.1, 5.0), TwoPiece(0.1, 5.0)),
        (SkewSymmetric.azzalini(3.0), SkewSymmetric.azzalini(3.0)),
    ], ids=["marshall-olkin", "orderstats", "twopiece", "azzalini"])
    def test_a_wrong_mirror_fails(self, mech, wrong):
        assert not _reflects(mech, wrong)

    @pytest.mark.parametrize("y", [-1e-12, -1e-6, -1e-3, -0.1, -1.0])
    def test_two_piece_upper_tail_below_zero(self, std, y):
        # the mirror's ln S at -y > 0 has no cancellation; ln(1 - v) with
        # v = (2b/(a+b)) Phi(y/b) was 1.7e-15 off at y = -1e-6
        want = mp.log(_mp_sf_two_piece(0.1, 5.0, y))
        assert abs(compose(std, TwoPiece(0.1, 5.0)).log_sf(y) - want) <= 4e-16 * abs(want)

    @pytest.mark.parametrize("mech,sf", [
        (MarshallOlkin(0.25), lambda y: _mp_sf_marshall_olkin(0.25, y)),
        (MarshallOlkin(2.0), lambda y: _mp_sf_marshall_olkin(2.0, y)),
        (TwoPiece(5.0, 0.1), lambda y: _mp_sf_two_piece(5.0, 0.1, y)),
        (TwoPiece(1.3, 0.7), lambda y: _mp_sf_two_piece(1.3, 0.7, y)),
    ], ids=["marshall-olkin-0.25", "marshall-olkin-2", "twopiece-5-0.1", "twopiece-1.3-0.7"])
    @pytest.mark.parametrize("y", [2.0, 4.0, 8.0, 13.75])
    def test_log_cdf_where_the_cdf_nears_one(self, std, mech, sf, y):
        # ln S(y) = ln(1 - m), m the mass beyond y, is the mirror's upper
        # tail at -y; from S rounded near 1 MarshallOlkin(2) was 0.035 off
        # at y = 8, and TwoPiece(1.3, 0.7) gave 0.0 at y = 13.75
        want = mp.log1p(-sf(y))
        got = compose(std, mech).log_cdf(y)
        assert abs(got - want) <= 5e-14 * abs(want)
        assert compose(std, mech.mirror).log_sf(-y) == got


class TestOrderStatisticsUnderflowingQuantile:
    """Below 1/2 an order-statistics quantile is Phi^-1 of the Beta
    quantile x, which underflows for psi1 well below 1: it raised
    DomainError at x = 0. There ln x comes from the leading term of the
    series for I_x."""

    @pytest.mark.parametrize("psi1,psi2,q", [(0.01, 1.0, 1e-4), (0.01, 3.0, 1e-4),
                                             (0.01, 1.0, 1e-12)])
    def test_lower_quantile_hits_its_mass(self, std, psi1, psi2, q):
        y = compose(std, OrderStatistics(psi1, psi2)).quantile(q)
        got = mp.log(mp.betainc(psi1, psi2, 0, mp.ncdf(y), regularized=True))
        assert abs(got - mp.log(q)) <= 1e-12 * max(1.0, abs(math.log(q)))

    def test_upper_quantile_through_the_mirror(self, std):
        q = 1.0 - 1e-4
        y = compose(std, OrderStatistics(1.0, 0.01)).quantile(q)
        got = mp.log(_mp_sf_order_statistics(1.0, 0.01, y))
        assert abs(got - mp.log(1 - mp.mpf(q))) <= 1e-12 * abs(math.log1p(-q))


class TestOrderStatisticsQuantileNearOne:
    """At q <= 1/2 the Beta quantile x can still lie above 1/2, and for a
    small psi2 it rounds to 1: OrderStatistics(5, 1e-3) raised DomainError
    from q = 0.05 to 1/2, and at q = 0.03, where 1 - x = 4e-13 kept three
    digits, S(y) was 1.7e-4 off q. There 1 - x is the mirror's Beta
    quantile at 1 - q, with its own series where it underflows."""

    @pytest.mark.parametrize("q", [0.0125, 0.03, 0.05, 0.1, 0.3, 0.5])
    def test_quantile_hits_its_mass(self, std, q):
        y = compose(std, OrderStatistics(5.0, 1e-3)).quantile(q)
        got = 1 - _mp_sf_order_statistics(5.0, 1e-3, y)
        assert abs(got / q - 1) <= 1e-14

    def test_cli_grid_exits_0(self, capsys):
        code = cli.main(["eval", "--family", "orderstats", "--param", "psi1=5",
                         "--param", "psi2=0.001", "--what", "quantile",
                         "--grid=0.00001:0.99999:41"])
        rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert code == 0 and len(rows) == 41
        ys = [float(y) for _, y in rows]
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestArrayShapes:
    """p, log_p and cdf_P keep an array's shape and return a float for a
    0-d input, on the instances whose density is constant or whose p
    reduces to a scalar expression: OrderStatistics(1, 1) returned the
    float 1.0 for any array."""

    @pytest.mark.parametrize("mech", [
        OrderStatistics(1.0, 1.0), OrderStatistics(1.0, 2.0), MarshallOlkin(1.0),
        TwoPiece(1.0, 1.0), SkewSymmetric.azzalini(0.0),
        cli.build_mechanism("skewsym-custom", {"pi": "half"}),
        extract_mechanism(compose(StandardNormal(), OrderStatistics(2.0, 3.0)), StandardNormal()),
    ], ids=["orderstats-1-1", "orderstats-1-2", "marshall-olkin-1", "twopiece-1-1",
            "azzalini-0", "pi-half", "numeric"])
    def test_shape_follows_input(self, mech):
        for fn in (mech.p, mech.log_p, mech.cdf_P):
            assert type(fn(np.array(0.3))) is float
            for shape in ((1,), (5,), (2, 3)):
                out = fn(np.full(shape, 0.3))
                assert isinstance(out, np.ndarray) and out.shape == shape
                # a skew-symmetric cdf_P reads a table for an array (1.2e-7 here)
                tol = 1e-6 if fn == mech.cdf_P and isinstance(mech, SkewSymmetric) else 0.0
                assert np.max(np.abs(out - fn(0.3))) <= tol


# Phi^-1(1 - 2^-53), where inversion through x = Phi(y) clipped its draws
_CLIP = 8.209536151601387


def _ks_bound(draws, cdf, step: int) -> float:
    """An upper bound on sqrt(n) times the KS distance of draws from cdf
    that calls the scalar cdf at every step-th order statistic only: between
    two of them both the empirical and the true CDF are bracketed by their
    values at the two ends, as both are monotone. At step 1 it is the
    statistic itself."""
    x = np.sort(draws)
    n = x.size
    idx = np.unique(np.append(np.arange(0, n, step), n - 1))
    f = np.array([cdf(float(v)) for v in x[idx]])
    d_plus = max(np.max((idx + 1) / n - f), np.max(idx[1:] / n - f[:-1]))
    d_minus = max(np.max(f - idx / n), np.max(f[1:] - (idx[:-1] + 1) / n))
    return math.sqrt(n) * max(d_plus, d_minus)


def _custom(pi):
    return cli.build_mechanism("skewsym-custom", {"pi": pi, "alpha": 2.0})


# (mechanism, every how many order statistics the scalar cdf is called):
# the skew-symmetric laws but Azzalini's integrate their scalar cdf, about
# 1 ms a call
EXACT_SAMPLER_LAWS = [
    pytest.param(OrderStatistics(2.0, 3.0), 20, id="orderstats-2-3"),
    pytest.param(OrderStatistics(0.5, 0.5), 20, id="orderstats-0.5-0.5"),
    pytest.param(OrderStatistics(2.0, 0.05), 20, id="orderstats-2-0.05"),
    pytest.param(OrderStatistics(5.0, 1e-3), 20, id="orderstats-5-0.001"),
    pytest.param(OrderStatistics(1e-3, 5.0), 20, id="orderstats-0.001-5"),
    pytest.param(SkewSymmetric.azzalini(3.0), 20, id="azzalini-3"),
    pytest.param(SkewSymmetric.azzalini(-3.0), 20, id="azzalini--3"),
    pytest.param(_custom("logistic"), 200, id="logistic"),
    pytest.param(_custom("sign"), 200, id="sign"),
]


class TestExactSamplers:
    """Order statistics draw X = G1/(G1 + G2) from gamma variates and the
    skew-symmetric laws flip the sign of a normal draw; neither inverts a
    CDF. Through x = Phi(y), 96.6% of OrderStatistics(5, 1e-3) draws sat
    at the clip Phi^-1(1 - 2^-53), sqrt(n) D = 216 against the scalar cdf.
    The checks run against the scalar ``cdf``, which shares no code with
    the samplers; the other families still invert, draw for draw."""

    N = 200_000

    @pytest.mark.parametrize("mech,step", EXACT_SAMPLER_LAWS)
    def test_draws_fit_the_scalar_cdf(self, std, mech, step):
        dist = compose(std, mech)
        draws = sample_skewed(dist, RngState(1), self.N)
        assert np.all(np.isfinite(draws))
        assert not np.any(draws == _CLIP)
        assert _ks_bound(draws, dist.cdf, step) < 1.6276  # the 1% point of the KS limit law
        assert np.array_equal(draws, sample_skewed(dist, RngState(1), self.N))

    def test_ks_bound_holds_the_statistic(self, std):
        dist = compose(std, OrderStatistics(2.0, 3.0))
        draws = sample_skewed(dist, RngState(3), 5000)
        exact = ks_test(draws, dist.cdf_array).statistic * math.sqrt(draws.size)
        assert _ks_bound(draws, dist.cdf, 1) == pytest.approx(exact, rel=1e-9)
        assert all(_ks_bound(draws, dist.cdf, step) >= exact for step in (2, 7, 50))

    def test_sharded_order_statistics_draws_reproduce(self, std):
        dist = compose(std, OrderStatistics(0.5, 2.0))
        shards = [dist.sample(rng, 500) for rng in RngState(64).split(4)]
        again = [dist.sample(rng, 500) for rng in RngState(64).split(4)]
        assert all(np.array_equal(a, b) for a, b in zip(shards, again))
        assert len(np.unique(np.concatenate(shards))) == 2000

    @pytest.mark.parametrize("mech,pinned", [
        (MarshallOlkin(2.0), (-1.1491945838215754, -1.0517628532258358, -1.513009440534413,
                              1.3622618121200585, -4.228611236551916, 4.897144084749851)),
        (TwoPiece.epsilon_skew(-0.5), (-0.5547575461578517, -0.5013020369468605,
                                       -0.747981787757566, 1.8703560233439847,
                                       -2.114304956880972, 7.260428420174584)),
    ], ids=["marshall-olkin-2", "twopiece-eps--0.5"])
    def test_closed_inversion_draws_are_unchanged(self, std, mech, pinned):
        # draws 0, 1, 99,999 and 199,999, the smallest and the largest
        dist = compose(std, mech)
        draws = sample_skewed(dist, RngState(1), self.N)
        assert np.array_equal(draws, dist.quantile_array(RngState(1).uniform(self.N)))
        got = (*draws[[0, 1, 99_999, 199_999]], draws.min(), draws.max())
        assert got == pinned

    def test_flip_is_the_skew_symmetric_sampler(self, std):
        mech = SkewSymmetric.azzalini(3.0)
        assert np.array_equal(sample_flip(mech, RngState(5), 1000),
                              sample_skewed(compose(std, mech), RngState(5), 1000))
        assert np.array_equal(sample_flip(mech.pi, RngState(5), 1000),
                              sample_flip(mech, RngState(5), 1000))

    def test_count_is_checked(self, std):
        for mech in (OrderStatistics(2.0, 3.0), SkewSymmetric.azzalini(3.0), MarshallOlkin(2.0)):
            with pytest.raises(DomainError):
                sample_skewed(compose(std, mech), RngState(1), 0)
        with pytest.raises(DomainError):
            sample_flip(AzzaliniPi(1.0), RngState(1), 0)


class TestOrderStatisticsLogCdfAboveZero:
    """Above 0, Phi(y) rounds toward 1 and I_{Phi(y)}(psi1, psi2) loses the
    mass beyond y: ln S(9) of (2, 3) was 0.0, and OrderStatistics(5, 1e-3)
    gave S(8.2934) = 1.0 where it is 0.0347. ln S is now ln(1 - m) from the
    mirror's lower tail m where m <= 1/2, else betaincc at Phi(-y)."""

    @pytest.mark.parametrize("psi1", [1e-3, 0.05, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("psi2", [1e-3, 0.05, 0.5, 2.0, 5.0])
    def test_log_cdf_against_mpmath(self, std, psi1, psi2):
        dist = compose(std, OrderStatistics(psi1, psi2))
        for y in (1e-6, 0.5, 2.0, 8.0, 9.0, 20.0, 38.0):
            # the mass m beyond y comes from its log, so it is exact to about
            # |ln m| ulps; below 1e-300, ln S = -m rounds to -0.0
            m = _mp_sf_order_statistics(psi1, psi2, y)
            want = mp.log1p(-m)
            tol = 4e-15 * abs(want) * max(1.0, abs(float(mp.log(m))))
            assert abs(dist.log_cdf(y) - want) <= tol + 1e-300

    @pytest.mark.parametrize("psi1,psi2,y,want", [
        (2.0, 3.0, 9.0, -5.75e-57),
        (1.0, 0.05, 10.0, -0.0724),
    ])
    def test_mass_beyond_y_is_kept(self, std, psi1, psi2, y, want):
        got = compose(std, OrderStatistics(psi1, psi2)).log_cdf(y)
        assert got == pytest.approx(want, rel=1e-3, abs=0.0)

    def test_cdf_below_the_median_far_out(self, std):
        assert compose(std, OrderStatistics(5.0, 1e-3)).cdf(8.2934) == pytest.approx(0.03474, rel=1e-3)
