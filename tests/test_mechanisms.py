import json
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

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
    log_tail_mass,
    mo_cdf_P,
    sample_flip,
    sample_skewed,
    steutel_statistic,
    twopiece_cdf,
    verify_theorem1_bound,
)
from skewlab.distributions import ContinuousDistribution
from skewlab.divisibility import DEFAULT_Y_GRID
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

    # at (9e307, 9e307) a + b overflows, and math.log(2 / (a + b)) raised
    # ValueError; at (1, 1.7e308) 2 b does, and the quantile raised it
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (9e307, 9e307),
                                     (1.0, 1.7e308), (float("inf"), 1.0), (1.0, float("nan"))])
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

    @pytest.mark.parametrize("gamma", [1e-320, 0.0, -1.0, float("inf"), float("nan")])
    def test_mo_cdf_P_checks_gamma_as_the_class_does(self, gamma):
        # mo_cdf_P(1e-320, 0.5) returned 1.0, where MarshallOlkin(1e-320) raises
        for call in (lambda: mo_cdf_P(gamma, 0.5), lambda: MarshallOlkin(gamma)):
            with pytest.raises(ParameterError, match="gamma and 1/gamma"):
                call()

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

    @pytest.mark.parametrize("a,b", [(1e-300, 1e300), (1e300, 1e-300), (1e-160, 1.0)])
    def test_p_where_the_scale_squared_underflows(self, a, b):
        # 1 - 1/c^2 was 1 - 1/0: a divide by zero, and p(1/2) = 0 * -inf = NaN
        mech = TwoPiece(a, b)
        assert mech.p(0.5) == 2.0 / (a + b)
        xs = np.array([1e-5, 0.3, 0.5, 0.7, 1.0 - 1e-5])
        got = mech.p(xs)
        assert got[2] == 2.0 / (a + b)
        z = sp.ndtri(xs)
        for i in (0, 1, 3, 4):
            c = b if xs[i] < 0.5 else a
            if c < 1e-150:  # exp(-z^2 / (2 c^2)) is 0 in doubles
                assert got[i] == 0.0
            else:
                assert got[i] == pytest.approx(2.0 / (a + b) * math.exp(0.5 * z[i] ** 2 * (1.0 - c**-2)))

    def test_lower_log_cdf_where_the_mass_below_zero_underflows(self, std):
        # S(0) = b/(a+b) = 1e-600 is 0 in doubles; ln S(0) + ln Phi(y/b) is not
        dist = compose(std, TwoPiece(1e300, 1e-300))
        want = math.log(2.0) - 600.0 * math.log(10.0) + float(sp.log_ndtr(-0.1))
        assert dist.log_cdf(-1e-301) == pytest.approx(want, rel=1e-14)

    def test_p_keeps_its_bits_on_finite_factors(self):
        # p(x) = (2/(a+b)) exp((z^2/2)(1 - 1/c^2)), as it was computed per element
        xs = np.linspace(1e-5, 1.0 - 1e-5, 201)
        z = sp.ndtri(xs)
        for a, b in ((5.0, 0.1), (0.5, 0.8), (1.5, 1.5), (1.5, 0.5), (0.5, 2.0)):
            c = np.where(xs < 0.5, b, a)
            want = (2.0 / (a + b)) * np.exp(0.5 * z * z * (1.0 - 1.0 / (c * c)))
            assert np.array_equal(TwoPiece(a, b).p(xs), want)
            assert [TwoPiece(a, b).p(float(x)) for x in xs] == want.tolist()

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
        # the Newton root stops one step earlier under the loose tolerance:
        # a different root, within that tolerance of the default one, which
        # hits its tail mass to rounding. Below S(-13), off the CDF table,
        # Newton starts at the bracket's lower end and takes several steps
        dist = compose(std, _named_pi("logistic", 2.0))
        default, loose = dist.quantile(1e-100), dist.quantile(1e-100, Tolerance(abs_tol=1e-3))
        assert default == -19.399401070522444
        assert loose == -19.399401070328064
        assert loose != default and abs(loose - default) <= 1e-3
        log_cdf = mp_skew_symmetric_log_tails(_mp_logistic(2), default, ())[0]
        assert abs(log_cdf - math.log(1e-100)) <= 1e-12
        extracted = extract_mechanism(dist, std)
        assert extracted.quantile_P(1e-100, Tolerance(abs_tol=1e-3)) == float(normal_cdf(loose))

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

    @pytest.mark.parametrize("alpha", [1.0, -3.0, 50.0])
    def test_flip_azzalini_matches_composed_cdf(self, std, alpha):
        mech = SkewSymmetric.azzalini(alpha)
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
    """h^2/8 * max|s'|, the stated bound on the skew-symmetric table of step
    h = 13/8192."""
    h = 13.0 / 8192.0
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


# The half-step grid out to |y| = 40, plus ordinates near 0 and at either
# side of Phi^-1(3/4), where the custom-pi rule turns to the mirror.
CDF_RULE_YS = tuple(k / 2.0 for k in range(-80, 81)) + (
    1e-12, -1e-12, 1e-3, 3e-4, 0.6744897501960817 - 1e-9, 0.6744897501960817 + 1e-9)
CDF_RULE_LAWS = shipped_instances() + [
    (f"pi-{kind}", cli.build_mechanism("skewsym-custom", {"pi": kind, "alpha": 2.0}))
    for kind in ("half", "sign", "logistic", "cauchy-cdf")] + [("twopiece-5-0.1", TwoPiece(5.0, 0.1))]


class TestCdfIsExpOfLogCdf:
    """S(y) at a float is exp(ln S) for every family: each composed_log_cdf
    takes ln S from the smaller tail, so there is no second choice of tail.
    Taking 1 - exp(ln(1 - S)) above the median as well gave TwoPiece(5, 0.1)
    another value at six of these ordinates."""

    @pytest.mark.parametrize("name,mech", CDF_RULE_LAWS)
    def test_cdf_is_exp_of_log_cdf(self, std, name, mech):
        dist = compose(std, mech)
        skew = isinstance(mech, SkewSymmetric)
        for y in CDF_RULE_YS:
            want = math.exp(dist.log_cdf(y))
            assert dist.cdf(y) == want, y
            if skew:  # and what its quantile roots
                assert mech.composed_cdf(y) == want, y


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

    @pytest.mark.parametrize("y", [0.5, 3.0, 9.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize("mech", [MarshallOlkin(0.01), TwoPiece(0.1, 5.0)],
                             ids=["mo-0.01", "twopiece-0.1-5"])
    def test_cdf_array_on_the_mirror_side(self, std, mech, y):
        # above 0, one minus the mirror's lower side at -y
        dist = compose(std, mech)
        assert abs(dist.cdf_array(np.array([y]))[0] - dist.cdf(y)) <= 1e-15

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
    # cdf = exp(log_cdf), where log_cdf is ln(1 - e^v) of the upper tail's
    # v when 1 - S(y) <= 1/2 at y > 0: the error of the smaller tail's log
    # carries over, times the mass it is the log of
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

    @pytest.mark.parametrize("alpha", [s * a for a in (1e103, 1e154, 1e200, 3e300) for s in (1.0, -1.0)])
    def test_huge_shapes_against_the_leading_term(self, alpha):
        # From |alpha| ~ 1e103 the Laguerre sum's t (1 + (t/h)^2) overflows a
        # double, and no log tail may take math.log(0.0) or warn. With
        # c = |alpha| h, h = -y on the light side,
        # S(-h) = (h/pi) e^(-h^2/2) int_c^inf e^(-t^2/2) / (h^2 + t^2) dt,
        # whose leading term drops h^2 there, (h/c)^2 = alpha^-2 of it:
        # the bracket below, in its asymptotic series from c = 1e8. ln S is
        # about -(1 + alpha^2) h^2 / 2, -inf where that overflows. The
        # mpmath oracle's 20 digits lose S from |alpha| ~ 1e40.
        dist = compose(StandardNormal(), SkewSymmetric.azzalini(alpha))
        a, sign = abs(alpha), math.copysign(1.0, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (0.7 / a, 2.0 / a, 3.5 / a, 1e-10, 1.0, 1.3, 40.0):
                with mp.workdps(40):
                    big_h, c = mp.mpf(h), a * mp.mpf(h)
                    if c > 1e8:
                        bracket = -c * c / 2 - 3 * mp.log(c) + mp.log1p(-3 / (c * c))
                    else:
                        bracket = mp.log(mp.exp(-c * c / 2) / c - mp.sqrt(2 * mp.pi) * mp.ncdf(-c))
                    light = mp.log(big_h / mp.pi) - big_h * big_h / 2 + bracket
                    heavy = mp.log(mp.erfc(big_h / mp.sqrt(2)) - mp.exp(light))
                # the light tail is S(-h) for alpha > 0, 1 - S(h) for alpha < 0
                got_light = dist.log_cdf(-h) if alpha > 0.0 else dist.log_sf(h)
                got_heavy = dist.log_sf(h) if alpha > 0.0 else dist.log_cdf(-h)
                for got, want in ((got_light, float(light)), (got_heavy, float(heavy))):
                    if want == -math.inf:
                        assert got == want, (h, got)
                    else:
                        assert abs(got - want) <= AZZ_LOG_REL * max(1.0, abs(want)), (h, got, want)
            # the law nears sign * |Z|: S(y) = 2 Phi(y) - 1 above 0 for alpha > 0
            grid = np.linspace(-3.0, 3.0, 13)
            want = np.where(sign * grid > 0.0, np.abs(sp.erf(grid / math.sqrt(2.0))), 0.0)
            want = want if alpha > 0.0 else 1.0 - want
            assert np.allclose([dist.cdf(float(y)) for y in grid], want, rtol=1e-14, atol=1e-16)
            assert np.allclose(dist.cdf_array(grid), want, atol=1e-6)
            # S(0) ~ 1/(pi alpha): the root is the limit's to abs_tol; at
            # q = 0.5 Newton's tiny step from y = 0, where ln S is steep, once
            # stopped it there
            for q in (1e-12, 1e-5, 0.3, 0.5, 0.7, 1.0 - 1e-5):
                want_q = math.sqrt(2.0) * sp.erfinv(q) if alpha > 0.0 else sp.ndtri(0.5 * q)
                assert abs(dist.quantile(q) - want_q) <= 1e-12 + 1e-9 * abs(want_q), q

    @pytest.mark.parametrize("alpha", [1e308, -1.7e308])
    def test_shapes_past_the_tested_range_warn_nowhere(self, alpha, capsys):
        # alpha y overflows to +-inf on the symmetry grid from |alpha| ~ 2.2e307,
        # where Phi is exactly 1 or 0; numpy warned of the overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SkewSymmetric.azzalini(alpha)
            assert cli.main(["check", "--family", "azzalini", f"--param=alpha={alpha!r}"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "NOT_ID"

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


# Skew-symmetric laws whose array quantile reads the table
TABLE_LAWS = [
    pytest.param(SkewSymmetric.azzalini(3.0), id="azzalini-3"),
    pytest.param(SkewSymmetric.azzalini(-3.0), id="azzalini--3"),
    pytest.param(SkewSymmetric.azzalini(50.0), id="azzalini-50"),
    pytest.param(cli.build_mechanism("skewsym-custom", {"pi": "sign"}), id="sign"),
    pytest.param(cli.build_mechanism("skewsym-custom", {"pi": "logistic", "alpha": 2.0}),
                 id="logistic-2"),
]


class TestSkewSymmetricArrayQuantile:
    """An array quantile reads the table on [-13, 0] below S(0), and minus
    the mirror's at 1 - q from S(0) on. A table summed on to +13 gave 13.0
    for Azzalini 3 at q = 1 - 1e-15, where the float quantile is 8.0270;
    below the table's first value, S(-13), it gave -13."""

    @pytest.mark.parametrize("mech", TABLE_LAWS)
    def test_upper_tail_matches_the_float_quantile(self, std, mech):
        dist = compose(std, mech)
        qs = 1.0 - 10.0 ** -np.arange(6.0, 16.0)
        want = [dist.quantile(float(q)) for q in qs]
        assert np.max(np.abs(dist.quantile_array(qs) - want)) <= 1e-5

    @pytest.mark.parametrize("mech,tiny", [
        (SkewSymmetric.azzalini(-3.0), (1e-300, 1e-40)),
        (cli.build_mechanism("skewsym-custom", {"pi": "logistic", "alpha": 2.0}), (1e-300,)),
    ], ids=["azzalini--3", "logistic-2"])
    def test_below_the_table_takes_the_float_quantile(self, std, mech, tiny):
        # both ends in one array; at the upper end 1 - q >= 2^-53 stays above
        # the mirror's S(-13) <= 2 Phi(-13), so it always reads the table
        dist = compose(std, mech)
        qs = np.array([*tiny, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
        got, k = dist.quantile_array(qs), len(tiny)
        assert np.all(got[:k] < -13.0)
        assert np.array_equal(got[:k], [dist.quantile(q) for q in tiny])
        assert np.max(np.abs(got[k:] - [dist.quantile(float(q)) for q in qs[k:]])) <= 1e-5


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
    @example(name="jump", y=-0.99999)  # seen by a Lobatto end node only; it gave -inf
    @example(name="jump", y=0.6744897501960817)  # Phi^-1(3/4), the rule's top
    @example(name="sign", y=1e-9)
    @example(name="logistic-10", y=-40.0)  # pi(y) = e^-400 needs a second stretch
    @example(name="cauchy-cdf", y=40.0)
    @example(name="sign", y=5e-324)  # the panel [0, y]: its half-width rounded to 0
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

    @pytest.mark.parametrize("name,y", [("sign", -40.0), ("sign", -5.0), ("sign", 0.0),
                                        ("jump", -3.0)])
    def test_no_mass_stops_after_the_deepest_stretch(self, monkeypatch, name, y):
        # the first stretch, then the deepest (45 * 4^3 nats): past an empty
        # deepest stretch the rule took two more of zero width
        stretches = self._count(monkeypatch, "_log_stretch")
        assert CUSTOM_PIS[name][0]._rule_log_cdf(y) == float("-inf")
        assert len(stretches) == 2, stretches
        assert stretches[1][1] < stretches[1][2]

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


# The laws the float quantile's root is checked on: Azzalini shapes from
# light to heavy lower tails, and custom pis with their mpmath twins.
ROOT_LAWS = {f"azzalini-{a:g}": (SkewSymmetric.azzalini(a), a)
             for a in (-50.0, -2.0, 0.5, 3.0, 50.0)}
ROOT_LAWS["logistic-2"] = (_named_pi("logistic", 2.0), (_mp_logistic(2), ()))
ROOT_LAWS.update({name: (CUSTOM_PIS[name][0], CUSTOM_PIS[name][1:])
                  for name in ("logistic-10", "cauchy-cdf", "sign")})
ROOT_QS = (1e-300, 1e-100, 1e-12, 1e-6, 0.01, 0.25, 0.5, 1 - 1e-6, 1 - 1e-12)
# the skew-symmetric laws and levels of the benchmark's `evaluate` workload
EVALUATE_LAWS = [("azzalini", {"alpha": a}) for a in (-2.0, 0.5, 3.0)] + [
    ("skewsym-custom", {"pi": pi, "alpha": a})
    for pi, a in (("logistic", 2.0), ("cauchy-cdf", 1.0), ("sign", 1.0))]
EVALUATE_QS = (1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12)


def _mp_log_tails(name, y):
    spec = ROOT_LAWS[name][1]
    if isinstance(spec, float):
        return mp_skew_normal_log_tails(y, spec)
    return mp_skew_symmetric_log_tails(spec[0], y, spec[1])


class TestSkewSymmetricQuantileRoot:
    """The float quantile at q <= 1/2 is Newton on the probit scale,
    Phi^-1(S(y)) - Phi^-1(q), inside [Phi^-1(q/2), sqrt 2 erfinv(q)], and
    minus the mirror's at 1 - q above. Newton starts at the CDF tables'
    quantile for every pi, whether ln S is the panel rule's or pi's closed
    form. The root's tail mass must meet q to 1e-12 in ln, not merely the
    root lie within the tolerance in y."""

    @pytest.mark.parametrize("q", ROOT_QS)
    @pytest.mark.parametrize("name", sorted(ROOT_LAWS))
    def test_tail_mass_against_mpmath(self, std, name, q):
        y = compose(std, ROOT_LAWS[name][0]).quantile(q)
        log_cdf, log_sf = _mp_log_tails(name, y)
        got, want = (log_cdf, math.log(q)) if q <= 0.5 else (log_sf, math.log1p(-q))
        assert abs(got - want) <= 1e-12, (y, got, want)

    @pytest.mark.parametrize("name", sorted(ROOT_LAWS))
    def test_smallest_subnormal_q(self, std, name):
        q = 5e-324
        lo = float(sp.ndtri_exp(math.log(q) - math.log(2.0)))
        hi = math.sqrt(2.0) * float(sp.erfinv(q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = compose(std, ROOT_LAWS[name][0]).quantile(q)
        assert math.isfinite(y) and lo <= y <= hi, (lo, y, hi)

    @pytest.mark.parametrize("q", [1e-14, 1e-16, 1e-100, 1e-300])
    def test_sign_pi_at_tiny_q(self, std, q):
        # S(y) = erf(y / sqrt 2) above 0: the bracket's upper end is the root.
        # brentq returned -2.8157e-13, where S = 0, for q from 1e-16 down
        y = compose(std, CUSTOM_PIS["sign"][0]).quantile(q)
        want = float(mp.sqrt(2) * mp.erfinv(q))
        assert abs(y - want) <= 4 * math.ulp(want), (y, want)

    @pytest.mark.parametrize("q", [1e-300, 1e-14, 1e-6, 0.01])
    def test_jump_pi_bisects_to_its_root(self, std, q):
        # S = 0 below -1 and Phi(y) - Phi(-1) above it: Newton from the upper
        # end leaves the bracket, so the root is bisected toward the jump
        y = compose(std, CUSTOM_PIS["jump"][0]).quantile(q)
        want = float(mp.sqrt(2) * mp.erfinv(2 * (mp.mpf(q) + mp.ncdf(-1)) - 1))
        tol = Tolerance()
        assert abs(y - want) <= tol.abs_tol + tol.rel_tol * abs(y), (y, want)

    def test_max_iter_raises_with_the_partial(self, std):
        # the jump pi's root is bisected toward its jump, from a table start
        dist = compose(std, CUSTOM_PIS["jump"][0])
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            dist.quantile(0.3, Tolerance(max_iter=1))
        assert math.isfinite(info.value.partial)

    @staticmethod
    def _count_log_cdf(monkeypatch):
        calls = []
        original = SkewSymmetric.composed_log_cdf
        monkeypatch.setattr(SkewSymmetric, "composed_log_cdf",
                            lambda self, y: calls.append(y) or original(self, y))
        return calls

    @pytest.mark.parametrize("family,params", EVALUATE_LAWS,
                             ids=[f"{p.get('pi', f)}-{p['alpha']:g}" for f, p in EVALUATE_LAWS])
    def test_log_cdf_calls_per_quantile(self, std, monkeypatch, family, params):
        # brentq took 11 to 50
        calls = self._count_log_cdf(monkeypatch)
        dist = compose(std, cli.build_mechanism(family, dict(params)))
        for q in EVALUATE_QS:
            calls.clear()
            dist.quantile(q)
            assert 1 <= len(calls) <= 10, (q, len(calls))

    def test_log_cdf_calls_in_total(self, std, monkeypatch):
        # every quantile here starts from the tables' Hermite step, which
        # the first Newton step polishes: Azzalini's from the bracket's lower
        # end took up to 6, 48 warm in all. Cold, a mechanism's first
        # quantile also reads S(0), one call, and builds its table, one call
        # at -13, and its mirror's first quantile above S(0) the mirror's
        calls = self._count_log_cdf(monkeypatch)
        cold, warm = [], []
        for family, params in EVALUATE_LAWS:
            dist = compose(std, cli.build_mechanism(family, dict(params)))
            for per_quantile in (cold, warm):
                for q in EVALUATE_QS:
                    calls.clear()
                    dist.quantile(q)
                    per_quantile.append(len(calls))
        assert max(warm) <= 1 and sum(warm) <= 30, warm
        assert max(cold) <= 3 and sum(cold) <= 53, cold

    def test_table_start_honours_tolerance(self, std, monkeypatch):
        # the Hermite start is within about 1e-14 of the root, so the default
        # and the loose tolerance stop after one log-CDF call, and one of
        # 1e-15 takes a second: at q = 0.1 from the mechanism's table, at
        # q = 0.3, above S(0) = 0.222, from its mirror's
        dist = compose(std, cli.build_mechanism("skewsym-custom", {"pi": "logistic", "alpha": 2.0}))
        dist.quantile(0.1), dist.quantile(0.3)
        calls, got = self._count_log_cdf(monkeypatch), {}
        for tol in (Tolerance(), Tolerance(abs_tol=1e-3), Tolerance(abs_tol=1e-15, rel_tol=1e-15)):
            calls.clear()
            got[tol.abs_tol] = (dist.quantile(0.1, tol), dist.quantile(0.3, tol), len(calls))
        roots = (-0.38481849872013985, 0.18040946328409954)
        assert got == {1e-12: (*roots, 2), 1e-3: (*roots, 2), 1e-15: (*roots, 4)}, got
        for y, q in zip(roots, (0.1, 0.3)):
            log_cdf = mp_skew_symmetric_log_tails(_mp_logistic(2), y, ())[0]
            assert abs(log_cdf - math.log(q)) <= 1e-12

    @pytest.mark.parametrize("name", ["logistic-2", "logistic-10", "cauchy-cdf", "sign", "half",
                                      "azzalini-3", "azzalini--3", "azzalini-50", "azzalini--50"])
    def test_table_start_is_near_the_root(self, std, monkeypatch, name):
        # the first log-CDF call of a warm quantile is at the start: the
        # table's linear quantile was up to 3.4e-6 off; S(-13) is below
        # 1e-37 for these pis, so the levels from 1e-12 are on the tables
        mech = ROOT_LAWS[name][0] if name in ROOT_LAWS else (
            _named_pi("half") if name == "half" else SkewSymmetric.azzalini(-3.0))
        dist = compose(std, mech)
        calls = self._count_log_cdf(monkeypatch)
        for q in (q for q in ROOT_QS if min(q, 1.0 - q) >= 1e-12):
            dist.quantile(q)
            calls.clear()
            y = dist.quantile(q)
            start = calls[0] if q <= 0.5 else -calls[0]  # above 1/2 the mirror's root
            assert abs(start - y) <= 1e-10 * max(1.0, abs(y)), (q, start, y)

    def test_jump_pi_calls_do_not_rise(self, std, monkeypatch):
        # where the table interval holds S = 0 the start stays linear, and
        # the root is bisected toward the jump
        dist = compose(std, CUSTOM_PIS["jump"][0])
        calls = self._count_log_cdf(monkeypatch)
        for q, most in ((1e-300, 36), (1e-14, 33), (1e-6, 23), (0.01, 3)):
            dist.quantile(q)
            calls.clear()
            dist.quantile(q)
            assert len(calls) <= most, (q, len(calls))

    @pytest.mark.parametrize("mech,err", [
        (SkewSymmetric.azzalini(1.0), 1.2e-7), (SkewSymmetric.azzalini(-1.0), 1.2e-7),
        (SkewSymmetric.azzalini(3.0), 3.0e-7), (SkewSymmetric.azzalini(50.0), 5.0e-6),
        (_named_pi("logistic", 2.0), 1.4e-7), (_named_pi("logistic", 10.0), 6.3e-7),
        (_named_pi("cauchy-cdf"), 1.0e-7),
    ], ids=["azzalini-1", "azzalini--1", "azzalini-3", "azzalini-50",
            "logistic-2", "logistic-10", "cauchy-cdf"])
    def test_agrees_with_the_array_quantile(self, std, mech, err):
        # the array quantile's S is within the table's error, h^2/8 max|s'|,
        # in probability of q, where the float quantile's is q to rounding;
        # from a table start the float quantile is the array's polished
        dist = compose(std, mech)
        qs = np.concatenate([10.0 ** -np.arange(1.0, 16.0), np.linspace(0.05, 0.95, 19),
                             1.0 - 10.0 ** -np.arange(1.0, 16.0)])
        floats = np.array([dist.quantile(float(q)) for q in qs])
        arrays = dist.quantile_array(qs)
        s_float, s_array = np.exp(dist.log_cdf(floats)), np.exp(dist.log_cdf(arrays))
        assert np.max(np.abs(s_float - qs)) <= 1e-15
        assert np.max(np.abs(s_array - s_float)) <= err

    def test_table_built_once_across_float_and_array_calls(self, std, monkeypatch):
        # a panel-rule pi: one table per side, its mirror's above S(0), shared
        # by the float root and the array path, on one read-only y grid for
        # every table
        builds = []
        rule = mechanisms._table_rule
        monkeypatch.setattr(mechanisms, "_table_rule", lambda: builds.append(1) or rule())
        mech = cli.build_mechanism("skewsym-custom", {"pi": "logistic", "alpha": 2.0})
        dist = compose(std, mech)
        dist.quantile(1e-6)
        assert len(builds) == 1
        dist.quantile_array(np.array([1e-6, 0.05, 0.3, 0.9]))
        dist.cdf_array(np.array([-2.0, 0.5]))
        dist.quantile(0.3), dist.quantile(0.7), dist.quantile(1e-300)
        assert len(builds) == 2
        assert mech.mirror.mirror is mech
        grid = mech._cdf_table[0]
        assert grid is mech.mirror._cdf_table[0] is mechanisms._TABLE_Y
        assert not grid.flags.writeable and grid[0] == -13.0 and grid[-1] == 0.0

    def test_table_phi_is_made_on_first_use_and_read_only(self):
        # phi at the tables' nodes does not depend on pi: the first table
        # makes it, not import or construction, and no table can write to it
        code = ("from skewlab import cli, mechanisms; "
                "cli.build_mechanism('skewsym-custom', {'pi': 'logistic'}); "
                "print(mechanisms._table_rule.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0"
        nodes, weights, phi = mechanisms._table_rule()
        assert phi is mechanisms._table_rule()[2]
        assert phi.shape == (8192, 5) and not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[0, 0] = 0.0
        assert np.array_equal(phi, numcore.normal_pdf(mechanisms._table_nodes(nodes)))


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

    @pytest.mark.parametrize("family,params", [
        ("azzalini", {"alpha": 3.0}),
        ("skewsym-custom", {"pi": "logistic", "alpha": 2.0}),
        ("skewsym-custom", {"pi": "sign"}),
    ], ids=["azzalini-3", "pi-logistic-2", "pi-sign"])
    def test_tail_diagnostics_take_no_log_tail(self, family, params, std, monkeypatch, capsys):
        # a skew-symmetric tail mass is 2 Phi(-y) for every pi: the
        # diagnostics reach neither Owen's T nor the panel rule, and print
        # what they print with both in place
        argv = ["--family", family, *[f"--param={k}={v}" for k, v in params.items()]]

        def run(command):
            assert cli.main([command, *argv]) == 0
            return capsys.readouterr().out

        expected = {command: run(command) for command in ("tail", "check")}

        def forbidden(*args, **kwargs):
            raise AssertionError("a log tail was taken")

        monkeypatch.setattr(SkewSymmetric, "_rule_log_cdf", forbidden)
        monkeypatch.setattr(AzzaliniPi, "composed_log_cdf", forbidden)
        mech = cli.build_mechanism(family, dict(params))
        report = steutel_statistic(compose(std, mech), DEFAULT_Y_GRID)
        assert not any(row.flagged for row in report.rows)
        assert all(row.passed for row in verify_theorem1_bound(mech))
        assert divisibility_verdict(mech).verdict is Verdict.NOT_ID
        assert {command: run(command) for command in ("tail", "check")} == expected
        assert json.loads(expected["check"])["verdict"] == "NOT_ID"


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
    """Above S(0) the closed families invert their upper tail from 1 - q,
    exact in doubles there. Through x = Pinv(q) the tail is lost as x
    rounds to 1: MarshallOlkin(2) was 1.1e-4 off in ln at q = 1 - 1e-12,
    and TwoPiece(5, 0.1) raised DomainError from q = 0.999."""

    @pytest.mark.parametrize("mech,sf", UPPER_QUANTILE_LAWS)
    @pytest.mark.parametrize("q", [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_tail_mass_at_the_quantile(self, std, mech, sf, q):
        dist = compose(std, mech)
        # a float and a one-element array take one rule
        for y in (dist.quantile(q), float(dist.quantile_array(np.array([q]))[0])):
            # measured within 6e-15; 1 - q is exact in doubles
            assert abs(mp.log(sf(y)) - mp.log(1 - mp.mpf(q))) <= 2e-14

    @pytest.mark.parametrize("mech,sf", [law for law in UPPER_QUANTILE_LAWS
                                         if not isinstance(law.values[0], TwoPiece)])
    def test_lower_half_keeps_the_mechanism_quantile(self, std, mech, sf):
        # below S(0) = P(1/2), where x = Pinv(q) < 1/2 keeps its digits
        dist = compose(std, mech)
        s0 = mech.cdf_P(0.5)
        for q in (1e-9, 0.1, 0.5 * s0, math.nextafter(s0, 0.0)):
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


def _mp_sf(mech, y):
    """1 - S(y) of a closed family in mpmath; S(y) is its mirror's at -y."""
    if isinstance(mech, MarshallOlkin):
        return _mp_sf_marshall_olkin(mech.gamma, y)
    if isinstance(mech, TwoPiece):
        return _mp_sf_two_piece(mech.a, mech.b, y)
    return _mp_sf_order_statistics(mech.psi1, mech.psi2, y)


QUANTILE_RULE_LAWS = [
    pytest.param(MarshallOlkin(0.25), id="mo-0.25"),
    pytest.param(MarshallOlkin(2.0), id="mo-2"),
    pytest.param(TwoPiece(5.0, 0.1), id="twopiece-5-0.1"),
    pytest.param(TwoPiece(0.5, 2.0), id="twopiece-0.5-2"),
    pytest.param(TwoPiece.epsilon_skew(-0.5), id="twopiece-eps--0.5"),
    pytest.param(OrderStatistics(2.0, 3.0), id="orderstats-2-3"),
    pytest.param(OrderStatistics(0.01, 1.0), id="orderstats-0.01-1"),
]


class TestOneQuantileRule:
    """A closed family writes its quantile below S(0), where no argument of
    Phi^-1 exceeds 1/2, and takes minus its mirror's at 1 - q above, for a
    float and an array alike, with Phi^-1 from ln x where x underflows.
    Marshall-Olkin arrays went through x = Pinv(q) and a clip: MarshallOlkin(2)
    gave 8.2095 at q = 1 - 2^-53, where the float gave 8.2924, and
    MarshallOlkin(0.25) was 1.39 off in ln at q = 5e-324, where
    TwoPiece(0.5, 2) raised DomainError, for a float and an array."""

    @staticmethod
    def _levels(std, mech):
        s0 = compose(std, mech).cdf(0.0)
        return np.array([[5e-324, 1e-300, 1e-12],
                         [s0 * (1 - 1e-12), s0 * (1 + 1e-12), 0.5],
                         [1 - 1e-9, 1 - 1e-12, 1 - 2**-53]])

    @pytest.mark.parametrize("mech", QUANTILE_RULE_LAWS)
    def test_array_equals_floats(self, std, mech):
        dist, qs = compose(std, mech), self._levels(std, mech)
        got = dist.quantile_array(qs)
        assert got.shape == qs.shape
        assert np.array_equal(got, [[dist.quantile(float(q)) for q in row] for row in qs])

    @pytest.mark.parametrize("mech", QUANTILE_RULE_LAWS)
    def test_tail_mass_at_the_quantile(self, std, mech):
        # within 2e-13 in ln, plus what moving y by 2 ulps moves it: y is a
        # double, and ln S of TwoPiece(5, 0.1) has slope 370 at q = 1e-300
        qs = self._levels(std, mech)
        for q, y in zip(qs.ravel(), compose(std, mech).quantile_array(qs).ravel()):
            if q <= 0.5:
                log_tail, want = lambda t: mp.log(_mp_sf(mech.mirror, -t)), mp.log(q)
            else:
                log_tail, want = lambda t: mp.log(_mp_sf(mech, t)), mp.log(1 - mp.mpf(q))
            tol = 2e-13 + 2 * np.spacing(abs(y)) * abs(mp.diff(log_tail, y))
            assert abs(log_tail(y) - want) <= tol, (q, y)

    @pytest.mark.parametrize("mech,ys", [
        (MarshallOlkin(2.0), (-38.5, -38.0, -37.6)),
        (MarshallOlkin(0.25), (-38.5, -38.0, -37.6)),
        (TwoPiece(5.0, 0.1), (-3.85, -3.8, -3.76)),
    ], ids=["mo-2", "mo-0.25", "twopiece-5-0.1"])
    def test_cdf_array_keeps_a_subnormal_cdf(self, std, mech, ys):
        # ndtr is 0 from y ~ -37.68, where Phi(y) is still subnormal:
        # MarshallOlkin(2).cdf_array([-38]) was 0, where cdf gives 1.44e-316
        dist = compose(std, mech)
        # within 2e-13 relative plus 4 subnormal steps: scipy's ndtr and
        # log_ndtr are each up to 1.8e-13 off mpmath here
        got = dist.cdf_array(np.array(ys))
        want = np.array([dist.cdf(y) for y in ys])
        assert np.all(np.abs(got - want) <= 2e-13 * want + 4 * 5e-324)
        assert got[1] > 0.0


class TestClosedQuantileFromS0ToHalf:
    """From S(0) to 1/2 a closed family's quantile is minus its mirror's at
    level 1 - q, and the mirror is handed q as that level's complement.
    Through 1 - (1 - q) q's digits were lost where S(0) is small: each law
    here was 2.2e-5 to 1.3e-4 off in ln at q = 1e-12 and 2.9e-11 at 1e-6,
    and MarshallOlkin(1e20) and OrderStatistics(2000, 1) gave y = -inf at
    q = 1e-20, where 1 - q rounds to 1. OrderStatistics(50, 1) at 1e-20 is
    below its S(0) = 2^-50, on its own lower quantile."""

    @pytest.mark.parametrize("mech", [
        MarshallOlkin(1e20), OrderStatistics(50.0, 1.0), OrderStatistics(2000.0, 1.0),
        TwoPiece(1e20, 1.0),
    ], ids=["mo-1e20", "orderstats-50-1", "orderstats-2000-1", "twopiece-1e20-1"])
    @pytest.mark.parametrize("q", [1e-20, 1e-12, 1e-6, 0.3])
    def test_tail_mass_against_mpmath(self, std, mech, q):
        # within the 2e-13 in ln SkewedDistribution states; a float and a
        # one-element array take one rule
        dist = compose(std, mech)
        for y in (dist.quantile(q), float(dist.quantile_array(np.array([q]))[0])):
            assert math.isfinite(y)
            with mp.workdps(60):  # S(y) from the mirror's upper tail at -y
                log_cdf = mp.log(_mp_sf(mech.mirror, -y))
            assert abs(log_cdf - math.log(q)) <= 2e-13, (q, y, float(log_cdf))


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
    ("numeric-cdf_P", extract_mechanism(compose(StandardNormal(), MarshallOlkin(2.0)),
                                        StandardNormal()).cdf_P, "x must lie in [0, 1], got {s}"),
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

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf"), -0.5, 1.5])
    def test_extracted_mechanism_rejects_each_form(self, std, v):
        mech = extract_mechanism(compose(std, MarshallOlkin(2.0)), std)
        for x in _forms(v):
            with pytest.raises(DomainError) as info:
                mech.log_p(x)
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


# the far tails, where ln s reaches -800 and s underflows, the bulk, and
# either side of 0, where the two-piece scale and the sign pi switch
_DENSITY_YS = np.array([-40.0, -38.0, -30.0, -9.0, -1e-12, 0.0, 1e-12, 9.0, 30.0, 38.0, 40.0])
# Phi of those inside (0, 1), and the largest double below 1
_DENSITY_XS = normal_cdf(_DENSITY_YS)
_DENSITY_XS = np.append(_DENSITY_XS[(_DENSITY_XS > 0.0) & (_DENSITY_XS < 1.0)], 1.0 - 2.0**-53)
_DENSITY_LAWS = shipped_instances() + [
    (f"pi-{kind}", cli.build_mechanism("skewsym-custom", {"pi": kind, "alpha": 2.0}))
    for kind in ("half", "sign", "logistic", "cauchy-cdf")]


def _bit_differences(fn, grid) -> list[tuple[float, int]]:
    """(x, ulps apart) wherever fn of the array and fn of the float differ."""
    out = []
    for x, a in zip(grid, fn(grid)):
        a, b = np.float64(a), np.float64(fn(float(x)))
        if a.tobytes() != b.tobytes():
            out.append((float(x), abs(int(a.view(np.int64)) - int(b.view(np.int64)))))
    return out


class TestArrayDensities:
    """The densities take an array in one call and give it what they give
    each float in it, bit for bit: ``composed_log_pdf``,
    ``SkewedDistribution.log_pdf`` and ``pdf``, and the extracted
    mechanism's ``log_p`` and ``p``. Where a float path keeps ``math``'s exp
    and log (Marshall-Olkin, a pi without ``log``, every ``pdf``), numpy's
    SIMD kernels can differ from it in the last bit: on a 1,601-point grid
    of [-40, 40] (AVX-512, numpy 2.4) the log densities were up to 2 ulps
    apart at 2 to 5 points of a Marshall-Olkin law, and ``pdf`` 1 ulp apart
    at 2 to 5% of points (up to 23 for Marshall-Olkin, whose log differs).
    At these ordinates none differs; a failure lists each one in ulps."""

    @pytest.mark.parametrize("name,mech", _DENSITY_LAWS)
    def test_array_equals_float(self, name, mech, std):
        dist = compose(std, mech)
        extracted = extract_mechanism(dist, std)
        diffs = {
            "composed_log_pdf": _bit_differences(mech.composed_log_pdf, _DENSITY_YS),
            "log_pdf": _bit_differences(dist.log_pdf, _DENSITY_YS),
            "pdf": _bit_differences(dist.pdf, _DENSITY_YS),
            "extracted log_p": _bit_differences(extracted.log_p, _DENSITY_XS),
            "extracted p": _bit_differences(extracted.p, _DENSITY_XS),
        }
        assert diffs == {k: [] for k in diffs}

    def test_normal_source(self, std):
        # extract_mechanism(std, std) reads StandardNormal.log_pdf of an array
        mech = extract_mechanism(std, std)
        assert _bit_differences(mech.log_p, _DENSITY_XS) == []
        assert _bit_differences(mech.p, _DENSITY_XS) == []
        assert _bit_differences(std.log_pdf, _DENSITY_YS) == []
        assert _bit_differences(std.pdf, _DENSITY_YS) == []
        assert np.all(mech.p(_DENSITY_XS) == 1.0)

    @pytest.mark.parametrize("name,mech", _DENSITY_LAWS)
    def test_array_keeps_shape(self, name, mech, std):
        dist = compose(std, mech)
        ys = _DENSITY_YS[:6].reshape(2, 3)
        for fn in (mech.composed_log_pdf, dist.log_pdf, dist.pdf):
            out = fn(ys)
            assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        assert type(dist.log_pdf(np.array(0.3))) is float
        assert type(dist.pdf(np.array(0.3))) is float

    def test_user_source_takes_arrays_element_by_element(self, std):
        # a source that writes only a float pdf: the base log_pdf lifts it
        from skewlab.distributions import ContinuousDistribution

        class FloatOnly(ContinuousDistribution):
            def pdf(self, y):
                assert isinstance(y, float)
                return float(normal_pdf(y))

            def cdf(self, y):
                return std.cdf(y)

            def log_cdf(self, y):
                return std.log_cdf(y)

            def log_sf(self, y):
                return std.log_sf(y)

        mech = extract_mechanism(FloatOnly(), std)
        xs = np.linspace(0.01, 0.99, 9)
        assert np.max(np.abs(mech.p(xs) - 1.0)) <= 1e-15
        assert mech.p(xs.reshape(3, 3)).shape == (3, 3)

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_nan_in_an_array_raises(self, name, mech, std):
        dist = compose(std, mech)
        for fn in (dist.pdf, dist.log_pdf):
            with pytest.raises(DomainError, match="y must be finite"):
                fn(np.array([0.5, np.nan]))


# the density ordinates and the diagnostics' grid on both sides; the tail
# mass at their magnitudes
_TAIL_YS = np.concatenate([_DENSITY_YS, DEFAULT_Y_GRID, np.negative(DEFAULT_Y_GRID)])
_TAIL_MASS_YS = np.unique(np.abs(_TAIL_YS[_TAIL_YS != 0.0]))


# float arms the shipped laws seldom reach: the order-statistics series at a
# normal x, betaincc above 0, the two-piece erf form
_EXTREME_LAWS = [
    *[(f"orderstats-{a}-{b}", OrderStatistics(a, b))
      for a, b in ((5.0, 1e-3), (1e-3, 5.0), (0.5, 0.5), (200.0, 0.3))],
    *[(f"mo-{g}", MarshallOlkin(g)) for g in (1e-8, 1e8, 1.0 + 1e-15)],
    *[(f"twopiece-{a}-{b}", TwoPiece(a, b)) for a, b in ((5.0, 0.1), (0.1, 5.0), (1e-3, 1e3))],
]


class _FloatOnlyNormal(ContinuousDistribution):
    """A user's source whose methods take floats only."""

    def pdf(self, y):
        assert isinstance(y, float)
        return float(normal_pdf(y))

    def cdf(self, y):
        assert isinstance(y, float)
        return StandardNormal().cdf(y)

    def log_cdf(self, y):
        assert isinstance(y, float)
        return StandardNormal().log_cdf(y)

    def log_sf(self, y):
        assert isinstance(y, float)
        return StandardNormal().log_sf(y)


def _log_tail_differences(dist) -> dict:
    mech = getattr(dist, "mechanism", None)
    diffs = {"log_cdf": _bit_differences(dist.log_cdf, _TAIL_YS),
             "log_sf": _bit_differences(dist.log_sf, _TAIL_YS),
             "log_tail_mass": _bit_differences(lambda y: log_tail_mass(dist, y), _TAIL_MASS_YS)}
    if mech is not None:
        diffs["composed_log_cdf"] = _bit_differences(mech.composed_log_cdf, _TAIL_YS)
        diffs["composed_log_sf"] = _bit_differences(mech.composed_log_sf, _TAIL_YS)
    return diffs


class TestArrayLogTails:
    """Both log tails and the two-sided tail mass take an array in one call
    and give each element what its float gets, bit for bit:
    ``composed_log_cdf``, ``composed_log_sf``, ``log_cdf``, ``log_sf`` and
    ``log_tail_mass``. Every family takes each element by its float call,
    so no element can differ; a failure lists each one in ulps. Besides
    the shipped laws, extreme shapes run the float arms those seldom
    reach."""

    @pytest.mark.parametrize("name,mech", _DENSITY_LAWS + _EXTREME_LAWS)
    def test_array_equals_float(self, name, mech, std):
        dist = compose(std, mech)
        diffs = _log_tail_differences(dist)
        assert diffs == {k: [] for k in diffs}

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_extracted_mechanism(self, name, mech, std):
        rebuilt = compose(std, extract_mechanism(compose(std, mech), std))
        diffs = _log_tail_differences(rebuilt)
        assert diffs == {k: [] for k in diffs}

    def test_normal_and_float_only_sources(self, std):
        # the normal's kernels take arrays; a float-only source is lifted
        # element by element, directly and through the extracted mechanism
        source = _FloatOnlyNormal()
        for dist in (std, compose(std, extract_mechanism(source, std))):
            diffs = _log_tail_differences(dist)
            assert diffs == {k: [] for k in diffs}
        assert _bit_differences(lambda y: log_tail_mass(source, y), _TAIL_MASS_YS) == []
        assert np.array_equal(log_tail_mass(source, _TAIL_MASS_YS), log_tail_mass(std, _TAIL_MASS_YS))

    @pytest.mark.parametrize("name,mech", _DENSITY_LAWS + [
        ("numeric-mo-2", extract_mechanism(compose(StandardNormal(), MarshallOlkin(2.0)),
                                           StandardNormal()))])
    def test_array_keeps_shape(self, name, mech, std):
        dist = compose(std, mech)
        ys, positive = _DENSITY_YS[:6].reshape(2, 3), np.array(DEFAULT_Y_GRID[:6]).reshape(2, 3)
        for fn in (mech.composed_log_cdf, mech.composed_log_sf, dist.log_cdf, dist.log_sf):
            out = fn(ys)
            assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        out = log_tail_mass(dist, positive)
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        for fn in (dist.log_cdf, dist.log_sf, lambda y: log_tail_mass(dist, y)):
            assert type(fn(np.array(0.3))) is float
        # a float gets a Python float, the bits of its 1-element array's
        # element, also where Phi(y) rounds to 0 or 1 (-40 and 9): there the
        # extracted law's density is its source's
        ys = (-40.0, -38.0, -9.0, 0.3, 2.0, 9.0, 38.0)
        for fn, grid in ((dist.log_pdf, ys), (dist.log_cdf, ys), (dist.log_sf, ys),
                         (lambda y: log_tail_mass(dist, y), ys[3:])):
            for y in grid:
                v = fn(y)
                assert type(v) is float, (fn, y, type(v))
                assert np.float64(v).tobytes() == fn(np.array([y]))[0].tobytes(), (fn, y)

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_non_finite_in_an_array_raises(self, name, mech, std):
        dist = compose(std, mech)
        for bad in (np.nan, np.inf):
            for fn in (dist.log_cdf, dist.log_sf):
                with pytest.raises(DomainError, match="y must be finite"):
                    fn(np.array([0.5, bad]))
        with pytest.raises(DomainError, match="tail ordinate must be positive"):
            log_tail_mass(dist, np.array([2.0, np.nan]))
        with pytest.raises(DomainError, match="y must be finite"):
            log_tail_mass(dist, np.array([2.0, np.inf]))


_SKEW_SYMMETRIC_LAWS = [(name, mech) for name, mech in _DENSITY_LAWS
                        if isinstance(mech, SkewSymmetric)] + [
    (f"azzalini-{alpha}", SkewSymmetric.azzalini(alpha)) for alpha in (1e3, -1e3, 50.0, -50.0, -0.0)]
_SKEW_SYMMETRIC_TAIL_YS = np.array([*DEFAULT_Y_GRID, 25.0, 38.0, 40.0])


class TestSkewSymmetricTailMass:
    """A skew-symmetric law's two-sided tail mass is the normal's,
    ln 2 Phi(-y) (Wang, Boyer & Genton 2004), and the diagnostics take it
    so, without either log tail. These tests keep each law's own log tails
    checked against it: Azzalini's closed form gives it to the bit at
    these ordinates, and the named pis' panel rule within its documented
    1e-14 * max(1, |ln|)."""

    @pytest.mark.parametrize("name,mech", _SKEW_SYMMETRIC_LAWS)
    def test_log_tails_add_up_to_the_tail_mass(self, name, mech, std):
        dist, ys = compose(std, mech), _SKEW_SYMMETRIC_TAIL_YS
        from_tails = np.logaddexp(dist.log_cdf(-ys), dist.log_sf(ys))
        closed = log_tail_mass(dist, ys)
        if isinstance(mech.pi, AzzaliniPi):
            assert from_tails.tolist() == closed.tolist()
        else:
            assert np.all(np.abs(from_tails - closed) <= 1e-14 * np.maximum(1.0, np.abs(closed)))

    @pytest.mark.parametrize("name,mech", _SKEW_SYMMETRIC_LAWS)
    def test_tail_mass_is_the_normals(self, name, mech, std):
        ys = _SKEW_SYMMETRIC_TAIL_YS
        closed = log_tail_mass(compose(std, mech), ys)
        assert closed.tobytes() == log_tail_mass(std, ys).tobytes()
        want = np.array([float(mp.log(2 * mp.ncdf(-mp.mpf(float(y))))) for y in ys])
        assert np.all(np.abs(closed - want) <= 1e-15 * np.abs(want))


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

    @pytest.mark.parametrize("psi1,psi2", [(5.0, 1e-3), (0.01, 1.0), (0.01, 3.0), (1.0, 0.01),
                                           (2.0, 0.05), (1e-3, 5.0), (0.5, 0.5)])
    def test_array_equals_floats(self, std, psi1, psi2):
        # the array path clipped x into the open unit interval: (2, 0.05)
        # gave Phi^-1(1 - 2^-53) = 8.2095 at q = 0.99, where the float is 13.38
        dist = compose(std, OrderStatistics(psi1, psi2))
        qs = np.array([[1e-12, 1e-4, 0.0125, 0.03, 0.05, 0.1],
                       [0.3, 0.5, 0.99, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12]])
        got = dist.quantile_array(qs)
        assert got.shape == qs.shape
        assert np.array_equal(got, [[dist.quantile(float(q)) for q in row] for row in qs])
        assert not np.any(np.abs(got) == _CLIP)

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
                              1.362261812120059, -4.228611236551916, 4.897144084741115)),
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
