import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisect, mp_log_normal_sf, mp_normal_cdf, mp_normal_pdf, mp_reg_inc_beta
from skewlab import BracketingError, DomainError, Tolerance, numcore
from skewlab.numcore import (
    DEFAULT_TOL,
    find_root,
    integrate,
    inv_reg_inc_beta,
    log_beta,
    log_integrate,
    log_normal_cdf,
    log_normal_pdf,
    log_normal_sf,
    log_reg_inc_beta,
    log_reg_inc_beta_exp,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    reg_inc_beta,
)


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("y", [0.3, 1.0, 2.5, 7.0])
    def test_even(self, y):
        assert normal_pdf(y) == normal_pdf(-y)

    def test_far_tail(self):
        # oracle: mp_normal_pdf(10) at 40 digits
        assert normal_pdf(10.0) == pytest.approx(7.6945986267064193e-23, rel=1e-14)
        assert normal_pdf(10.0) == pytest.approx(mp_normal_pdf(10.0), rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            normal_pdf(float("inf"))
        with pytest.raises(DomainError):
            normal_pdf(float("nan"))


# past |y| = 1.34e154, where y^2 overflows a double
BEYOND_THE_SQUARE = (1.35e154, 1e155, 1e300, sys.float_info.max)


class TestNormalPdfPastTheSquare:
    """y^2 overflows to inf with no warning: the density is 0 and its log
    -inf, on the float path without np.errstate."""

    @pytest.mark.parametrize("v", BEYOND_THE_SQUARE + tuple(-y for y in BEYOND_THE_SQUARE))
    def test_zero_and_minus_inf_with_no_warning(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in _forms(v):  # v is last in each
                assert np.ravel(normal_pdf(y))[-1] == 0.0
                assert np.ravel(log_normal_pdf(y))[-1] == -np.inf

    def test_float_path_enters_no_errstate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.errstate was entered")

        monkeypatch.setattr(np, "errstate", forbidden)
        for y in (1e155, np.float64(-1e300), 0.7):
            numcore._log_normal_pdf(y), normal_pdf(y), log_normal_pdf(y)
        with pytest.raises(AssertionError, match="errstate"):
            numcore._log_normal_pdf(np.array([1e155]))

    def test_float_square_keeps_the_bits(self):
        mags = np.geomspace(1e-300, 1.3e154, 20001)
        ys = np.concatenate([-mags, [0.0], mags])
        want = -0.5 * np.square(ys) - 0.5 * numcore._LOG_2PI
        got = np.array([numcore._log_normal_pdf(float(y)) for y in ys])
        assert got.tobytes() == want.tobytes()
        assert numcore._log_normal_pdf(ys).tobytes() == want.tobytes()


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_log_sf_is_reflected_log_cdf(self):
        from skewlab.numcore import log_normal_cdf
        for y in np.linspace(-12, 12, 49):
            assert log_normal_sf(float(y)) == float(log_normal_cdf(float(-y)))

    def test_log_sf_deep(self):
        # oracle: mp_log_normal_sf
        assert log_normal_sf(10.0) == pytest.approx(-53.231285150512471, rel=1e-14)
        for y in (15.0, 25.0, 40.0):
            assert log_normal_sf(y) == pytest.approx(mp_log_normal_sf(y), rel=1e-13)

    def test_log_sf_strictly_decreasing(self):
        # below y ~ -37.5 the true value (~ -1e-350) underflows the double
        # range entirely, so strictness is asserted on the representable span
        ys = np.linspace(-37, 40, 386)
        vals = [log_normal_sf(float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_two_sided_consistency(self):
        for y in np.linspace(-8, 8, 33):
            total = math.exp(log_normal_sf(y)) + math.exp(log_normal_sf(-y))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_subnormal_tail(self):
        # ndtr is 0 from y ~ -37.68; Phi(-38) = 2.885e-316 is subnormal.
        # ndtr and log_ndtr are each up to 1.8e-13 relative off mpmath here
        ys = np.array([-38.5, -38.0, -37.6, -37.5, -30.0])
        want = [mp_normal_cdf(y) for y in ys]
        got = normal_cdf(ys)
        assert np.all(np.abs(got - want) <= 2e-13 * np.abs(want) + 2 * 5e-324)
        assert [normal_cdf(float(y)) for y in ys] == list(got)
        assert normal_cdf(np.array(-38.0)) == got[1]
        grid = np.array([[-38.0, -37.5], [-38.2, -30.0]]).T  # Fortran order
        assert np.array_equal(normal_cdf(grid), [[normal_cdf(float(y)) for y in row] for row in grid])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            normal_cdf(float("nan"))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_upper_975(self):
        # oracle: bisection on normal_cdf to 1e-12
        assert bisect(lambda y: normal_cdf(y) - 0.975, 0, 4) == pytest.approx(
            1.9599639845400542, abs=1e-11)
        assert normal_quantile(0.975) == pytest.approx(1.9599639845400542, abs=1e-12)

    @pytest.mark.parametrize("q", [0.01, 0.2, 0.77])
    def test_antisymmetric(self, q):
        assert normal_quantile(q) == pytest.approx(-normal_quantile(1 - q), abs=1e-12)

    @given(st.floats(min_value=-8, max_value=5.2))
    def test_roundtrip(self, y):
        # above y ~ 5.3 the double spacing of cdf values near 1 caps the
        # recoverable resolution, so the 1e-9 roundtrip is asserted where
        # the representation supports it
        assert normal_quantile(float(normal_cdf(y))) == pytest.approx(y, abs=1e-9)

    @given(st.floats(min_value=1e-15, max_value=1.0 - 1e-13))
    def test_reverse_roundtrip(self, q):
        assert float(normal_cdf(normal_quantile(q))) == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            normal_quantile(q)


class TestBeta:
    def test_log_beta_uniform(self):
        assert log_beta(1.0, 1.0) == 0.0

    def test_reg_inc_beta_uniform_is_identity(self):
        for x in np.linspace(0, 1, 11):
            assert reg_inc_beta(float(x), 1.0, 1.0) == pytest.approx(x, abs=1e-15)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_oracle(self):
        for a, b in ((0.5, 2.0), (2.0, 5.0), (1.2, 1.2)):
            for x in (0.05, 0.4, 0.9):
                assert reg_inc_beta(x, a, b) == pytest.approx(
                    mp_reg_inc_beta(x, a, b), rel=1e-13)

    def test_inverse_roundtrip(self):
        qs = np.arange(0.01, 1.0, 0.01)
        for a in (0.5, 1.0, 2.0, 5.0):
            for b in (0.5, 1.0, 2.0, 5.0):
                x = inv_reg_inc_beta(qs, a, b)
                back = reg_inc_beta(x, a, b)
                assert np.max(np.abs(back - qs)) <= 1e-9

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 101)
        vals = reg_inc_beta(xs, 1.5, 3.0)
        assert np.all(np.diff(vals) >= 0)

    def test_log_form_matches_direct(self):
        for a, b in ((1.2, 5.0), (3.0, 1.5), (2.0, 2.0)):
            for x in (1e-3, 0.2, 0.7):
                assert log_reg_inc_beta(x, a, b) == pytest.approx(
                    math.log(mp_reg_inc_beta(x, a, b)), rel=1e-12)

    def test_log_form_underflow_range(self):
        # oracle: mpmath at eps = Phi(-30), far below double underflow of
        # the direct incomplete beta for these shapes
        log_eps = log_normal_sf(30.0)
        assert log_reg_inc_beta_exp(log_eps, 1.2, 5.0) == pytest.approx(
            -543.32819525691313, rel=1e-12)
        assert log_reg_inc_beta_exp(log_eps, 3.0, 1.5) == pytest.approx(
            -1362.18097252978, rel=1e-12)

    def test_log_form_identity_exact(self):
        for v in (-700.0, -53.2, -1.0):
            assert log_reg_inc_beta_exp(v, 1.0, 1.0) == v

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            inv_reg_inc_beta(0.0, 1.0, 1.0)


class TestFindRoot:
    @pytest.fixture(autouse=True, scope="class")
    def _root_finder_loaded(self):
        # the first find_root call in a process imports scipy.optimize, about
        # 0.2 s: pay it here, not in a hypothesis example under its deadline
        find_root(lambda y: y, -1.0, 1.0)

    def test_identity(self):
        assert find_root(lambda y: y, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_normal_median(self):
        r = find_root(lambda y: float(normal_cdf(y)) - 0.5, -5.0, 5.0)
        assert r == pytest.approx(0.0, abs=1e-10)

    def test_sqrt2(self):
        # oracle: bisection
        expect = bisect(lambda y: y * y - 2.0, 0.0, 2.0)
        r = find_root(lambda y: y * y - 2.0, 0.0, 2.0)
        assert r == pytest.approx(expect, abs=1e-11)
        assert r == pytest.approx(1.414213562373095, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketingError):
            find_root(lambda y: y * y + 1.0, -1.0, 1.0)

    def test_iteration_budget_exhausted(self):
        from skewlab import ConvergenceError
        tight = Tolerance(abs_tol=1e-15, rel_tol=1e-10, max_iter=1)
        with pytest.raises(ConvergenceError) as info:
            find_root(lambda y: math.cos(y) - y, 0.0, 1.5, tight)
        assert info.value.partial is not None

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.1, max_value=4))
    @settings(max_examples=50)
    def test_shifted_cubic(self, c, scale):
        fn = lambda y: scale * (y - c) ** 3 + (y - c)
        r = find_root(fn, c - 10.0, c + 10.0)
        assert r == pytest.approx(c, abs=1e-7)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_normal_total_mass(self):
        total = integrate(lambda t: float(normal_pdf(t)), float("-inf"), float("inf"))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_normal_partial(self):
        # oracle: extended-precision Phi(4/3)
        v = integrate(lambda t: float(normal_pdf(t)), float("-inf"), 4.0 / 3.0)
        assert v == pytest.approx(0.90878878027413213, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda t: 1.0, 2.0, 2.0) == 0.0

    def test_quadrature_matches_log_sf(self):
        for y in (0.5, 2.0, 5.0, 8.0):
            mass = integrate(lambda t: float(normal_pdf(t)), y, float("inf"))
            assert mass == pytest.approx(math.exp(log_normal_sf(y)), rel=1e-10)

    def test_subdivision_budget_exhausted(self):
        from skewlab import ConvergenceError
        tight = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=2)
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda t: math.sin(1.0 / t) if t != 0.0 else 0.0, 1e-6, 1.0, tight)
        assert info.value.partial is not None


class TestLogIntegrate:
    def test_matches_linear_scale(self):
        v = log_integrate(lambda t: float(-0.5 * t * t - 0.918938533204672742), float("-inf"), float("inf"))
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_deep_tail(self):
        # integral of the normal density over [30, inf) in log space
        from skewlab.numcore import log_normal_pdf
        v = log_integrate(lambda t: float(log_normal_pdf(t)), 30.0, float("inf"))
        assert v == pytest.approx(mp_log_normal_sf(30.0), rel=1e-10)

    def test_all_zero_integrand(self):
        assert log_integrate(lambda t: float("-inf"), 0.0, 1.0) == float("-inf")


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_tol == 1e-12
        assert DEFAULT_TOL.rel_tol == 1e-10
        assert DEFAULT_TOL.max_iter == 200

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0}, {"abs_tol": -1.0}, {"rel_tol": 0.0}, {"max_iter": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)


def _forms(v):
    """v as a float, an np.float64, a 0-d array and inside an array."""
    return (float(v), np.float64(v), np.array(v), np.array([0.5, v]))


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


NON_FINITE = (float("nan"), float("inf"), float("-inf"))
NORMAL_KERNELS = (normal_pdf, log_normal_pdf, normal_cdf, log_normal_cdf, log_normal_sf)


class TestGuards:
    """A float (np.float64 included) is checked with math and chained
    comparisons, anything else with numpy; either way a bad argument
    raises the same DomainError, and the value does not depend on the
    path."""

    @pytest.mark.parametrize("fn", NORMAL_KERNELS)
    @pytest.mark.parametrize("v", NON_FINITE)
    def test_non_finite_y(self, fn, v):
        for y in _forms(v):
            with pytest.raises(DomainError) as info:
                fn(y)
            assert str(info.value) == f"y must be finite, got {y!r}"

    @pytest.mark.parametrize("v", NON_FINITE + (0.0, 1.0, -0.5, 1.5))
    def test_open_unit_arguments(self, v):
        for q in _forms(v):
            with pytest.raises(DomainError) as info:
                normal_quantile(q)
            assert str(info.value) == f"quantile argument must lie in (0, 1), got {q!r}"
            with pytest.raises(DomainError) as info:
                inv_reg_inc_beta(q, 2.0, 3.0)
            assert str(info.value) == f"q must lie in (0, 1), got {q!r}"

    @pytest.mark.parametrize("v", NON_FINITE + (-0.5, 1.5, -1e-300))
    def test_closed_unit_argument(self, v):
        for x in _forms(v):
            with pytest.raises(DomainError) as info:
                reg_inc_beta(x, 2.0, 3.0)
            assert str(info.value) == f"x must lie in [0, 1], got {x!r}"

    def test_float_and_zero_d_agree_bitwise(self):
        ys = np.linspace(-40.0, 40.0, 161)
        xs = np.linspace(0.0, 1.0, 41)
        qs = xs[1:-1]
        cases = [(fn, ys) for fn in NORMAL_KERNELS] + [
            (normal_quantile, qs),
            (lambda x: reg_inc_beta(x, 2.0, 3.0), xs),
            (lambda q: inv_reg_inc_beta(q, 0.5, 0.5), qs),
        ]
        for fn, grid in cases:
            for v in grid:
                assert _bits(fn(float(v))) == _bits(fn(np.array(v))), (fn, v)

    def test_scalar_guards_use_no_numpy_reduction(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.all was called")

        monkeypatch.setattr(np, "all", forbidden)
        assert normal_cdf(0.7) == normal_cdf(np.float64(0.7))
        log_normal_sf(0.7), normal_quantile(0.3), reg_inc_beta(0.3, 2.0, 3.0)
        inv_reg_inc_beta(0.3, 2.0, 3.0)
        # an array's finiteness is the ndarray's own reduction, not np.all's
        assert normal_cdf(np.array([0.7]))[0] == normal_cdf(0.7)
        with pytest.raises(DomainError):
            normal_cdf(np.array([0.7, np.inf]))
