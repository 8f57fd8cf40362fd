"""Skewing mechanisms on (0, 1) and their composition with the standard normal.

A skewing mechanism is a distribution P on the unit interval with density
p. Composing it with the standard normal, the only base, gives a skewed
distribution S with density s(y) = phi(y) * p(Phi(y)) and CDF
S(y) = P(Phi(y)). Four families are implemented:

* ``SkewSymmetric``: p(x) = 2*pi(Phi^-1(x)) for a skewing function pi with
  0 <= pi <= 1 and pi(-y) = 1 - pi(y); ``AzzaliniPi`` packages the
  pi(y) = Phi(alpha*y) instance.
* ``OrderStatistics``: p is a Beta(psi1, psi2) density.
* ``MarshallOlkin``: p(x) = gamma / (x + gamma*(1-x))^2.
* ``TwoPiece``: differently scaled halves of the normal density on either
  side of 0, with the epsilon-skew and inverse-scale-factor
  parameterizations as named constructors.

Each family writes its CDF and quantile once, in its own coordinate,
for a float or an ndarray of any shape (a 0-d input returns a float):
Marshall-Olkin and order statistics in x (``cdf_P``, ``quantile_P``),
the two-piece and skew-symmetric laws in y (``composed_cdf``,
``composed_quantile``). Each pair defaults to the other through Phi.
Log tails stay finite out to |y| ~ 40, where S is numerically 0 or 1. A
family writes the lower one, ``composed_log_cdf``: closed or series
forms, or for ``SkewSymmetric`` pi's own (``AzzaliniPi``, through Owen's
T), else quadrature. Its ``mirror``, the mechanism x -> 1 - P(1 - x) of
-Y, is in the same family and gives the upper tail at -y and the
quantiles above 1/2 at 1 - q. ``SkewSymmetric`` roots a float's quantile.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cache, cached_property, wraps
from typing import Callable

import numpy as np
from scipy import special as _sp

from . import numcore
from .distributions import ContinuousDistribution, RngState, StandardNormal
from .errors import DomainError, ParameterError
from .numcore import DEFAULT_TOL, LogProb, Tolerance

__all__ = [
    "SkewingMechanism",
    "AzzaliniPi",
    "SkewSymmetric",
    "OrderStatistics",
    "MarshallOlkin",
    "TwoPiece",
    "NumericMechanism",
    "SkewedDistribution",
    "compose",
    "extract_mechanism",
    "sample_skewed",
    "sample_flip",
    "mo_cdf_P",
    "twopiece_cdf",
]

_STD = StandardNormal()
_NEG_INF = float("-inf")
_INF = float("inf")
_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_NORMAL_Q3 = 0.6744897501960817  # Phi^-1(3/4)
# the open unit interval's ends in doubles, where Phi^-1 stays finite
_TINY, _TOP = 5e-324, 1.0 - 2**-53


def _out(v):
    """A Python float for a 0-d result, the array otherwise."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _within(x, open_: bool, what: str = "x"):
    """x as a float (for a float or 0-d input) or a float array, checked to
    lie in [0, 1], or in (0, 1) if open_."""
    x = float(x) if isinstance(x, float) else _out(np.asarray(x, dtype=float))
    if not numcore._in_unit(x, open_):
        raise DomainError(f"{what} must lie in {'(0, 1)' if open_ else '[0, 1]'}, got {x}")
    return x


def _log1mexp(v: float) -> float:
    """ln(1 - e^v) for v <= 0."""
    return math.log1p(-math.exp(v)) if v < 0.0 else _NEG_INF


class SkewingMechanism(ABC):
    """A distribution P on (0, 1) used to skew the standard normal.

    A family defines one of each pair ``p``/``log_p``, ``cdf_P``/``composed_cdf``
    and ``quantile_P``/``composed_quantile``; the other follows from it here.
    It writes ``composed_log_cdf`` and ``mirror``, the mechanism of -Y, whose
    lower tail and quantiles are this one's upper ones.
    Instances are immutable and validated at construction; all evaluation
    methods are pure. ``analytic_sup`` is an upper bound for p known in
    closed form, or None; ``is_identity`` reports whether the composition
    with the normal is a normal distribution (the escape hatch of the
    non-divisibility rules). ``epsilon_skew_gamma`` is the g of the
    epsilon-skew two-piece law the composition rescales, or None;
    ``bound_note`` is a caveat on the use of ``analytic_sup``, or None.
    """

    epsilon_skew_gamma: float | None = None
    bound_note: str | None = None

    def p(self, x):
        """Mechanism density at x in [0, 1]."""
        with np.errstate(over="ignore"):
            return _out(np.exp(self.log_p(x)))

    def log_p(self, x):
        """ln p(x)."""
        with np.errstate(divide="ignore"):
            return _out(np.log(self.p(x)))

    def cdf_P(self, x):
        """Mechanism CDF at x in [0, 1]: S(Phi^-1(x))."""
        x = _within(x, open_=False)
        if isinstance(x, float):
            return self.composed_cdf(_STD.quantile(x)) if 0.0 < x < 1.0 else x
        inner = (x > 0.0) & (x < 1.0)
        z = numcore.normal_quantile(np.where(inner, x, 0.5))
        return np.where(inner, self.composed_cdf(z), x)

    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        """Inverse of cdf_P on (0, 1); ``tol`` reaches iterative inversions."""
        return _out(numcore.normal_cdf(self.composed_quantile(q, tol)))

    @property
    def analytic_sup(self) -> float | None:
        return None

    @property
    def is_identity(self) -> bool:
        return False

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Ordinates (in y-space) where the composed density is not smooth."""
        return ()

    # -- composition hooks; the CDF and quantile also take arrays ----------

    def composed_cdf(self, y):
        """S(y) = cdf_P(Phi(y)) at finite y."""
        return self.cdf_P(numcore.normal_cdf(y))

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        """The y with S(y) = q, for q in (0, 1): minus the mirror's at 1 - q,
        exact, for a float q > 1/2; else Phi^-1(quantile_P(q)), with an
        array's x clipped into the doubles' open unit interval."""
        if isinstance(q, float) and 0.5 < q < 1.0:
            return 0.0 - self.mirror.composed_quantile(1.0 - q, tol)  # 0.0, not -0.0
        x = self.quantile_P(q, tol)
        if isinstance(x, float):
            return _STD.quantile(x)
        return numcore.normal_quantile(np.clip(x, _TINY, _TOP))

    def composed_log_pdf(self, y: float) -> float:
        return _STD.log_pdf(y) + self.log_p(_STD.cdf(y))

    @abstractmethod
    def composed_log_cdf(self, y: float) -> LogProb:
        """ln S(y), finite far past the underflow of S(y)."""

    def composed_log_sf(self, y: float) -> LogProb:
        """ln(1 - S(y)), finite far past the rounding of S(y) to 1."""
        return self.mirror.composed_log_cdf(-y)


def _composed_cdf(mech: SkewingMechanism, y: float) -> float:
    """P(Phi(y)) from the smaller tail, so that neither rounds to 0 or 1
    before it is taken: 1 - exp(log_sf) only where 1 - S(y) <= 1/2."""
    if y > 0.0:
        log_sf = mech.composed_log_sf(y)
        if log_sf <= -_LOG2:
            return -math.expm1(log_sf)
    return math.exp(min(0.0, mech.composed_log_cdf(y)))


# exact +-pairs; excludes 0, where indicator-style pi may break symmetry
_HALF_GRID = np.linspace(0.016, 8.0, 500)
_SYMMETRIC_GRID = np.concatenate([-_HALF_GRID[::-1], _HALF_GRID])
_SYMMETRIC_GRID.flags.writeable = False


class AzzaliniPi:
    """Skewing function pi(y) = Phi(alpha * y).

    It also carries the log tails of the law it composes to, the
    skew-normal with density 2 phi(y) Phi(alpha y), in closed form;
    ``SkewSymmetric`` uses them in place of quadrature.
    """

    def __init__(self, alpha: float):
        if not math.isfinite(alpha):
            raise ParameterError(f"alpha must be finite, got {alpha!r}")
        self.alpha = float(alpha)

    def __call__(self, y):
        return numcore.normal_cdf(self.alpha * y)

    def log(self, y):
        return numcore.log_normal_cdf(self.alpha * y)

    @cached_property
    def mirror(self) -> "AzzaliniPi":
        """pi(-y) = Phi(-alpha y)."""
        return AzzaliniPi(-self.alpha)

    def composed_log_cdf(self, y: float) -> LogProb:
        """ln S(y) of the skew-normal law."""
        return _sn_log_cdf(y, self.alpha)

    def __repr__(self) -> str:
        return f"AzzaliniPi(alpha={self.alpha})"


# The skew-normal CDF is S(y) = Phi(y) - 2 T(y, alpha), T Owen's function
# (Azzalini 1985). For alpha > 0 the difference cancels on the light side,
# y < 0: for alpha = 3 it is 0 in doubles at y = -5, where ln S = -132.8.
# There S(-h) is taken as a positive integral, Owen's T integral from
# alpha to infinity, 1/pi int_alpha^inf exp(-h^2 (1+x^2)/2) / (1+x^2) dx,
# under x = t/h:
#     S(-h) = exp(-h^2/2) / (pi h) * int_c^inf exp(-t^2/2) / (1 + t^2/h^2) dt,
# c = alpha h. Gauss-Laguerre in v = (t^2 - c^2)/2 takes the integral from
# max(c, _LAGUERRE_FROM), where the branch point of t(v) at v = -c^2/2 is
# far enough out for 64 nodes; Gauss-Legendre takes the stretch from c up
# to it, which is clear of the poles t = +-ih while h sqrt(1 + alpha^2)
# stays above _NEAR_MODE. Nearer the mode Owen's T itself is used. The
# switch points were chosen by the error against mpmath, which
# ``SkewSymmetric`` states.
_LAGUERRE_FROM = 3.0
_NEAR_MODE = 0.5


@cache
def _gauss_rules() -> tuple[np.ndarray, ...]:
    """Gauss-Laguerre (64) and Gauss-Legendre (32) nodes and weights, made
    on first use: the eigensolves take about 10 ms, too much for import."""
    return (*np.polynomial.laguerre.laggauss(64), *np.polynomial.legendre.leggauss(32))


def _laguerre_tail(c: float, h: float) -> float:
    """exp(c^2/2) * int_c^inf exp(-t^2/2) / (1 + t^2/h^2) dt for c > 0."""
    x, w = _gauss_rules()[:2]
    t = np.sqrt(c * c + 2.0 * x)
    return float(w @ (1.0 / (t * (1.0 + (t / h) ** 2))))


def _sn_cdf_owen(y: float, alpha: float) -> float:
    """S(y) from Owen's T for alpha >= 0, to rounding near the mode and
    between 0 and the median. For alpha > 1 it uses Owen's reflection
    T(h, a) + T(ah, 1/a) = (Phi(h) + Phi(ah))/2 - Phi(h) Phi(ah), h, a >= 0,
    whose two terms have one sign for y >= 0; erf(y/sqrt 2) = 2 Phi(y) - 1."""
    if alpha <= 1.0:
        return float(_sp.ndtr(y) - 2.0 * _sp.owens_t(y, alpha))
    c = alpha * y
    return float(2.0 * _sp.owens_t(c, 1.0 / alpha) + _sp.ndtr(c) * math.erf(y / _SQRT2))


def _sn_log_light(h: float, alpha: float) -> LogProb:
    """ln S(-h) for alpha >= 0 and h >= 0."""
    if h * math.hypot(1.0, alpha) < _NEAR_MODE:
        return math.log(_sn_cdf_owen(-h, alpha))
    c = alpha * h
    log_front = -0.5 * h * h - math.log(math.pi * h)
    if c >= _LAGUERRE_FROM:
        return log_front - 0.5 * c * c + math.log(_laguerre_tail(c, h))
    x, w = _gauss_rules()[2:]
    half = 0.5 * (_LAGUERRE_FROM - c)
    t = (c + half) + half * x
    mass = half * float(w @ (np.exp(-0.5 * t * t) / (1.0 + (t / h) ** 2)))
    mass += math.exp(-0.5 * _LAGUERRE_FROM**2) * _laguerre_tail(_LAGUERRE_FROM, h)
    return log_front + math.log(mass)


def _sn_log_heavy(h: float, alpha: float) -> LogProb:
    """ln(1 - S(h)) for alpha >= 0 and h >= 0: 1 - S(h) = 2 Phi(-h) - S(-h),
    where S(-h) <= Phi(-h), so nothing cancels."""
    log_2sf = _LOG2 + float(_sp.log_ndtr(-h))
    return log_2sf + math.log1p(-math.exp(_sn_log_light(h, alpha) - log_2sf))


def _sn_log_cdf(y: float, alpha: float) -> LogProb:
    """ln S(y) of the law 2 phi(y) Phi(alpha y)."""
    # S_alpha(y) = 1 - S_-alpha(-y), at most 1/2 past 0; -0.0 mirrors 0.0
    if math.copysign(1.0, alpha) < 0.0:
        return _sn_log_heavy(-y, -alpha) if y <= 0.0 else _log1mexp(_sn_log_light(y, -alpha))
    if y <= 0.0:
        return _sn_log_light(-y, alpha)
    log_sf = _sn_log_heavy(y, alpha)
    # below the median S(y) may still be small: 1 - exp(log_sf) would cancel
    return _log1mexp(log_sf) if log_sf < -_LOG2 else math.log(_sn_cdf_owen(y, alpha))


class SkewSymmetric(SkewingMechanism):
    """Mechanism with p(x) = 2 * pi(Phi^-1(x)), written in y.

    ``pi`` maps the real line to [0, 1] with pi(-y) = 1 - pi(y) almost
    everywhere, and maps an array to an array of its shape; both are
    checked at construction. Composed densities are 2 * phi(y) * pi(y).

    pi may carry ``log``, ``composed_log_cdf`` (ln S) and ``mirror`` (pi(-y)
    as such an object), as ``AzzaliniPi`` does; the mirror mechanism is
    ``SkewSymmetric(pi.mirror)``, else that of pi(-y). ln S is pi's, else
    log-space adaptive quadrature to ``DEFAULT_TOL``. Azzalini's closed form,
    through Owen's T, is within 1e-14 * max(1, |ln S|) of mpmath for
    |alpha| <= 1e3 and |y| <= 40 (tests/test_mechanisms.py,
    ``TestAzzaliniClosedForm``). By quadrature, at y <= 0 it integrates
    from y outward; at y >= Phi^-1(3/4) it is ln(1 - e^v), v the log of
    the integral over [y, inf), at most ln(1/2) as 2 phi pi <= 2 phi; in
    between, ln(S(0) + the integral over [0, y]), which does not cancel.

    At a float the CDF comes from the smaller log tail, and a quantile is
    the root in y on the tail on q's side of 1/2. Arrays interpolate a
    cached CDF table, read in y on [-13, 13] with step h = 26/16384. Its
    error in probability is at most h^2/8 * max|s'|, s the composed
    density: 1.2e-7 for Azzalini |alpha| = 1, 3.0e-7 for alpha = 3,
    5.0e-6 for alpha = 50.
    """

    _TABLE_SPAN = 13.0
    _TABLE_N = 16385

    def __init__(self, pi: Callable):
        self.pi = pi
        self._log_pi = getattr(pi, "log", None)
        self._pi_log_cdf = getattr(pi, "composed_log_cdf", None)
        try:
            vals = np.asarray(pi(_SYMMETRIC_GRID), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"pi must accept an array: {exc}") from exc
        if vals.shape != _SYMMETRIC_GRID.shape:
            raise ParameterError("pi must return an array shaped like its input")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ParameterError("pi must map into [0, 1]")
        if not np.all(np.abs(vals + vals[::-1] - 1.0) <= 1e-12):
            raise ParameterError("pi must satisfy pi(-y) = 1 - pi(y)")

    @classmethod
    def azzalini(cls, alpha: float) -> "SkewSymmetric":
        return cls(AzzaliniPi(alpha))

    @cached_property
    def mirror(self) -> "SkewSymmetric":
        pi = self.pi
        mirror = SkewSymmetric(pi.mirror if hasattr(pi, "mirror") else lambda y: pi(-y))
        mirror.mirror = self
        return mirror

    def _log_pi_at(self, t: float) -> float:
        if self._log_pi is not None:
            return float(self._log_pi(t))
        v = float(self.pi(t))
        return math.log(v) if v > 0.0 else _NEG_INF

    def p(self, x):
        z = numcore.normal_quantile(_within(x, open_=True))
        return _out(2.0 * np.asarray(self.pi(z), dtype=float))

    def composed_log_pdf(self, y: float) -> float:
        return _LOG2 + self._log_pi_at(y) + _STD.log_pdf(y)

    def _log_mass(self, lo: float, hi: float) -> LogProb:
        return min(0.0, numcore.log_integrate(self.composed_log_pdf, lo, hi))

    @cached_property
    def _log_s0(self) -> LogProb:
        """ln S(0); the mirror's is this law's ln(1 - S(0))."""
        return self._log_mass(_NEG_INF, 0.0)

    # Quadpack can miss the bulk of an infinite interval that holds it, so
    # no integral below crosses 0.

    def composed_log_cdf(self, y: float) -> LogProb:
        if self._pi_log_cdf is not None:
            return self._pi_log_cdf(y)
        if y <= 0.0:
            return self._log_mass(_NEG_INF, y)
        if y < _NORMAL_Q3:
            return float(np.logaddexp(self._log_s0, self._log_mass(0.0, y)))
        return _log1mexp(self._log_mass(y, _INF))

    def composed_cdf(self, y):
        if isinstance(y, float):
            return _composed_cdf(self, y)
        numcore._require_finite(y)
        y_grid, cdf = self._cdf_table
        return np.interp(y, y_grid, cdf, left=0.0, right=1.0)

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        if not isinstance(q, float):
            y_grid, cdf = self._cdf_table
            return np.interp(q, cdf, y_grid)
        # Above 1/2 the root is taken on the upper log tail, where 1 - q is
        # exact and the CDF would have rounded to 1 long before.
        if q <= 0.5:
            def fn(t):
                return _composed_cdf(self, t) - q
        else:
            log_1mq = math.log1p(-q)

            def fn(t):
                return log_1mq - self.composed_log_sf(t)
        lo, hi = -1.0, 1.0
        while fn(lo) > 0.0 and lo > -40.0:
            lo *= 2.0
        while fn(hi) < 0.0 and hi < 40.0:
            hi *= 2.0
        return numcore.find_root(fn, lo, hi, tol)

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(y grid, CDF values): panel-by-panel Gauss quadrature of the
        composed density, anchored by the exact log tail at the left end."""
        y = np.linspace(-self._TABLE_SPAN, self._TABLE_SPAN, self._TABLE_N)
        nodes, weights = np.polynomial.legendre.leggauss(5)
        mid = 0.5 * (y[:-1] + y[1:])
        half = 0.5 * (y[1] - y[0])
        t = mid[:, None] + half * nodes[None, :]
        w = 2.0 * np.asarray(self.pi(t.ravel()), dtype=float).reshape(t.shape)
        w *= np.asarray(numcore.normal_pdf(t.ravel())).reshape(t.shape)
        panels = half * (w @ weights)
        left = math.exp(self.composed_log_cdf(float(y[0])))
        cdf = np.concatenate([[left], left + np.cumsum(panels)])
        return y, cdf

    @property
    def analytic_sup(self) -> float:
        return 2.0  # p = 2*pi <= 2 always

    @cached_property
    def is_identity(self) -> bool:
        vals = np.asarray(self.pi(_SYMMETRIC_GRID), dtype=float)
        return bool(np.all(np.abs(vals - 0.5) <= 1e-12))

    def __repr__(self) -> str:
        return f"SkewSymmetric(pi={self.pi!r})"


class OrderStatistics(SkewingMechanism):
    """Beta(psi1, psi2) mechanism: p(x) = x^(psi1-1)(1-x)^(psi2-1)/B."""

    def __init__(self, psi1: float, psi2: float):
        if not (psi1 > 0 and psi2 > 0 and math.isfinite(psi1) and math.isfinite(psi2)):
            raise ParameterError(f"shape parameters must be positive, got ({psi1!r}, {psi2!r})")
        self.psi1 = float(psi1)
        self.psi2 = float(psi2)
        self._log_b = numcore.log_beta(self.psi1, self.psi2)
        if min(self.psi1, self.psi2) == 1.0:
            self.bound_note = ("boundary shape parameter equal to 1: density bound "
                               "still holds, outside the strict >1 sufficient condition")

    def _log_p_from_logs(self, log_x, log_1mx):
        out = -self._log_b
        if self.psi1 != 1.0:
            out += (self.psi1 - 1.0) * log_x
        if self.psi2 != 1.0:
            out += (self.psi2 - 1.0) * log_1mx
        return out

    def log_p(self, x):
        x = _within(x, open_=False)
        with np.errstate(divide="ignore"):
            return _out(self._log_p_from_logs(np.log(x), np.log1p(-x)))

    def cdf_P(self, x):
        return _out(numcore.reg_inc_beta(x, self.psi1, self.psi2))

    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        return _out(numcore.inv_reg_inc_beta(q, self.psi1, self.psi2))

    @cached_property
    def mirror(self) -> "OrderStatistics":
        return OrderStatistics(self.psi2, self.psi1)  # 1 - I_x(a, b) = I_{1-x}(b, a)

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        if not (isinstance(q, float) and 0.0 < q <= 0.5):
            return super().composed_quantile(q, tol)
        x = numcore.inv_reg_inc_beta(q, self.psi1, self.psi2)
        if x >= numcore._SMALLEST_NORMAL:
            return _STD.quantile(float(x))
        # I_x = x^psi1 / (psi1 B) to the series' first term, in logs: x underflows
        return float(_sp.ndtri_exp((math.log(q) + math.log(self.psi1) + self._log_b) / self.psi1))

    def composed_log_pdf(self, y: float) -> float:
        return _STD.log_pdf(y) + self._log_p_from_logs(_STD.log_cdf(y), _STD.log_sf(y))

    def composed_log_cdf(self, y: float) -> LogProb:
        return numcore.log_reg_inc_beta_exp(_STD.log_cdf(y), self.psi1, self.psi2)

    @property
    def analytic_sup(self) -> float | None:
        if self.psi1 < 1.0 or self.psi2 < 1.0:
            return None  # density diverges at an endpoint
        if self.psi1 == 1.0 and self.psi2 == 1.0:
            return 1.0
        denom = self.psi1 + self.psi2 - 2.0
        mode = (self.psi1 - 1.0) / denom
        return self.p(mode)

    @property
    def is_identity(self) -> bool:
        return self.psi1 == 1.0 and self.psi2 == 1.0

    def __repr__(self) -> str:
        return f"OrderStatistics(psi1={self.psi1}, psi2={self.psi2})"


class MarshallOlkin(SkewingMechanism):
    """Odds-tilting mechanism: p(x) = gamma / (x + gamma*(1-x))^2."""

    def __init__(self, gamma: float):
        if not (gamma > 0 and math.isfinite(gamma) and math.isfinite(1.0 / gamma)):
            raise ParameterError(f"gamma and 1/gamma must be positive and finite, got {gamma!r}")
        self.gamma = float(gamma)

    def p(self, x):
        x = _within(x, open_=False)
        den = x + self.gamma * (1.0 - x)
        return _out(self.gamma / (den * den))

    def cdf_P(self, x):
        return mo_cdf_P(self.gamma, x)

    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        return _out(self.gamma * q / (1.0 - (1.0 - self.gamma) * q))

    @cached_property
    def mirror(self) -> "MarshallOlkin":
        mirror = MarshallOlkin(1.0 / self.gamma)
        mirror.mirror = self  # 1/(1/gamma) need not round to gamma
        return mirror

    def composed_log_pdf(self, y: float) -> float:
        den = _STD.cdf(y) + self.gamma * math.exp(_STD.log_sf(y))
        return math.log(self.gamma) + _STD.log_pdf(y) - 2.0 * math.log(den)

    def composed_log_cdf(self, y: float) -> LogProb:
        lx = _STD.log_cdf(y)
        if y <= 0.0:
            return lx - math.log(self.gamma + (1.0 - self.gamma) * math.exp(lx))
        return lx - math.log1p((self.gamma - 1.0) * _STD.cdf(-y))  # Phi(-y), not 1 - x

    @property
    def analytic_sup(self) -> float:
        return max(self.gamma, 1.0 / self.gamma)

    @property
    def is_identity(self) -> bool:
        return self.gamma == 1.0

    def __repr__(self) -> str:
        return f"MarshallOlkin(gamma={self.gamma})"


class TwoPiece(SkewingMechanism):
    """Two-piece mechanism, written in y: the composed density is
    (2/(a+b)) * [phi(y/b) for y < 0, phi(y/a) for y >= 0].

    In x-space the density ratio splits at x = 1/2 (the image of y = 0).
    It is unbounded near an endpoint whenever max(a, b) > 1, so the
    boundedness-based diagnostics do not apply; the dedicated two-piece
    tail chain does, through the epsilon-skew law Y/s, s = (a+b)/2.
    """

    def __init__(self, a: float, b: float):
        if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
            raise ParameterError(f"scale factors must be positive, got ({a!r}, {b!r})")
        self.a = float(a)
        self.b = float(b)
        # the scales of Y/s are {1-g, 1+g}; |g| reaches 1 only by rounding
        g = (self.b - self.a) / (self.a + self.b)
        if 0.0 < abs(g) < 1.0:
            self.epsilon_skew_gamma = g

    @classmethod
    def epsilon_skew(cls, gamma: float) -> "TwoPiece":
        """{a, b} = {1-gamma, 1+gamma} for gamma in (-1, 1)."""
        if not (-1.0 < gamma < 1.0):
            raise ParameterError(f"epsilon-skew parameter must lie in (-1, 1), got {gamma!r}")
        return cls(1.0 - gamma, 1.0 + gamma)

    @classmethod
    def inverse_scale_factors(cls, gamma: float) -> "TwoPiece":
        """{a, b} = {1/gamma, gamma} for gamma > 0."""
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ParameterError(f"inverse-scale parameter must be positive, got {gamma!r}")
        return cls(1.0 / gamma, gamma)

    def p(self, x):
        x = _within(x, open_=True)
        z = numcore.normal_quantile(x)
        c = np.where(x < 0.5, self.b, self.a)
        with np.errstate(over="ignore"):
            return _out((2.0 / (self.a + self.b)) * np.exp(0.5 * z * z * (1.0 - 1.0 / (c * c))))

    def composed_cdf(self, y):
        a, b, ab = self.a, self.b, self.a + self.b
        y_arr = np.asarray(y, dtype=float)
        lower = (2.0 * b / ab) * numcore.normal_cdf(np.minimum(y_arr, 0.0) / b)
        upper = (b - a) / ab + (2.0 * a / ab) * numcore.normal_cdf(np.maximum(y_arr, 0.0) / a)
        out = np.where(y_arr < 0.0, lower, upper)
        return out if y_arr.ndim else float(out)

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        # S(y) = (2b/(a+b)) Phi(y/b) below the knee b/(a+b), and above it
        # 1 - S(y) = (2a/(a+b)) Phi(-y/a); both Phi arguments lie in (0, 1/2]
        q = _within(q, open_=True, what="q")
        ab = self.a + self.b
        knee = self.b / ab
        lower = self.b * numcore.normal_quantile(np.minimum(q, knee) * ab / (2.0 * self.b))
        eps = (1.0 - np.maximum(q, knee)) * ab / (2.0 * self.a)
        return _out(np.where(q < knee, lower, self.a * (0.0 - numcore.normal_quantile(eps))))

    def composed_log_pdf(self, y: float) -> float:
        c = self.b if y < 0.0 else self.a
        return math.log(2.0 / (self.a + self.b)) + float(numcore.log_normal_pdf(y / c))

    def composed_log_cdf(self, y: float) -> LogProb:
        ab = self.a + self.b
        if y < 0.0:
            return math.log(2.0 * self.b / ab) + float(numcore.log_normal_cdf(y / self.b))
        sf = 2.0 * self.a / ab * float(numcore.normal_cdf(-y / self.a))
        if sf <= 0.5:  # S near 1: ln(1 - sf) keeps the mass beyond y
            return math.log1p(-sf)
        # (b-a)/(a+b) + (2a/(a+b)) Phi(y/a) without the cancellation when a > b
        return math.log((self.b + self.a * math.erf(y / (self.a * _SQRT2))) / ab)

    @cached_property
    def mirror(self) -> "TwoPiece":
        return TwoPiece(self.b, self.a)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)

    @property
    def analytic_sup(self) -> float | None:
        if max(self.a, self.b) <= 1.0:
            return 2.0 / (self.a + self.b)  # both pieces peak at y = 0
        return None

    @property
    def is_identity(self) -> bool:
        # a == b composes to a normal (variance a^2), the escape case
        return self.a == self.b

    def __repr__(self) -> str:
        return f"TwoPiece(a={self.a}, b={self.b})"


def _elementwise(method):
    """Lift a method of one float to floats and arrays, element by element;
    a float goes to the method as it is."""

    @wraps(method)
    def lifted(self, x, *args):
        if isinstance(x, float):
            return float(method(self, float(x), *args))
        x = np.asarray(x, dtype=float)
        return _out(np.array([method(self, float(v), *args) for v in x.ravel()]).reshape(x.shape))

    return lifted


class NumericMechanism(SkewingMechanism):
    """Mechanism recovered from a source distribution:
    p(x) = source.pdf(Phi^-1(x)) / phi(Phi^-1(x)).

    The source is a scalar ``ContinuousDistribution``, so arrays are
    evaluated one element at a time. The composed CDF, quantile and both
    log tails are the source's, since P(Phi(y)) = source.cdf(y); it has no
    mirror. Evaluation of p is restricted to the open interval; endpoint
    behavior is a question for the boundedness probe, not extrapolation.
    """

    def __init__(self, source: ContinuousDistribution):
        self.source = source

    def _z(self, x: float) -> float:
        if not (0.0 < x < 1.0):
            raise DomainError(f"extracted mechanism is defined on (0, 1), got {x!r}")
        return _STD.quantile(x)

    @_elementwise
    def log_p(self, x: float) -> float:
        z = self._z(x)
        return self.source.log_pdf(z) - _STD.log_pdf(z)

    @_elementwise
    def cdf_P(self, x: float) -> float:
        return x if x == 0.0 or x == 1.0 else self.source.cdf(self._z(x))

    @_elementwise
    def composed_cdf(self, y: float) -> float:
        return self.source.cdf(y)

    @_elementwise
    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        return self.source.quantile(q, tol)

    def composed_log_cdf(self, y: float) -> LogProb:
        return self.source.log_cdf(y)

    def composed_log_sf(self, y: float) -> LogProb:
        return self.source.log_sf(y)

    @cached_property
    def is_identity(self) -> bool:
        return bool(np.all(np.abs(self.p(np.linspace(0.01, 0.99, 99)) - 1.0) <= 1e-9))

    def __repr__(self) -> str:
        return f"NumericMechanism(source={self.source!r})"


# ---------------------------------------------------------------------------
# closed-form mechanism CDFs


def mo_cdf_P(gamma: float, x):
    """Marshall-Olkin mechanism CDF x / (gamma + (1-gamma) x) on [0, 1]."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"gamma must be positive and finite, got {gamma!r}")
    x = _within(x, open_=False)
    return _out(x / (gamma + (1.0 - gamma) * x))


def twopiece_cdf(a: float, b: float, y):
    """CDF of the two-piece composition with scales (a right, b left):
    (2b/(a+b)) Phi(y/b) below 0, (b-a)/(a+b) + (2a/(a+b)) Phi(y/a) above.

    Continuous at 0 with value b/(a+b); the additive constant on the
    upper branch is forced by integrating the density to total mass 1.
    """
    return TwoPiece(a, b).composed_cdf(y)


# ---------------------------------------------------------------------------
# composition


def _finite(y: float) -> float:
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    return y


class SkewedDistribution(ContinuousDistribution):
    """Composition S = P o Phi with density s(y) = phi(y) * p(Phi(y)).

    Cumulative quantities delegate to the mechanism's composition hooks,
    which keep both tails finite in log space far past the underflow of
    the plain formulas. ``cdf`` is taken from the smaller tail:
    1 - exp(log_sf) at y > 0 where 1 - S(y) <= 1/2, exp(log_cdf)
    everywhere else, so that no cancellation sits in it. Above 0 but below
    the median, 1 - exp(log_sf) would lose digits: 1.5e-13 for Azzalini
    alpha = 1e3 at y = 3e-4.

    ``quantile``/``quantile_array`` and ``cdf_array`` are the mechanism's
    ``composed_quantile`` and ``composed_cdf``. ``TwoPiece`` has
    y = b Phi^-1(q(a+b)/(2b)) below its knee b/(a+b); above it, and above
    q = 1/2 for the other closed families, y is minus the mirror's quantile
    at 1 - q, exact there. The tail mass at these quantiles is within
    6e-15 in ln of 1 - q out to q = 1 - 1e-12; through x = Pinv(q) it is
    lost as x rounds to 1, 1e-4 in ln for Marshall-Olkin(2) at
    q = 1 - 1e-12. A non-finite y raises DomainError.
    """

    def __init__(self, mechanism: SkewingMechanism):
        self.mechanism = mechanism

    def pdf(self, y: float) -> float:
        return math.exp(self.log_pdf(y))

    def log_pdf(self, y: float) -> float:
        return self.mechanism.composed_log_pdf(_finite(y))

    def cdf(self, y: float) -> float:
        return _composed_cdf(self.mechanism, _finite(y))

    def cdf_array(self, y: np.ndarray) -> np.ndarray:
        return self.mechanism.composed_cdf(np.asarray(y, dtype=float))

    def log_cdf(self, y: float) -> LogProb:
        return min(0.0, self.mechanism.composed_log_cdf(_finite(y)))

    def log_sf(self, y: float) -> LogProb:
        return min(0.0, self.mechanism.composed_log_sf(_finite(y)))

    def quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        return self.mechanism.composed_quantile(q, tol)

    def quantile_array(self, q: np.ndarray) -> np.ndarray:
        return self.mechanism.composed_quantile(np.asarray(q, dtype=float))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.mechanism.breakpoints

    def __repr__(self) -> str:
        return f"SkewedDistribution({_STD!r}, {self.mechanism!r})"


def _require_normal_base(base) -> None:
    if not isinstance(base, StandardNormal):
        raise ParameterError(f"the base must be StandardNormal(), got {base!r}")


def compose(base: StandardNormal, mechanism: SkewingMechanism) -> SkewedDistribution:
    """Skewed distribution with pdf(y) = phi(y) * p(Phi(y)) and CDF P(Phi(y)).
    A base other than ``StandardNormal()`` raises ParameterError."""
    _require_normal_base(base)
    return SkewedDistribution(mechanism)


def extract_mechanism(
    source: ContinuousDistribution, base: StandardNormal
) -> NumericMechanism:
    """Recover the mechanism carrying the standard normal to source.

    For any absolutely continuous source supported on the real line there
    is a distribution P on (0, 1) with source = P o Phi; this returns it
    as a numeric mechanism with p(x) = source.pdf(Phi^-1(x)) / phi(Phi^-1(x)).
    Composing the result with the normal reproduces the source. A base
    other than ``StandardNormal()`` raises ParameterError.
    """
    _require_normal_base(base)
    return NumericMechanism(source)


# ---------------------------------------------------------------------------
# samplers


def sample_skewed(dist: SkewedDistribution, rng: RngState, n: int) -> np.ndarray:
    """n inversion draws ``dist.quantile_array(U)``, deterministic given rng."""
    return dist.sample(rng, n)


def sample_flip(pi: Callable, rng: RngState, n: int) -> np.ndarray:
    """n draws from the density 2 phi(y) pi(y) by sign-flipping.

    Draw X ~ N(0, 1) and U ~ Uniform(0,1); emit X when U <= pi(X), else -X.
    Because pi(-y) = 1 - pi(y) and phi is even, the output density is
    2 phi(y) pi(y), matching the inversion sampler in distribution.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    mech = pi if isinstance(pi, SkewSymmetric) else SkewSymmetric(pi)
    x = rng.standard_normal(n)
    u = rng.uniform(n)
    keep = u <= np.asarray(mech.pi(x), dtype=float)
    return np.where(keep, x, -x)
