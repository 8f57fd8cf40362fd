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

Each family implements its density, ``cdf_P`` and ``quantile_P`` once,
for a float or an ndarray of any shape (a 0-d input returns a float).
Mechanisms also provide composition hooks (``composed_log_cdf`` and
friends) so the composed distribution can evaluate its tails entirely in
log space; the named families override them with closed or series forms
that stay finite out to |y| ~ 40 where the plain composition is
numerically 0 or 1. ``SkewSymmetric`` takes its log tails from pi when pi
carries them, as ``AzzaliniPi`` does in closed form through Owen's T,
and from adaptive quadrature for any other pi. ``composed_quantile``
inverts the composed CDF in y; it is Phi^-1(Pinv(q)) unless the family
has its own: ``SkewSymmetric`` roots in y, and above q = 1/2 the closed
families invert their upper tail from 1 - q.
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


def _upper_half(q) -> bool:
    """Whether q is a float in (1/2, 1), where 1 - q is exact: the closed
    families take their quantile from the upper tail there. Anything else
    takes the generic path, which also raises for q outside (0, 1)."""
    return isinstance(q, float) and 0.5 < q < 1.0


def _neg_normal_quantile(eps: float) -> float:
    """The y with Phi(-y) = eps, without forming 1 - eps; 0.0, not -0.0,
    at eps = 1/2."""
    return 0.0 - _STD.quantile(eps)


class SkewingMechanism(ABC):
    """A distribution P on (0, 1) used to skew the standard normal.

    A family defines ``p`` or ``log_p``; the other follows from it here.
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

    @abstractmethod
    def cdf_P(self, x):
        """Mechanism CDF at x in [0, 1]."""

    @abstractmethod
    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        """Inverse of cdf_P on (0, 1); ``tol`` reaches iterative inversions."""

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

    # -- composition hooks, at a scalar y ----------------------------------

    def composed_log_pdf(self, y: float) -> float:
        return _STD.log_pdf(y) + self.log_p(_STD.cdf(y))

    @abstractmethod
    def composed_log_cdf(self, y: float) -> LogProb:
        """ln S(y), finite far past the underflow of S(y)."""

    @abstractmethod
    def composed_log_sf(self, y: float) -> LogProb:
        """ln(1 - S(y)), finite far past the rounding of S(y) to 1."""

    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        """The y with S(y) = q, for q in (0, 1): Phi^-1(Pinv(q))."""
        return _STD.quantile(self.quantile_P(q, tol))


def _composed_cdf(mech: SkewingMechanism, y: float) -> float:
    """P(Phi(y)) from the smaller tail, so that neither rounds to 0 or 1
    before it is taken: 1 - exp(log_sf) only where 1 - S(y) <= 1/2."""
    if y > 0.0:
        log_sf = mech.composed_log_sf(y)
        if log_sf <= -_LOG2:
            return -math.expm1(log_sf)
    return math.exp(min(0.0, mech.composed_log_cdf(y)))


def _symmetric_grid(n: int = 500, span: float = 8.0) -> np.ndarray:
    # exact +-pairs; excludes 0, where indicator-style pi may break symmetry
    half = np.linspace(span / n, span, n)
    return np.concatenate([-half[::-1], half])


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
        return numcore.normal_cdf(self.alpha * np.asarray(y, dtype=float))

    def log(self, y):
        return numcore.log_normal_cdf(self.alpha * np.asarray(y, dtype=float))

    def composed_log_cdf(self, y: float) -> LogProb:
        """ln S(y) of the skew-normal law."""
        return _sn_log_cdf(y, self.alpha)

    def composed_log_sf(self, y: float) -> LogProb:
        """ln(1 - S(y)) of the skew-normal law."""
        return _sn_log_sf(y, self.alpha)

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
    if alpha < 0.0:  # S_alpha(y) = 1 - S_-alpha(-y)
        return _sn_log_sf(-y, -alpha)
    if y <= 0.0:
        return _sn_log_light(-y, alpha)
    log_sf = _sn_log_heavy(y, alpha)
    # below the median S(y) may still be small: 1 - exp(log_sf) would cancel
    return _log1mexp(log_sf) if log_sf < -_LOG2 else math.log(_sn_cdf_owen(y, alpha))


def _sn_log_sf(y: float, alpha: float) -> LogProb:
    """ln(1 - S(y)) of the law 2 phi(y) Phi(alpha y)."""
    if alpha < 0.0:
        return _sn_log_cdf(-y, -alpha)
    if y >= 0.0:
        return _sn_log_heavy(y, alpha)
    return _log1mexp(_sn_log_light(-y, alpha))  # S(y) <= S(0) <= 1/2


class SkewSymmetric(SkewingMechanism):
    """Mechanism with p(x) = 2 * pi(Phi^-1(x)).

    ``pi`` maps the real line to [0, 1] with pi(-y) = 1 - pi(y) almost
    everywhere, and maps an array to an array of its shape; both are
    checked at construction. Composed densities are 2 * phi(y) * pi(y).

    The log tails of the composed law come from ``pi.composed_log_cdf``
    and ``pi.composed_log_sf`` when pi provides them, as ``AzzaliniPi``
    does; otherwise from log-space adaptive quadrature of the composed
    density to ``DEFAULT_TOL``. Azzalini's closed form, through Owen's T,
    is within 1e-14 * max(1, |ln S|) of mpmath for |alpha| <= 1e3 and
    |y| <= 40 (tests/test_mechanisms.py, ``TestAzzaliniClosedForm``).
    A scalar ``cdf_P`` and the quantiles use the log tails; a quantile is
    the root in y on the tail on q's side of 1/2. An array ``cdf_P`` or
    ``quantile_P`` interpolates a cached CDF table on [-13, 13] with step
    h = 26/16384, for bulk fitting and sampling. Its error in probability
    is at most h^2/8 * max|s'|, s the composed density: 1.2e-7 for
    Azzalini |alpha| = 1, 3.0e-7 for alpha = 3, 5.0e-6 for alpha = 50.
    """

    _TABLE_SPAN = 13.0
    _TABLE_N = 16385

    def __init__(self, pi: Callable, log_pi: Callable | None = None):
        self.pi = pi
        self._log_pi = log_pi or getattr(pi, "log", None)
        self._pi_log_cdf = getattr(pi, "composed_log_cdf", None)
        self._pi_log_sf = getattr(pi, "composed_log_sf", None)
        grid = _symmetric_grid()
        try:
            vals = np.asarray(pi(grid), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"pi must accept an array: {exc}") from exc
        if vals.shape != grid.shape:
            raise ParameterError("pi must return an array shaped like its input")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ParameterError("pi must map into [0, 1]")
        if not np.all(np.abs(vals + vals[::-1] - 1.0) <= 1e-12):
            raise ParameterError("pi must satisfy pi(-y) = 1 - pi(y)")

    @classmethod
    def azzalini(cls, alpha: float) -> "SkewSymmetric":
        return cls(AzzaliniPi(alpha))

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

    # Each log tail integrates only the side of 0 that y lies on: quadpack
    # can miss the bulk of an infinite interval that holds it.

    def composed_log_cdf(self, y: float) -> LogProb:
        if self._pi_log_cdf is not None:
            return self._pi_log_cdf(y)
        if y <= 0.0:
            return self._log_mass(_NEG_INF, y)
        return _log1mexp(self._log_mass(y, _INF))

    def composed_log_sf(self, y: float) -> LogProb:
        if self._pi_log_sf is not None:
            return self._pi_log_sf(y)
        if y >= 0.0:
            return self._log_mass(y, _INF)
        return _log1mexp(self._log_mass(_NEG_INF, y))

    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        # Above 1/2 the root is taken on the upper log tail, where 1 - q is
        # exact and the CDF would have rounded to 1 long before.
        q = float(_within(q, open_=True, what="q"))
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

    def cdf_P(self, x):
        x = _within(x, open_=False)
        if isinstance(x, float):
            return _composed_cdf(self, _STD.quantile(x)) if 0.0 < x < 1.0 else x
        z_grid, cdf = self._cdf_table
        z = numcore.normal_quantile(np.clip(x, _TINY, _TOP))
        return np.interp(z, z_grid, cdf, left=0.0, right=1.0)

    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        if not isinstance(q, float):
            z_grid, cdf = self._cdf_table
            return numcore.normal_cdf(np.interp(q, cdf, z_grid))
        return float(numcore.normal_cdf(self.composed_quantile(q, tol)))

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(z grid, CDF values): panel-by-panel Gauss quadrature of the
        composed density, anchored by the exact log tail at the left end."""
        z = np.linspace(-self._TABLE_SPAN, self._TABLE_SPAN, self._TABLE_N)
        nodes, weights = np.polynomial.legendre.leggauss(5)
        mid = 0.5 * (z[:-1] + z[1:])
        half = 0.5 * (z[1] - z[0])
        t = mid[:, None] + half * nodes[None, :]
        w = 2.0 * np.asarray(self.pi(t.ravel()), dtype=float).reshape(t.shape)
        w *= np.asarray(numcore.normal_pdf(t.ravel())).reshape(t.shape)
        panels = half * (w @ weights)
        left = math.exp(self.composed_log_cdf(float(z[0])))
        cdf = np.concatenate([[left], left + np.cumsum(panels)])
        return z, cdf

    @property
    def analytic_sup(self) -> float:
        return 2.0  # p = 2*pi <= 2 always

    @cached_property
    def is_identity(self) -> bool:
        vals = np.asarray(self.pi(_symmetric_grid(500)), dtype=float)
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

    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        if not _upper_half(q):
            return super().composed_quantile(q, tol)
        # 1 - x = I^-1_{1-q}(psi2, psi1), as 1 - I_x(a, b) = I_{1-x}(b, a)
        return _neg_normal_quantile(numcore.inv_reg_inc_beta(1.0 - q, self.psi2, self.psi1))

    def composed_log_pdf(self, y: float) -> float:
        return _STD.log_pdf(y) + self._log_p_from_logs(_STD.log_cdf(y), _STD.log_sf(y))

    def composed_log_cdf(self, y: float) -> LogProb:
        return numcore.log_reg_inc_beta_exp(_STD.log_cdf(y), self.psi1, self.psi2)

    def composed_log_sf(self, y: float) -> LogProb:
        # 1 - I_x(a, b) = I_{1-x}(b, a)
        return numcore.log_reg_inc_beta_exp(_STD.log_sf(y), self.psi2, self.psi1)

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
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ParameterError(f"gamma must be positive and finite, got {gamma!r}")
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

    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        if not _upper_half(q):
            return super().composed_quantile(q, tol)
        # 1 - x = (1 - q) / (1 - (1 - gamma) q) solves 1 - cdf_P(x) = 1 - q
        return _neg_normal_quantile((1.0 - q) / (1.0 - (1.0 - self.gamma) * q))

    def composed_log_pdf(self, y: float) -> float:
        den = _STD.cdf(y) + self.gamma * math.exp(_STD.log_sf(y))
        return math.log(self.gamma) + _STD.log_pdf(y) - 2.0 * math.log(den)

    def composed_log_cdf(self, y: float) -> LogProb:
        lx = _STD.log_cdf(y)
        return lx - math.log(self.gamma + (1.0 - self.gamma) * math.exp(lx))

    def composed_log_sf(self, y: float) -> LogProb:
        # 1 - cdf_P(1 - eps) = gamma*eps / (1 - (1-gamma)*eps)
        ls = _STD.log_sf(y)
        return math.log(self.gamma) + ls - math.log1p(-(1.0 - self.gamma) * math.exp(ls))

    @property
    def analytic_sup(self) -> float:
        return max(self.gamma, 1.0 / self.gamma)

    @property
    def is_identity(self) -> bool:
        return self.gamma == 1.0

    def __repr__(self) -> str:
        return f"MarshallOlkin(gamma={self.gamma})"


class TwoPiece(SkewingMechanism):
    """Two-piece mechanism: the composed density is
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

    def cdf_P(self, x):
        x = _within(x, open_=False)
        z = numcore.normal_quantile(np.clip(x, _TINY, _TOP))
        out = np.asarray(twopiece_cdf(self.a, self.b, z))
        out[x == 0.0] = 0.0
        out[x == 1.0] = 1.0
        return _out(out)

    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        ab = self.a + self.b
        knee = self.b / ab
        arg_left = np.clip(q * ab / (2.0 * self.b), _TINY, _TOP)
        arg_right = np.clip((q * ab - (self.b - self.a)) / (2.0 * self.a), _TINY, _TOP)
        z = np.where(q < knee,
                     self.b * numcore.normal_quantile(arg_left),
                     self.a * numcore.normal_quantile(arg_right))
        return _out(numcore.normal_cdf(z))

    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        ab = self.a + self.b
        if not (_upper_half(q) and q >= self.b / ab):
            return super().composed_quantile(q, tol)
        # above the knee 1 - S(y) = (2a/(a+b)) Phi(-y/a)
        return self.a * _neg_normal_quantile((1.0 - q) * ab / (2.0 * self.a))

    def composed_log_pdf(self, y: float) -> float:
        c = self.b if y < 0.0 else self.a
        return math.log(2.0 / (self.a + self.b)) + float(numcore.log_normal_pdf(y / c))

    def composed_log_cdf(self, y: float) -> LogProb:
        ab = self.a + self.b
        if y < 0.0:
            return math.log(2.0 * self.b / ab) + float(numcore.log_normal_cdf(y / self.b))
        # (b-a)/(a+b) + (2a/(a+b)) Phi(y/a) without the cancellation when a > b
        return math.log((self.b + self.a * math.erf(y / (self.a * _SQRT2))) / ab)

    def composed_log_sf(self, y: float) -> LogProb:
        ab = self.a + self.b
        if y >= 0.0:
            return math.log(2.0 * self.a / ab) + float(numcore.log_normal_sf(y / self.a))
        v = (2.0 * self.b / ab) * float(numcore.normal_cdf(y / self.b))
        return math.log1p(-v)

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
    evaluated one element at a time. The composed log tails are the
    source's, since P(Phi(y)) = source.cdf(y). Evaluation of p is
    restricted to the open interval; endpoint behavior is a question for
    the boundedness probe, not for extrapolation.
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
    def quantile_P(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        return _STD.cdf(self.source.quantile(q, tol))

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
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"scale factors must be positive, got ({a!r}, {b!r})")
    y_arr = np.asarray(y, dtype=float)
    ab = a + b
    lower = (2.0 * b / ab) * numcore.normal_cdf(np.minimum(y_arr, 0.0) / b)
    upper = (b - a) / ab + (2.0 * a / ab) * numcore.normal_cdf(np.maximum(y_arr, 0.0) / a)
    out = np.where(y_arr < 0.0, lower, upper)
    return out if y_arr.ndim else float(out)


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

    ``quantile`` is the mechanism's ``composed_quantile`` hook,
    Phi^-1(Pinv(q)) unless the family has its own. ``SkewSymmetric`` roots
    in y. Above q = 1/2, where 1 - q is exact in doubles, the closed
    families invert their upper tail: Marshall-Olkin
    y = -Phi^-1((1-q) / (1 - (1-gamma) q)), order statistics
    y = -Phi^-1(I^-1_{1-q}(psi2, psi1)), and ``TwoPiece`` above its knee
    b/(a+b) y = -a Phi^-1((1-q)(a+b) / (2a)). Their tail mass at the
    quantile is within 6e-15 in ln of 1 - q out to q = 1 - 1e-12. Through
    x = Pinv(q) the tail is lost as x rounds to 1: 1e-4 in ln for
    Marshall-Olkin(2) at q = 1 - 1e-12. A non-finite y raises DomainError.
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
        return self.mechanism.cdf_P(numcore.normal_cdf(np.asarray(y, dtype=float)))

    def log_cdf(self, y: float) -> LogProb:
        return min(0.0, self.mechanism.composed_log_cdf(_finite(y)))

    def log_sf(self, y: float) -> LogProb:
        return min(0.0, self.mechanism.composed_log_sf(_finite(y)))

    def quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        return self.mechanism.composed_quantile(q, tol)

    def quantile_array(self, q: np.ndarray) -> np.ndarray:
        x = self.mechanism.quantile_P(np.asarray(q, dtype=float))
        return numcore.normal_quantile(np.clip(x, _TINY, _TOP))

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
    """n inversion draws Phi^-1(Pinv(U)); deterministic given the rng seed."""
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
