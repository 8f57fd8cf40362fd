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
Order statistics also write ``composed_cdf``, from Phi(-|y|), which
never rounds toward 1.
Log tails stay finite out to |y| ~ 40, where S is numerically 0 or 1. A
family writes the lower one, ``composed_log_cdf``: closed or series
forms, or for ``SkewSymmetric`` pi's own (``AzzaliniPi``, through Owen's
T), else a composite Gauss-Legendre rule. Its ``mirror``, the mechanism
x -> 1 - P(1 - x) of -Y, is in the same family and gives the upper tail
at -y and the quantiles above 1/2 at 1 - q. ``SkewSymmetric`` roots a
float's quantile.
``composed_sample`` inverts ``composed_quantile``, except for the exact
constructions: a normal's sign flip and a ratio of gamma variates.
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
from .errors import ConvergenceError, DomainError, ParameterError
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
_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_NORMAL_Q3 = 0.6744897501960817  # Phi^-1(3/4)
_NEAR_ONE = -1.0 / 32.0  # ln S above it loses relative digits taken from S
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


def _log_share(u: float, v: float) -> float:
    """ln(u / (u + v)) for u, v >= 0, without rounding u / (u + v)."""
    if u == 0.0:
        return _NEG_INF
    r = v / u
    return math.log(u) - math.log(u + v) if math.isinf(r) else -math.log1p(r)


class SkewingMechanism(ABC):
    """A distribution P on (0, 1) used to skew the standard normal.

    A family defines one of each pair ``p``/``log_p``, ``cdf_P``/``composed_cdf``
    and ``quantile_P``/``composed_quantile``; the other follows from it here.
    Each keeps an array's shape, a constant density too, and returns a
    float for a float or a 0-d array: ``estimate_sup_p`` calls ``p`` once
    on all its probe points and reads the result grid by grid.
    It writes ``composed_log_cdf`` and ``mirror``, the mechanism of -Y, whose
    lower tail and quantiles are this one's upper ones, and may write
    ``composed_sample`` in place of inversion.
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

    def composed_sample(self, rng: RngState, n: int) -> np.ndarray:
        """n draws of S given rng; by default ``composed_quantile`` of uniforms."""
        return self.composed_quantile(rng.uniform(n))

    @abstractmethod
    def composed_log_cdf(self, y: float) -> LogProb:
        """ln S(y), finite far past the underflow of S(y)."""

    def composed_log_sf(self, y: float) -> LogProb:
        """ln(1 - S(y)), finite far past the rounding of S(y) to 1."""
        return self.mirror.composed_log_cdf(-y)

    def _cdf_at(self, y: float) -> float:
        """S(y) at a float y from the smaller tail, so that neither rounds
        to 0 or 1 before it is taken: 1 - exp(log_sf) only where
        1 - S(y) <= 1/2."""
        if y > 0.0:
            log_sf = self.composed_log_sf(y)
            if log_sf <= -_LOG2:
                return -math.expm1(log_sf)
        return math.exp(min(0.0, self.composed_log_cdf(y)))


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


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes on [-1, 1] of the 32-point Gauss-Legendre rule and of a
    15-point Gauss-Lobatto rule drawn in to +-(1 - 2^-30), side by side,
    and the weights that sum values at the 47 by either rule. The Lobatto
    rule gives each 2^-30 sliver it leaves its end node's value."""
    legendre = np.polynomial.legendre
    x32, w32 = legendre.leggauss(32)
    p14 = np.eye(15)[14]  # P_14 in the Legendre basis
    d1, d2 = legendre.legder(p14), legendre.legder(p14, 2)
    x = -np.cos(np.pi * np.arange(1, 14) / 14.0)
    for _ in range(6):  # Newton to the roots of P_14', with no general eigensolve
        x -= legendre.legval(x, d1) / legendre.legval(x, d2)
    x15 = np.concatenate([[-1.0], x, [1.0]])
    w15 = 2.0 / (15 * 14 * legendre.legval(x15, p14) ** 2)
    eps = 2.0**-30
    w15 *= 1.0 - eps
    w15[[0, -1]] += eps
    return (np.concatenate([x32, (1.0 - eps) * x15]),
            np.concatenate([w32, np.zeros(15)]), np.concatenate([np.zeros(32), w15]))


# The custom-pi panel rule (SkewSymmetric). With t = y - s,
#     S(y) = 2 phi(y) int_0^inf exp(y s - s^2/2) pi(y - s) ds,
# a positive integrand whose exponent peaks at s = max(y, 0). A stretch
# [a, b] of s is cut into panels geometric in s (edges at 2^-9 .. 1 of
# it), which resolve the 1/|y| decay far out, plus an edge at t = 0, where
# an indicator pi jumps; each panel is scaled by its own peak and summed
# by the 32-point Gauss-Legendre rule, one pi call for all of them. The
# first stretch ends at s = y + sqrt(y^2 + 90), where the exponent is -45.
# As pi <= 1, the mass below t is at most 2 Phi(t); while that bound at
# the stretch's end exceeds rel_tol of S, another follows, at least four
# times as deep, or after one with no mass the deepest, 45 * 4^3 nats.
# Panels are bisected until their error estimates add up to rel_tol / 4.3
# of the total. The estimate is the distance from a 15-point Lobatto rule
# whose end nodes sit 2^-30 of the panel inside its edges: it reads a step
# at least 0.236 times its error anywhere outside those slivers, where two
# Gauss rules share blind spots (32 and 16 points see no jump within
# 0.048 of the middle or 0.0027 of an edge).
_PANEL_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-9.0, 1.0)])
_FIRST_DROP = 45.0
_STRETCHES = 4
_MAX_PANELS = 400  # per stretch, bisected ones included
_SLACK = 4.3  # 1 / 0.236, the estimate's worst reading of a step
_LOG_REL = math.log(DEFAULT_TOL.rel_tol)


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
    a fixed rule (see the comment above ``_PANEL_EDGES``). Azzalini's
    closed form, through Owen's T, is within 1e-14 * max(1, |ln S|) of
    mpmath for |alpha| <= 1e3 and |y| <= 40 (tests/test_mechanisms.py,
    ``TestAzzaliniClosedForm``).

    The rule gives ln S(y) for y < Phi^-1(3/4) to ``DEFAULT_TOL``'s
    rel_tol, or raises ``ConvergenceError`` with the partial past 400
    panels a stretch; where pi has no mass down to the exponent -2880, S
    is 0. Where S is 3/4 or more, or above e^(-1/32), ln S is ln(1 - e^v),
    v the mirror's ln S at -y. A pi smooth off 0 (the CLI's named pis)
    gives ln S and ln(1 - S) within 1e-14 * max(1, |ln|) of mpmath for
    |y| <= 40 (``TestCustomPiPanelRule``); one that jumps elsewhere, S and
    1 - S within rel_tol, unless a jump lies within 2^-30 of a panel's
    width from its edge, where no node sees it.

    At a float the CDF is exp of the rule's ln S below Phi^-1(3/4) and one
    minus the mirror's mass above it (for ``AzzaliniPi``, from the smaller
    log tail); a quantile is the root in y of the CDF at q <= 1/2 and minus
    the mirror's at 1 - q above. Arrays (not draws, the sign flip)
    interpolate a cached CDF table, read in y on [-13, 13] with step
    h = 26/16384. Its error in probability is at most h^2/8 * max|s'|,
    s the composed density: 1.2e-7 for Azzalini |alpha| = 1, 3.0e-7 for
    alpha = 3, 5.0e-6 for alpha = 50.
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

    def composed_log_cdf(self, y: float) -> LogProb:
        if self._pi_log_cdf is not None:
            return self._pi_log_cdf(y)
        if y < _NORMAL_Q3:
            v = self._rule_log_cdf(y)
            if v <= _NEAR_ONE:
                return v
        # from the mass above y, where S is 3/4 or more, or near 1 at all
        return _log1mexp(self.mirror._rule_log_cdf(-y))

    def _rule_log_cdf(self, y: float) -> LogProb:
        """ln S(y) for y < Phi^-1(3/4) by the panel rule."""
        numcore._require_finite(y)
        log_front = _LOG2 + _STD.log_pdf(y)
        log_mass, a, drop = _NEG_INF, 0.0, _FIRST_DROP
        for _ in range(_STRETCHES):
            b = y + math.sqrt(y * y + 2.0 * drop)
            total, converged = self._log_stretch(y, a, b)
            log_mass = float(np.logaddexp(log_mass, total))
            if not converged:
                raise ConvergenceError(
                    f"panel rule for ln S({y!r}) did not converge in {_MAX_PANELS} panels",
                    partial=min(0.0, log_front + log_mass))
            # pi <= 1 bounds the mass below t = y - b by 2 Phi(y - b)
            log_target = _LOG_REL + log_front + log_mass
            if _LOG2 + float(_sp.log_ndtr(y - b)) <= log_target:
                return min(0.0, log_front + log_mass)
            a, drop = b, 4.0 * drop
            if log_target == _NEG_INF:  # nothing yet: straight to the deepest stretch
                drop = _FIRST_DROP * 4.0 ** (_STRETCHES - 1)
            else:  # or as deep as 2 Phi(y - b) <= e^log_target asks
                need = y + math.sqrt(2.0 * (_LOG2 - log_target))
                drop = max(drop, need * (0.5 * need - y))
        if log_mass == _NEG_INF:
            return _NEG_INF
        raise ConvergenceError(f"panel rule for ln S({y!r}) did not reach its truncation bound",
                               partial=min(0.0, log_front + log_mass))

    def _log_stretch(self, y: float, a: float, b: float) -> tuple[float, bool]:
        """(ln int_a^b exp(y s - s^2/2) pi(y - s) ds, whether its error
        estimate met rel_tol within _MAX_PANELS panels)."""
        edges = a + (b - a) * _PANEL_EDGES
        if a < y < b:
            edges = np.sort(np.append(edges, y))
        lo, hi = edges[:-1], edges[1:]
        logs, errs = self._panel_logs(y, lo, hi)
        while True:
            top = logs.max()
            if top == _NEG_INF:
                return _NEG_INF, True
            mass = np.exp(logs - top).sum()
            total = float(top + math.log(mass))
            if np.exp(errs - top).sum() <= DEFAULT_TOL.rel_tol / _SLACK * mass:
                return total, True
            if logs.size >= _MAX_PANELS:
                return total, False
            # one panel at least is over its share when the sum is over
            bad = errs > _LOG_REL - math.log(_SLACK * logs.size) + total
            mid = 0.5 * (lo[bad] + hi[bad])
            new_lo, new_hi = np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]])
            new_logs, new_errs = self._panel_logs(y, new_lo, new_hi)
            lo, hi = np.concatenate([lo[~bad], new_lo]), np.concatenate([hi[~bad], new_hi])
            logs = np.concatenate([logs[~bad], new_logs])
            errs = np.concatenate([errs[~bad], new_errs])

    def _panel_logs(self, y: float, lo: np.ndarray, hi: np.ndarray):
        """Per panel [lo, hi] of s: ln of the 32-point sum of exp(y s - s^2/2)
        pi(y - s), and ln of its error estimate."""
        x, w_gauss, w_lobatto = _panel_rule()
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * x
        peak = np.minimum(np.maximum(lo, y), hi)
        shift = peak * (y - 0.5 * peak)  # the exponent's largest value on the panel
        f = np.exp(s * (y - 0.5 * s) - shift[:, None])
        f *= np.asarray(self.pi((y - s).ravel()), dtype=float).reshape(s.shape)
        gauss, lobatto = (f @ w_gauss) * half, (f @ w_lobatto) * half
        with np.errstate(divide="ignore"):
            return shift + np.log(gauss), shift + np.log(np.abs(gauss - lobatto))

    def _cdf_at(self, y: float) -> float:
        if self._pi_log_cdf is not None:
            return super()._cdf_at(y)
        if y < _NORMAL_Q3:  # one rule call: S itself keeps its digits
            return math.exp(self._rule_log_cdf(y))
        return -math.expm1(self.mirror._rule_log_cdf(-y))

    def composed_cdf(self, y):
        if isinstance(y, float):
            return self._cdf_at(y)
        numcore._require_finite(y)
        y_grid, cdf = self._cdf_table
        return np.interp(y, y_grid, cdf, left=0.0, right=1.0)

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        if not isinstance(q, float):
            y_grid, cdf = self._cdf_table
            return np.interp(q, cdf, y_grid)
        if q > 0.5:  # 1 - q is exact, where the CDF would have rounded to 1
            return 0.0 - self.mirror.composed_quantile(1.0 - q, tol)

        def fn(t):
            return self._cdf_at(t) - q
        lo, hi = -1.0, 1.0
        while fn(lo) > 0.0 and lo > -40.0:
            lo *= 2.0
        while fn(hi) < 0.0 and hi < 40.0:
            hi *= 2.0
        return numcore.find_root(fn, lo, hi, tol)

    def composed_sample(self, rng: RngState, n: int) -> np.ndarray:
        # the sign flip (Wang, Boyer & Genton 2004): X ~ N(0, 1) kept where
        # U <= pi(X), else negated, has density 2 phi pi as pi(-y) = 1 - pi(y)
        x = rng.standard_normal(n)
        keep = rng.uniform(n) <= np.asarray(self.pi(x), dtype=float)
        return x * (2.0 * keep - 1.0)  # -x where not kept, no branch per draw

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
            out = self._log_p_from_logs(np.log(x), np.log1p(-x))
        if np.shape(out) != np.shape(x):  # both shapes 1: out is the constant -ln B
            out = np.full(np.shape(x), out)
        return _out(out)

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
        if x > 0.5:  # 1 - x, rounded or 1 outright, is the mirror's x at 1 - q
            u = numcore.inv_reg_inc_beta(1.0 - q, self.psi2, self.psi1)
            return 0.0 - self.mirror._normal_quantile_of(1.0 - q, u)
        return self._normal_quantile_of(q, x)

    def _normal_quantile_of(self, q: float, x) -> float:
        """Phi^-1(x) for x = I^-1_q(psi1, psi2) <= 1/2, from logs where x
        underflows."""
        if x >= numcore._SMALLEST_NORMAL:
            return _STD.quantile(float(x))
        # I_x = x^psi1 / (psi1 B) to the series' first term, in logs: x underflows
        return float(_sp.ndtri_exp((math.log(q) + math.log(self.psi1) + self._log_b) / self.psi1))

    def composed_cdf(self, y):
        # above 0, one minus the mirror's at -y: x = Phi(-|y|) never rounds to 1
        y = np.asarray(y, dtype=float)
        up = y > 0.0
        s = np.empty_like(y)
        s[~up] = self._lower_cdf(y[~up])
        s[up] = 1.0 - self.mirror._lower_cdf(-y[up])
        return _out(s)

    def _lower_cdf(self, y: np.ndarray) -> np.ndarray:
        """I_x(psi1, psi2) at x = Phi(y) for y <= 0; where x is subnormal,
        the series' first term x^psi1 / (psi1 B), from ln x."""
        x = numcore.normal_cdf(y)
        s = _sp.betainc(self.psi1, self.psi2, x)
        sub = x < numcore._SMALLEST_NORMAL
        if np.any(sub):
            log_x = numcore.log_normal_cdf(y[sub])
            s[sub] = np.exp(self.psi1 * log_x - math.log(self.psi1) - self._log_b)
        return s

    def composed_log_pdf(self, y: float) -> float:
        return _STD.log_pdf(y) + self._log_p_from_logs(_STD.log_cdf(y), _STD.log_sf(y))

    def composed_log_cdf(self, y: float) -> LogProb:
        if y > 0.0:  # Phi(y) rounds toward 1: take S from 1 - S, exact in Phi(-y)
            log_sf = self.mirror.composed_log_cdf(-y)
            if log_sf <= -_LOG2:
                return _log1mexp(log_sf)
            s = float(_sp.betaincc(self.psi2, self.psi1, _STD.cdf(-y)))
            if s >= 1e-300:
                return math.log(s)
        return numcore.log_reg_inc_beta_exp(_STD.log_cdf(y), self.psi1, self.psi2)

    def composed_sample(self, rng: RngState, n: int) -> np.ndarray:
        # X = G1/(G1 + G2), G_i ~ Gamma(psi_i) (Jones 2004). With
        # z = ln(X/(1 - X)), ln min(X, 1 - X) = -|z| - ln(1 + e^-|z|), and
        # y = Phi^-1 of it, signed as z, is exact in both tails.
        z = self._log_gamma(rng, self.psi1, n)
        z -= self._log_gamma(rng, self.psi2, n)
        t = -np.abs(z)
        y = t - np.log1p(np.exp(t))
        return np.copysign(_sp.ndtri_exp(y, out=y), z, out=y)

    @staticmethod
    def _log_gamma(rng: RngState, psi: float, n: int) -> np.ndarray:
        """ln of n Gamma(psi) draws; up to psi 1 ln G' + ln(U)/psi with
        G' ~ Gamma(psi + 1), finite where a draw would underflow to 0."""
        g = np.log(rng.standard_gamma(psi if psi > 1.0 else psi + 1.0, n))
        if psi <= 1.0:
            g += np.log(rng.uniform(n)) / psi
        return g

    @property
    def analytic_sup(self) -> float | None:
        if self.psi1 < 1.0 or self.psi2 < 1.0:
            return None  # density diverges at an endpoint
        a, b = self.psi1 - 1.0, self.psi2 - 1.0
        if a == 0.0 or b == 0.0:  # a shape of 1: the mode is an endpoint
            return self.p(1.0 if a > 0.0 else 0.0)
        mode = a / (self.psi1 + self.psi2 - 2.0)
        if 0.0 < mode < 1.0:
            return self.p(mode)
        # the mode a / (a + b) rounded onto an endpoint, where p is 0 or
        # infinite: from ln x and ln(1 - x) at it
        return math.exp(self._log_p_from_logs(_log_share(a, b), _log_share(b, a)))

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
    q = 1 - 1e-12. A non-finite y raises DomainError. ``sample`` is the
    mechanism's ``composed_sample``.
    """

    def __init__(self, mechanism: SkewingMechanism):
        self.mechanism = mechanism

    def pdf(self, y: float) -> float:
        return math.exp(self.log_pdf(y))

    def log_pdf(self, y: float) -> float:
        return self.mechanism.composed_log_pdf(_finite(y))

    def cdf(self, y: float) -> float:
        return self.mechanism._cdf_at(_finite(y))

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

    def sample(self, rng: RngState, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        return self.mechanism.composed_sample(rng, n)

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
    """n draws ``dist.sample(rng, n)``, deterministic given rng."""
    return dist.sample(rng, n)


def sample_flip(pi: Callable, rng: RngState, n: int) -> np.ndarray:
    """n draws from the density 2 phi(y) pi(y), pi a skewing function or a
    ``SkewSymmetric``, by the sign flip ``SkewSymmetric.composed_sample``."""
    mech = pi if isinstance(pi, SkewSymmetric) else SkewSymmetric(pi)
    return SkewedDistribution(mech).sample(rng, n)
