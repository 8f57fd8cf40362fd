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

Log tails stay finite out to |y| ~ 40, where S is numerically 0 or 1. A
family writes the lower one, ``composed_log_cdf``: closed or series
forms, or for ``SkewSymmetric`` pi's own (``AzzaliniPi``, through Owen's
T), else a composite Gauss-Legendre rule. Its ``mirror``, the mechanism
x -> 1 - P(1 - x) of -Y, is in the same family and gives the upper tail
at -y. Both log tails take a float or an array; every family takes an
array one float call per element, through ``SkewingMechanism``'s one lift,
so each element is what its float gets, bit for bit.
The diagnostics' two-sided tail mass m(y) = S(-y) + 1 - S(y) is
``composed_log_tail_mass``, by default the log-sum-exp of the two log
tails. ``SkewSymmetric`` needs neither tail for it: as pi(-y) = 1 - pi(y),
|Y| has the law of |Z| (the invariance of even functions; Wang, Boyer &
Genton 2004), so m(y) = 2 Phi(-y), the normal's, for every pi. That rests
on the symmetry ``SkewSymmetric.__init__`` checks, to 1e-12 on a grid.
The CDF and the quantile take a float or an ndarray of any shape (a 0-d
input returns a float), each by one rule from the family's lower side
and its mirror's; the density ``composed_log_pdf`` takes either as well.
The CDF is ``_lower_cdf(y)`` up to 0, P(Phi(y)) unless the family writes
it in y, and above 0 one minus the mirror's at -y, where Phi(-y) never
rounds toward 1. The quantile is ``_lower_quantile`` below S(0), where
no argument of Phi^-1 exceeds 1/2, and from S(0) on minus the mirror's
at level 1 - q, handed q as that level's exact complement.
``SkewSymmetric`` reads arrays from a table of S on [-13, 0], and takes
a float's quantile at q <= 1/2 by Newton on Phi^-1(S(y)) - Phi^-1(q)
inside a bracket that holds the root, started for every pi from the
cubic Hermite of ln S on that table, as its docstring states.
``composed_sample`` inverts ``composed_quantile``, except for the exact
constructions: a normal's sign flip and a ratio of gamma variates.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from functools import cache, cached_property
from typing import Callable

import numpy as np
from scipy import special as _sp

from . import numcore
from .distributions import ContinuousDistribution, RngState, StandardNormal, _elementwise, _out
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


def _within(x, open_: bool, what: str = "x"):
    """x as a float (for a float or 0-d input) or a float array, checked to
    lie in [0, 1], or in (0, 1) if open_."""
    x = float(x) if isinstance(x, float) else _out(np.asarray(x, dtype=float))
    if not numcore._in_unit(x, open_):
        raise DomainError(f"{what} must lie in {'(0, 1)' if open_ else '[0, 1]'}, got {x}")
    return x


def _phi_inv(x, q, log_x):
    """Phi^-1(x) for the x <= 1/2 of a lower quantile q, a float or a 1-d
    array. Below the smallest normal double, where x has lost digits, is 0
    or is NaN (unsolved), ndtri_exp of ln x = log_x(q), which drifts below
    ln x = -4000 (1e-12 relative at -8e4): there with a Newton step."""
    if isinstance(q, float):  # the array path takes the rare tiny x
        return float(_sp.ndtri(x) if x >= numcore._SMALLEST_NORMAL
                     else _phi_inv(np.array([x]), np.array([q]), log_x)[0])
    y = _sp.ndtri(x)
    sub = np.flatnonzero(~(x >= numcore._SMALLEST_NORMAL))
    if sub.size:
        ln_x = log_x(q[sub])
        z = _sp.ndtri_exp(ln_x)
        ln_cdf = _sp.log_ndtr(z)
        step = (ln_cdf - ln_x) * np.exp(ln_cdf + 0.5 * z * z + 0.5 * math.log(2.0 * math.pi))
        y[sub] = np.where(ln_x < -4000.0, z - step, z)
    return y


def _from_complement(q, c, lower, upper):
    """lower(q), or upper(q, c) where c = 1 - q holds digits that q, rounded
    near 1, has lost: where 1 - q, exact for q >= 1/2, is not c. q and c are
    a float or a pair of 1-d arrays."""
    if isinstance(q, float):
        return float(upper(q, c) if 1.0 - q != c else lower(q))
    out, lost = lower(q), 1.0 - q != c
    if lost.any():
        out[lost] = upper(q[lost], c[lost])
    return out


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

    A family defines one of the pair ``p``/``log_p``, and ``cdf_P`` or
    ``_lower_cdf``, S(y) at y <= 0; the other follows from it here. Each
    keeps an array's shape, a constant density too, and returns a float
    for a float or a 0-d array: ``estimate_sup_p`` calls ``p`` once on all
    its probe points and reads the result grid by grid.
    ``composed_log_pdf``, ``composed_log_cdf`` and ``composed_log_sf`` take
    a float or an array too, an array checked to be finite by its caller;
    a family keeps a float branch only where numpy would slow a float down.
    Every family's ``composed_log_cdf`` hands an array to ``_log_cdf_each``,
    one float call per element, so each element is its float's value, bit
    for bit.
    It writes ``composed_log_cdf``, ``mirror``, the mechanism of -Y, whose
    lower tail is this one's upper one, and ``_lower_quantile(q, c)``, the
    y with S(y) = q below S(0), given c = 1 - q, which keeps the digits of a
    q near 1. ``composed_cdf`` is ``_lower_cdf`` up to 0 and one minus the
    mirror's at -y above; ``composed_quantile`` is ``_lower_quantile`` below
    S(0) and minus the mirror's at level 1 - q, with c = q, from S(0) on. A
    family without a mirror writes both itself, and any family may write
    ``composed_sample`` in place of inversion. ``composed_log_cdf`` works
    from the smaller tail, ln(1 - e^v) of the mirror's v where S is near 1,
    so exp of it is S(y) at a float (``SkewedDistribution.cdf``).
    ``composed_log_tail_mass`` is ln(S(-y) + 1 - S(y)) from both log tails,
    unless a family knows it without them, as ``SkewSymmetric`` does.
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
    is_identity: bool = False

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

    # -- composition hooks; the CDF and quantile also take arrays ----------

    def composed_cdf(self, y):
        """S(y) at finite y: ``_lower_cdf(y)`` up to 0, and above one minus
        the mirror's at -y, where Phi(-y) never rounds toward 1; a float and
        an array take the same rule."""
        y = np.asarray(y, dtype=float)
        # boolean masks, not the quantile's flat indices: they are faster on
        # sorted input, which is what ks_test passes
        s, up = np.empty_like(y), y > 0.0
        s[~up] = self._lower_cdf(y[~up])
        s[up] = 1.0 - self.mirror._lower_cdf(-y[up])
        return _out(s)

    def _lower_cdf(self, y: np.ndarray) -> np.ndarray:
        """S(y) = P(Phi(y)) for y <= 0, a 1-d array."""
        return self.cdf_P(numcore.normal_cdf(y))

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        """The y with S(y) = q, for q in (0, 1): ``_lower_quantile(q, 1 - q)``
        below S(0), else minus the mirror's at level 1 - q, handed q itself
        as its complement: 1 - (1 - q) loses q's digits, where S(0) is
        small; a float and an array take the same rule."""
        q = _within(q, open_=True, what="q")
        if isinstance(q, float):
            if q < self._cdf_at_0:
                return self._lower_quantile(q, 1.0 - q)
            return 0.0 - self.mirror._lower_quantile(1.0 - q, q)  # 0.0, not -0.0
        flat, y = q.reshape(-1), np.empty(q.size)
        up = flat >= self._cdf_at_0
        below, above = np.flatnonzero(~up), np.flatnonzero(up)
        low, high = flat[below], flat[above]
        y[below] = self._lower_quantile(low, 1.0 - low)
        y[above] = 0.0 - self.mirror._lower_quantile(1.0 - high, high)
        return y.reshape(q.shape)

    @cached_property
    def _cdf_at_0(self) -> float:
        """S(0), where ``composed_quantile`` turns to the mirror."""
        return float(self.composed_cdf(0.0))

    def composed_log_pdf(self, y):
        """ln s(y) at finite y, a float or an array."""
        return numcore._log_normal_pdf(y) + self.log_p(numcore._normal_cdf(y))

    def composed_sample(self, rng: RngState, n: int) -> np.ndarray:
        """n draws of S given rng; by default ``composed_quantile`` of uniforms."""
        return self.composed_quantile(rng.uniform(n))

    @abstractmethod
    def composed_log_cdf(self, y):
        """ln S(y), finite far past the underflow of S(y); a float, or an
        array, which a family hands to ``_log_cdf_each``."""

    @_elementwise
    def _log_cdf_each(self, y: float) -> LogProb:
        """``composed_log_cdf`` of an array, one float call per element."""
        return self.composed_log_cdf(y)

    def composed_log_sf(self, y):
        """ln(1 - S(y)), finite far past the rounding of S(y) to 1."""
        return self.mirror.composed_log_cdf(-y)

    def composed_log_tail_mass(self, y):
        """ln(S(-y) + 1 - S(y)) at finite y > 0, a float or an array: the
        log-sum-exp of the two log tails, each clamped to 0."""
        lower, upper = self.composed_log_cdf(-y), self.composed_log_sf(y)
        return np.logaddexp(_at_most_0(lower), _at_most_0(upper))


# The y grid of every skew-symmetric CDF table, step h = 13/8192, shared
# read-only by all of them
_TABLE_Y = np.linspace(-13.0, 0.0, 8193)
_TABLE_Y.flags.writeable = False

# exact +-pairs; excludes 0, where indicator-style pi may break symmetry
_HALF_GRID = np.linspace(0.016, 8.0, 500)
_SYMMETRIC_GRID = np.concatenate([-_HALF_GRID[::-1], _HALF_GRID])
_SYMMETRIC_GRID.flags.writeable = False


class AzzaliniPi:
    """Skewing function pi(y) = Phi(alpha * y).

    It also carries the log tails of the law it composes to, the
    skew-normal with density 2 phi(y) Phi(alpha y), in closed form at a
    float; ``SkewSymmetric`` uses them in place of quadrature, and, as
    every family does, takes an array one float call per element. Its
    two-sided tail mass is 2 Phi(-y), as for every pi, and needs neither
    tail.
    """

    def __init__(self, alpha: float):
        if not math.isfinite(alpha):
            raise ParameterError(f"alpha must be finite, got {alpha!r}")
        self.alpha = float(alpha)

    def __call__(self, y):
        return numcore._normal_cdf(self._scaled(y))

    def log(self, y):
        return _sp.log_ndtr(self._scaled(y))

    def _scaled(self, y):
        """alpha y, +-inf past the doubles (|alpha| above about 2.2e307 on
        the symmetry grid), where Phi is exactly 0 or 1. A scalar is
        multiplied as a Python float, which overflows without a warning and
        skips np.errstate; an array under numpy's warning switched off."""
        if isinstance(y, float):  # np.float64 too
            return self.alpha * float(y)
        with np.errstate(over="ignore"):
            return self.alpha * y

    @cached_property
    def mirror(self) -> "AzzaliniPi":
        """pi(-y) = Phi(-alpha y)."""
        return AzzaliniPi(-self.alpha)

    def composed_log_cdf(self, y: float) -> LogProb:
        """ln S(y) of the skew-normal law at a float y; ``SkewSymmetric``
        takes an array one float call per element."""
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
# ``SkewSymmetric`` states. Where c sqrt(1 + alpha^2) passes 1e150, from
# alpha ~ 1e103 at h = 1, t/h or the sums would leave the doubles:
# ``_sn_log_light_far`` takes the integral with h^2 factored out.
_LAGUERRE_FROM = 3.0
_NEAR_MODE = 0.5


@cache
def _gauss_rules() -> tuple[np.ndarray, ...]:
    """Gauss-Laguerre (64) and Gauss-Legendre (32) nodes and weights, made
    on first use: the eigensolves take about 10 ms, too much for import."""
    return (*np.polynomial.laguerre.laggauss(64), *np.polynomial.legendre.leggauss(32))


@cache
def _table_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables' 5-point Gauss-Legendre nodes and weights, and phi at t."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    phi = numcore.normal_pdf(_table_nodes(nodes))
    phi.flags.writeable = False  # 320 KB, shared by every table
    return nodes, weights, phi


def _table_nodes(nodes: np.ndarray) -> np.ndarray:
    """t, 5 per panel of ``_TABLE_Y``, remade per table: keeping it is 320 KB."""
    y = _TABLE_Y
    return 0.5 * (y[:-1] + y[1:])[:, None] + 0.5 * (y[1] - y[0]) * nodes[None, :]


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes on [-1, 1] of the 32-point Gauss-Legendre rule and of a
    15-point Gauss-Lobatto rule drawn in to +-(1 - 2^-30), side by side,
    and the weights that sum values at the 47 by either rule. The Lobatto
    rule gives each 2^-30 sliver it leaves its end node's value."""
    legendre = np.polynomial.legendre
    x32, w32 = _gauss_rules()[2:]
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
# S is 0 once that deepest stretch is empty too.
# Panels are bisected until their error estimates add up to rel_tol / 4.3
# of the total. The estimate is the distance from a 15-point Lobatto rule
# whose end nodes sit 2^-30 of the panel inside its edges: it reads a step
# at least 0.236 times its error anywhere outside those slivers, where two
# Gauss rules share blind spots (32 and 16 points see no jump within
# 0.048 of the middle or 0.0027 of an edge).
_PANEL_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-9.0, 1.0)])
_FIRST_DROP = 45.0
_STRETCHES = 4
_DEEPEST_DROP = _FIRST_DROP * 4.0 ** (_STRETCHES - 1)  # 2880 nats
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
    if c > 1e150 / math.hypot(1.0, alpha):  # where t/h would overflow, or the sums underflow
        return _sn_log_light_far(float(h), float(c))
    log_front = -0.5 * h * h - math.log(math.pi * h)
    if c >= _LAGUERRE_FROM:
        return log_front - 0.5 * c * c + math.log(_laguerre_tail(c, h))
    x, w = _gauss_rules()[2:]
    half = 0.5 * (_LAGUERRE_FROM - c)
    t = (c + half) + half * x
    mass = half * float(w @ (np.exp(-0.5 * t * t) / (1.0 + (t / h) ** 2)))
    mass += math.exp(-0.5 * _LAGUERRE_FROM**2) * _laguerre_tail(_LAGUERRE_FROM, h)
    return log_front + math.log(mass)


def _sn_log_light_far(h: float, c: float) -> LogProb:
    """ln S(-h) from S(-h) = h e^(-h^2/2) / pi * int_c^inf exp(-t^2/2) / (h^2 + t^2) dt.
    Below _LAGUERRE_FROM, alpha > 3e149 here, so h^2 < 1e-297 t^2 drops out
    and the integral is e^(-c^2/2) / c - sqrt(2 pi) Phi(-c). Above it the
    Laguerre sum is taken relative to its integrand at t = c: with u = c/t,
    1 / (t (h^2 + t^2)) = c^-3 u^3 / (1 + (u h/c)^2), each term at most 1,
    so ln S is finite while c^2 is and -inf beyond."""
    log_front = -0.5 * h * h + math.log(h / math.pi)
    if c < _LAGUERRE_FROM:
        return log_front + math.log(math.exp(-0.5 * c * c) / c - numcore._SQRT_2PI * float(_sp.ndtr(-c)))
    x, w = _gauss_rules()[:2]
    u = 1.0 / np.sqrt(1.0 + 2.0 * x / (c * c))
    log_sum = math.log(float(w @ (u * (u / np.hypot(1.0, u * (h / c))) ** 2)))
    return log_front - 0.5 * c * c - 3.0 * math.log(c) + log_sum


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

    pi may carry ``log``, ``composed_log_cdf`` (ln S at a float) and
    ``mirror`` (pi(-y) as such an object), as ``AzzaliniPi`` does; the
    mirror mechanism is ``SkewSymmetric(pi.mirror)``, else that of pi(-y).
    ln S is pi's, else a fixed rule (see the comment above
    ``_PANEL_EDGES``); an array of y takes one float call per element, as
    in every family. The two-sided tail mass, ``composed_log_tail_mass``,
    is ln 2 Phi(-y) for every pi (module docstring). Azzalini's closed
    form, through Owen's T, is within 1e-14 * max(1, |ln S|) of mpmath for
    |alpha| <= 1e3 and |y| <= 40 (tests/test_mechanisms.py,
    ``TestAzzaliniClosedForm``). Up to |alpha| = 3e300 both log tails are
    finite and raise no warning; on the light side ln S is about
    -(1 + alpha^2) y^2 / 2, within 1e-14 * max(1, |ln S|) of the integral's
    leading term at |alpha| = 1e103, 1e154, 1e200 and 3e300, and -inf
    where (alpha y)^2 overflows.

    The rule gives ln S(y) for y < Phi^-1(3/4) to ``DEFAULT_TOL``'s
    rel_tol, or raises ``ConvergenceError`` with the partial past 400
    panels a stretch; where pi has no mass down to the exponent -2880, S
    is 0. Where S is 3/4 or more, or above e^(-1/32), ln S is ln(1 - e^v),
    v the mirror's ln S at -y. A pi smooth off 0 (the CLI's named pis)
    gives ln S and ln(1 - S) within 1e-14 * max(1, |ln|) of mpmath for
    |y| <= 40 (``TestCustomPiPanelRule``). One that jumps elsewhere can
    miss rel_tol next to the jump, where bisection has brought it near a
    panel's edge and the error estimate under-reads it: for a pi that
    jumps at -1, ln S is 5.5e-9 off at y = -1 + 1e-8 and 5.6e-6 off at
    -1 + 1e-11, against rel_tol 1e-10. A jump within 2^-30 of a panel's
    width from its edge is not seen at all.

    At a float the CDF is exp of ln S. A quantile at q <= 1/2 is the root
    of g(y) = Phi^-1(S(y)) - Phi^-1(q) by Newton on this probit scale,
    whose slope s/phi(Phi^-1(S)) comes from ln S and ``composed_log_pdf``,
    inside the bracket [Phi^-1(q/2), sqrt 2 erfinv(q)] (``_root``); above
    1/2 it is minus the mirror's at 1 - q. For every pi, closed-form ln S
    or the panel rule, Newton starts from the tables below: the cubic
    Hermite of ln S on the table interval that holds q, slopes s/S from two
    float densities, was within 2e-12 max(1, |y|) of the root for the
    named pis and 1.4e-11 for Azzalini alpha = 50, where the linear array
    quantile was up to 3.4e-6 off, so a quantile on the table takes one
    log-CDF call; the mechanism's first quantile builds its table, and its
    mirror's past S(0), about 0.4 to 1.3 ms each, once, as a first array
    call does. The tail mass at the root was within 2.3e-13 in ln of
    mpmath for Azzalini alpha = -50, -2, 0.5, 3 and 50 and the named pis
    (logistic 2 and 10, cauchy-cdf, sign) at q from 1e-300 to 1 - 1e-12,
    and the sign pi's root, the bracket's upper end sqrt 2 erfinv(q),
    within 2 ulps for q down to 1e-300 (``TestSkewSymmetricQuantileRoot``
    holds them to 1e-12 and 4 ulps).
    Arrays (not draws, the sign flip) take the base class's rules on a
    cached table of S on [-13, 0], step h = 13/8192, summed by 5-point
    Gauss panels from the exact S(-13), and on the mirror's above; the CDF
    is 0 below -13, and a q below S(-13) takes the float quantile. Its
    error in probability is at most h^2/8 * max|s'|, s the composed
    density: 1.2e-7 for Azzalini
    |alpha| = 1, 3.0e-7 for alpha = 3, 5.0e-6 for alpha = 50, 1.4e-7 and
    6.3e-7 for the logistic pi at 2 and 10, and 1.0e-7 for cauchy-cdf.
    """

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
        self.is_identity = bool(np.all(np.abs(vals - 0.5) <= 1e-12))

    @classmethod
    def azzalini(cls, alpha: float) -> "SkewSymmetric":
        return cls(AzzaliniPi(alpha))

    @cached_property
    def mirror(self) -> "SkewSymmetric":
        pi = self.pi
        mirror = SkewSymmetric(pi.mirror if hasattr(pi, "mirror") else lambda y: pi(-y))
        mirror.mirror = self
        return mirror

    def p(self, x):
        z = _sp.ndtri(_within(x, open_=True))
        return _out(2.0 * np.asarray(self.pi(z), dtype=float))

    def composed_log_pdf(self, y):
        if self._log_pi is not None:
            return _LOG2 + self._log_pi(y) + numcore._log_normal_pdf(y)
        if isinstance(y, float):  # a float skips np.errstate
            v = float(self.pi(y))
            return _LOG2 + (math.log(v) if v > 0.0 else _NEG_INF) + float(numcore._log_normal_pdf(y))
        with np.errstate(divide="ignore"):
            log_pi = np.log(np.asarray(self.pi(y), dtype=float))
        return _LOG2 + log_pi + numcore._log_normal_pdf(y)

    def composed_log_cdf(self, y):
        if not isinstance(y, float):
            return self._log_cdf_each(y)
        if self._pi_log_cdf is not None:
            return self._pi_log_cdf(y)
        if y < _NORMAL_Q3:
            v = self._rule_log_cdf(y)
            if v <= _NEAR_ONE:
                return v
        # from the mass above y, where S is 3/4 or more, or near 1 at all
        return _log1mexp(self.mirror._rule_log_cdf(-y))

    def composed_log_tail_mass(self, y):
        # |Y| has the law of |Z| (Wang, Boyer & Genton 2004), so the mass
        # is the normal's, 2 Phi(-y), for every pi and without S
        return _LOG2 + numcore._log_normal_sf(y)

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
            if log_mass == _NEG_INF and drop == _DEEPEST_DROP:
                return _NEG_INF  # no mass down to the deepest stretch: S is 0
            a, drop = b, 4.0 * drop
            if log_target == _NEG_INF:  # nothing yet: straight to the deepest stretch
                drop = _DEEPEST_DROP
            else:  # or as deep as 2 Phi(y - b) <= e^log_target asks
                need = y + math.sqrt(2.0 * (_LOG2 - log_target))
                drop = max(drop, need * (0.5 * need - y))
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
            if top == _NEG_INF:  # no Gauss node saw mass: bisect where a Lobatto node did
                total, bad = _NEG_INF, errs > _NEG_INF
                if not bad.any():
                    return _NEG_INF, True
            else:
                mass = np.exp(logs - top).sum()
                total = float(top + math.log(mass))
                if np.exp(errs - top).sum() <= DEFAULT_TOL.rel_tol / _SLACK * mass:
                    return total, True
                # one panel at least is over its share when the sum is over
                bad = errs > _LOG_REL - math.log(_SLACK * logs.size) + total
            if logs.size >= _MAX_PANELS:
                return total, False
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
        top = peak * (y - 0.5 * peak)  # the exponent's largest value on the panel
        f = np.exp(s * (y - 0.5 * s) - top[:, None])
        f *= np.asarray(self.pi((y - s).ravel()), dtype=float).reshape(s.shape)
        gauss, lobatto = f @ w_gauss, f @ w_lobatto
        with np.errstate(divide="ignore"):
            # the half-width in logs: on [0, 5e-324] it rounds to 0
            shift = top + np.log(hi - lo) - _LOG2
            return shift + np.log(gauss), shift + np.log(np.abs(gauss - lobatto))

    def composed_cdf(self, y):
        if isinstance(y, float):
            return math.exp(self.composed_log_cdf(y))
        return super().composed_cdf(y)

    def _lower_cdf(self, y: np.ndarray) -> np.ndarray:
        return np.interp(numcore._require_finite(y), *self._cdf_table, left=0.0)

    def composed_quantile(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        if not isinstance(q, float):
            return super().composed_quantile(q)
        if q > 0.5:  # 1 - q is exact, where the CDF would have rounded to 1
            return 0.0 - self.mirror.composed_quantile(1.0 - q, tol)
        return self._root(q, tol)

    def _root(self, q: float, tol: Tolerance) -> float:
        """The y with ln S(y) = ln q for q <= 1/2: Newton on the probit
        scale, g = z - z_q with z = Phi^-1(S(y)) from ln S and z_q =
        Phi^-1(q), whose slope is s(y)/phi(z), inside a bracket that costs
        no evaluation. Every law here has a Gaussian-type tail, so z is
        nearly linear in y. As 0 <= pi <= 1, 2 Phi(y) - 1 <= S(y) <=
        2 Phi(y), so the root lies in [Phi^-1(q/2), sqrt 2 erfinv(q)]; the
        bracket shrinks to each iterate by the sign of ln S - ln q. Newton
        starts at ``_table_start`` clipped into the bracket, the
        mechanism's own below S(0) and minus the mirror's at 1 - q from it,
        as in ``composed_quantile``: at the lower end below S(-13), and at
        the upper end where the start is within abs_tol + rel_tol |hi| of
        it. That end is the sign pi's root, where S jumps from 0 and Newton
        from below stops short in ln S. Where S is 0 it tries the upper end
        once (the root, for pi = 1[y >= 0]).
        It bisects where a step would leave the bracket, where |ln S|
        passes 2^40 and ln(phi(z)/s) is lost in its rounding, and where a
        step within the tolerance comes with |ln S - ln q| >= 1: a steep
        ln S far from the root, as at y = 0 of a huge Azzalini shape, where
        S(0) ~ 1/(pi alpha). It stops when |ln S - ln q| is within
        2^-51 |ln q|, the rounding of ln S, or a step or the bracket within
        abs_tol + rel_tol |y|, and raises ``ConvergenceError`` with the last
        iterate after ``tol.max_iter`` evaluations."""
        log_q = math.log(q)
        z_q = float(_sp.ndtri_exp(log_q))
        lo = float(_sp.ndtri_exp(log_q - _LOG2))  # finite at q = 5e-324
        hi = _SQRT2 * float(_sp.erfinv(q))  # Phi^-1((1 + q)/2) rounds 1 + q for tiny q
        resolution = 2.0**-51 * abs(log_q)
        own = q < self._cdf_at_0
        start = self._table_start(q) if own else 0.0 - self.mirror._table_start(1.0 - q)
        y, tried_hi = min(max(start, lo), hi), False  # 0.0 - start above: 0.0, not -0.0
        if hi - y <= tol.abs_tol + tol.rel_tol * abs(hi):
            y = hi
        for _ in range(tol.max_iter):
            log_cdf = self.composed_log_cdf(y)
            g = log_cdf - log_q
            if abs(g) <= resolution:
                return y
            if g < 0.0:
                lo = y
            else:
                hi = y
            if g == _NEG_INF and not tried_hi:
                y, tried_hi = hi, True
                continue
            width = tol.abs_tol + tol.rel_tol * abs(y)
            # past -2^40 ln(phi(z)/s) is lost in the rounding of ln S and ln s;
            # at ln S = 0, z is inf
            if -2.0**40 < log_cdf < 0.0:
                z = float(_sp.ndtri_exp(log_cdf))
                # ln(phi(z)/s): no overflow at a tiny y
                log_ratio = -0.5 * z * z - 0.5 * numcore._LOG_2PI - self.composed_log_pdf(y)
                step = (z - z_q) * math.exp(log_ratio) if log_ratio < 700.0 else math.inf
                if abs(step) <= width:
                    if abs(g) < 1.0:  # else a steep ln S, not the root: bisect
                        return min(max(y - step, lo), hi)
                elif lo < y - step < hi:
                    y -= step
                    continue
            if hi - lo <= width:
                return 0.5 * (lo + hi)
            y = 0.5 * (lo + hi)
        raise ConvergenceError(f"quantile root for q={q!r} did not converge in {tol.max_iter} steps",
                               partial=y)

    def _table_start(self, q: float) -> float:
        """The y with S(y) = q on the cubic Hermite of ln S over the table
        interval [y0, y1] with S(y0) <= q < S(y1): ln S from the table, the
        slopes s/S from two float densities, solved by Newton from the line
        through the ends and clipped into the interval. The linear table
        quantile, np.interp, -inf below S(-13), where q is off the table,
        S(y0) is 0 or the cubic does not increase on the interval."""
        y_grid, cdf = self._cdf_table
        start = float(np.interp(q, cdf, y_grid, left=_NEG_INF))
        k = int(np.searchsorted(cdf, q, side="right")) - 1
        if not 0 <= k < cdf.size - 1 or cdf[k] == 0.0:
            return start
        y0, y1 = float(y_grid[k]), float(y_grid[k + 1])
        l0, l1 = math.log(cdf[k]), math.log(cdf[k + 1])
        d0, d1 = self.composed_log_pdf(y0) - l0, self.composed_log_pdf(y1) - l1
        if not (d0 < 700.0 and d1 < 700.0):  # ln s/S: its exp would overflow, or NaN
            return start
        # l0 + t (m0 + t (c2 + t c3)) on t in [0, 1], slope m0 + 2 c2 t + 3 c3 t^2
        h, dl = y1 - y0, l1 - l0
        m0, m1 = h * math.exp(d0), h * math.exp(d1)
        c2, c3 = 3.0 * dl - 2.0 * m0 - m1, m0 + m1 - 2.0 * dl
        if not (m0 > 0.0 and m1 > 0.0) or (0.0 < -c2 < 3.0 * c3 and c2 * c2 >= 3.0 * c3 * m0):
            return start  # a slope of 0 at an end, or one that dips to 0 inside
        r = math.log(q) - l0
        t = r / dl
        for _ in range(3):  # clipped, so the slope stays positive
            t -= (t * (m0 + t * (c2 + t * c3)) - r) / (m0 + t * (2.0 * c2 + 3.0 * t * c3))
            t = min(max(t, 0.0), 1.0)
        return y0 + h * t

    def _lower_quantile(self, q: np.ndarray, c: np.ndarray) -> np.ndarray:
        y_grid, cdf = self._cdf_table
        y = np.interp(q, cdf, y_grid, left=_NEG_INF)
        for i in np.flatnonzero(y == _NEG_INF):  # below S(-13), the rooted float quantile
            y[i] = self._root(float(q[i]), DEFAULT_TOL)
        return y

    def composed_sample(self, rng: RngState, n: int) -> np.ndarray:
        # the sign flip (Wang, Boyer & Genton 2004): X ~ N(0, 1) kept where
        # U <= pi(X), else negated, has density 2 phi pi as pi(-y) = 1 - pi(y)
        x = rng.standard_normal(n)
        keep = rng.uniform(n) <= np.asarray(self.pi(x), dtype=float)
        return x * (2.0 * keep - 1.0)  # -x where not kept, no branch per draw

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(y grid on [-13, 0], CDF values): panel-by-panel Gauss quadrature
        of the composed density, anchored by the exact log tail at -13."""
        nodes, weights, phi = _table_rule()
        y, t = _TABLE_Y, _table_nodes(nodes)
        w = 2.0 * np.asarray(self.pi(t.ravel()), dtype=float).reshape(t.shape)
        w *= phi
        panels = 0.5 * (y[1] - y[0]) * (w @ weights)
        left = math.exp(self.composed_log_cdf(float(y[0])))
        return y, np.concatenate([[left], left + np.cumsum(panels)])

    @property
    def analytic_sup(self) -> float:
        return 2.0  # p = 2*pi <= 2 always

    def __repr__(self) -> str:
        return f"SkewSymmetric(pi={self.pi!r})"


class OrderStatistics(SkewingMechanism):
    """Beta(psi1, psi2) mechanism: p(x) = x^(psi1-1)(1-x)^(psi2-1)/B."""

    def __init__(self, psi1: float, psi2: float):
        if not (psi1 > 0 and psi2 > 0 and math.isfinite(psi1) and math.isfinite(psi2)):
            raise ParameterError(f"shape parameters must be positive, got ({psi1!r}, {psi2!r})")
        self.psi1, self.psi2 = float(psi1), float(psi2)
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

    def _lower_quantile(self, q, c):
        # x = I^-1_q(psi1, psi2), or from 1 - I_x = c; ln x from
        # I_x = x^psi1 / (psi1 B), the series' first term
        a, b = self.psi1, self.psi2
        x = _from_complement(q, c, lambda q: _sp.betaincinv(a, b, q),
                             lambda q, c: _sp.betainccinv(a, b, c))
        return _phi_inv(x, q, lambda q: (np.log(q) + math.log(a) + self._log_b) / a)

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

    def composed_log_pdf(self, y):
        return numcore._log_normal_pdf(y) + self._log_p_from_logs(
            _sp.log_ndtr(y), numcore._log_normal_sf(y))

    def composed_log_cdf(self, y):
        if isinstance(y, float):
            if y > 0.0:  # Phi(y) rounds toward 1: take S from 1 - S, exact in Phi(-y)
                log_sf = self.mirror.composed_log_cdf(-y)
                if log_sf <= -_LOG2:
                    return _log1mexp(log_sf)
                s = float(_sp.betaincc(self.psi2, self.psi1, float(numcore._normal_cdf(-y))))
                if s >= 1e-300:
                    return math.log(s)
            return numcore.log_reg_inc_beta_exp(float(_sp.log_ndtr(y)), self.psi1, self.psi2)
        return self._log_cdf_each(y)

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
        self._log_gamma = math.log(self.gamma)

    def p(self, x):
        x = _within(x, open_=False)
        den = x + self.gamma * (1.0 - x)
        return _out(self.gamma / (den * den))

    def cdf_P(self, x):
        x = _within(x, open_=False)
        return _out(x / (self.gamma + (1.0 - self.gamma) * x))

    def quantile_P(self, q, tol: Tolerance = DEFAULT_TOL):
        q = _within(q, open_=True, what="q")
        g = self.gamma * q
        return _out(g / ((1.0 - q) + g))  # no cancellation near q = 1

    def _lower_quantile(self, q, c):
        g = self.gamma * q  # x as in quantile_P; ln x drops g from the denominator
        return _phi_inv(g / (c + g), q,
                        lambda q: math.log(self.gamma) + np.log(q) - np.log1p(-q))

    @cached_property
    def mirror(self) -> "MarshallOlkin":
        mirror = MarshallOlkin(1.0 / self.gamma)
        mirror.mirror = self  # 1/(1/gamma) need not round to gamma
        return mirror

    def composed_log_pdf(self, y):
        if isinstance(y, float):  # math, not numpy, on a float
            den = float(numcore._normal_cdf(y)) + self.gamma * math.exp(float(_sp.log_ndtr(-y)))
            return self._log_gamma + float(numcore._log_normal_pdf(y)) - 2.0 * math.log(den)
        den = numcore._normal_cdf(y) + self.gamma * np.exp(numcore._log_normal_sf(y))
        return self._log_gamma + numcore._log_normal_pdf(y) - 2.0 * np.log(den)

    def composed_log_cdf(self, y):
        g = self.gamma
        if isinstance(y, float):
            lx = float(_sp.log_ndtr(y))
            if y <= 0.0:
                return lx - math.log(g + (1.0 - g) * math.exp(lx))
            return lx - math.log1p((g - 1.0) * float(numcore._normal_cdf(-y)))  # Phi(-y), not 1 - x
        return self._log_cdf_each(y)

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
        if not (a > 0 and b > 0 and a + b < 2.0**1023):  # 2 (a + b) is a double
            raise ParameterError(f"scale factors must be positive, a + b < 2^1023, got ({a!r}, {b!r})")
        self.a, self.b = float(a), float(b)
        self._log_norm = math.log(2.0 / (self.a + self.b))
        # p's exponent is (z^2 / 2) (1 - 1/c^2) on the side of scale c. Where
        # 1/c^2 overflows, the factor is held at the most negative double,
        # not -inf, so that p(1/2) = 2/(a+b) and not 0 * -inf
        self._p_factors = tuple(
            1.0 - 1.0 / (c * c) if c * c > 1.0 / sys.float_info.max else -sys.float_info.max
            for c in (self.b, self.a))
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
        z = _sp.ndtri(x)
        factor = np.where(x < 0.5, *self._p_factors)
        with np.errstate(over="ignore"):
            return _out((2.0 / (self.a + self.b)) * np.exp(0.5 * z * z * factor))

    def _lower_cdf(self, y: np.ndarray) -> np.ndarray:
        return (2.0 * self.b / (self.a + self.b)) * numcore.normal_cdf(y / self.b)

    def _lower_quantile(self, q, c):
        # S(y) = (2b/(a+b)) Phi(y/b) below S(0) = b/(a+b); from c, where q
        # is near 1 and Phi(y/b) near 1/2, y = b sqrt 2 erfinv(2 Phi(y/b) - 1)
        # with 2 Phi(y/b) - 1 = q a/b - c, which keeps its digits
        a, b = self.a, self.b
        ab = a + b
        return _from_complement(
            q, c, lambda q: b * _phi_inv(q * ab / (2.0 * b), q,
                                         lambda q: np.log(q) + math.log(ab / (2.0 * b))),
            lambda q, c: b * _SQRT2 * _sp.erfinv(q * a / b - c))

    def composed_log_pdf(self, y):
        if isinstance(y, float):  # a float skips np.where
            c = self.b if y < 0.0 else self.a
            return self._log_norm + float(numcore._log_normal_pdf(y / c))
        return self._log_norm + numcore._log_normal_pdf(y / np.where(y < 0.0, self.b, self.a))

    def composed_log_cdf(self, y):
        a, b = self.a, self.b
        ab = a + b
        if isinstance(y, float):
            if y < 0.0:
                w = 2.0 * b / ab  # 2 S(0), which rounds to 0 where b/(a+b) < 2.5e-324
                log_w = math.log(w) if w > 0.0 else self._log_norm + math.log(b)
                return log_w + float(_sp.log_ndtr(y / b))
            sf = 2.0 * a / ab * float(numcore._normal_cdf(-y / a))
            if sf <= 0.5:  # S near 1: ln(1 - sf) keeps the mass beyond y
                return math.log1p(-sf)
            # (b-a)/(a+b) + (2a/(a+b)) Phi(y/a) without the cancellation when a > b
            return math.log((b + a * math.erf(y / (a * _SQRT2))) / ab)
        return self._log_cdf_each(y)

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


class NumericMechanism(SkewingMechanism):
    """Mechanism recovered from a source distribution:
    p(x) = source.pdf(Phi^-1(x)) / phi(Phi^-1(x)).

    ``log_p`` and ``p`` take an array with one ``source.log_pdf`` call,
    which a ``SkewedDistribution`` evaluates in numpy and a source that
    writes only a float pdf one element at a time (the base class's
    ``log_pdf``). The composed CDF, the quantile and both log tails are
    the source's, since P(Phi(y)) = source.cdf(y), each taken from its
    float method one element at a time; it has no mirror. The density is
    phi(y) p(Phi(y)) wherever 0 < Phi(y) < 1, and the source's where
    Phi(y) rounds to 0 or 1 (y below about -38.5 or above 8.3).
    Evaluation of p is restricted to the open interval; endpoint behavior
    is a question for the boundedness probe, not extrapolation.
    """

    def __init__(self, source: ContinuousDistribution):
        self.source = source

    def log_p(self, x):
        if not numcore._in_unit(x, open_=True):
            bad = next(v for v in np.ravel(x) if not 0.0 < v < 1.0)  # the first
            raise DomainError(f"extracted mechanism is defined on (0, 1), got {float(bad)!r}")
        z = _sp.ndtri(x)
        return _out(self.source.log_pdf(z) - numcore._log_normal_pdf(z))

    def composed_log_pdf(self, y):
        try:
            return super().composed_log_pdf(y)
        except DomainError:  # log_p's: Phi(y) rounds to 0 or 1
            pass
        # p(Phi(y)) is undefined in doubles there: ln s(y) is the source's
        if isinstance(y, float):
            return self.source.log_pdf(y)
        x = numcore._normal_cdf(y)
        out, inner = np.empty(y.shape), (x > 0.0) & (x < 1.0)
        out[inner] = numcore._log_normal_pdf(y[inner]) + self.log_p(x[inner])
        out[~inner] = self.source.log_pdf(y[~inner])
        return out

    @_elementwise
    def composed_cdf(self, y: float) -> float:
        return self.source.cdf(y)

    @_elementwise
    def composed_quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        return self.source.quantile(q, tol)

    @_elementwise
    def composed_log_cdf(self, y: float) -> LogProb:
        return self.source.log_cdf(y)

    @_elementwise
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
    """Marshall-Olkin mechanism CDF x / (gamma + (1-gamma) x) on [0, 1]:
    ``MarshallOlkin(gamma).cdf_P(x)``, with its check of gamma."""
    return MarshallOlkin(gamma).cdf_P(x)


def twopiece_cdf(a: float, b: float, y):
    """CDF of the two-piece composition with scales (a right, b left):
    (2b/(a+b)) Phi(y/b) below 0, (b-a)/(a+b) + (2a/(a+b)) Phi(y/a) above,
    continuous at 0, where it is b/(a+b); total mass 1 forces the constant."""
    return TwoPiece(a, b).composed_cdf(y)


# ---------------------------------------------------------------------------
# composition


class SkewedDistribution(ContinuousDistribution):
    """Composition S = P o Phi with density s(y) = phi(y) * p(Phi(y)).

    ``pdf``, ``log_pdf``, ``log_cdf`` and ``log_sf`` take a float or an
    array in one call of the hook, ``composed_log_pdf``, ``composed_log_cdf``
    or ``composed_log_sf``, on the value ``numcore._require_finite`` checked;
    a float gets a Python float, and each element of an array what its
    float gets from ``log_cdf`` and ``log_sf``, bit for bit. ``pdf`` of a
    float is ``math.exp`` of the hook, whose last bit numpy's exp of an
    array can differ in. The hooks keep both tails finite in log space.
    ``log_tail_mass`` of a float or a grid is one call
    of ``composed_log_tail_mass`` after the same check: the log-sum-exp of
    both tails, or for ``SkewSymmetric`` the normal's ln 2 Phi(-y), exact
    for every pi by the symmetry its constructor checks (Wang, Boyer &
    Genton 2004). ``cdf`` is exp(``log_cdf``) of a float: each
    ``composed_log_cdf`` takes ln S from the smaller tail.

    ``quantile``/``quantile_array`` and ``cdf_array`` are the mechanism's
    ``composed_quantile`` and ``composed_cdf``. ``cdf_array`` is a family's
    lower side up to 0 and one minus the mirror's at -y above. A closed
    family's quantile, float or array, is its lower side's below S(0) and
    minus the mirror's at level 1 - q from S(0) on, handed q as that
    level's complement; the tail mass at it is within 2e-13 in ln of
    mpmath, plus what 2 ulps of y move it. A non-finite y raises
    DomainError. ``sample`` is ``composed_sample``.
    """

    def __init__(self, mechanism: SkewingMechanism):
        self.mechanism = mechanism

    def pdf(self, y):
        if isinstance(y, float):
            return math.exp(self.mechanism.composed_log_pdf(numcore._require_finite(y)))
        return _out(np.exp(self.log_pdf(y)))

    def log_pdf(self, y):
        return _out(self.mechanism.composed_log_pdf(numcore._require_finite(y)))

    def cdf(self, y: float) -> float:
        return math.exp(self.log_cdf(y))

    def cdf_array(self, y: np.ndarray) -> np.ndarray:
        return self.mechanism.composed_cdf(np.asarray(y, dtype=float))

    def log_cdf(self, y):
        return _at_most_0(self.mechanism.composed_log_cdf(numcore._require_finite(y)))

    def log_sf(self, y):
        return _at_most_0(self.mechanism.composed_log_sf(numcore._require_finite(y)))

    def _log_tail_mass(self, y):
        return _out(self.mechanism.composed_log_tail_mass(numcore._require_finite(y)))

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


def _at_most_0(v):
    """min(0.0, v) of a float, or of each element of an array as a float's
    min takes it (NaN to 0); a float for a float or a 0-d v."""
    return float(min(0.0, v)) if isinstance(v, float) else _out(np.where(v < 0.0, v, 0.0))


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
