"""Numerical kernels: normal special functions with log-space tails, beta
functions, bracketed root finding and adaptive quadrature.

Everything here is a pure function of its arguments, safe for concurrent
use. Scalar floats in, scalar floats out; the normal kernels,
``reg_inc_beta`` and ``inv_reg_inc_beta`` also broadcast over numpy arrays
because they delegate to scipy ufuncs. ``log_beta``, ``log_reg_inc_beta``
and ``log_reg_inc_beta_exp`` take floats only.

Every kernel checks its argument first: finite, or inside the unit
interval. A float (``np.float64`` is one) is checked with ``math`` and
chained comparisons, which costs about 0.1 us; anything else goes
through ``np.asarray`` and ``np.all``, about 5 us on a scalar, forty
times the ufunc it guards. Both paths raise the same ``DomainError``
with the same message. The finite check, ``_require_finite``, returns
what it checked, a float as a Python float (``np.float64``'s own
arithmetic warns on overflow) and anything else as a float array, and
the normal kernels and ``SkewedDistribution`` hand that on; the unit
checks hand the argument to the ufunc unchanged. An array that a public
entry of the package has checked already goes on to the unchecked
forms: scipy's ufuncs, ``_normal_cdf``, ``_log_normal_sf`` and
``_log_normal_pdf``.

Past |y| = 1.34e154, y^2 overflows a double: ``normal_pdf`` is 0 and
``log_normal_pdf`` -inf there, with no warning. A float is squared in
Python arithmetic, which overflows silently, and an array under
``np.errstate``, which the float path never enters: it costs about
five times ``np.square`` of a float, and forty times ``y * y``.

The log-space survival functions are the load-bearing part: plain
``1 - Phi(y)`` is numerically 0 from y ~ 38 and loses digits from y ~ 8,
while ``log_normal_sf`` stays accurate out to |y| = 40 and beyond. Tail
comparisons elsewhere in the package are done entirely on logarithms for
that reason.

``scipy.integrate`` and ``scipy.optimize`` are imported inside
``integrate`` and ``find_root``, on their first call: loading them after
skewlab costs a process about 0.2 s and 20 to 23 MB, once, and no CLI
command calls either function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import BracketingError, ConvergenceError, DomainError

__all__ = [
    "LogProb",
    "Tolerance",
    "DEFAULT_TOL",
    "normal_pdf",
    "log_normal_pdf",
    "normal_cdf",
    "log_normal_cdf",
    "log_normal_sf",
    "normal_quantile",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "log_reg_inc_beta",
    "log_reg_inc_beta_exp",
    "find_root",
    "integrate",
    "log_integrate",
]

# Natural log of a probability in [0, 1]: value <= 0, -inf allowed.
LogProb = float

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SMALLEST_NORMAL = 2.2250738585072014e-308


@dataclass(frozen=True)
class Tolerance:
    """Accuracy budget for iterative routines.

    abs_tol and rel_tol must be positive, max_iter at least 1. The
    defaults leave two to three digits of headroom over the 1e-8/1e-9
    thresholds used by the verification suites.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_TOL = Tolerance()


def _require_finite(y):
    """y as a Python float (from ``np.float64`` too, whose own arithmetic
    warns on overflow) or else a float array, checked to be finite."""
    if isinstance(y, float):
        if math.isfinite(y):
            return float(y)
    else:
        y = np.asarray(y, dtype=float)
        if np.isfinite(y).all():
            return y
    raise DomainError(f"y must be finite, got {y!r}")


def _in_unit(x, open_: bool) -> bool:
    """Whether x, a float or anything numpy reads as floats, lies in [0, 1],
    or in (0, 1) if open_; NaN lies in neither."""
    if isinstance(x, float):
        return 0.0 < x < 1.0 if open_ else 0.0 <= x <= 1.0
    x = np.asarray(x, dtype=float)
    return bool(np.all((x > 0.0) & (x < 1.0) if open_ else (x >= 0.0) & (x <= 1.0)))


def normal_pdf(y):
    """Standard normal density exp(-y^2/2)/sqrt(2*pi); 0 past |y| =
    1.34e154, where y^2 overflows, with no warning."""
    return np.exp(_minus_half_square(_require_finite(y))) / _SQRT_2PI


def log_normal_pdf(y):
    """Natural log of the standard normal density; -inf past |y| =
    1.34e154, with no warning."""
    return _log_normal_pdf(_require_finite(y))


def _log_normal_pdf(y):
    return _minus_half_square(y) - 0.5 * _LOG_2PI


def _minus_half_square(y):
    """-y^2/2, -inf where y^2 overflows, with no warning. A float is
    squared in Python arithmetic, which overflows silently and skips
    np.errstate, the cost of every float density; an array under numpy's
    overflow warning switched off."""
    if isinstance(y, float):  # np.float64 too, whose own product would warn
        y = float(y)
        return -0.5 * (y * y)
    with np.errstate(over="ignore"):
        return -0.5 * np.square(y)


def normal_cdf(y):
    """Standard normal CDF Phi(y). ndtr is 0 from y ~ -37.68, where Phi(y)
    is still subnormal down to y ~ -38.48: there it is exp(ln Phi(y))."""
    return _normal_cdf(_require_finite(y))


def _normal_cdf(y):
    p = _sp.ndtr(y)
    if isinstance(p, float):
        return p if p else np.exp(_sp.log_ndtr(y))
    if p.size and p.min() == 0.0:
        zero = np.flatnonzero(p == 0.0)
        np.put(p, zero, np.exp(_sp.log_ndtr(np.ravel(y)[zero])))
    return p


def log_normal_cdf(y) -> LogProb:
    """ln Phi(y), accurate far into the left tail."""
    return _sp.log_ndtr(_require_finite(y))


def log_normal_sf(y) -> LogProb:
    """ln(1 - Phi(y)), evaluated as ln Phi(-y) so the right tail never
    underflows (exact by symmetry of the normal)."""
    return _log_normal_sf(_require_finite(y))


def _log_normal_sf(y):
    return _sp.log_ndtr(np.negative(y))


def normal_quantile(q):
    """Inverse of normal_cdf on (0, 1)."""
    if not _in_unit(q, open_=True):
        raise DomainError(f"quantile argument must lie in (0, 1), got {q!r}")
    return _sp.ndtri(q)


def _require_beta_params(a: float, b: float) -> None:
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"beta parameters must be positive and finite, got a={a}, b={b}")


def log_beta(a: float, b: float) -> float:
    """ln B(a, b)."""
    _require_beta_params(a, b)
    return float(_sp.betaln(a, b))


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta I_x(a, b), monotone in x on [0, 1]."""
    _require_beta_params(a, b)
    if not _in_unit(x, open_=False):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return _sp.betainc(a, b, x)


def inv_reg_inc_beta(q, a: float, b: float):
    """Inverse of reg_inc_beta in x for q in (0, 1)."""
    _require_beta_params(a, b)
    if not _in_unit(q, open_=True):
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    return _sp.betaincinv(a, b, q)


def log_reg_inc_beta(x: float, a: float, b: float) -> LogProb:
    """ln I_x(a, b), usable when I_x underflows a double.

    For small x this uses the series
        I_x(a,b) = x^a (1-x)^b / (a B(a,b)) * sum_n [(a+b)_n / (a+1)_n] x^n,
    whose terms are positive and decay geometrically, so the log of the
    prefactor carries arbitrarily small tails (for example x = 1e-200,
    a = 3 gives ln I ~ -1380, far below log-double range of the direct
    evaluation). Elsewhere it is just ln(betainc).
    """
    _require_beta_params(a, b)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return float("-inf")
    return log_reg_inc_beta_exp(math.log(x), a, b)


def log_reg_inc_beta_exp(log_x: float, a: float, b: float) -> LogProb:
    """ln I_x(a, b) given ln x, stable even when x itself underflows.

    With log_x = -800 the direct incomplete beta is identically 0 in
    doubles, while here the a*ln(x) prefactor keeps everything finite.
    log_x is a float: an array of ordinates reaches it one element at a
    time, through ``OrderStatistics.composed_log_cdf``.
    """
    _require_beta_params(a, b)
    if math.isnan(log_x) or log_x > 0.0:
        raise DomainError(f"log_x must be <= 0, got {log_x!r}")
    if log_x == 0.0:
        return 0.0
    if a == 1.0 and b == 1.0:  # I_x(1,1) = x identically
        return log_x
    x = math.exp(log_x)
    if x >= _SMALLEST_NORMAL:  # betainc loses relative precision at a subnormal x
        v = float(_sp.betainc(a, b, x))
        if v >= 1e-300:
            return math.log(v)
    # Direct value underflowed or x is subnormal, so x sits far below the
    # beta mode and the series ratio x*(a+b+n)/(a+1+n) starts below 1: no
    # term overflow.
    term = 1.0
    total = 1.0
    for n in range(1000):
        term *= (a + b + n) / (a + 1.0 + n) * x
        total += term
        if term < 1e-18 * total:
            break
    else:
        raise ConvergenceError("series for log regularized incomplete beta did not converge")
    if not math.isfinite(total):
        raise ConvergenceError("series for log regularized incomplete beta overflowed")
    return a * log_x + b * math.log1p(-x) - math.log(a) - log_beta(a, b) + math.log(total)


def find_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Root of fn on the bracket [lo, hi].

    Requires a sign change over the bracket; the iterate never leaves it,
    so the result is deterministic and convergence is guaranteed for
    continuous fn. Converged when the bracket width falls below abs_tol
    (plus rel_tol scaling) or fn hits exactly 0.

    The first call that gets past the bracket checks imports
    ``scipy.optimize`` (about 0.2 s and 20 MB, once per process).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bracket must be finite, got [{lo}, {hi}]")
    if lo > hi:
        lo, hi = hi, lo
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: fn(lo)={f_lo:.6g}, fn(hi)={f_hi:.6g}"
        )
    from scipy.optimize import brentq

    rtol = max(tol.rel_tol, 4.0 * np.finfo(float).eps)
    try:
        root, info = brentq(
            fn, lo, hi, xtol=tol.abs_tol, rtol=rtol, maxiter=tol.max_iter,
            full_output=True, disp=False,
        )
    except ValueError as exc:  # pragma: no cover - sign change already checked
        raise BracketingError(str(exc)) from exc
    if not info.converged:
        raise ConvergenceError(
            f"root finder did not converge in {tol.max_iter} iterations", partial=float(root)
        )
    return float(root)


def integrate(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Adaptive quadrature of fn over (lo, hi); either limit may be infinite.

    Infinite limits are mapped to a finite interval by a monotone change
    of variables inside the adaptive scheme. The estimate satisfies
    err <= max(abs_tol, rel_tol * |result|) or a ConvergenceError carrying
    the partial estimate is raised.

    The first call over a non-empty interval imports ``scipy.integrate``,
    which imports ``scipy.optimize`` (about 0.2 s and 23 MB, once per
    process).
    """
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("integration limits must not be NaN")
    if lo == hi:
        return 0.0
    from scipy.integrate import quad

    with np.errstate(over="ignore", under="ignore"):
        value, err, *rest = quad(
            fn, lo, hi, epsabs=tol.abs_tol, epsrel=tol.rel_tol,
            limit=tol.max_iter, full_output=True,
        )
    if len(rest) > 1:  # quadpack appended an error message
        if err > max(tol.abs_tol, tol.rel_tol * abs(value)):
            raise ConvergenceError(
                f"quadrature failed to converge: {rest[1]}", partial=float(value)
            )
    return float(value)


def log_integrate(
    log_fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """ln of the integral of exp(log_fn) over (lo, hi).

    The integrand is rescaled by its maximum over a probe grid before
    quadrature, so integrals far below the double underflow threshold
    (total mass down to e^-700 and beyond) come out as finite logs.
    Returns -inf when the integrand is 0 everywhere it was probed.

    No library code calls it: custom-pi tails take ``SkewSymmetric``'s
    fixed panel rule. It stays because perfbench's tracer wraps it by name
    (``perfbench/spans.py``), until the benchmark drops that wrap.
    """
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("integration limits must not be NaN")
    if lo == hi:
        return float("-inf")
    a, b = (lo, hi) if lo < hi else (hi, lo)
    # Probe grid: 65 points uniform over the finite part, 24 geometric into
    # each infinite end.
    pts: list[float] = []
    finite_a = a if math.isfinite(a) else (b - 1.0 if math.isfinite(b) else -1.0)
    finite_b = b if math.isfinite(b) else (a + 1.0 if math.isfinite(a) else 1.0)
    if finite_a > finite_b:
        finite_a, finite_b = finite_b, finite_a
    pts.extend(np.linspace(finite_a, finite_b, 65))
    if not math.isfinite(a):
        pts.extend(finite_a - np.geomspace(1e-3, 50.0, 24))
    if not math.isfinite(b):
        pts.extend(finite_b + np.geomspace(1e-3, 50.0, 24))
    shift = max(log_fn(float(t)) for t in pts)
    if shift == float("-inf"):
        return float("-inf")
    value = integrate(lambda t: math.exp(min(log_fn(t) - shift, 700.0)), a, b, tol)
    if value <= 0.0:
        return float("-inf")
    return shift + math.log(value)
