"""Independent oracles: quadrature-based CDF recomputation and sampling
goodness-of-fit. Everything here deliberately avoids the mechanism CDF
code paths so it can cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore
from .errors import DomainError
from .mechanisms import SkewedDistribution
from .numcore import Tolerance

__all__ = ["KsResult", "oracle_cdf", "ks_test", "moment_estimate"]

# asymptotic two-sided 1% point of the Kolmogorov distribution
_KS_1PCT = 1.6276

_ORACLE_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-12, max_iter=200)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    critical_1pct: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_1pct


def oracle_cdf(dist: SkewedDistribution, y: float) -> float:
    """P(Y <= y) by adaptive quadrature of the density over (-inf, y].

    Independent of the mechanism CDF composition: only the pdf is used.
    The integration range is split at -8, 0 and 8, so the adaptive scheme
    never straddles the two-piece kink at 0 or the whole bulk in one
    panel. Accurate to ~1e-10. Its first call in a process imports
    ``scipy.integrate`` through ``numcore.integrate`` (about 0.2 s and
    23 MB, once); importing skewlab does not.
    """
    y = float(y)
    if math.isnan(y):
        raise DomainError("ordinate must not be NaN")
    edges = [s for s in (-8.0, 0.0, 8.0) if s < y]
    total = 0.0
    lo = float("-inf")
    for edge in edges:
        total += numcore.integrate(dist.pdf, lo, edge, _ORACLE_TOL)
        lo = edge
    total += numcore.integrate(dist.pdf, lo, y, _ORACLE_TOL)
    return min(max(total, 0.0), 1.0)


def ks_test(samples, cdf) -> KsResult:
    """One-sample two-sided Kolmogorov-Smirnov statistic sup|F_n - F|.

    The draws may come in an array of any shape; the test runs over all
    of them. ``cdf`` may be vectorized (called with the sorted, flattened
    sample) or a scalar callable. The 1% critical value uses the asymptotic
    constant 1.6276/sqrt(n); callers should keep n >= 1e4 for that to be
    fair.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise DomainError("need at least one sample")
    try:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(cdf(float(v))) for v in x])
    # i/n - f and f - (i - 1)/n, bit for bit, in two arrays (1/n - t.min()
    # for the second would move D by an ulp)
    t = np.arange(1.0, n + 1.0)
    t /= n
    t -= f
    u = np.arange(0.0, n)
    u /= n
    np.subtract(f, u, out=u)
    return KsResult(float(max(t.max(), u.max())), int(n), _KS_1PCT / math.sqrt(n))


def moment_estimate(samples, k: int) -> float:
    """Sample k-th raw moment, k in {1, 2, 3, 4}."""
    if k not in (1, 2, 3, 4):
        raise DomainError(f"moment order must be one of 1..4, got {k!r}")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise DomainError("need at least one sample")
    return float(np.mean(x**k))
