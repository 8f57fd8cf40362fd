"""Distribution abstraction, the standard normal base, and reproducible RNG.

Survival functions are first-class here: ``log_sf`` is part of the
interface rather than being derived from ``1 - cdf``, because the tail
diagnostics need masses at ordinates where ``1 - cdf`` is numerically 0.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import wraps

import numpy as np

from . import numcore
from .errors import BracketingError, DomainError
from .numcore import DEFAULT_TOL, LogProb, Tolerance

__all__ = [
    "ContinuousDistribution",
    "StandardNormal",
    "RngState",
    "log_tail_mass",
]


def _out(v):
    """A Python float for a 0-d result, the array otherwise."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _elementwise(method):
    """Lift a method of one float to floats and arrays, element by element;
    a float goes to the method as it is."""

    @wraps(method)
    def lifted(self, x, *args):
        if isinstance(x, float):
            return float(method(self, float(x), *args))
        x = np.asarray(x, dtype=float)
        return _out(np.array([method(self, v, *args) for v in x.ravel().tolist()]).reshape(x.shape))

    return lifted


class RngState:
    """Reproducible random stream with an explicit 64-bit seed.

    Wraps a counter-based generator (Philox): identical seed, identical
    stream, and child streams obtained with :meth:`split` are
    statistically independent of the parent and of each other. It draws
    the samplers' uniform, normal and gamma variates. A state is owned by
    its caller; nothing in the package shares one behind its back.
    """

    def __init__(self, seed: int | None = None):
        if seed is not None:
            seed = int(seed)
            if not (0 <= seed < 2**64):
                raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._seq = np.random.SeedSequence(seed)
        self.seed = seed if seed is not None else int(self._seq.entropy) & (2**64 - 1)
        self.generator = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["RngState"]:
        """n child states, deterministically derived from this state's seed."""
        if n < 1:
            raise DomainError(f"need at least one child stream, got n={n}")
        children = []
        for child_seq in self._seq.spawn(n):
            state = object.__new__(RngState)
            state._seq = child_seq
            state.seed = self.seed
            state.generator = np.random.Generator(np.random.Philox(child_seq))
            children.append(state)
        return children

    def uniform(self, n: int) -> np.ndarray:
        """n variates on (0, 1), endpoints excluded."""
        u = self.generator.random(n)
        # random() may return exactly 0.0; quantile transforms need (0, 1)
        return np.clip(u, 5e-324, 1.0 - 2**-53)

    def standard_normal(self, n: int) -> np.ndarray:
        return self.generator.standard_normal(n)

    def standard_gamma(self, shape: float, n: int) -> np.ndarray:
        return self.generator.standard_gamma(shape, n)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"


class ContinuousDistribution(ABC):
    """Absolutely continuous distribution on the real line.

    Subclasses must provide pdf/cdf and both log tails, each of a float;
    generic quantile and sampling fall back to bracketed inversion of the
    cdf. ``log_pdf`` also takes an array, which it evaluates here one
    element at a time, and so do ``_log_tail_mass``, the two-sided tail
    mass of ``log_tail_mass``, from the float log tails, and
    ``quantile_array``, from ``quantile``; each keeps the array's shape,
    and gives a Python float for a float. A subclass whose methods take
    arrays overrides them with one call each.
    All evaluation methods are pure; instances are immutable after
    construction.
    """

    @abstractmethod
    def pdf(self, y: float) -> float: ...

    @abstractmethod
    def cdf(self, y: float) -> float: ...

    @abstractmethod
    def log_cdf(self, y: float) -> LogProb: ...

    @abstractmethod
    def log_sf(self, y: float) -> LogProb:
        """ln P(Y > y); must stay finite wherever the true mass is
        representable in log space, far past the underflow of 1 - cdf."""

    @_elementwise
    def log_pdf(self, y: float) -> float:
        v = self.pdf(y)
        return math.log(v) if v > 0.0 else float("-inf")

    @_elementwise
    def _log_tail_mass(self, y: float) -> LogProb:
        return np.logaddexp(self.log_cdf(-y), self.log_sf(y))

    def sf(self, y: float) -> float:
        return math.exp(self.log_sf(y))

    def quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        """Generic quantile: expanding-bracket root find on the cdf."""
        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile argument must lie in (0, 1), got {q}")
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if self.cdf(lo) < q:
                break
            lo *= 2.0
        else:
            raise BracketingError("could not bracket quantile from below")
        for _ in range(200):
            if self.cdf(hi) > q:
                break
            hi *= 2.0
        else:
            raise BracketingError("could not bracket quantile from above")
        return numcore.find_root(lambda y: self.cdf(y) - q, lo, hi, tol)

    @_elementwise
    def quantile_array(self, q: float) -> float:
        """``quantile`` of an array of any shape, one float call per element."""
        return self.quantile(q)

    def sample(self, rng: RngState, n: int) -> np.ndarray:
        """n inversion-sampled draws, deterministic given the rng state."""
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        return self.quantile_array(rng.uniform(n))


class StandardNormal(ContinuousDistribution):
    """The standard normal: symmetric base distribution of every
    composition in this package. ``pdf``, ``log_pdf`` and both log tails
    take a float or an array."""

    def pdf(self, y):
        return _out(numcore.normal_pdf(y))

    def log_pdf(self, y):
        return _out(numcore.log_normal_pdf(y))

    def cdf(self, y: float) -> float:
        return float(numcore.normal_cdf(y))

    def log_cdf(self, y):
        return _out(numcore.log_normal_cdf(y))

    def log_sf(self, y):
        return _out(numcore.log_normal_sf(y))

    def quantile(self, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
        return float(numcore.normal_quantile(q))

    def quantile_array(self, q: np.ndarray) -> np.ndarray:
        return _out(numcore.normal_quantile(q))

    def __repr__(self) -> str:
        return "StandardNormal()"


def log_tail_mass(dist: ContinuousDistribution, y):
    """ln of the two-sided tail mass P(Y < -y) + P(Y > y), y > 0; a float,
    or an array of any shape (a 0-d one gives a float).

    Combined by log-sum-exp of the two log tails, so the result stays
    finite whenever either side is representable in log space (for the
    standard normal that covers y up to 40 and beyond). An array takes one
    call of each log tail per element, the standard normal's too, whose
    ln 2 + ln Phi(-y) that gives bit for bit; a composition makes one call
    of its mechanism's ``composed_log_tail_mass``.
    """
    if not isinstance(y, float):
        y = np.asarray(y, dtype=float)
    if not (y > 0.0 if isinstance(y, float) else (y > 0.0).all()):
        raise DomainError(f"tail ordinate must be positive, got {y}")
    return dist._log_tail_mass(y)
