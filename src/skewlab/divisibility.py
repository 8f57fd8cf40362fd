"""Tail diagnostics that certify when a skewed composition cannot be
infinitely divisible.

The operative criterion: the normal is the only infinitely divisible law
whose two-sided tail mass m(y) = S(-y) + 1 - S(y) decays so fast that
T(y) = -ln m(y) / (y ln y) diverges. Three numerical embodiments:

* ``steutel_statistic``: T(y) on a grid, the raw divergence evidence.
* ``verify_theorem1_bound``: when the mechanism density p has an analytic
  bound M, the composed tail obeys m_S(y) <= M * 2*Phi(-y); checked row
  by row in log space. Divergence of T then follows from the normal's.
* ``verify_theorem2_chain``: the two-piece composition with scales
  {1-g, 1+g}, g in (-1, 0), has an unbounded p, but its tail satisfies
  m_S(y) < 2(1-g) Phi(-y/(1-g)) < 4 Phi(-y/2), which forces the same
  divergence; both strict inequalities are checked in log space. It
  covers every two-piece law: rescaling preserves infinite divisibility.

``estimate_sup_p`` classifies boundedness of p by monotone grid
refinement clustering at the endpoints; a stabilized numeric sup only
bounds sup p from below, so it is evidence, never the M of a certificate.
``divisibility_verdict`` picks a rule from what the mechanism states,
runs it, and returns NOT_ID / NORMAL_ESCAPE / INCONCLUSIVE with the
rule's rows and the evidence attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numcore
from .distributions import ContinuousDistribution, StandardNormal, log_tail_mass
from .errors import DomainError, PreconditionError
from .mechanisms import SkewingMechanism, TwoPiece, compose
from .numcore import LogProb

__all__ = [
    "DEFAULT_Y_GRID",
    "Classification",
    "Verdict",
    "TailRow",
    "TailReport",
    "BoundednessReport",
    "BoundCheckRow",
    "ChainRow",
    "DivisibilityVerdict",
    "steutel_statistic",
    "estimate_sup_p",
    "verify_theorem1_bound",
    "verify_theorem2_chain",
    "divisibility_verdict",
]

# Moderate through extreme tails, staying inside log-double reach.
DEFAULT_Y_GRID = (1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0, 20.0, 30.0)

# Classifier knobs: stabilization for BOUNDED, growth factor for UNBOUNDED,
# both measured across the last three refinements.
_STABLE_REL = 1e-6
_GROWTH_FACTOR = 4.0

_STD = StandardNormal()


class Classification(Enum):
    BOUNDED = "BOUNDED"
    UNBOUNDED = "UNBOUNDED"
    INCONCLUSIVE = "INCONCLUSIVE"


class Verdict(Enum):
    NOT_ID = "NOT_ID"
    NORMAL_ESCAPE = "NORMAL_ESCAPE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TailRow:
    """One ordinate of divergence evidence.

    ``flagged`` marks rows whose tail mass underflowed even in log space;
    the statistic there is +inf by convention, never a fabricated number.
    """

    y: float
    log_tail: LogProb
    statistic: float
    flagged: bool = False


@dataclass(frozen=True)
class TailReport:
    rows: tuple[TailRow, ...]

    def statistics(self) -> list[float]:
        return [r.statistic for r in self.rows]

    def to_dicts(self) -> list[dict]:
        return [
            {"y": r.y, "log_tail": r.log_tail, "statistic": r.statistic, "flagged": r.flagged}
            for r in self.rows
        ]


@dataclass(frozen=True)
class BoundednessReport:
    """Sup of the mechanism density over nested endpoint-clustered grids.

    The trace rows are (cumulative grid size, running sup); the running
    sup is non-decreasing by construction. BOUNDED comes either from an
    analytic bound supplied by the mechanism or from stabilization of the
    numeric sup; UNBOUNDED needs geometric growth across refinements.
    """

    sup_estimate: float
    refinement_trace: tuple[tuple[int, float], ...]
    classification: Classification
    analytic_bound: float | None = None

    @property
    def certified_bound(self) -> float | None:
        """The bound usable as M: the analytic one, or None."""
        return self.analytic_bound

    def to_dict(self) -> dict:
        return {
            "sup_trace": [[n, s] for n, s in self.refinement_trace],
            "classification": self.classification.value,
            "sup_estimate": self.sup_estimate,
            "analytic_bound": self.analytic_bound,
        }


@dataclass(frozen=True)
class BoundCheckRow:
    y: float
    log_tail: LogProb
    log_bound: float
    passed: bool


@dataclass(frozen=True)
class ChainRow:
    y: float
    log_tail: LogProb
    log_mid: float
    log_outer: float
    passed: bool

    @property
    def first_strict(self) -> bool:
        return self.log_tail < self.log_mid

    @property
    def second_strict(self) -> bool:
        return self.log_mid < self.log_outer


@dataclass(frozen=True)
class DivisibilityVerdict:
    verdict: Verdict
    rule: str  # "theorem-1", "theorem-2" or "none"
    bound: float | None
    boundedness: BoundednessReport
    tail: TailReport
    note: str | None = None
    rule_rows: tuple[BoundCheckRow | ChainRow, ...] = ()  # of the rule that ran, even failing

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "rule": self.rule,
            "bound": self.bound,
            "note": self.note,
            "evidence": {
                **self.boundedness.to_dict(),
                "tail_rows": self.tail.to_dicts(),
                "rule_rows": [dict(vars(r)) for r in self.rule_rows],
            },
        }


def steutel_statistic(dist: ContinuousDistribution, ys) -> TailReport:
    """T(y) = -ln[S(-y) + 1 - S(y)] / (y ln y) over an increasing grid.

    All ordinates must exceed 1 so the denominator stays positive. For
    the standard normal T(y) grows like y / (2 ln y); tails that decay
    no faster than exponentially give a bounded or vanishing statistic.
    """
    ys = [float(y) for y in ys]
    if not ys:
        raise DomainError("need at least one ordinate")
    if any(y <= 1.0 for y in ys):
        raise DomainError(f"all ordinates must exceed 1, got {ys}")
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise DomainError("ordinates must be strictly increasing")
    rows = []
    for y in ys:
        lt = log_tail_mass(dist, y)
        if math.isfinite(lt):
            rows.append(TailRow(y, lt, -lt / (y * math.log(y))))
        else:
            rows.append(TailRow(y, lt, float("inf"), flagged=True))
    return TailReport(tuple(rows))


def _refinement_grids(depth: int) -> list[np.ndarray]:
    base = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 1999), [0.5]])
    grids = [base]
    for k in range(1, depth + 1):
        eps = 10.0 ** (-(2 + k))
        cluster = np.geomspace(eps, eps * 100.0, 13)
        grids.append(np.concatenate([cluster, 1.0 - cluster]))
    return grids


def estimate_sup_p(mech: SkewingMechanism, depth: int = 10) -> BoundednessReport:
    """Classify sup p by refining evaluation grids toward the endpoints.

    Refinement k pushes the closest grid points to 10^-(2+k) from each
    endpoint, down to 1e-12 at the default depth. The running sup over
    the accumulated grid is monotone, so the classifier only has to look
    at its increments: stabilized within 1e-6 relative over the last
    three refinements reads BOUNDED, growth by a factor >= 4 over the
    same window reads UNBOUNDED, anything in between is INCONCLUSIVE.
    An analytic bound on the mechanism certifies BOUNDED directly.
    """
    if depth < 3:
        raise DomainError(f"need at least 3 refinements, got depth={depth}")
    sup = 0.0
    count = 0
    trace: list[tuple[int, float]] = []
    for grid in _refinement_grids(depth):
        vals = np.asarray(mech.p(grid), dtype=float)
        finite = vals[np.isfinite(vals)]
        if finite.size:
            sup = max(sup, float(np.max(finite)))
        if np.any(np.isinf(vals)):
            sup = float("inf")
        count += grid.size
        trace.append((count, sup))

    analytic = mech.analytic_sup
    tail3 = [s for _, s in trace[-3:]]
    if analytic is not None:
        cls = Classification.BOUNDED
    elif math.isinf(tail3[-1]):
        cls = Classification.UNBOUNDED
    elif tail3[-1] - tail3[0] <= _STABLE_REL * max(tail3[-1], 1e-300):
        cls = Classification.BOUNDED
    elif tail3[-1] >= _GROWTH_FACTOR * tail3[0] and tail3[0] < tail3[1] < tail3[2]:
        cls = Classification.UNBOUNDED
    else:
        cls = Classification.INCONCLUSIVE
    return BoundednessReport(
        sup_estimate=sup,
        refinement_trace=tuple(trace),
        classification=cls,
        analytic_bound=analytic,
    )


def _positive(ys):
    for y in ys:
        y = float(y)
        if y <= 0.0:
            raise DomainError(f"ordinates must be positive, got {y}")
        yield y


def _bound_rows(bound: float, tails) -> list[BoundCheckRow]:
    """Theorem-1 rows ln m_S(y) <= ln M + ln(2 Phi(-y)) from (y, ln m_S(y))."""
    log_2m = math.log(bound) + math.log(2.0)
    rows = []
    for y, lhs in tails:
        rhs = log_2m + float(numcore.log_normal_sf(y))
        rows.append(BoundCheckRow(y, lhs, rhs, passed=lhs <= rhs))
    return rows


def verify_theorem1_bound(mech: SkewingMechanism, ys=DEFAULT_Y_GRID) -> list[BoundCheckRow]:
    """Row-by-row check of ln m_S(y) <= ln M + ln(2 Phi(-y)).

    M is the mechanism's ``analytic_sup``; a mechanism without one raises
    PreconditionError, since a numeric sup only bounds sup p from below.
    Everything is evaluated in log space so the check is meaningful out
    to y = 30 and beyond, where the raw masses are near e^-450.
    """
    bound = mech.analytic_sup
    if bound is None:
        raise PreconditionError(f"{mech!r} has no analytic bound on p; theorem-1 does not apply")
    dist = compose(_STD, mech)
    return _bound_rows(bound, ((y, log_tail_mass(dist, y)) for y in _positive(ys)))


def verify_theorem2_chain(gamma: float, ys=DEFAULT_Y_GRID) -> list[ChainRow]:
    """Two-piece tail chain m_S(y) < 2(1-g) Phi(-y/(1-g)) < 4 Phi(-y/2).

    Defined for the epsilon-skew scales {1-g, 1+g} with g in (-1, 0); a
    g in (0, 1) is accepted and reflected to -g, which leaves the chain
    values unchanged because the density with +g is the mirror image of
    the one with -g. Both inequalities are strict for g != 0.
    """
    if not (math.isfinite(gamma) and -1.0 < gamma < 1.0) or gamma == 0.0:
        raise DomainError(f"gamma must lie in (-1, 0) or (0, 1), got {gamma!r}")
    a = 1.0 + abs(gamma)
    dist = compose(_STD, TwoPiece.epsilon_skew(-abs(gamma)))
    rows = []
    for y in _positive(ys):
        log_tail = log_tail_mass(dist, y)
        log_mid = math.log(2.0 * a) + float(numcore.log_normal_sf(y / a))
        log_outer = math.log(4.0) + float(numcore.log_normal_sf(y / 2.0))
        rows.append(ChainRow(
            y, log_tail, log_mid, log_outer,
            passed=(log_tail < log_mid) and (log_mid < log_outer),
        ))
    return rows


def divisibility_verdict(
    mech: SkewingMechanism,
    ys=DEFAULT_Y_GRID,
    depth: int = 10,
) -> DivisibilityVerdict:
    """Route a mechanism to a verdict by what it states, and run the rule.

    NORMAL_ESCAPE when the composition is a normal law (``is_identity``).
    Otherwise theorem-1 with M = ``analytic_sup`` when there is one, else
    theorem-2 on ``epsilon_skew_gamma`` when there is one, each run on
    the ordinates of the tail statistic; NOT_ID when every row passes.
    INCONCLUSIVE when a row fails or no rule applies, for example Beta
    shapes below 1 or a mechanism known only numerically.
    """
    report = estimate_sup_p(mech, depth)
    tail = steutel_statistic(compose(_STD, mech), [y for y in ys if y > 1.0])

    if mech.is_identity:
        return DivisibilityVerdict(Verdict.NORMAL_ESCAPE, "none", None, report, tail)
    bound, gamma = report.certified_bound, mech.epsilon_skew_gamma
    if bound is not None:
        rule, note = "theorem-1", mech.bound_note
        rows = _bound_rows(bound, ((r.y, r.log_tail) for r in tail.rows))
    elif gamma is not None:
        rule, note = "theorem-2", "two-piece with unequal scales"
        rows = verify_theorem2_chain(gamma, [r.y for r in tail.rows])
    else:
        return DivisibilityVerdict(Verdict.INCONCLUSIVE, "none", None, report, tail)
    failed = [r.y for r in rows if not r.passed]
    if failed:
        return DivisibilityVerdict(Verdict.INCONCLUSIVE, "none", None, report, tail,
                                   f"{rule} rows fail at y={failed}", tuple(rows))
    return DivisibilityVerdict(Verdict.NOT_ID, rule, bound, report, tail, note, tuple(rows))
