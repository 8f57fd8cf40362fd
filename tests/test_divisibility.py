import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bounded_instances, shipped_instances
from oracles import mp_steutel_normal
from skewlab import (
    Classification,
    DomainError,
    MarshallOlkin,
    NumericMechanism,
    OrderStatistics,
    PreconditionError,
    SkewSymmetric,
    StandardNormal,
    TwoPiece,
    Verdict,
    compose,
    divisibility_verdict,
    estimate_sup_p,
    log_tail_mass,
    steutel_statistic,
    verify_theorem1_bound,
    verify_theorem2_chain,
)
from skewlab import cli
from skewlab.distributions import ContinuousDistribution
from skewlab.divisibility import DEFAULT_Y_GRID, BoundCheckRow, ChainRow, TailRow, _probe_grid
from skewlab.mechanisms import SkewingMechanism
from skewlab.numcore import log_normal_sf


class TestSteutelStatistic:
    def test_normal_spot_value(self, std):
        report = steutel_statistic(std, [10.0])
        assert report.rows[0].statistic == pytest.approx(2.2817023409822095, abs=1e-4)
        assert report.rows[0].statistic == pytest.approx(mp_steutel_normal(10.0), rel=1e-12)

    def test_normal_log_tail(self, std):
        report = steutel_statistic(std, [10.0])
        assert report.rows[0].log_tail == pytest.approx(-52.538137969952476, rel=1e-13)

    def test_domain_edge_near_one(self, std):
        report = steutel_statistic(std, [1.0 + 1e-9])
        row = report.rows[0]
        assert math.isfinite(row.statistic)
        assert not row.flagged

    def test_rejects_bad_grids(self, std):
        with pytest.raises(DomainError):
            steutel_statistic(std, [])
        with pytest.raises(DomainError):
            steutel_statistic(std, [0.5, 2.0])
        with pytest.raises(DomainError):
            steutel_statistic(std, [2.0, 2.0])
        with pytest.raises(DomainError):
            steutel_statistic(std, [3.0, 2.0])

    def test_underflowed_tail_is_flagged_not_fabricated(self, std):
        class Bounded(ContinuousDistribution):
            # all mass on [-2, 2]: two-sided tail is exactly 0 past it
            def pdf(self, y):
                return 0.25 if -2.0 <= y <= 2.0 else 0.0

            def cdf(self, y):
                return min(1.0, max(0.0, 0.25 * (y + 2.0)))

            def log_cdf(self, y):
                v = self.cdf(y)
                return math.log(v) if v > 0 else float("-inf")

            def log_sf(self, y):
                v = 1.0 - self.cdf(y)
                return math.log(v) if v > 0 else float("-inf")

        report = steutel_statistic(Bounded(), [1.5, 3.0])
        assert not report.rows[0].flagged
        assert report.rows[1].flagged
        assert report.rows[1].statistic == float("inf")

    def test_azzalini_statistic_equals_normal(self, std):
        # two-sided tails of any skew-symmetric composition match the base
        dist = compose(std, SkewSymmetric.azzalini(1.0))
        rep = steutel_statistic(dist, [5.0, 10.0, 20.0, 30.0])
        for row in rep.rows:
            assert row.statistic == pytest.approx(mp_steutel_normal(row.y), rel=1e-9)

    def test_increasing_from_five_up(self, std):
        for _, mech in shipped_instances():
            stats = steutel_statistic(compose(std, mech), [5.0, 10.0, 20.0, 30.0]).statistics()
            assert all(a < b for a, b in zip(stats, stats[1:])), (mech, stats)


class TestBoundednessClassifier:
    def test_marshall_olkin_sup(self):
        report = estimate_sup_p(MarshallOlkin(2.0))
        assert report.classification is Classification.BOUNDED
        assert report.sup_estimate == pytest.approx(2.0, abs=1e-6)
        assert report.analytic_bound == 2.0

    def test_orderstats_interior_mode(self):
        report = estimate_sup_p(OrderStatistics(2.0, 2.0))
        assert report.classification is Classification.BOUNDED
        assert report.sup_estimate == pytest.approx(1.5, abs=1e-9)

    def test_orderstats_unbounded(self):
        report = estimate_sup_p(OrderStatistics(0.5, 2.0))
        assert report.classification is Classification.UNBOUNDED
        assert report.analytic_bound is None

    def test_twopiece_unbounded(self):
        report = estimate_sup_p(TwoPiece(0.5, 1.5))
        assert report.classification is Classification.UNBOUNDED

    def test_identity_stays_at_one(self):
        report = estimate_sup_p(OrderStatistics(1.0, 1.0))
        assert report.classification is Classification.BOUNDED
        assert report.sup_estimate == pytest.approx(1.0, abs=1e-12)

    def test_trace_monotone_nondecreasing(self):
        for _, mech in shipped_instances():
            trace = estimate_sup_p(mech).refinement_trace
            sups = [s for _, s in trace]
            assert all(a <= b for a, b in zip(sups, sups[1:]))
            sizes = [n for n, _ in trace]
            assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_analytic_bound_property(self):
        bounded = estimate_sup_p(MarshallOlkin(4.0))
        assert bounded.analytic_bound == 4.0
        unbounded = estimate_sup_p(TwoPiece(0.5, 1.5))
        assert unbounded.analytic_bound is None


def _refinement_grids():
    """The base grid and the ten endpoint clusters, one array each."""
    grids = [np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 1999), [0.5]])]
    for k in range(1, 11):
        eps = 10.0 ** (-(2 + k))
        cluster = np.geomspace(eps, eps * 100.0, 13)
        grids.append(np.concatenate([cluster, 1.0 - cluster]))
    return grids


def _per_grid_sup_p(mech):
    """estimate_sup_p's (trace, sup, classification) with p called on each
    refinement grid in turn."""
    grids = _refinement_grids()
    sup, count, trace = 0.0, 0, []
    for grid in grids:
        vals = np.asarray(mech.p(grid), dtype=float)
        finite = vals[np.isfinite(vals)]
        if finite.size:
            sup = max(sup, float(np.max(finite)))
        if np.any(np.isinf(vals)):
            sup = float("inf")
        count += grid.size
        trace.append((count, sup))
    s = [v for _, v in trace[-3:]]
    if mech.analytic_sup is not None:
        cls = Classification.BOUNDED
    elif math.isinf(s[-1]):
        cls = Classification.UNBOUNDED
    elif s[-1] - s[0] <= 1e-6 * max(s[-1], 1e-300):
        cls = Classification.BOUNDED
    elif s[-1] >= 4.0 * s[0] and s[0] < s[1] < s[2]:
        cls = Classification.UNBOUNDED
    else:
        cls = Classification.INCONCLUSIVE
    return tuple(trace), sup, cls


class _Spiky(SkewingMechanism):
    """p = 1 + x, but NaN on all of refinement grid 5 (points 1e-7 to 1e-5
    from an end) and +inf closer than 5e-10 to an end, from grid 8 on."""

    def p(self, x):
        x = np.asarray(x, dtype=float)
        edge = np.minimum(x, 1.0 - x)
        out = np.where((edge >= 0.99e-7) & (edge <= 1.01e-5), np.nan, 1.0 + x)
        return np.where(edge < 5e-10, np.inf, out)

    def composed_log_cdf(self, y):
        raise NotImplementedError


class TestSupProbeInOneCall:
    """estimate_sup_p calls p once on all its grids; its report is the one
    a call per grid gives, bit for bit."""

    @pytest.mark.parametrize("mech", [
        SkewSymmetric.azzalini(3.0), SkewSymmetric.azzalini(-4.0), SkewSymmetric.azzalini(0.0),
        cli.build_mechanism("skewsym-custom", {"pi": "logistic", "alpha": 2.0}),
        cli.build_mechanism("skewsym-custom", {"pi": "sign"}),
        MarshallOlkin(0.25), MarshallOlkin(4.0), MarshallOlkin(1.0),
        OrderStatistics(2.0, 3.0), OrderStatistics(1.0, 1.0), OrderStatistics(1.0, 2.0),
        OrderStatistics(0.5, 2.0), OrderStatistics(0.5, 0.5), OrderStatistics(5.0, 1e-3),
        TwoPiece(0.5, 1.5), TwoPiece(5.0, 0.1), TwoPiece(0.5, 0.8), TwoPiece(1.5, 1.5),
        NumericMechanism(compose(StandardNormal(), MarshallOlkin(2.0))),
        _Spiky(),
    ], ids=repr)
    def test_report_equals_per_grid_loop(self, mech):
        trace, sup, cls = _per_grid_sup_p(mech)
        report = estimate_sup_p(mech)
        assert report.refinement_trace == trace
        assert [math.copysign(1.0, v) for _, v in report.refinement_trace] == \
            [math.copysign(1.0, v) for _, v in trace]
        assert report.sup_estimate == sup and report.classification is cls

    def test_spiky_trace_skips_nan_and_takes_inf(self):
        sups = [s for _, s in estimate_sup_p(_Spiky()).refinement_trace]
        assert sups[0] == 1.999 and sups[5] == sups[4] < sups[6] < sups[7] < 2.0
        assert sups[8:] == [math.inf] * 3

    def test_grid_is_a_fixed_read_only_input(self):
        grid, starts, ends = _probe_grid()
        assert _probe_grid()[0] is grid
        grids = _refinement_grids()
        assert np.array_equal(grid, np.concatenate(grids)) and ends[-1] == 2260
        assert [grid[a:b].size for a, b in zip(starts, ends)] == [g.size for g in grids]
        with pytest.raises(ValueError):
            grid[0] = 0.5


class _ScalarLoopMechanism(NumericMechanism):
    """The extracted mechanism with p taken one float at a time."""

    def p(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([NumericMechanism.p(self, float(v)) for v in x.ravel()]).reshape(x.shape)


class TestNumericSupProbe:
    """An extracted mechanism's p takes the 2,260 probe points in one
    source.log_pdf call; the verdict is the one a call per point gives."""

    @pytest.mark.parametrize("mech", [MarshallOlkin(2.0), SkewSymmetric.azzalini(3.0),
                                      TwoPiece.epsilon_skew(-0.5)], ids=repr)
    def test_verdict_equals_scalar_loop(self, mech, std):
        source = compose(std, mech)
        got = divisibility_verdict(NumericMechanism(source))
        want = divisibility_verdict(_ScalarLoopMechanism(source))
        assert (got.verdict, got.rule, got.bound) == (want.verdict, want.rule, want.bound)
        a, b = got.boundedness, want.boundedness
        assert a.classification is b.classification
        assert [n for n, _ in a.refinement_trace] == [n for n, _ in b.refinement_trace]
        for (_, s), (_, t) in zip(a.refinement_trace, b.refinement_trace):
            assert abs(s - t) <= 4.0 * math.ulp(t), (s, t)
        assert abs(a.sup_estimate - b.sup_estimate) <= 4.0 * math.ulp(b.sup_estimate)


class TestBoundVerifier:
    @pytest.mark.parametrize("name,mech", bounded_instances())
    def test_all_rows_pass_on_default_grid(self, name, mech):
        rows = verify_theorem1_bound(mech)
        assert [r.y for r in rows] == list(DEFAULT_Y_GRID)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]

    def test_identity_holds_with_equality(self):
        for mech in (MarshallOlkin(1.0), OrderStatistics(1.0, 1.0)):
            for row in verify_theorem1_bound(mech):
                assert row.log_tail == row.log_bound

    def test_azzalini_spot_margin(self, std):
        # tail of the composition is exactly 2 Phi(-y) while the bound is
        # M * 2 Phi(-y) with M = 2, so the margin is exactly ln 2
        rows = verify_theorem1_bound(SkewSymmetric.azzalini(1.0), ys=[5.0])
        assert rows[0].passed
        assert rows[0].log_bound - rows[0].log_tail == pytest.approx(math.log(2.0), abs=1e-9)

    def test_marshall_olkin_grid(self):
        rows = verify_theorem1_bound(MarshallOlkin(4.0), ys=[2.0, 5.0, 10.0, 20.0])
        assert all(r.passed for r in rows)

    @pytest.mark.parametrize("mech", [MarshallOlkin(2.0), OrderStatistics(2.0, 3.0),
                                      SkewSymmetric.azzalini(3.0)])
    def test_row_without_a_finite_bound_fails(self, mech):
        # from y ~ 1.9e154 y^2/2 overflows: both sides are -inf and compare nothing
        rows = verify_theorem1_bound(mech, [30.0, 1e200])
        assert [r.passed for r in rows] == [True, False]
        assert rows[1].log_bound == rows[1].log_tail == float("-inf")
        v = divisibility_verdict(mech, ys=[30.0, 1e200])
        assert (v.verdict, v.rule, v.bound) == (Verdict.INCONCLUSIVE, "none", None)
        assert v.note == "theorem-1 rows fail at y=[1e+200]"

    def test_unbounded_mechanism_is_rejected(self, std):
        with pytest.raises(PreconditionError):
            verify_theorem1_bound(TwoPiece(0.5, 1.5))
        with pytest.raises(PreconditionError):
            verify_theorem1_bound(OrderStatistics(0.5, 2.0))
        with pytest.raises(PreconditionError):
            verify_theorem1_bound(NumericMechanism(compose(std, MarshallOlkin(2.0))))


class TestChainVerifier:
    @pytest.mark.parametrize("gamma", [-0.9, -0.5, -0.1, -1e-6])
    def test_both_inequalities_strict(self, gamma):
        for row in verify_theorem2_chain(gamma):
            assert row.first_strict and row.second_strict

    def test_spot_values(self):
        row = verify_theorem2_chain(-0.5, ys=[2.0])[0]
        assert math.exp(row.log_tail) == pytest.approx(0.13683266520971836, rel=1e-4)
        assert math.exp(row.log_mid) == pytest.approx(0.27363365917760361, rel=1e-4)
        assert math.exp(row.log_outer) == pytest.approx(0.63462101572582821, rel=1e-4)

    def test_reflection_gives_identical_rows(self):
        neg = verify_theorem2_chain(-0.5)
        pos = verify_theorem2_chain(0.5)
        for a, b in zip(neg, pos):
            assert a.log_tail == b.log_tail
            assert a.log_mid == b.log_mid
            assert a.log_outer == b.log_outer

    def test_tail_matches_closed_form(self, std):
        # lhs of the chain equals the two-sided tail of the composition
        gamma = -0.5
        dist = compose(std, TwoPiece.epsilon_skew(gamma))
        for row in verify_theorem2_chain(gamma, ys=[2.0, 10.0, 30.0]):
            assert row.log_tail == pytest.approx(log_tail_mass(dist, row.y), rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -1.0, 1.5, float("nan")])
    def test_domain(self, gamma):
        with pytest.raises(DomainError):
            verify_theorem2_chain(gamma)

    def test_deep_grid_stays_strict(self):
        rows = verify_theorem2_chain(-0.9, ys=[30.0])
        assert rows[0].passed
        assert math.isfinite(rows[0].log_tail)


def _counting_tail_mass(monkeypatch) -> list:
    """Patch the tail mass the diagnostics call to record each argument."""
    from skewlab import divisibility

    calls = []

    def counting(dist, y):
        calls.append(y)
        return log_tail_mass(dist, y)

    monkeypatch.setattr(divisibility, "log_tail_mass", counting)
    return calls


class TestOneCallPerGrid:
    """The diagnostics make one ``log_tail_mass`` call per grid, and their
    rows equal a reference that calls it once per ordinate, ``passed`` a
    Python bool: ``json.dumps(..., default=float)`` would print an
    ``np.bool_`` as 1.0 in ``check``'s JSON."""

    @pytest.mark.parametrize("name,mech", shipped_instances())
    def test_steutel_statistic(self, name, mech, std, monkeypatch):
        dist = compose(std, mech)
        want = []
        for y in DEFAULT_Y_GRID:
            lt = log_tail_mass(dist, y)
            want.append(TailRow(y, lt, -lt / (y * math.log(y))))
        calls = _counting_tail_mass(monkeypatch)
        assert steutel_statistic(dist, DEFAULT_Y_GRID).rows == tuple(want)
        assert len(calls) == 1

    @pytest.mark.parametrize("name,mech", bounded_instances())
    def test_theorem1_rows(self, name, mech, std, monkeypatch):
        dist, bound = compose(std, mech), mech.analytic_sup
        want = []
        for y in DEFAULT_Y_GRID:
            lhs = log_tail_mass(dist, y)
            rhs = math.log(bound) + math.log(2.0) + float(log_normal_sf(y))
            want.append(BoundCheckRow(y, lhs, rhs, passed=lhs <= rhs))
        calls = _counting_tail_mass(monkeypatch)
        rows = verify_theorem1_bound(mech)
        assert rows == want and len(calls) == 1
        assert all(type(r.passed) is bool for r in rows)

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, -0.1, -1e-6, 0.3, 0.5])
    def test_theorem2_rows(self, gamma, std, monkeypatch):
        a = 1.0 + abs(gamma)
        dist = compose(std, TwoPiece.epsilon_skew(-abs(gamma)))
        want = []
        for y in DEFAULT_Y_GRID:
            tail = log_tail_mass(dist, y)
            mid = math.log(2.0 * a) + float(log_normal_sf(y / a))
            outer = math.log(4.0) + float(log_normal_sf(y / 2.0))
            want.append(ChainRow(y, tail, mid, outer, passed=(tail < mid) and (mid < outer)))
        calls = _counting_tail_mass(monkeypatch)
        rows = verify_theorem2_chain(gamma)
        assert rows == want and len(calls) == 1
        assert all(type(r.passed) is bool for r in rows)

    def test_verdict_json_prints_booleans(self):
        evidence = divisibility_verdict(MarshallOlkin(2.0)).to_dict()["evidence"]
        assert all(type(r["passed"]) is bool for r in evidence["rule_rows"])
        assert all(type(r["flagged"]) is bool for r in evidence["tail_rows"])


class TestVerdicts:
    def test_azzalini_bounded_rule(self):
        v = divisibility_verdict(SkewSymmetric.azzalini(3.0))
        assert v.verdict is Verdict.NOT_ID
        assert v.rule == "theorem-1"
        assert v.bound == 2.0

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 2.0, 4.0])
    def test_marshall_olkin_not_id(self, gamma):
        v = divisibility_verdict(MarshallOlkin(gamma))
        assert (v.verdict, v.rule) == (Verdict.NOT_ID, "theorem-1")
        assert v.bound == max(gamma, 1.0 / gamma)

    def test_marshall_olkin_identity(self):
        v = divisibility_verdict(MarshallOlkin(1.0))
        assert (v.verdict, v.rule) == (Verdict.NORMAL_ESCAPE, "none")

    @pytest.mark.parametrize("shapes", [(2.0, 2.0), (1.5, 3.0), (5.0, 1.2)])
    def test_orderstats_above_one(self, shapes):
        v = divisibility_verdict(OrderStatistics(*shapes))
        assert (v.verdict, v.rule) == (Verdict.NOT_ID, "theorem-1")
        assert v.note is None

    def test_orderstats_boundary_shape_noted(self):
        v = divisibility_verdict(OrderStatistics(1.0, 2.0))
        assert (v.verdict, v.rule) == (Verdict.NOT_ID, "theorem-1")
        assert v.note is not None

    def test_orderstats_below_one_inconclusive(self):
        v = divisibility_verdict(OrderStatistics(0.5, 2.0))
        assert (v.verdict, v.rule) == (Verdict.INCONCLUSIVE, "none")
        v = divisibility_verdict(OrderStatistics(0.5, 0.5))
        assert v.verdict is Verdict.INCONCLUSIVE
        # a numeric sup that stabilizes only bounds sup p from below
        v = divisibility_verdict(OrderStatistics(1.0 - 1e-9, 2.0))
        assert v.boundedness.classification is Classification.BOUNDED
        assert v.boundedness.sup_estimate == pytest.approx(2.00000005, rel=1e-8)
        assert (v.verdict, v.rule, v.rule_rows) == (Verdict.INCONCLUSIVE, "none", ())

    def test_numeric_mechanism_inconclusive(self, std):
        v = divisibility_verdict(NumericMechanism(compose(std, MarshallOlkin(2.0))))
        assert v.boundedness.classification is Classification.BOUNDED
        assert v.boundedness.sup_estimate < 2.0  # sup p = 2
        assert (v.verdict, v.rule, v.bound) == (Verdict.INCONCLUSIVE, "none", None)

    def test_failing_rule_rows_inconclusive(self):
        class Understated(MarshallOlkin):
            @property
            def analytic_sup(self):
                return 1.0  # sup p is 4

        v = divisibility_verdict(Understated(4.0))
        assert (v.verdict, v.rule, v.bound) == (Verdict.INCONCLUSIVE, "none", None)
        assert not any(r.passed for r in v.rule_rows)
        assert v.note == f"theorem-1 rows fail at y={list(DEFAULT_Y_GRID)}"
        assert len(v.to_dict()["evidence"]["rule_rows"]) == len(DEFAULT_Y_GRID)

    def test_twopiece_rule(self):
        v = divisibility_verdict(TwoPiece.epsilon_skew(0.3))
        assert (v.verdict, v.rule) == (Verdict.NOT_ID, "theorem-2")
        v = divisibility_verdict(TwoPiece.epsilon_skew(0.0))
        assert (v.verdict, v.rule) == (Verdict.NORMAL_ESCAPE, "none")
        v = divisibility_verdict(TwoPiece(2.0, 2.0))
        assert v.verdict is Verdict.NORMAL_ESCAPE
        # both scales <= 1: p is bounded by 2/(a+b)
        v = divisibility_verdict(TwoPiece(0.5, 0.8))
        assert (v.verdict, v.rule, v.note) == (Verdict.NOT_ID, "theorem-1", None)
        assert v.bound == 2.0 / 1.3
        # g = (b-a)/(a+b) rounds to -1, outside the chain's domain
        v = divisibility_verdict(TwoPiece(2.0, 1e-17))
        assert (v.verdict, v.rule) == (Verdict.INCONCLUSIVE, "none")

    def test_evidence_attached(self):
        v = divisibility_verdict(MarshallOlkin(2.0))
        assert v.boundedness.classification is Classification.BOUNDED
        assert len(v.tail.rows) == len(DEFAULT_Y_GRID)
        d = v.to_dict()
        assert d["verdict"] == "NOT_ID"
        assert d["rule"] == "theorem-1"
        assert d["bound"] == 2.0
        assert len(d["evidence"]["sup_trace"]) >= 4
        assert len(d["evidence"]["tail_rows"]) == len(DEFAULT_Y_GRID)
        assert [r["passed"] for r in d["evidence"]["rule_rows"]] == [True] * len(DEFAULT_Y_GRID)

    def test_not_id_always_certified(self):
        # soundness: a NOT_ID verdict carries either a certified bound or
        # the two-piece rule
        for _, mech in shipped_instances():
            v = divisibility_verdict(mech)
            if v.verdict is Verdict.NOT_ID:
                assert (v.rule == "theorem-2" and isinstance(mech, TwoPiece)) or (
                    v.rule == "theorem-1" and v.boundedness.analytic_bound is not None)
                # the cited rule ran on every tail ordinate and passed
                assert [r.y for r in v.rule_rows] == [r.y for r in v.tail.rows]
                assert all(r.passed for r in v.rule_rows)
                if v.rule == "theorem-1":
                    assert [r.log_tail for r in v.rule_rows] == [r.log_tail for r in v.tail.rows]

    @given(st.floats(min_value=0.05, max_value=0.99),
           st.floats(min_value=0.05, max_value=6.0))
    @settings(max_examples=15, deadline=None)
    def test_below_one_shapes_never_certified(self, p1, p2):
        v = divisibility_verdict(OrderStatistics(p1, p2))
        assert v.verdict in (Verdict.INCONCLUSIVE, Verdict.NORMAL_ESCAPE)
        assert v.verdict is not Verdict.NOT_ID


class TestLogBaseInvariance:
    """Rescaling every log by a positive constant (a change of log base)
    must not move any verdict-level comparison."""

    def test_bound_rows_invariant(self):
        rows = verify_theorem1_bound(MarshallOlkin(4.0))
        for c in (0.1, 1.0, math.log(10.0), 7.3):
            rescaled = [(c * r.log_tail, c * r.log_bound) for r in rows]
            assert [lhs <= rhs for lhs, rhs in rescaled] == [r.passed for r in rows]

    def test_chain_rows_invariant(self):
        rows = verify_theorem2_chain(-0.5)
        for c in (0.5, 2.303):
            assert all((c * r.log_tail < c * r.log_mid) == r.first_strict for r in rows)
            assert all((c * r.log_mid < c * r.log_outer) == r.second_strict for r in rows)

    def test_statistic_ordering_invariant(self, std):
        stats = steutel_statistic(compose(std, MarshallOlkin(2.0)),
                                  [5.0, 10.0, 20.0, 30.0]).statistics()
        for c in (0.1, 3.7):
            scaled = [c * t for t in stats]
            assert [a < b for a, b in zip(scaled, scaled[1:])] == \
                [a < b for a, b in zip(stats, stats[1:])]
