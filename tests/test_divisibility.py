import math

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
from skewlab.distributions import ContinuousDistribution
from skewlab.divisibility import DEFAULT_Y_GRID


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

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            estimate_sup_p(MarshallOlkin(2.0), depth=2)

    def test_certified_bound_property(self):
        bounded = estimate_sup_p(MarshallOlkin(4.0))
        assert bounded.certified_bound == 4.0
        unbounded = estimate_sup_p(TwoPiece(0.5, 1.5))
        assert unbounded.certified_bound is None


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
                    v.rule == "theorem-1" and v.boundedness.certified_bound is not None)
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
