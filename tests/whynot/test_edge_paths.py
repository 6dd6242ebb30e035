"""Edge-path tests across the why-not modules."""

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.index.kcrtree import KcRTree
from repro.paper import KcRTreeKeywordAdapter
from repro.whynot.explanation import ExplanationGenerator, MissingReason
from repro.whynot.preference import PreferenceAdjuster


def tiny_engine(objects):
    db = SpatialDatabase(objects, dataspace=Rect(0, 0, 1, 1))
    scorer = Scorer(db)
    return db, scorer


class TestReasonClassificationCases:
    def test_too_far_reason(self):
        # Missing object: textually perfect but spatially distant.
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.95, 0.95), frozenset({"a", "b"})),
            SpatialObject(1, Point(0.05, 0.05), frozenset({"a", "b"})),
            SpatialObject(2, Point(0.10, 0.05), frozenset({"a"})),
        ])
        generator = ExplanationGenerator(scorer)
        query = SpatialKeywordQuery(Point(0, 0), frozenset({"a", "b"}), 1)
        result = scorer.top_k(query)
        entry = generator.explain(query, [db.get(0)], result=result).explanations[0]
        assert entry.reason is MissingReason.TOO_FAR

    def test_low_relevance_reason(self):
        # Missing object: closest, but keyword-poor vs the winner.
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.02, 0.02), frozenset({"x"})),
            SpatialObject(1, Point(0.10, 0.10), frozenset({"a", "b"})),
            SpatialObject(2, Point(0.90, 0.90), frozenset({"a"})),
        ])
        generator = ExplanationGenerator(scorer)
        query = SpatialKeywordQuery(Point(0, 0), frozenset({"a", "b"}), 1)
        result = scorer.top_k(query)
        entry = generator.explain(query, [db.get(0)], result=result).explanations[0]
        assert entry.reason is MissingReason.LOW_RELEVANCE

    def test_both_reason(self):
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.9, 0.9), frozenset({"x"})),
            SpatialObject(1, Point(0.05, 0.05), frozenset({"a", "b"})),
            SpatialObject(2, Point(0.5, 0.5), frozenset({"a"})),
        ])
        generator = ExplanationGenerator(scorer)
        query = SpatialKeywordQuery(Point(0, 0), frozenset({"a", "b"}), 1)
        result = scorer.top_k(query)
        entry = generator.explain(query, [db.get(0)], result=result).explanations[0]
        assert entry.reason is MissingReason.BOTH

    def test_preference_imbalance_reason(self):
        # Missing object ties the winner on distance and beats it on
        # text, but the tie at equal score goes to the smaller oid —
        # component-wise it is not behind on either axis.
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.05, 0.05), frozenset({"a", "b"})),
            SpatialObject(5, Point(0.05, 0.05), frozenset({"a", "b"})),
            SpatialObject(7, Point(0.9, 0.9), frozenset({"x"})),
        ])
        generator = ExplanationGenerator(scorer)
        query = SpatialKeywordQuery(Point(0, 0), frozenset({"a", "b"}), 1)
        result = scorer.top_k(query)
        entry = generator.explain(query, [db.get(5)], result=result).explanations[0]
        assert entry.reason is MissingReason.PREFERENCE_IMBALANCE


class TestKeywordAdapterBudget:
    def test_candidate_budget_truncates_but_answers(self, small_scorer, small_kcrtree):
        from repro.bench.workloads import generate_whynot_scenarios

        scenario = generate_whynot_scenarios(
            small_scorer, count=1, k=5, missing_count=1, seed=270,
            rank_window=25,
        )[0]
        budgeted = KcRTreeKeywordAdapter(
            small_scorer, small_kcrtree, candidate_budget=1
        )
        refinement = budgeted.refine(scenario.query, scenario.missing)
        # Only the zero-edit candidate was examined: pure k-enlargement.
        assert refinement.delta_doc == 0
        assert refinement.stats.candidates_generated == 1
        assert refinement.penalty == pytest.approx(0.5)

    def test_lambda_one_with_budget_is_safe(self, small_scorer, small_kcrtree):
        from repro.bench.workloads import generate_whynot_scenarios

        scenario = generate_whynot_scenarios(
            small_scorer, count=1, k=5, missing_count=1, seed=271,
            rank_window=25,
        )[0]
        budgeted = KcRTreeKeywordAdapter(
            small_scorer, small_kcrtree, candidate_budget=200
        )
        refinement = budgeted.refine(scenario.query, scenario.missing, lam=1.0)
        assert refinement.stats.candidates_generated <= 200
        assert refinement.penalty <= 1.0 + 1e-12


class TestPreferenceExtremes:
    def test_crossover_at_extreme_weight_handled(self):
        # Two objects whose crossover sits extremely close to w=1: the
        # far-side candidate search must not produce invalid weights.
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.0, 0.0), frozenset({"a"})),
            SpatialObject(1, Point(0.001, 0.0), frozenset({"a", "b"})),
            SpatialObject(2, Point(0.9, 0.9), frozenset({"b"})),
        ])
        adjuster = PreferenceAdjuster(scorer)
        query = SpatialKeywordQuery(
            Point(0, 0), frozenset({"a", "b"}), 1, Weights.from_spatial(0.5)
        )
        missing = db.get(0)
        if scorer.rank_of(missing, query) <= 1:
            pytest.skip("object not missing in this configuration")
        refinement = adjuster.refine(query, [missing])
        assert 0.0 < refinement.refined_query.ws < 1.0

    def test_all_objects_identical_lines(self):
        # Every object has the same dual point: no crossovers exist and
        # only k-enlargement can revive the missing object.
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.5, 0.5), frozenset({"a"})),
            SpatialObject(1, Point(0.5, 0.5), frozenset({"a"})),
            SpatialObject(2, Point(0.5, 0.5), frozenset({"a"})),
        ])
        adjuster = PreferenceAdjuster(scorer)
        query = SpatialKeywordQuery(Point(0.5, 0.5), frozenset({"a"}), 1)
        # oid tie-break: object 2 ranks third forever.
        refinement = adjuster.refine(query, [db.get(2)], lam=0.5)
        assert refinement.crossovers == 0
        assert refinement.delta_w == 0.0
        assert refinement.refined_query.k == 3
        assert refinement.penalty == pytest.approx(0.5)

    def test_viable_intervals_empty_when_unfixable(self):
        db, scorer = tiny_engine([
            SpatialObject(0, Point(0.5, 0.5), frozenset({"a"})),
            SpatialObject(1, Point(0.5, 0.5), frozenset({"a"})),
        ])
        adjuster = PreferenceAdjuster(scorer)
        query = SpatialKeywordQuery(Point(0.5, 0.5), frozenset({"a"}), 1)
        assert adjuster.viable_weight_intervals(query, db.get(1)) == []
