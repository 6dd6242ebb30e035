"""End-to-end integration tests across the whole stack.

These replay the paper's two motivating examples and the demonstration
flow on the shipped datasets, through the public API only.
"""

import pytest

from repro.core.geometry import Point
from repro.core.query import Weights
from repro.core.topk import BruteForceTopK
from repro.datasets.hotels import GRAND_VICTORIA, STARBUCKS_CENTRAL
from repro.service.api import YaskEngine


class TestExample1BobCoffee:
    """Example 1: preference adjustment revives the Starbucks."""

    @pytest.fixture(scope="class")
    def engine(self, coffee_db):
        return YaskEngine(coffee_db)

    @pytest.fixture(scope="class")
    def query(self, engine):
        return engine.make_query(
            Point(114.158, 22.282), {"coffee"}, 3,
            weights=Weights.from_spatial(0.15),
        )

    def test_starbucks_initially_missing(self, engine, query, coffee_db):
        result = engine.query(query)
        assert not result.contains(coffee_db.resolve(STARBUCKS_CENTRAL))

    def test_explanation_identifies_preference_problem(self, engine, query):
        explanation = engine.explain(query, [STARBUCKS_CENTRAL])
        entry = explanation.explanations[0]
        # The Starbucks is the closest cafe: nothing is closer.
        assert entry.closer_objects == 0
        assert entry.rank > query.k

    def test_preference_adjustment_revives_starbucks(self, engine, query, coffee_db):
        refinement = engine.refine_preference(query, [STARBUCKS_CENTRAL], lam=0.5)
        refined = engine.query(refinement.refined_query)
        assert refined.contains(coffee_db.resolve(STARBUCKS_CENTRAL))
        # The adjustment moves importance towards spatial proximity,
        # exactly the paper's diagnosis for Example 1.
        assert refinement.refined_query.ws > query.ws

    def test_k_only_alternative_has_higher_or_equal_cost(self, engine, query):
        refinement = engine.refine_preference(query, [STARBUCKS_CENTRAL], lam=0.5)
        assert refinement.penalty <= 0.5  # pure-k fallback costs λ


class TestExample2CarolHotels:
    """Example 2: keyword adaption revives the international hotel."""

    @pytest.fixture(scope="class")
    def engine(self, hotels_db):
        return YaskEngine(hotels_db)

    @pytest.fixture(scope="class")
    def query(self, engine):
        return engine.make_query(
            Point(114.1722, 22.2975), {"clean", "comfortable"}, 3
        )

    def test_hotel_initially_missing(self, engine, query, hotels_db):
        result = engine.query(query)
        assert not result.contains(hotels_db.resolve(GRAND_VICTORIA))

    def test_explanation_identifies_keyword_problem(self, engine, query):
        explanation = engine.explain(query, [GRAND_VICTORIA])
        entry = explanation.explanations[0]
        assert entry.breakdown.tsim == 0.0  # no keyword overlap at all
        assert explanation.suggested_model == "keyword adaption"

    def test_keyword_adaption_revives_hotel(self, engine, query, hotels_db):
        refinement = engine.refine_keywords(query, [GRAND_VICTORIA], lam=0.5)
        refined = engine.query(refinement.refined_query)
        assert refined.contains(hotels_db.resolve(GRAND_VICTORIA))
        # Adapted keywords describe the luxury hotel better.
        assert refinement.added <= hotels_db.resolve(GRAND_VICTORIA).doc

    def test_both_models_compared(self, engine, query):
        answer = engine.why_not(query, [GRAND_VICTORIA], lam=0.5)
        # A zero-overlap hotel is textually hopeless: keyword adaption
        # must be the cheaper fix in this scenario.
        assert answer.best_model == "keyword adaption"


class TestLambdaEffectiveness:
    """Section 4 'Query Refinement Effectiveness': the λ trade-off."""

    @pytest.fixture(scope="class")
    def parts(self, hotels_db):
        engine = YaskEngine(hotels_db)
        query = engine.make_query(
            Point(114.1722, 22.2975), {"clean", "comfortable"}, 3
        )
        return engine, query

    def test_lambda_one_keeps_query_unchanged(self, parts):
        engine, query = parts
        pref = engine.refine_preference(query, [GRAND_VICTORIA], lam=1.0)
        kw = engine.refine_keywords(query, [GRAND_VICTORIA], lam=1.0)
        # λ=1: only Δk is penalised, so the minimum-penalty refinement
        # keeps weights/keywords and enlarges k — Δ-modification is free
        # but the optimiser still reports *some* zero-Δk solution if one
        # exists with zero modification... the guaranteed property is
        # penalty 0 for candidates with Δk = 0 OR unchanged parameters.
        assert pref.penalty <= 1.0
        assert kw.penalty <= 1.0

    def test_lambda_zero_changes_only_modification_side(self, parts):
        engine, query = parts
        pref = engine.refine_preference(query, [GRAND_VICTORIA], lam=0.0)
        kw = engine.refine_keywords(query, [GRAND_VICTORIA], lam=0.0)
        assert pref.delta_w == 0.0 and pref.penalty == 0.0
        assert kw.delta_doc == 0 and kw.penalty == 0.0

    def test_delta_k_weakly_decreases_with_lambda(self, parts):
        engine, query = parts
        delta_ks = [
            engine.refine_keywords(query, [GRAND_VICTORIA], lam=lam).delta_k
            for lam in (0.1, 0.5, 0.9)
        ]
        assert delta_ks == sorted(delta_ks, reverse=True)

    def test_penalties_bounded_by_lambda(self, parts):
        engine, query = parts
        for lam in (0.25, 0.5, 0.75):
            assert (
                engine.refine_preference(query, [GRAND_VICTORIA], lam=lam).penalty
                <= lam + 1e-12
            )
            assert (
                engine.refine_keywords(query, [GRAND_VICTORIA], lam=lam).penalty
                <= lam + 1e-12
            )


class TestCrossModelConsistency:
    def test_indexes_and_brute_force_agree_on_hotels(self, hotels_db):
        indexed = YaskEngine(hotels_db)
        brute = BruteForceTopK(indexed.scorer)
        from repro.bench.workloads import QueryWorkload

        for q in QueryWorkload(hotels_db, seed=190, k=5).queries(10):
            assert [e.obj.oid for e in indexed.query(q)] == [
                e.obj.oid for e in brute.search(q)
            ]

    def test_whynot_after_index_maintenance(self, small_db):
        # Refinements remain correct when the KcR-tree was built
        # incrementally rather than bulk-loaded.
        from repro.core.scoring import Scorer
        from repro.index.kcrtree import KcRTree
        from repro.whynot.keyword import KeywordAdapter
        from repro.bench.workloads import generate_whynot_scenarios

        scorer = Scorer(small_db)
        tree = KcRTree(database=small_db, max_entries=4)
        for obj in small_db:
            tree.insert(obj, obj.loc)
        adapter = KeywordAdapter(scorer, tree)
        scenario = generate_whynot_scenarios(
            scorer, count=1, k=5, missing_count=1, seed=191, rank_window=25
        )[0]
        refinement = adapter.refine(scenario.query, scenario.missing)
        result = BruteForceTopK(scorer).search(refinement.refined_query)
        assert all(result.contains(m) for m in scenario.missing)
