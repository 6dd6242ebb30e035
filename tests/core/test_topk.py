"""Unit tests for Definition 1's engines: :mod:`repro.core.topk` and
the paper's best-first search, :class:`repro.paper.BestFirstTopK`.

The central contract: the best-first index engine returns *exactly* the
brute-force result (same objects, same order) for every query and every
index, because both implement the same deterministic total order.
"""

import pytest

from repro.core.objects import SpatialDatabase
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.core.topk import BruteForceTopK
from repro.index.setrtree import SetRTree
from repro.paper import BestFirstTopK

from tests.conftest import random_queries


class TestBruteForce:
    def test_returns_k_objects(self, small_scorer):
        queries = random_queries(small_scorer.database, 3, seed=1, k=7)
        for q in queries:
            assert len(BruteForceTopK(small_scorer).search(q)) == 7

    def test_k_larger_than_database_returns_all(self, small_scorer):
        q = random_queries(small_scorer.database, 1, seed=2, k=10_000)[0]
        result = BruteForceTopK(small_scorer).search(q)
        assert len(result) == len(small_scorer.database)

    def test_result_satisfies_definition_1(self, small_scorer):
        # ∀o ∈ R, ∀o' ∈ D−R: ST(o,q) ≥ ST(o',q).
        q = random_queries(small_scorer.database, 1, seed=3, k=5)[0]
        result = BruteForceTopK(small_scorer).search(q)
        outside = [
            obj for obj in small_scorer.database
            if obj.oid not in result.object_ids
        ]
        min_inside = min(e.score for e in result)
        for obj in outside:
            assert small_scorer.score(obj, q) <= min_inside + 1e-15


class TestBestFirstAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_setrtree_engine_matches_oracle(self, small_db, small_scorer, small_setrtree, k):
        engine = BestFirstTopK(small_setrtree, small_scorer)
        oracle = BruteForceTopK(small_scorer)
        for q in random_queries(small_db, 10, seed=k, k=k):
            expected = oracle.search(q)
            actual = engine.search(q)
            assert [e.obj.oid for e in actual] == [e.obj.oid for e in expected]
            assert [e.score for e in actual] == [e.score for e in expected]

    def test_medium_database_many_queries(self, medium_db, medium_scorer, medium_setrtree):
        engine = BestFirstTopK(medium_setrtree, medium_scorer)
        oracle = BruteForceTopK(medium_scorer)
        for q in random_queries(medium_db, 15, seed=99, k=10):
            assert [e.obj.oid for e in engine.search(q)] == [
                e.obj.oid for e in oracle.search(q)
            ]

    def test_tie_heavy_database(self, tiny_db):
        # Five objects, many score ties — the priority queue's node-first
        # ordering must still reproduce the oracle order exactly.
        scorer = Scorer(tiny_db)
        tree = SetRTree.build(tiny_db, max_entries=2)
        engine = BestFirstTopK(tree, scorer)
        oracle = BruteForceTopK(scorer)
        for q in random_queries(tiny_db, 20, seed=8, k=5):
            assert [e.obj.oid for e in engine.search(q)] == [
                e.obj.oid for e in oracle.search(q)
            ]


class TestSearchStats:
    def test_stats_reset_per_search(self, medium_db, medium_scorer, medium_setrtree):
        engine = BestFirstTopK(medium_setrtree, medium_scorer)
        q = random_queries(medium_db, 1, seed=4, k=5)[0]
        engine.search(q)
        first = engine.stats.nodes_expanded
        engine.search(q)
        assert engine.stats.nodes_expanded == first  # reset, not accumulated

    def test_best_first_prunes_compared_to_full_scan(
        self, medium_db, medium_scorer, medium_setrtree
    ):
        engine = BestFirstTopK(medium_setrtree, medium_scorer)
        q = random_queries(medium_db, 1, seed=6, k=5)[0]
        engine.search(q)
        # Far fewer objects scored than a full scan would need.
        assert engine.stats.objects_scored < len(medium_db)

    def test_heap_pushes_counted(self, small_db, small_scorer, small_setrtree):
        engine = BestFirstTopK(small_setrtree, small_scorer)
        engine.search(random_queries(small_db, 1, seed=7, k=3)[0])
        assert engine.stats.heap_pushes >= engine.stats.nodes_expanded


class TestEdgeCases:
    def test_k_exceeding_database_via_index(self, small_db, small_scorer, small_setrtree):
        q = random_queries(small_db, 1, seed=11, k=len(small_db) + 50)[0]
        result = BestFirstTopK(small_setrtree, small_scorer).search(q)
        assert len(result) == len(small_db)

    def test_single_object_database(self):
        from tests.conftest import make_tiny_db

        db = make_tiny_db().filter(lambda o: o.oid == 0)
        scorer = Scorer(db)
        tree = SetRTree.build(db)
        result = BestFirstTopK(tree, scorer).search(
            random_queries(db, 1, seed=1, k=1)[0]
        )
        assert len(result) == 1
        assert result[0].obj.oid == 0

    def test_keywords_absent_from_vocabulary(self, small_db, small_scorer, small_setrtree):
        # A query whose keywords match nothing still ranks spatially.
        q = SpatialKeywordQuery(
            small_db.objects[0].loc, frozenset({"zz-not-a-keyword"}), 3
        )
        engine = BestFirstTopK(small_setrtree, small_scorer)
        oracle = BruteForceTopK(small_scorer)
        assert [e.obj.oid for e in engine.search(q)] == [
            e.obj.oid for e in oracle.search(q)
        ]
        assert all(e.tsim == 0.0 for e in engine.search(q))
