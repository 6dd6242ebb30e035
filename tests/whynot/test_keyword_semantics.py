"""Semantic scenarios for keyword adaption beyond simple insertions.

Eqn. (4) allows both inserting and deleting keywords; these scenarios
construct databases where each edit kind is *the* optimal move, so a
regression that quietly stops exploring one half of the edit space fails
loudly.
"""

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.index.kcrtree import KcRTree
from repro.paper import KcRTreeKeywordAdapter


def make_adapter(objects):
    db = SpatialDatabase(objects, dataspace=Rect(0, 0, 1, 1))
    scorer = Scorer(db)
    tree = KcRTree.build(db, max_entries=3, min_entries=1)
    return db, scorer, KcRTreeKeywordAdapter(scorer, tree)


class TestDeletionIsOptimal:
    """The missing object lacks one query keyword that its competitors
    all carry; deleting that keyword levels the textual field while the
    missing object wins on distance."""

    @pytest.fixture()
    def setup(self):
        objects = [
            # The missing object: closest to the query, doc = {food}.
            SpatialObject(0, Point(0.05, 0.05), frozenset({"food"})),
            # Competitors: farther, but carry the noisy keyword "cheap"
            # that the user also typed.
            SpatialObject(1, Point(0.30, 0.30), frozenset({"food", "cheap"})),
            SpatialObject(2, Point(0.35, 0.25), frozenset({"food", "cheap"})),
            SpatialObject(3, Point(0.25, 0.40), frozenset({"food", "cheap"})),
            SpatialObject(4, Point(0.90, 0.90), frozenset({"other"})),
        ]
        return make_adapter(objects)

    def test_scenario_well_posed(self, setup):
        db, scorer, _ = setup
        query = SpatialKeywordQuery(
            Point(0.0, 0.0), frozenset({"food", "cheap"}), 1, Weights(0.3, 0.7)
        )
        # With text-heavy weights, the {food,cheap} competitors beat the
        # nearby {food}-only object.
        assert scorer.rank_of(db.get(0), query) > 1

    def test_deleting_the_noise_keyword_wins(self, setup):
        db, scorer, adapter = setup
        query = SpatialKeywordQuery(
            Point(0.0, 0.0), frozenset({"food", "cheap"}), 1, Weights(0.3, 0.7)
        )
        refinement = adapter.refine(query, [db.get(0)], lam=0.9)
        # λ=0.9 makes k-enlargement expensive, so the model must edit
        # keywords; the only keyword worth touching is "cheap" (the
        # addition pool is empty: M.doc ⊂ q.doc).
        assert refinement.removed == frozenset({"cheap"})
        assert refinement.added == frozenset()
        assert refinement.delta_k == 0
        result = scorer.top_k(refinement.refined_query)
        assert result.entries[0].obj.oid == 0


class TestInsertionIsOptimal:
    """Symmetric scenario: the missing object's distinguishing keyword
    must be added to the query."""

    @pytest.fixture()
    def setup(self):
        objects = [
            SpatialObject(0, Point(0.10, 0.10), frozenset({"food", "sushi"})),
            SpatialObject(1, Point(0.05, 0.05), frozenset({"food"})),
            SpatialObject(2, Point(0.06, 0.08), frozenset({"food"})),
            SpatialObject(3, Point(0.08, 0.04), frozenset({"food"})),
        ]
        return make_adapter(objects)

    def test_adding_the_discriminating_keyword_wins(self, setup):
        db, scorer, adapter = setup
        query = SpatialKeywordQuery(
            Point(0.0, 0.0), frozenset({"food"}), 1, Weights(0.3, 0.7)
        )
        assert scorer.rank_of(db.get(0), query) > 1
        refinement = adapter.refine(query, [db.get(0)], lam=0.9)
        assert refinement.added == frozenset({"sushi"})
        assert refinement.removed == frozenset()
        result = scorer.top_k(refinement.refined_query)
        assert result.entries[0].obj.oid == 0


class TestMixedEditIsOptimal:
    """Both a deletion and an insertion are needed."""

    @pytest.fixture()
    def setup(self):
        objects = [
            SpatialObject(0, Point(0.10, 0.10), frozenset({"food", "sushi"})),
            SpatialObject(1, Point(0.05, 0.05), frozenset({"food", "cheap"})),
            SpatialObject(2, Point(0.06, 0.08), frozenset({"food", "cheap"})),
            SpatialObject(3, Point(0.08, 0.04), frozenset({"food", "cheap"})),
        ]
        return make_adapter(objects)

    def test_swap_edit_found(self, setup):
        db, scorer, adapter = setup
        query = SpatialKeywordQuery(
            Point(0.0, 0.0), frozenset({"food", "cheap"}), 1, Weights(0.2, 0.8)
        )
        assert scorer.rank_of(db.get(0), query) > 1
        refinement = adapter.refine(query, [db.get(0)], lam=0.95)
        # The cheapest zero-Δk refinement swaps the noise keyword for the
        # discriminating one.
        assert refinement.delta_k == 0
        assert "sushi" in refinement.refined_query.doc
        assert "cheap" not in refinement.refined_query.doc
        result = scorer.top_k(refinement.refined_query)
        assert result.entries[0].obj.oid == 0
