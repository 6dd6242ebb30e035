"""Unit tests for :mod:`repro.index.setrtree`."""

import pytest

from repro.core.geometry import Point
from repro.core.scoring import Scorer
from repro.index.setrtree import SetRTree, SetSummary

from tests.conftest import random_queries


def walk_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(node.children)


def objects_under(node):
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            for entry in current.entries:
                yield entry.item
        else:
            stack.extend(current.children)


class TestSummaries:
    def test_every_node_has_summary(self, small_setrtree):
        for node in walk_nodes(small_setrtree):
            assert isinstance(node.summary, SetSummary)

    def test_summary_sets_are_true_intersection_and_union(self, small_setrtree):
        for node in walk_nodes(small_setrtree):
            docs = [obj.doc for obj in objects_under(node)]
            expected_union = frozenset().union(*docs)
            expected_intersection = docs[0]
            for doc in docs[1:]:
                expected_intersection &= doc
            summary: SetSummary = node.summary
            assert summary.union == expected_union
            assert summary.intersection == expected_intersection
            assert summary.count == len(docs)
            assert summary.min_doc_len == min(len(d) for d in docs)
            assert summary.max_doc_len == max(len(d) for d in docs)

    def test_summaries_maintained_under_insert(self, small_db):
        from repro.core.objects import SpatialObject

        tree = SetRTree(database=small_db, max_entries=4)
        for obj in small_db.objects[:50]:
            tree.insert(obj, obj.loc)
            tree.check_invariants()
        for node in walk_nodes(tree):
            docs = [o.doc for o in objects_under(node)]
            assert node.summary.union == frozenset().union(*docs)
            assert node.summary.count == len(docs)

    def test_summaries_maintained_under_delete(self, small_db):
        tree = SetRTree.build(small_db, max_entries=4)
        victims = small_db.objects[:30]
        for obj in victims:
            assert tree.delete(obj, obj.loc)
        for node in walk_nodes(tree):
            docs = [o.doc for o in objects_under(node)]
            assert node.summary.union == frozenset().union(*docs)
            assert node.summary.count == len(docs)


class TestScoreBounds:
    def test_node_upper_bound_dominates_descendant_scores(
        self, small_db, small_setrtree, small_scorer
    ):
        for q in random_queries(small_db, 5, seed=31, k=3):
            for node in walk_nodes(small_setrtree):
                bound = small_setrtree.score_upper_bound(node, q)
                for obj in objects_under(node):
                    assert small_scorer.score(obj, q) <= bound + 1e-9

    def test_node_lower_bound_below_descendant_scores(
        self, small_db, small_setrtree, small_scorer
    ):
        for q in random_queries(small_db, 5, seed=32, k=3):
            for node in walk_nodes(small_setrtree):
                bound = small_setrtree.score_lower_bound(node, q)
                for obj in objects_under(node):
                    assert small_scorer.score(obj, q) >= bound - 1e-9

    def test_tsim_bounds_bracket_descendants(self, small_db, small_setrtree):
        model = small_setrtree.text_model
        for q in random_queries(small_db, 5, seed=33, k=3):
            for node in walk_nodes(small_setrtree):
                upper = small_setrtree.tsim_upper_bound(node, q.doc)
                lower = small_setrtree.tsim_lower_bound(node, q.doc)
                assert lower <= upper + 1e-12
                for obj in objects_under(node):
                    sim = model.similarity(obj.doc, q.doc)
                    assert lower - 1e-12 <= sim <= upper + 1e-12


class TestCountingQueries:
    def test_count_within_distance_matches_scan(self, small_db, small_setrtree):
        center = small_db.objects[0].loc
        for radius_fraction in (0.0, 0.1, 0.3, 0.7, 2.0):
            radius = radius_fraction * small_db.dataspace.diagonal
            expected = sum(
                1 for obj in small_db if obj.loc.distance_to(center) < radius
            )
            assert small_setrtree.count_within_distance(center, radius) == expected

    def test_count_more_similar_matches_scan(self, small_db, small_setrtree):
        model = small_setrtree.text_model
        for q in random_queries(small_db, 5, seed=34, k=3):
            for threshold in (0.0, 0.2, 0.5, 0.99):
                expected = sum(
                    1
                    for obj in small_db
                    if model.similarity(obj.doc, q.doc) > threshold
                )
                assert (
                    small_setrtree.count_more_similar(q.doc, threshold) == expected
                )

    def test_zero_radius_counts_nothing(self, small_setrtree):
        assert small_setrtree.count_within_distance(Point(0.5, 0.5), 0.0) == 0


class TestConstructionGuards:
    def test_build_covers_database(self, small_db, small_setrtree):
        assert len(small_setrtree) == len(small_db)
        assert sorted(o.oid for o in small_setrtree.iter_items()) == sorted(
            o.oid for o in small_db
        )

    def test_database_property(self, small_db, small_setrtree):
        assert small_setrtree.database is small_db
