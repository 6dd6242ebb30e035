"""Property-based tests: index top-k ≡ brute-force top-k on arbitrary data."""

from hypothesis import given, settings

from repro.core.scoring import Scorer
from repro.core.topk import BruteForceTopK
from repro.index.setrtree import SetRTree
from repro.paper import BestFirstTopK

from tests.properties.strategies import databases_with_queries


@settings(max_examples=60, deadline=None)
@given(databases_with_queries())
def test_setrtree_best_first_equals_brute_force(db_and_query):
    database, query = db_and_query
    scorer = Scorer(database)
    tree = SetRTree.build(database, max_entries=4)
    engine = BestFirstTopK(tree, scorer)
    oracle = BruteForceTopK(scorer)
    actual = engine.search(query)
    expected = oracle.search(query)
    assert [e.obj.oid for e in actual] == [e.obj.oid for e in expected]
    assert [e.score for e in actual] == [e.score for e in expected]


@settings(max_examples=60, deadline=None)
@given(databases_with_queries())
def test_definition_1_holds(db_and_query):
    """∀o ∈ R, ∀o' ∈ D − R: ST(o, q) ≥ ST(o', q)."""
    database, query = db_and_query
    scorer = Scorer(database)
    result = scorer.top_k(query)
    if not len(result):
        return
    threshold = min(entry.score for entry in result)
    for obj in database:
        if obj.oid not in result.object_ids:
            assert scorer.score(obj, query) <= threshold + 1e-15


@settings(max_examples=60, deadline=None)
@given(databases_with_queries())
def test_rank_of_consistent_with_rank_all(db_and_query):
    database, query = db_and_query
    scorer = Scorer(database)
    full = {entry.obj.oid: entry.rank for entry in scorer.rank_all(query)}
    for obj in database:
        assert scorer.rank_of(obj, query) == full[obj.oid]
