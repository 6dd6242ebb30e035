"""Executor maintenance without a skyband (Δ=0), and the why-not cache.

At ``skyband_delta=0`` there is no buffer to patch from, so
``maintain`` keeps exactly the entries the batch summary proves
unaffected and drops the rest — drop-on-write, scoped by the summary.
The linked why-not cache is drop-on-write without a scope: every batch
drops every cached answer, and the next fetch recomputes it cold.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point, Rect
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion
from tests.conftest import make_tiny_db


def query_at(x: float, y: float, *keywords: str, k: int = 2):
    return SpatialKeywordQuery(loc=Point(x, y), doc=frozenset(keywords), k=k)


class TestMaintainWithoutSkyband:
    def make(self):
        engine = YaskEngine(make_tiny_db())
        executor = QueryExecutor(engine, cache_capacity=16)
        return engine, executor

    def test_unaffected_entries_survive_affected_drop(self):
        engine, executor = self.make()
        near_sw = query_at(0.1, 0.1, "chinese")
        near_ne = query_at(0.9, 0.9, "spanish")
        executor.execute(near_sw)
        executor.execute(near_ne)
        report = engine.apply_mutations(
            [
                Mutation.insert(
                    SpatialObject(10, Point(0.88, 0.9), frozenset({"spanish"}))
                )
            ]
        )
        tally = executor.maintain(report.change)
        assert tally == {
            "kept": 1,
            "patched": 0,
            "dropped": 1,
            "rescans": 0,
            "linked_dropped": 0,
        }
        assert executor.execute(near_sw).source == "cache"
        refreshed = executor.execute(near_ne)
        assert refreshed.source == "engine"
        assert 10 in [e.obj.oid for e in refreshed.result.entries]
        stats = executor.stats()
        assert stats.maintenance_passes == 1
        assert stats.maintained_dropped == 1 and stats.maintained_kept == 1
        executor.close()
        engine.close()

    def test_deleting_a_result_member_drops_only_its_entries(self):
        engine, executor = self.make()
        member_query = query_at(0.1, 0.1, "chinese")  # o1/o2 in result
        other_query = query_at(0.9, 0.9, "spanish")
        executor.execute(member_query)
        executor.execute(other_query)
        report = engine.apply_mutations([Mutation.delete(0)])
        tally = executor.maintain(report.change)
        assert tally["dropped"] == 1 and tally["kept"] == 1
        assert executor.execute(other_query).source == "cache"
        refreshed = executor.execute(member_query)
        assert refreshed.source == "engine"
        assert all(e.obj.oid != 0 for e in refreshed.result.entries)
        executor.close()
        engine.close()

    def test_inflight_result_not_cached_across_maintenance(self):
        """A computation racing a mutation must not populate the cache."""
        engine, executor = self.make()
        query = query_at(0.5, 0.5, "restaurant")
        cache = executor._cache
        flight_result = engine.query(query)

        # Simulate the race: a leader computed pre-mutation, the
        # maintenance pass lands, then the leader tries to publish.
        from repro.service.executor import _Inflight, _QueryMeta, query_fingerprint

        key = query_fingerprint(query)
        flight = _Inflight(cache._generation)
        cache.inflight[key] = flight
        report = engine.apply_mutations(
            [
                Mutation.insert(
                    SpatialObject(12, Point(0.5, 0.5), frozenset({"x"}))
                )
            ]
        )
        executor.maintain(report.change)
        published = cache._compute_as_leader(
            key,
            flight,
            lambda: (flight_result, _QueryMeta.of(flight_result), True),
        )
        assert published is flight_result  # the waiter still gets a value
        assert executor.stats().size == 0  # but the cache stayed clean
        executor.close()
        engine.close()


def obj(oid, x, y, *doc):
    return SpatialObject(oid, Point(x, y), frozenset(doc))


MISSING = 10
WEAK_DOC = frozenset({"a", "x", "y", "w"})  # TSim 1/5 < the missing object's 1/3
EXPLAIN = WhyNotQuestion(
    query=SpatialKeywordQuery(loc=Point(0.5, 0.5), doc=frozenset({"a", "b"}), k=2),
    missing=(MISSING,),
    model="explain",
)

#: Batches around the missing object's dual point: three can never
#: outrank it (a dominated insert or delete, the same line at a larger
#: oid), the others can.  Every one drops the cached answer.
EDGES = {
    "dominated insert": Mutation.insert(obj(20, 0.95, 0.5, *WEAK_DOC)),
    "dominated delete": Mutation.delete(3),
    "closer but less similar": Mutation.insert(obj(20, 0.6, 0.5, *WEAK_DOC)),
    "closer but less similar, deleted": Mutation.delete(4),
    "more similar but farther": Mutation.insert(obj(20, 1.0, 1.0, "a", "b", "c")),
    "same line, larger oid": Mutation.insert(obj(50, 0.7, 0.5, "a", "c")),
    "same line, smaller oid": Mutation.insert(obj(5, 0.7, 0.5, "a", "c")),
}


@pytest.mark.parametrize("edge", EDGES)
def test_every_batch_drops_the_linked_whynot_cache(edge):
    """Top-2 = {0, 1}; object 10 ranks third and a small enough spatial
    weight alone revives it (object 1 is close but a poor match)."""
    engine = YaskEngine(
        SpatialDatabase(
            [
                obj(0, 0.5, 0.5, "a", "b"),
                obj(1, 0.5, 0.5, "a", "p", "q", "r"),
                obj(MISSING, 0.7, 0.5, "a", "c"),
                obj(3, 0.95, 0.6, *WEAK_DOC),  # farther and less similar than 10
                obj(4, 0.55, 0.5, *WEAK_DOC),  # closer but less similar than 10
                obj(6, 0.1, 0.1, "z"),
                obj(7, 0.9, 0.1, "z", "y"),
                obj(8, 0.1, 0.9, "x"),
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
    )
    topk = QueryExecutor(engine, cache_capacity=8, skyband_delta=2)
    whynot = WhyNotExecutor(engine, topk, cache_capacity=16)
    try:
        first = whynot.execute(EXPLAIN).answer
        assert first.explanations[0].rank == 3
        assert first.explanations[0].viable_ws_intervals  # non-trivial
        assert whynot.execute(EXPLAIN).source == "cache"

        report = engine.apply_mutations([EDGES[edge]])
        tally = topk.maintain(report.change)
        assert tally["linked_dropped"] == 1
        assert whynot.stats().size == 0
        after = whynot.execute(EXPLAIN)
        assert after.source == "engine"
        assert after.answer == engine.answer_whynot(EXPLAIN)
    finally:
        whynot.close()
        topk.close()
        engine.close()
