"""Executor maintenance: what a pass visits, Δ=0, and the why-not cache.

A pass visits only the cached entries a batch can reach — through a
shared query keyword, a buffered object it removes, a proximity reach
or a complete buffer — and leaves every other entry as it is.  At
``skyband_delta=0`` there is no buffer to patch from, so ``maintain``
keeps exactly the entries the batch summary proves unaffected and drops
the rest — drop-on-write, scoped by the summary.  The linked why-not
cache is drop-on-write without a scope: every batch drops every cached
answer, and the next fetch recomputes it cold.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.geometry import Point, Rect
from repro.core.kernel import ScoringKernel
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.service import executor as executor_module
from repro.service.api import YaskEngine
from repro.service.executor import (
    QueryExecutor,
    WhyNotExecutor,
    WhyNotQuestion,
    _ResultCache,
    query_fingerprint,
)
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


class TestWhatAPassVisits:
    """Twenty {a, b} objects along y = 0.5 and one "c" object far away;
    queries for "a" and for "b" near x = 0."""

    N = 8

    def make(self, delta: int = 2):
        engine = YaskEngine(
            SpatialDatabase(
                [obj(i, 0.05 * i, 0.5, "a", "b") for i in range(20)]
                + [obj(20, 0.9, 0.1, "c")],
                dataspace=Rect(0.0, 0.0, 1.0, 1.0),
            )
        )
        executor = QueryExecutor(engine, cache_capacity=16, skyband_delta=delta)
        queries = [
            query_at(0.05 * j, 0.5, word)
            for word in ("a", "b")
            for j in range(self.N // 2)
        ]
        for query in queries:
            executor.execute(query)
        # The first pass over a cache visits every entry: no earlier
        # pass vouches that none missed a batch.
        report = engine.apply_mutations([Mutation.insert(obj(99, 0.95, 0.05, "z"))])
        assert executor.maintain(report.change)["kept"] == self.N
        assert executor.stats().maintained_visited == self.N
        return engine, executor, queries

    def test_entries_a_batch_cannot_reach_are_not_visited(self, monkeypatch):
        """Every buffer's tail scores above ``ws`` (TSim 1/2, close by),
        so an object sharing no query keyword can neither be in it nor
        enter it, and the batch's objects share none."""
        engine, executor, queries = self.make()
        calls = {"score": 0, "scalars": 0}
        score_rows = executor_module.score_delta_rows
        query_scalars = ScoringKernel._query_scalars

        def counting_score(*args, **kwargs):
            calls["score"] += 1
            return score_rows(*args, **kwargs)

        def counting_scalars(self, query):
            calls["scalars"] += 1
            return query_scalars(self, query)

        monkeypatch.setattr(executor_module, "score_delta_rows", counting_score)
        monkeypatch.setattr(ScoringKernel, "_query_scalars", counting_scalars)
        report = engine.apply_mutations(
            [Mutation.insert(obj(100, 0.9, 0.9, "zzz")), Mutation.delete(20)]
        )
        tally = executor.maintain(report.change)
        assert tally["kept"] == self.N
        assert tally["patched"] == tally["dropped"] == tally["rescans"] == 0
        assert executor.stats().maintained_visited == self.N  # the first pass
        assert calls == {"score": 0, "scalars": 0}
        for query in queries:
            served = executor.execute(query)
            assert served.source == "cache"
            assert served.result.entries == engine.query(query).entries
            meta = executor._cache.peek_entry(query_fingerprint(query))[1]
            assert meta.generation == engine.generation
        executor.close()
        engine.close()

    def test_a_shared_keyword_visits_only_its_entries(self):
        engine, executor, queries = self.make()
        report = engine.apply_mutations([Mutation.insert(obj(100, 0.9, 0.9, "a"))])
        tally = executor.maintain(report.change)
        assert executor.stats().maintained_visited == self.N + self.N // 2
        assert tally["kept"] == self.N
        executor.close()
        engine.close()

    def test_a_pass_after_a_missed_batch_drops_every_entry(self):
        """Entries stamped before an unmaintained batch may have missed
        it: the next pass visits them all and drops them."""
        engine, executor, queries = self.make()
        engine.apply_mutations([Mutation.insert(obj(100, 0.9, 0.9, "zzz"))])
        report = engine.apply_mutations([Mutation.insert(obj(101, 0.9, 0.9, "zzz"))])
        tally = executor.maintain(report.change)
        assert tally["dropped"] == self.N and tally["kept"] == 0
        assert executor.stats().maintained_visited == 2 * self.N
        assert executor.stats().size == 0
        executor.close()
        engine.close()


@dataclass(frozen=True)
class Stamped:
    generation: int | None
    word: str = "w"


def test_an_entry_published_during_a_pass_needs_a_post_batch_stamp():
    """The two-phase race rule: an entry published while the pass
    decides outside the lock survives only with a post-batch stamp."""
    cache = _ResultCache(8, reach_keys=lambda meta: [meta.word])
    cache.fetch("reached", lambda: ("old", Stamped(0), True))
    cache.fetch("unreached", lambda: ("far", Stamped(0, "v"), True))
    cache.maintain(lambda value, meta: None, 1, [])  # carries both to 1

    def decide(value, meta):
        cache.fetch("pre-batch", lambda: ("stale", Stamped(1), True))
        cache.fetch("post-batch", lambda: ("new", Stamped(2), True))
        return ("patched", "patched", Stamped(2))

    tally = cache.maintain(decide, 2, ["w"])
    assert tally == {"kept": 1, "patched": 1, "dropped": 1, "rescans": 0}
    assert set(cache.keys()) == {"reached", "unreached", "post-batch"}
    assert cache.peek_entry("reached") == ("patched", Stamped(2))
    assert cache.peek_entry("unreached") == ("far", Stamped(2, "v"))
    assert cache._postings == {"w": {"reached", "post-batch"}, "v": {"unreached"}}
    assert cache.stats().maintained_visited == 2 + 1


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
