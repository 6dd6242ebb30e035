"""Executor maintenance without a skyband (Δ=0).

At ``skyband_delta=0`` there is no buffer to patch from, so
``maintain`` keeps exactly the entries the batch summary proves
unaffected and drops the rest — drop-on-write, scoped by the summary.
"""

from __future__ import annotations

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialObject
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
            "linked_kept": 0,
            "linked_patched": 0,
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

    def test_linked_whynot_cache_kept_for_disjoint_batch(self):
        """A batch provably unable to affect a why-not answer keeps it.

        The inserted object sits in the far corner with a keyword
        outside the question's keyword universe: the dominance test in
        ``BatchSummary.affects_whynot`` proves it cannot cross any
        missing object at any weight, so the linked maintenance pass
        keeps the entry (``maintained_kept > 0``) instead of dropping
        the why-not cache wholesale.
        """
        engine, executor = self.make()
        whynot = WhyNotExecutor(engine, executor, cache_capacity=8)
        question = WhyNotQuestion(
            query=query_at(0.1, 0.1, "chinese", k=2),
            missing=(4,),
            model="preference",
        )
        whynot.execute(question)
        assert whynot.stats().size == 1
        report = engine.apply_mutations(
            [
                Mutation.insert(
                    SpatialObject(11, Point(0.9, 0.9), frozenset({"zzz"}))
                )
            ]
        )
        tally = executor.maintain(report.change)
        assert tally["linked_kept"] == 1 and tally["linked_dropped"] == 0
        stats = whynot.stats()
        assert stats.size == 1 and stats.maintained_kept > 0
        # The kept answer is still exactly what a cold computation gives.
        kept = whynot.execute(question)
        assert kept.source == "cache"
        assert kept.answer == engine.answer_whynot(question)
        whynot.close()
        executor.close()
        engine.close()

    def test_linked_whynot_cache_drops_when_batch_touches_missing(self):
        """Deleting a missing object invalidates its cached answer."""
        engine, executor = self.make()
        whynot = WhyNotExecutor(engine, executor, cache_capacity=8)
        question = WhyNotQuestion(
            query=query_at(0.1, 0.1, "chinese", k=2),
            missing=(4,),
            model="preference",
        )
        whynot.execute(question)
        report = engine.apply_mutations([Mutation.delete(4)])
        tally = executor.maintain(report.change)
        assert tally["linked_dropped"] == 1
        assert whynot.stats().size == 0
        whynot.close()
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

