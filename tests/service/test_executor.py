"""Tests for the caching/deduplicating/batching :class:`QueryExecutor`."""

import threading

import pytest

from repro.core.geometry import Point
from repro.core.query import SpatialKeywordQuery, Weights
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, query_fingerprint


def make_query(x: float, *, k: int = 3, keywords=("kw000", "kw001")) -> SpatialKeywordQuery:
    return SpatialKeywordQuery(
        loc=Point(x, 0.5), doc=frozenset(keywords), k=k
    )


class CountingEngine:
    """Engine stub that counts executions and can block mid-query."""

    def __init__(self, *, gate: threading.Event | None = None) -> None:
        self.calls = 0
        self._lock = threading.Lock()
        self._gate = gate

    def query(self, query):
        with self._lock:
            self.calls += 1
        if self._gate is not None:
            self._gate.wait(timeout=10.0)
        return ("result-for", query_fingerprint(query))


class TestFingerprint:
    def test_keyword_order_is_canonical(self):
        a = make_query(0.1, keywords=("b", "a"))
        b = make_query(0.1, keywords=("a", "b"))
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_every_parameter_distinguishes(self):
        base = make_query(0.1)
        assert query_fingerprint(base) != query_fingerprint(make_query(0.2))
        assert query_fingerprint(base) != query_fingerprint(make_query(0.1, k=4))
        assert query_fingerprint(base) != query_fingerprint(
            base.with_weights(Weights.from_spatial(0.3))
        )
        assert query_fingerprint(base) != query_fingerprint(
            base.with_doc({"kw000"})
        )

    def test_separator_characters_in_keywords_cannot_collide(self):
        # HTTP payloads carry arbitrary strings: {"a", "b"} must not
        # share a fingerprint with the single keyword "a,b" (or "a|b").
        assert query_fingerprint(
            make_query(0.1, keywords=("a", "b"))
        ) != query_fingerprint(make_query(0.1, keywords=("a,b",)))
        assert query_fingerprint(
            make_query(0.1, keywords=("a", "b"))
        ) != query_fingerprint(make_query(0.1, keywords=("a|b",)))


class TestCaching:
    def test_repeat_query_is_a_cache_hit(self):
        engine = CountingEngine()
        executor = QueryExecutor(engine)
        first = executor.execute(make_query(0.1))
        second = executor.execute(make_query(0.1))
        assert engine.calls == 1
        assert first.source == "engine" and not first.cached
        assert second.source == "cache" and second.cached
        assert second.result == first.result
        stats = executor.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_lru_eviction_order(self):
        engine = CountingEngine()
        executor = QueryExecutor(engine, cache_capacity=2)
        q1, q2, q3 = make_query(0.1), make_query(0.2), make_query(0.3)
        executor.execute(q1)
        executor.execute(q2)
        executor.execute(q1)  # refresh q1: q2 is now least recently used
        executor.execute(q3)  # evicts q2
        assert executor.cached_fingerprints() == (
            query_fingerprint(q1),
            query_fingerprint(q3),
        )
        assert executor.stats().evictions == 1
        assert executor.execute(q1).cached
        assert not executor.execute(q2).cached  # q2 must re-execute

    def test_capacity_zero_disables_caching(self):
        engine = CountingEngine()
        executor = QueryExecutor(engine, cache_capacity=0)
        executor.execute(make_query(0.1))
        executor.execute(make_query(0.1))
        assert engine.calls == 2
        assert executor.stats().size == 0

    def test_invalidate_forces_reexecution(self):
        engine = CountingEngine()
        executor = QueryExecutor(engine)
        executor.execute(make_query(0.1))
        assert executor.invalidate() == 1
        execution = executor.execute(make_query(0.1))
        assert not execution.cached
        assert engine.calls == 2
        stats = executor.stats()
        assert stats.invalidations == 1
        assert stats.size == 1

    def test_invalidation_during_flight_bars_stale_insert(self):
        gate = threading.Event()
        engine = CountingEngine(gate=gate)
        executor = QueryExecutor(engine)
        done = []

        def run():
            done.append(executor.execute(make_query(0.1)))

        worker = threading.Thread(target=run)
        worker.start()
        while engine.calls == 0:  # leader is inside engine.query
            pass
        executor.invalidate()  # dataset changed mid-execution
        gate.set()
        worker.join(timeout=10.0)
        assert done and done[0].source == "engine"
        # The in-flight result must not have been cached post-invalidation.
        assert executor.stats().size == 0
        executor.execute(make_query(0.1))
        assert engine.calls == 2

    def test_leader_failure_propagates_and_is_not_cached(self):
        class FailingEngine:
            calls = 0

            def query(self, query):
                self.calls += 1
                raise RuntimeError("index offline")

        engine = FailingEngine()
        executor = QueryExecutor(engine)
        with pytest.raises(RuntimeError):
            executor.execute(make_query(0.1))
        assert executor.stats().size == 0
        with pytest.raises(RuntimeError):
            executor.execute(make_query(0.1))
        assert engine.calls == 2


class TestInflightDedup:
    def test_post_invalidation_request_does_not_join_stale_flight(self):
        """A request issued after invalidate() must re-execute, not
        piggy-back on an in-flight execution from the old generation."""
        gate = threading.Event()

        class OnceBlockingEngine:
            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def query(self, query):
                with self._lock:
                    self.calls += 1
                    call = self.calls
                if call == 1:
                    gate.wait(timeout=10.0)
                return ("result-of-call", call)

        engine = OnceBlockingEngine()
        executor = QueryExecutor(engine)
        query = make_query(0.1)
        stale = []

        leader = threading.Thread(
            target=lambda: stale.append(executor.execute(query))
        )
        leader.start()
        while engine.calls == 0:
            pass
        executor.invalidate()  # dataset changed while call 1 is in flight

        # This request starts after the invalidation: it must see the
        # new dataset (a second engine call), not the stale flight.
        fresh = executor.execute(query)
        assert fresh.source == "engine"
        assert fresh.result == ("result-of-call", 2)

        gate.set()
        leader.join(timeout=10.0)
        assert stale[0].result == ("result-of-call", 1)
        # Only the post-invalidation result may live in the cache.
        assert executor.execute(query).result == ("result-of-call", 2)


    def test_concurrent_identical_queries_execute_once(self):
        gate = threading.Event()
        engine = CountingEngine(gate=gate)
        executor = QueryExecutor(engine)
        query = make_query(0.1)
        executions = []
        executions_lock = threading.Lock()

        def run():
            execution = executor.execute(query)
            with executions_lock:
                executions.append(execution)

        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        while engine.calls == 0:
            pass
        # Give the followers a chance to register against the leader,
        # then release everyone.
        while len(executor._inflight) == 0:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(executions) == 8
        assert engine.calls == 1
        sources = sorted(execution.source for execution in executions)
        assert sources.count("engine") == 1
        assert all(s in ("engine", "inflight", "cache") for s in sources)
        assert len({id(execution.result) for execution in executions}) == 1


class TestBatch:
    def test_batch_preserves_order_and_dedups(self):
        engine = CountingEngine()
        executor = QueryExecutor(engine, max_workers=4)
        queries = [
            make_query(0.1),
            make_query(0.2),
            make_query(0.1),  # duplicate of the first
            make_query(0.3),
        ]
        batch = executor.execute_batch(queries)
        assert len(batch) == 4
        assert [e.fingerprint for e in batch.executions] == [
            query_fingerprint(q) for q in queries
        ]
        assert engine.calls == 3  # the duplicate never reached the engine
        assert batch.total_ms >= 0.0

    def test_empty_batch(self):
        executor = QueryExecutor(CountingEngine())
        batch = executor.execute_batch([])
        assert len(batch) == 0 and batch.total_ms == 0.0

    def test_single_worker_batch_is_sequential(self):
        engine = CountingEngine()
        executor = QueryExecutor(engine, max_workers=1)
        batch = executor.execute_batch([make_query(0.1), make_query(0.2)])
        assert engine.calls == 2
        assert len(batch.results) == 2


class TestRealEngine:
    def test_cached_result_matches_fresh_result(self, small_db):
        engine = YaskEngine(small_db)
        executor = QueryExecutor(engine)
        query = engine.make_query(Point(0.5, 0.5), {"kw000", "kw001"}, 5)
        fresh = executor.execute(query)
        cached = executor.execute(query)
        assert cached.cached
        assert cached.result is fresh.result
        assert [e.obj.oid for e in cached.result] == [
            e.obj.oid for e in engine.query(query)
        ]

    def test_executor_audit_covers_cached_results(self, small_db):
        engine = YaskEngine(small_db)
        executor = QueryExecutor(engine)
        query = engine.make_query(Point(0.5, 0.5), {"kw000"}, 4)
        executor.execute(query)
        execution, report = executor.audit(query)
        assert execution.cached
        assert report.ok


    def test_entry_cached_under_a_deadline_is_maintained_by_the_next_batch(self):
        """A deadline that did not bite caches the entry with its stamped
        descriptor: a batch that cannot reach it keeps it, one that
        lands on the query drops it."""
        from repro.core.mutations import Mutation
        from repro.core.objects import SpatialObject
        from repro.datasets.generators import SyntheticDatasetBuilder
        from repro.faults import Deadline

        database = SyntheticDatasetBuilder(seed=11).build(
            120, vocabulary_size=30, doc_length=(2, 6)
        )
        engine = YaskEngine(database)
        executor = QueryExecutor(engine)
        query = engine.make_query(Point(0.5, 0.5), {"kw000"}, 4)
        first = executor.execute(query, deadline=Deadline(600000.0))
        assert first.source == "engine" and first.degraded is None
        report = engine.apply_mutations(
            [Mutation.insert(SpatialObject(8999, Point(0.99, 0.01), frozenset({"zzz"})))]
        )
        assert executor.maintain(report.change)["kept"] == 1
        report = engine.apply_mutations(
            [Mutation.insert(SpatialObject(9000, Point(0.5, 0.5), query.doc))]
        )
        tally = executor.maintain(report.change)
        assert tally["kept"] == 0 and tally["dropped"] == 1
        refreshed = executor.execute(query)
        assert refreshed.source == "engine"
        assert refreshed.result.entries == engine.query(query).entries
        assert refreshed.result.entries[0].obj.oid == 9000
        executor.close()
        engine.close()

    def test_batch_that_cannot_reach_the_result_keeps_the_entry(self):
        """No removed member, every added object below the k-th score:
        the entry keeps its value and is exact at the new generation."""
        from repro.core.mutations import Mutation
        from repro.core.objects import SpatialObject
        from repro.datasets.generators import SyntheticDatasetBuilder

        database = SyntheticDatasetBuilder(seed=11).build(
            120, vocabulary_size=30, doc_length=(2, 6)
        )
        engine = YaskEngine(database)
        executor = QueryExecutor(engine)
        query = engine.make_query(Point(0.5, 0.5), {"kw000"}, 4)
        served = executor.execute(query).result
        key = query_fingerprint(query)
        outsider = next(
            obj.oid
            for obj in database.objects
            if obj.oid not in {entry.obj.oid for entry in served.entries}
        )
        report = engine.apply_mutations(
            [
                Mutation.delete(outsider),
                Mutation.insert(
                    SpatialObject(9000, Point(0.99, 0.01), frozenset({"zzz"}))
                ),
            ]
        )
        tally = executor.maintain(report.change)
        assert tally["kept"] == 1 and tally["dropped"] == 0
        value, meta = executor._cache.peek_entry(key)
        assert value is served
        assert meta.generation == engine.generation
        assert executor.execute(query).result.entries == engine.query(query).entries
        executor.close()
        engine.close()


class TestValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryExecutor(CountingEngine(), cache_capacity=-1)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            QueryExecutor(CountingEngine(), max_workers=0)

    def test_audit_requires_scorer(self):
        executor = QueryExecutor(CountingEngine())
        with pytest.raises(TypeError):
            executor.audit(make_query(0.1))


class TestInvalidationDuringBatch:
    """Regression: the generation counter must cover the batch path —
    no request issued after invalidate() may be served a result
    computed against the pre-invalidation dataset."""

    def test_invalidate_mid_batch_bars_stale_results(self):
        class VersionedEngine:
            """Answers carry a dataset version; the first call blocks."""

            def __init__(self):
                self.version = 1
                self.first_started = threading.Event()
                self.release = threading.Event()
                self.calls = 0
                self._lock = threading.Lock()

            def query(self, query):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    self.first_started.set()
                    self.release.wait(timeout=10.0)
                return (self.version, query_fingerprint(query))

        engine = VersionedEngine()
        executor = QueryExecutor(engine, max_workers=4)
        queries = [make_query(0.1), make_query(0.2), make_query(0.3)]

        batches = []
        worker = threading.Thread(
            target=lambda: batches.append(executor.execute_batch(queries))
        )
        worker.start()
        assert engine.first_started.wait(timeout=10.0)

        # The dataset changes while the batch is in flight.
        engine.version = 2
        executor.invalidate()
        engine.release.set()
        worker.join(timeout=10.0)
        assert batches and len(batches[0]) == 3

        # Every request issued *after* the invalidation must observe the
        # new dataset: nothing the batch computed under generation 0 may
        # be served from the cache, for any member of the batch.
        for query in queries:
            execution = executor.execute(query)
            assert execution.result[0] == 2, (
                f"stale pre-invalidation result served for {execution.fingerprint}"
            )

    def test_post_invalidation_request_does_not_join_batch_flight(self):
        """A single execute() racing a still-running batch member from
        the old generation must start a fresh engine execution."""

        class OnceBlockingEngine:
            def __init__(self):
                self.version = 1
                self.first_started = threading.Event()
                self.release = threading.Event()
                self.calls = 0
                self._lock = threading.Lock()

            def query(self, query):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                    seen_version = self.version  # dataset at call start
                if first:
                    self.first_started.set()
                    self.release.wait(timeout=10.0)
                return (seen_version, query_fingerprint(query))

        engine = OnceBlockingEngine()
        executor = QueryExecutor(engine, max_workers=2)
        query = make_query(0.7)

        batches = []
        worker = threading.Thread(
            target=lambda: batches.append(executor.execute_batch([query]))
        )
        worker.start()
        assert engine.first_started.wait(timeout=10.0)

        engine.version = 2
        executor.invalidate()

        # Issued after the invalidation, while the batch member is still
        # inside the engine: must not piggy-back on its stale flight.
        fresh = executor.execute(query)
        assert fresh.source == "engine"
        assert fresh.result[0] == 2

        engine.release.set()
        worker.join(timeout=10.0)
        # The batch member itself (asked pre-invalidation) may carry the
        # old version, but it must not have populated the cache.
        assert batches[0].executions[0].result[0] == 1
        assert executor.execute(query).result[0] == 2
