"""Regression: ``GET /api/stats`` snapshots must be generation-consistent.

The top-k and why-not caches form one invalidation domain, dropped
sequentially (top-k first, then the linked why-not cache).  A stats
reader racing ``invalidate()`` could therefore observe the top-k side
already invalidated while the why-not side is not — a mixed-generation
view.  :func:`repro.service.executor.consistent_stats` closes that
window; these tests hammer it with a concurrent invalidator and assert
the invariant, plus pin the plain-read race shape it guards against.

The ``transport`` section is read off a live server: the counters must
let an operator tell how many requests each connection carried.
"""

import threading

from repro.core.query import QueryResult
from repro.service.api import YaskEngine
from repro.service.client import YaskClient
from repro.service.executor import (
    QueryExecutor,
    WhyNotExecutor,
    consistent_stats,
)
from tests.conftest import make_tiny_db
from tests.service.conftest import running_server


class _StubEngine:
    """Minimal engine: enough for both executors to run."""

    def query(self, query):  # pragma: no cover - trivial
        return QueryResult(query, [])

    def resolve_missing_oids(self, references):
        return tuple(sorted(int(ref) for ref in references))

    def answer_whynot(self, question, *, initial_result=None):
        return {"answer": question.missing}


def make_executors():
    engine = _StubEngine()
    topk = QueryExecutor(engine, max_workers=1)
    whynot = WhyNotExecutor(engine, topk, max_workers=1)
    return topk, whynot


class TestConsistentStats:
    def test_quiet_snapshot_is_consistent(self):
        topk, whynot = make_executors()
        for _ in range(3):
            topk.invalidate()
        cache_stats, whynot_stats = consistent_stats(topk, whynot)
        assert cache_stats.invalidations == whynot_stats.invalidations == 3

    def test_whynot_invalidate_cascades_and_stays_consistent(self):
        topk, whynot = make_executors()
        whynot.invalidate()
        cache_stats, whynot_stats = consistent_stats(topk, whynot)
        assert cache_stats.invalidations == whynot_stats.invalidations == 1

    def test_never_mixed_under_concurrent_invalidation(self):
        """The satellite regression: hammer invalidate() while reading.

        Every snapshot pair returned by ``consistent_stats`` must show
        equal invalidation counters — no reader may see the top-k cache
        from one generation and the why-not cache from another.
        """
        topk, whynot = make_executors()
        stop = threading.Event()
        mixed: list[tuple[int, int]] = []

        def invalidator():
            while not stop.is_set():
                topk.invalidate()

        def reader():
            for _ in range(400):
                cache_stats, whynot_stats = consistent_stats(topk, whynot)
                if cache_stats.invalidations != whynot_stats.invalidations:
                    mixed.append(
                        (cache_stats.invalidations, whynot_stats.invalidations)
                    )

        threads = [threading.Thread(target=invalidator) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads + readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert not mixed, f"mixed-generation snapshots observed: {mixed[:5]}"

    def test_invalidation_cascade_is_atomic_to_snapshots(self):
        """Deterministically recreate the race the lock closes.

        An invalidation is parked *between* dropping the top-k cache
        and its linked why-not cache; a concurrent snapshot must block
        until the cascade completes rather than reporting the top-k
        side invalidated and the why-not side not.
        """
        topk, whynot = make_executors()
        mid_cascade = threading.Event()
        release = threading.Event()
        original_drop = whynot._cache.invalidate

        def parked_drop() -> int:
            mid_cascade.set()
            release.wait(timeout=5.0)
            return original_drop()

        whynot._cache.invalidate = parked_drop
        invalidator = threading.Thread(target=topk.invalidate)
        invalidator.start()
        assert mid_cascade.wait(timeout=5.0)

        observed: list[tuple[int, int]] = []

        def snapshot():
            cache_stats, whynot_stats = consistent_stats(topk, whynot)
            observed.append(
                (cache_stats.invalidations, whynot_stats.invalidations)
            )

        reader = threading.Thread(target=snapshot)
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive(), "snapshot must wait out the cascade"
        release.set()
        reader.join(timeout=5.0)
        invalidator.join(timeout=5.0)
        assert observed == [(1, 1)]


class TestTransportSection:
    def test_counters_show_connection_reuse(self):
        with running_server(YaskEngine(make_tiny_db())) as server:
            with YaskClient(server.endpoint) as client:
                for _ in range(5):
                    client.query(0.1, 0.1, ["chinese"], 2)
                transport = client._call("GET", "/api/stats")["transport"]
            assert transport == {
                "connections_accepted": 1,
                "connections_open": 1,
                "requests_served": 5,
                "idle_timeouts": 0,
                "closed_unread_body": 0,
            }
            # A second client is a second connection, not a fifth.
            with YaskClient(server.endpoint) as other:
                transport = other.transport_stats()
            assert transport["connections_accepted"] == 2
            assert transport["requests_served"] == 6
