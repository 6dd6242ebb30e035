"""Concurrency tests: the threaded server under parallel browser sessions.

The paper's browser-server model implies concurrent users; the server is
a ThreadingHTTPServer over a thread-safe SessionManager.  These tests
drive several full sessions in parallel and check isolation.
"""

import threading

import pytest

from repro.service.api import YaskEngine
from repro.service.client import YaskClient
from repro.service.server import YaskHTTPServer


@pytest.fixture(scope="module")
def server(small_db):
    from tests.service.conftest import running_server

    with running_server(YaskEngine(small_db)) as server:
        yield server


@pytest.fixture(scope="module")
def scenario(small_db):
    from repro.core.scoring import Scorer
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        Scorer(small_db), count=1, k=5, missing_count=1, seed=260,
        rank_window=25,
    )[0]


class TestParallelSessions:
    def test_parallel_full_interactions(self, server, scenario):
        errors: list[Exception] = []
        session_ids: list[str] = []
        lock = threading.Lock()

        def interaction(worker: int) -> None:
            try:
                with YaskClient(server.endpoint) as client:
                    q = scenario.query
                    response = client.query(
                        q.loc.x, q.loc.y, sorted(q.doc), q.k, ws=q.ws
                    )
                    session_id = response["session_id"]
                    with lock:
                        session_ids.append(session_id)
                    missing = [m.oid for m in scenario.missing]
                    client.explain(session_id, missing)
                    client.refine_preference(session_id, missing)
                    log = client.query_log(session_id)
                assert len(log) == 3
            except Exception as exc:  # pragma: no cover - surfaced below
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=interaction, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(set(session_ids)) == 8  # every worker got its own session

    def test_logs_do_not_leak_across_sessions(self, server, scenario):
        q = scenario.query
        with YaskClient(server.endpoint) as client:
            first = client.query(q.loc.x, q.loc.y, sorted(q.doc), q.k, ws=q.ws)
            second = client.query(q.loc.x, q.loc.y, sorted(q.doc), q.k, ws=q.ws)
            client.explain(first["session_id"], [m.oid for m in scenario.missing])
            second_log = client.query_log(second["session_id"])
        assert all(entry["kind"] == "top-k query" for entry in second_log)
