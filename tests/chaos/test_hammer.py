"""Concurrent hammer against a tiny in-flight bound (satellite c).

Eight real client threads fire barrier-synchronised rounds of mixed
traffic at a server with ``max_inflight=1``.  This test is about
*invariants under real concurrency*, not determinism, so no fault plan
is armed and no virtual clock runs — but there are still no sleeps:

* every shed request is a structured 503 with ``Retry-After``;
* every admitted query is byte-for-byte the single-threaded baseline;
* every admitted mutation is applied (or refused) atomically;
* the in-flight gauge drains back to zero and its counters add up.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError

from tests.chaos.conftest import (
    HAMMER_OID_BASE,
    canonical,
    make_chaos_db,
    running_server,
)

pytestmark = pytest.mark.slow

THREADS = 8
ROUNDS = 10


class TestHammer:
    def test_overload_sheds_cleanly_and_never_lies(self):
        engine = YaskEngine(make_chaos_db())
        try:
            with running_server(engine, max_inflight=1) as server, YaskClient(
                server.endpoint, retries=0
            ) as baseline_client:
                baseline = canonical(
                    baseline_client.query(0.06, 0.06, ["food", "cafe"], 3)[
                        "result"
                    ]["entries"]
                )

                barrier = threading.Barrier(THREADS)
                results: list[list[dict]] = [[] for _ in range(THREADS)]
                crashes: list[BaseException] = []

                def hammer(worker: int) -> None:
                    # Each worker owns one far-corner, keyword-disjoint
                    # object: its churn provably cannot enter the
                    # baseline query's top-k, so admitted queries must
                    # match the baseline exactly no matter how the
                    # mutations interleave.
                    oid = HAMMER_OID_BASE + worker
                    try:
                        with YaskClient(server.endpoint, retries=0) as client:
                            for round_no in range(ROUNDS):
                                barrier.wait()
                                if worker % 2 == 0:
                                    self._one_query(client, results[worker])
                                else:
                                    self._one_mutation(
                                        client, results[worker], oid, round_no
                                    )
                    except BaseException as exc:  # pragma: no cover
                        crashes.append(exc)

                threads = [
                    threading.Thread(target=hammer, args=(i,), daemon=True)
                    for i in range(THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "hammer thread hung"
                assert crashes == []

                flat = [r for per_thread in results for r in per_thread]
                assert len(flat) == THREADS * ROUNDS
                sheds = [r for r in flat if r["kind"] == "shed"]
                query_answers = [r for r in flat if r["kind"] == "query"]
                mutation_answers = [r for r in flat if r["kind"] == "mutation"]

                # With 8 threads released by a barrier against a bound
                # of 1, shedding must actually happen...
                assert sheds, "no request was ever shed"
                for shed in sheds:
                    assert shed["status"] == 503
                    assert shed["retry_after"] is not None
                    assert "overloaded" in shed["error"]
                # ...and some traffic must also get through.
                assert query_answers
                for answer in query_answers:
                    assert answer["entries"] == baseline
                for answer in mutation_answers:
                    assert answer["applied"] in (0, 1)

                # The gauge drained and its ledger is consistent: every
                # POST this test sent (baseline included) was either
                # admitted or shed, nothing leaked.
                # A handler releases the gauge after writing its
                # response, so the last request may still be "in
                # flight" for a beat; each stats round-trip gives it
                # ample time to finish draining.
                for _ in range(50):
                    gauge = baseline_client.resilience_stats()["inflight"]
                    if gauge["inflight"] == 0:
                        break
                assert gauge["inflight"] == 0
                assert gauge["limit"] == 1
                assert gauge["shed"] == len(sheds)
                assert (
                    gauge["admitted"] + gauge["shed"] == THREADS * ROUNDS + 1
                )
        finally:
            engine.close()

    @staticmethod
    def _one_query(client: YaskClient, out: list[dict]) -> None:
        try:
            body = client.query(0.06, 0.06, ["food", "cafe"], 3)
        except YaskClientError as exc:
            out.append(
                {
                    "kind": "shed",
                    "status": exc.status,
                    "retry_after": exc.retry_after,
                    "error": str(exc),
                }
            )
            return
        assert "degraded" not in body
        out.append(
            {"kind": "query", "entries": canonical(body["result"]["entries"])}
        )

    @staticmethod
    def _one_mutation(
        client: YaskClient, out: list[dict], oid: int, round_no: int
    ) -> None:
        if round_no % 2 == 0:
            batch = [
                {
                    "op": "insert",
                    "oid": oid,
                    "x": 0.95,
                    "y": 0.95,
                    "keywords": ["hammerfodder"],
                }
            ]
        else:
            batch = [{"op": "delete", "oid": oid}]
        try:
            report = client.mutate(batch)
        except YaskClientError as exc:
            if exc.status == 503:
                out.append(
                    {
                        "kind": "shed",
                        "status": exc.status,
                        "retry_after": exc.retry_after,
                        "error": str(exc),
                    }
                )
                return
            # A shed earlier in this worker's insert/delete cadence
            # leaves the next step addressing a missing (404) or
            # duplicate (409) oid — a structured, atomic refusal.
            assert exc.status in (404, 409), str(exc)
            out.append({"kind": "mutation", "applied": 0})
            return
        applied = report.get("inserted", 0) + report.get("deleted", 0)
        out.append({"kind": "mutation", "applied": applied})
