"""WAL circuit breaker over HTTP: open, advertise, probe, recover.

Injected ``wal.sync`` failures drive a live primary into read-only
degraded mode; the virtual clock (``plan.advance``) walks the breaker
through its cooldown without a single wall-clock sleep.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError
from repro.service.wal import WriteAheadLog

from tests.chaos.conftest import make_chaos_db, running_server

pytestmark = pytest.mark.slow

DELETE_0 = [{"op": "delete", "oid": 0}]
DELETE_1 = [{"op": "delete", "oid": 1}]
DELETE_2 = [{"op": "delete", "oid": 2}]


class TestBreakerLifecycle:
    def test_open_advertise_probe_recover(self, tmp_path):
        plan = FaultPlan(seed=10).fail("wal.sync", times=2)
        with faults.armed(plan):
            wal = WriteAheadLog(tmp_path, fsync="always")
            engine = YaskEngine(make_chaos_db(), wal=wal)
            with running_server(
                engine,
                breaker_failure_threshold=2,
                breaker_cooldown_ms=1000.0,
            ) as server, YaskClient(
                server.endpoint, retries=0
            ) as client:

                # Two injected fsync failures: each is a structured 503
                # saying the batch was NOT applied, and together they
                # trip the breaker.
                for _ in range(2):
                    with pytest.raises(YaskClientError) as exc:
                        client.mutate(DELETE_0)
                    assert exc.value.status == 503
                    assert "NOT applied" in str(exc.value)
                    assert exc.value.retry_after is not None
                assert server.breaker.state == "open"

                # Open: mutations are refused up front — the WAL is not
                # even attempted — with the read-only degraded message.
                with pytest.raises(YaskClientError) as exc:
                    client.mutate(DELETE_0)
                assert exc.value.status == 503
                assert "read-only degraded mode" in str(exc.value)
                assert exc.value.retry_after is not None

                # Advertised: readiness fails, liveness and reads hold.
                ready = client.health_ready()
                assert ready["status"] == "degraded"
                assert ready["resilience"]["read_only"] is True
                assert ready["resilience"]["breaker"]["state"] == "open"
                assert client.health_live() == {"status": "ok"}
                body = client.query(0.5, 0.5, ["food", "cafe"], 3)
                assert len(body["result"]["entries"]) == 3

                # Cooldown (virtual) elapses: the next mutation is the
                # half-open probe; the device is healthy again, so it
                # commits and closes the breaker.
                plan.advance(1000.0)
                report = client.mutate(DELETE_0)
                assert report["generation"] == 1
                assert report["deleted"] == 1
                assert server.breaker.state == "closed"
                ready = client.health_ready()
                assert ready["status"] == "ok"
                assert ready["resilience"]["read_only"] is False

                # The engine's state is exactly the acknowledged
                # history: one committed batch, nothing from the failed
                # attempts.
                assert client.mutation_stats()["generation"] == 1
            engine.close()
        # The injection log is the scenario's receipt.
        assert [e["site"] for e in plan.injections] == ["wal.sync", "wal.sync"]

    def test_failed_probe_reopens_the_breaker(self, tmp_path):
        plan = FaultPlan(seed=11).fail("wal.sync", times=3)
        with faults.armed(plan):
            wal = WriteAheadLog(tmp_path, fsync="always")
            engine = YaskEngine(make_chaos_db(), wal=wal)
            with running_server(
                engine,
                breaker_failure_threshold=2,
                breaker_cooldown_ms=500.0,
            ) as server, YaskClient(
                server.endpoint, retries=0
            ) as client:
                for _ in range(2):
                    with pytest.raises(YaskClientError):
                        client.mutate(DELETE_0)
                assert server.breaker.state == "open"
                plan.advance(500.0)
                # The probe is admitted but the third injected fault
                # fails it: straight back to open.
                with pytest.raises(YaskClientError) as exc:
                    client.mutate(DELETE_0)
                assert "NOT applied" in str(exc.value)
                assert server.breaker.state == "open"
                # Next cooldown, healthy device: recovery.
                plan.advance(500.0)
                assert client.mutate(DELETE_0)["generation"] == 1
                assert server.breaker.state == "closed"
            engine.close()

    def test_stats_carry_the_resilience_section(self, tmp_path):
        plan = FaultPlan(seed=12).fail("wal.sync", times=2)
        with faults.armed(plan):
            wal = WriteAheadLog(tmp_path, fsync="always")
            engine = YaskEngine(make_chaos_db(), wal=wal)
            with running_server(
                engine,
                breaker_failure_threshold=2,
                breaker_cooldown_ms=1000.0,
            ) as server, YaskClient(
                server.endpoint, retries=0
            ) as client:
                for _ in range(2):
                    with pytest.raises(YaskClientError):
                        client.mutate(DELETE_0)
                stats = client.resilience_stats()
                assert stats["read_only"] is True
                assert stats["breaker"]["state"] == "open"
                assert stats["breaker"]["trips"] == 1
                assert stats["inflight"]["limit"] is None
            engine.close()
