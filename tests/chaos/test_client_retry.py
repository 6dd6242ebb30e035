"""Client-side resilience: honored Retry-After, jittered backoff,
and idempotent retries deduplicated through the WAL batch token.

The client's ``sleep`` hook is a recorder, so every test asserts the
exact waits the retry loop asked for without actually waiting.
"""

from __future__ import annotations

import random
import socket

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError
from repro.service.wal import WriteAheadLog

from tests.chaos.conftest import make_chaos_db, running_server

pytestmark = pytest.mark.slow


def recording_client(endpoint: str, **kwargs) -> tuple[YaskClient, list[float]]:
    slept: list[float] = []
    client = YaskClient(
        endpoint,
        sleep=slept.append,
        rng=random.Random(0),
        **kwargs,
    )
    return client, slept


def dead_endpoint() -> str:
    """An address with nothing listening: instant connection refusal."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestRetryAfterIsHonored:
    def test_transient_wal_fault_retried_once_then_committed(self, tmp_path):
        plan = FaultPlan(seed=20).fail("wal.sync", times=1)
        with faults.armed(plan):
            wal = WriteAheadLog(tmp_path, fsync="always")
            engine = YaskEngine(make_chaos_db(), wal=wal)
            with running_server(
                engine, breaker_failure_threshold=3
            ) as server:
                client, slept = recording_client(server.endpoint, retries=2)
                report = client.mutate(
                    [{"op": "delete", "oid": 0}], batch_token="chaos-t1"
                )
                # One 503 ("NOT applied", Retry-After: 1), one wait of
                # exactly that advertised second, one clean commit.
                assert slept == [1.0]
                assert report["generation"] == 1
                assert report["deleted"] == 1
                assert not report["deduplicated"]

                # The committed token now shields a blind re-send: the
                # server answers from the WAL generation record instead
                # of applying the batch twice.
                replay = client.mutate(
                    [{"op": "delete", "oid": 0}], batch_token="chaos-t1"
                )
                assert replay["deduplicated"] is True
                assert replay["generation"] == 1
                assert engine.wal.last_generation == 1
                client.close()
            engine.close()
        assert [e["site"] for e in plan.injections] == ["wal.sync"]


class TestBackoffPolicy:
    def test_idempotent_reads_back_off_with_jitter(self):
        client, slept = recording_client(
            dead_endpoint(), retries=3, backoff_ms=100.0, max_backoff_ms=250.0
        )
        with pytest.raises(YaskClientError) as exc:
            client.health_live()
        assert exc.value.status == 0
        # Full jitter against a doubling, capped ceiling:
        # attempt 0 -> (0.05, 0.1], 1 -> (0.1, 0.2], 2 -> capped (0.125, 0.25].
        assert len(slept) == 3
        for delay, ceiling in zip(slept, (0.1, 0.2, 0.25)):
            assert ceiling / 2 <= delay <= ceiling

    def test_unfenced_mutations_never_retry_blind(self):
        # Without a batch token a connection error is ambiguous — the
        # batch may have been applied — so the client must not re-send.
        client, slept = recording_client(dead_endpoint(), retries=3)
        with pytest.raises(YaskClientError) as exc:
            client.mutate([{"op": "delete", "oid": 0}])
        assert exc.value.status == 0
        assert slept == []

    def test_token_makes_the_same_mutation_retriable(self):
        client, slept = recording_client(dead_endpoint(), retries=2)
        with pytest.raises(YaskClientError):
            client.mutate([{"op": "delete", "oid": 0}], batch_token="t")
        assert len(slept) == 2

    def test_retries_zero_fails_fast(self):
        client, slept = recording_client(dead_endpoint(), retries=0)
        with pytest.raises(YaskClientError):
            client.health_live()
        assert slept == []
