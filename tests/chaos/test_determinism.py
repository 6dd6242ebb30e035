"""The chaos harness's core promise: same seed, same outcome.

A full seeded scenario — delays, WAL faults, degraded queries,
structured errors — is replayed twice against fresh engines and
servers.  The injection logs and every (canonicalised) response must
match byte for byte; a different seed must diverge.
"""

from __future__ import annotations

from repro import faults
from repro.faults import FaultPlan
from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError
from repro.service.wal import WriteAheadLog

from tests.chaos.conftest import canonical, make_chaos_db, running_server

import pytest

pytestmark = pytest.mark.slow


def run_scenario(seed: int, wal_dir) -> tuple[tuple, list[str]]:
    """One seeded pass: returns (injection log, canonical outputs).

    The plan's own RNG decides *which* mutation attempt the WAL fault
    hits and how slow the injected shard scans are, so the schedule
    itself — not just the payloads — is derived from the seed.
    """
    plan = FaultPlan(seed=seed)
    doomed_attempt = plan.rng.randrange(3)
    scan_ms = 40.0 + 5.0 * doomed_attempt
    plan.delay("shard.scan.*", scan_ms, times=None)
    plan.fail("wal.sync", after=doomed_attempt, times=1)

    outputs: list[str] = []

    def record(fn):
        try:
            outputs.append(canonical(fn()))
        except YaskClientError as exc:
            outputs.append(
                canonical(
                    {
                        "status": exc.status,
                        "error": str(exc),
                        "retry_after": exc.retry_after,
                    }
                )
            )

    with faults.armed(plan):
        wal = WriteAheadLog(wal_dir, fsync="always")
        engine = YaskEngine(make_chaos_db(), shards=4, wal=wal)
        with running_server(
            engine, breaker_failure_threshold=2, breaker_cooldown_ms=1000.0
        ) as server, YaskClient(
            server.endpoint, retries=0
        ) as client:
            record(lambda: client.query(0.5, 0.5, ["food", "cafe"], 10, timeout_ms=120.0))
            for oid in (0, 1, 2):
                record(lambda oid=oid: client.mutate([{"op": "delete", "oid": oid}]))
            record(lambda: client.query(0.5, 0.5, ["food", "cafe"], 10, timeout_ms=120.0))
            record(lambda: client.query(0.1, 0.1, ["bar"], 3))
            record(lambda: client.resilience_stats())
        engine.close()
    return plan.injections, outputs


class TestSeededReplay:
    def test_same_seed_replays_byte_for_byte(self, tmp_path):
        first = run_scenario(1234, tmp_path / "a")
        second = run_scenario(1234, tmp_path / "b")
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_different_seed_diverges(self, tmp_path):
        # Seed 1234 dooms mutation attempt 1, seed 999 attempt 2, so
        # the injection logs (and the 503s' positions in the
        # transcript) must differ.
        first = run_scenario(1234, tmp_path / "a")
        other = run_scenario(999, tmp_path / "b")
        assert first[0] != other[0]
        assert first[1] != other[1]

    def test_every_outcome_is_structured(self, tmp_path):
        # Whatever the seed does, nothing in the transcript is a hang,
        # a crash, or an unstructured failure: each output is either a
        # JSON body or a {status, error, retry_after} record.
        import json

        _, outputs = run_scenario(77, tmp_path)
        assert len(outputs) == 7
        for raw in outputs:
            parsed = json.loads(raw)
            if "status" in parsed and "error" in parsed:
                assert parsed["status"] in (503,)
            else:
                assert "result" in parsed or "generation" in parsed or "breaker" in parsed
