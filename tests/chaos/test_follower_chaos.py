"""Replica tailing under injected faults, over HTTP.

A follower whose poll hits an injected I/O error must answer a
structured retryable 503 — never stale data presented as fresh, never
a 500 — and recover on the next poll once the fault budget is spent.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.mutations import Mutation
from repro.faults import FaultPlan
from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError
from repro.service.wal import FollowerEngine, WriteAheadLog

from tests.chaos.conftest import make_chaos_db, running_server

pytestmark = pytest.mark.slow


def make_primary(wal_dir) -> YaskEngine:
    return YaskEngine(make_chaos_db(), wal=WriteAheadLog(wal_dir))


class TestFollowerTailingFaults:
    def test_failed_poll_is_a_retryable_503_then_recovers(self, tmp_path):
        plan = FaultPlan(seed=30).fail("follower.poll", after=1, times=1)
        primary = make_primary(tmp_path)
        primary.apply_mutations([Mutation.delete(0)])
        with faults.armed(plan):
            follower = FollowerEngine(tmp_path, database=make_chaos_db())
            with running_server(
                follower.engine, follower=follower
            ) as server, YaskClient(
                server.endpoint, retries=0
            ) as client:
                # The injected fault fires inside the pre-read poll:
                # the replica refuses to answer rather than serving a
                # possibly-stale result as fresh.
                with pytest.raises(YaskClientError) as exc:
                    client.query(0.06, 0.06, ["food", "cafe"], 3)
                assert exc.value.status == 503
                assert "replica tailing failed" in str(exc.value)
                assert "retry shortly" in str(exc.value)
                assert exc.value.retry_after is not None

                # Budget spent: the retry the 503 invited succeeds, and
                # the answer reflects the primary's mutation.
                body = client.query(0.06, 0.06, ["food", "cafe"], 3)
                oids = [e["object"]["oid"] for e in body["result"]["entries"]]
                assert 0 not in oids
                assert follower.generation == primary.generation
            follower.close()
        primary.close()
        assert [e["site"] for e in plan.injections] == ["follower.poll"]

    def test_client_retry_loop_rides_out_a_tailing_blip(self, tmp_path):
        plan = FaultPlan(seed=31).fail("follower.poll", after=1, times=1)
        primary = make_primary(tmp_path)
        primary.apply_mutations([Mutation.delete(0)])
        slept: list[float] = []
        with faults.armed(plan):
            follower = FollowerEngine(tmp_path, database=make_chaos_db())
            with running_server(
                follower.engine, follower=follower
            ) as server, YaskClient(
                server.endpoint, retries=2, sleep=slept.append
            ) as client:
                # One transparent retry after the advertised second:
                # the caller never sees the blip.
                body = client.query(0.06, 0.06, ["food", "cafe"], 3)
                assert slept == [1.0]
                oids = [e["object"]["oid"] for e in body["result"]["entries"]]
                assert 0 not in oids
            follower.close()
        primary.close()
