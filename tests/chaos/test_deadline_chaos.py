"""Deadline degradation against a live server, on the virtual clock.

A seeded plan makes every shard scan "cost" a fixed number of virtual
milliseconds; a request-level ``timeout_ms`` then degrades exactly
where the arithmetic says it must.  Top-k absorbs (partial result +
``degraded`` envelope); why-not is strict (exact answer or an honest
degradation report — never a partial rank count).
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.geometry import Point
from repro.faults import FaultPlan
from repro.service.api import YaskEngine
from repro.service.client import YaskClient

from tests.chaos.conftest import FAR_OID, make_chaos_db, running_server

pytestmark = pytest.mark.slow

SHARDS = 4


@pytest.fixture()
def chaos_engine():
    engine = YaskEngine(make_chaos_db(), shards=SHARDS)
    yield engine
    engine.close()


class TestPartialTopK:
    def test_deadline_yields_partial_with_envelope(self, chaos_engine):
        plan = FaultPlan(seed=1).delay("shard.scan.*", 60.0, times=None)
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                body = client.query(
                    0.5, 0.5, ["food", "cafe"], 10, timeout_ms=150.0
                )
        envelope = body["degraded"]
        assert envelope["budget_ms"] == 150.0
        assert envelope["shards_skipped"] >= 1
        assert (
            envelope["shards_answered"] + envelope["shards_skipped"] == SHARDS
        )
        assert envelope["reason"] == "deadline"
        # The partial is still a well-formed top-k page.
        assert 1 <= len(body["result"]["entries"]) <= 10
        assert not body["cached"]

    def test_no_deadline_is_exact_and_envelope_free(self, chaos_engine):
        plan = FaultPlan(seed=1).delay("shard.scan.*", 60.0, times=None)
        reference = YaskEngine(make_chaos_db())  # unsharded oracle
        expected = [
            entry.obj.oid
            for entry in reference.top_k(
                Point(0.5, 0.5), {"food", "cafe"}, k=10
            ).entries
        ]
        reference.close()
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                body = client.query(0.5, 0.5, ["food", "cafe"], 10)
        assert "degraded" not in body
        assert [e["object"]["oid"] for e in body["result"]["entries"]] == expected

    def test_degraded_results_are_never_cached(self, chaos_engine):
        plan = FaultPlan(seed=2).delay("shard.scan.*", 60.0, times=None)
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                degraded = client.query(
                    0.5, 0.5, ["food", "cafe"], 10, timeout_ms=150.0
                )
                assert degraded["degraded"]["shards_skipped"] >= 1
                # The same query with headroom must re-execute exactly —
                # a cache hit here would serve the partial back.
                exact = client.query(
                    0.5, 0.5, ["food", "cafe"], 10, timeout_ms=100000.0
                )
        assert "degraded" not in exact
        assert not exact["cached"]
        assert len(exact["result"]["entries"]) == 10

    def test_cache_hits_are_served_exact_under_any_deadline(self, chaos_engine):
        plan = FaultPlan(seed=3).delay("shard.scan.*", 60.0, times=None)
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                warm = client.query(0.5, 0.5, ["food", "cafe"], 10)
                # A hopeless budget, but the warm exact result exists:
                # serving it is strictly better than degrading.
                hit = client.query(
                    0.5, 0.5, ["food", "cafe"], 10, timeout_ms=1.0
                )
        assert hit["cached"]
        assert "degraded" not in hit
        assert hit["result"] == warm["result"]

    def test_pruned_shards_count_as_answered_after_expiry(self, chaos_engine):
        """Regression: on expiry every shard left was booked as skipped,
        the ones the floor had already pruned included."""
        plan = FaultPlan(seed=6).delay("shard.scan.*", 50.0, times=1)
        with faults.armed(plan):
            # No skyband: the engine is asked for exactly k, so the
            # first shard's three candidates already set a floor.
            with running_server(chaos_engine, cache_skyband=0) as server:
                client = YaskClient(server.endpoint, retries=0)
                body = client.query(
                    0.06, 0.5, ["food", "cafe"], 3, timeout_ms=10.0
                )
                tally = chaos_engine.shard_router.stats.to_dict()
                exact = client.query(0.06, 0.5, ["food", "cafe"], 3)
        # The first scan outlives the budget.  Of the three shards left
        # one could still place an object and two the floor prunes,
        # which is exactness: only the first is degradation.
        envelope = body["degraded"]
        assert envelope["shards_answered"] == 3
        assert envelope["shards_skipped"] == 1
        assert envelope["reason"] == "deadline"
        assert (tally["topk_shards_scanned"], tally["topk_shards_skipped"]) == (1, 2)
        # ... and the exact gather does scan that one, and no other.
        assert "degraded" not in exact
        tally = chaos_engine.shard_router.stats.to_dict()
        assert (tally["topk_shards_scanned"], tally["topk_shards_skipped"]) == (3, 4)

    def test_failing_shard_is_absorbed_under_a_deadline(self, chaos_engine):
        """An absorbing deadline books a shard whose scan raises as
        failed, answers from the rest, and the next query is exact."""
        plan = FaultPlan(seed=7).fail("shard.scan.*", times=1)
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                body = client.query(
                    0.5, 0.5, ["food"], 20, timeout_ms=100000.0
                )
                exact = client.query(
                    0.5, 0.5, ["food"], 20, timeout_ms=100000.0
                )
        envelope = body["degraded"]
        assert envelope["shards_answered"] == SHARDS - 1
        assert envelope["shards_skipped"] == 1
        assert "shard" in envelope["reason"]
        assert "degraded" not in exact
        assert len(exact["result"]["entries"]) == 20


class TestStrictWhyNot:
    def test_whynot_degrades_honestly_not_wrongly(self, chaos_engine):
        plan = FaultPlan(seed=4).delay("shard.scan.*", 60.0, times=None)
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                session = client.query(0.5, 0.5, ["food", "cafe"], 10)
                # Drop the query cache so the why-not's initial top-k
                # re-executes (and burns virtual time).  A mutation
                # would not do: maintenance patches the warm result.
                server.executor.invalidate()
                body = client.explain(
                    session["session_id"], [FAR_OID], timeout_ms=100.0
                )
        assert body["degraded"]["budget_ms"] == 100.0
        assert "deadline" in body["error"]
        assert body["cached"] is False
        # No partial explanation may leak: a half-finished rank count
        # is a silently wrong answer, the one forbidden outcome.
        assert "explanation" not in body
        assert "ranks" not in body

    def test_whynot_with_headroom_is_exact(self, chaos_engine):
        plan = FaultPlan(seed=5).delay("shard.scan.*", 60.0, times=None)
        with faults.armed(plan):
            with running_server(chaos_engine) as server:
                client = YaskClient(server.endpoint, retries=0)
                session = client.query(0.5, 0.5, ["food", "cafe"], 10)
                body = client.explain(
                    session["session_id"], [FAR_OID], timeout_ms=1000000.0
                )
        assert "degraded" not in body
        assert "explanation" in body
