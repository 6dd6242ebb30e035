"""Follower (read-replica) tests: tailing, consistency tokens, lag.

Satellite 3's hammer lives here: one writer mutating a durable primary
while reader threads hit a follower of the same log directory with
``min_generation`` tokens.  Every read must be *paired* — the result
bit-for-bit equal to a fresh engine built at the generation the read
reported — and never staler than the reader's token.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.service.protocol import result_to_dict
from repro.service.wal import (
    FollowerEngine,
    FollowerLagError,
    WalCorruptionError,
    WriteAheadLog,
)
from tests.conftest import make_tiny_db

HAMMER_DURATION_S = 1.0


def make_insert(oid: int, x: float = 0.4, y: float = 0.4, words=("chinese",)):
    return Mutation.insert(
        SpatialObject(oid, Point(x, y), frozenset(words), f"n{oid}")
    )


def make_primary(tmp_path, database=None, **wal_kwargs) -> YaskEngine:
    wal_kwargs.setdefault("fsync", "never")
    return YaskEngine(
        database if database is not None else make_tiny_db(),
        wal=WriteAheadLog(tmp_path, **wal_kwargs),
    )


class TestTailing:
    def test_follower_tracks_the_primary(self, tmp_path):
        primary = make_primary(tmp_path)
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        assert follower.generation == 0

        primary.apply_mutations([make_insert(900)])
        assert follower.poll() == 1
        assert follower.generation == 1
        query = primary.make_query(Point(0.4, 0.4), frozenset({"chinese"}), 3)
        assert result_to_dict(follower.engine.query(query)) == result_to_dict(
            primary.query(query)
        )
        follower.close()
        primary.close()

    def test_idle_polls_are_cheap_skips(self, tmp_path):
        primary = make_primary(tmp_path)
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        before = follower.poll_skips
        assert follower.poll() == 0
        assert follower.poll() == 0
        assert follower.poll_skips == before + 2
        follower.close()
        primary.close()

    def test_follower_bootstraps_from_snapshot(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.apply_mutations([make_insert(900)])
        primary.apply_mutations([Mutation.delete(0)])
        primary.snapshot()
        primary.apply_mutations([Mutation.delete(1)])
        # No seed database: the snapshot alone must suffice.
        follower = FollowerEngine(tmp_path)
        assert follower.generation == 3
        assert follower.engine.database.objects == primary.database.objects
        stats = follower.to_dict()
        assert stats["role"] == "follower"
        assert stats["snapshot_generation"] == 2
        assert stats["records_applied"] == 1
        follower.close()
        primary.close()

    def test_follower_engine_refuses_writes(self, tmp_path):
        primary = make_primary(tmp_path)
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        # The replica's engine carries no log; a stray local write can
        # not silently fork it from the primary.
        assert follower.engine.wal is None
        follower.close()
        primary.close()

    def test_compaction_outruns_a_stale_follower(self, tmp_path):
        """Satellite (a): the follower re-bootstraps itself in place.

        Compacting away the segments a stale follower still needs used
        to strand it behind a WalCorruptionError; now the poll detects
        that the manifest's snapshot is ahead of its replay cursor and
        rebuilds the serving engine from that snapshot, transparently.
        """
        primary = make_primary(tmp_path, segment_bytes=1)
        primary.apply_mutations([make_insert(900)])
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        assert follower.generation == 1
        stale_engine = follower.engine
        for oid in (0, 1, 2):
            primary.apply_mutations([Mutation.delete(oid)])
        primary.snapshot()  # compacts the segments the follower needs
        applied = follower.poll()
        assert applied == primary.generation - 1
        assert follower.generation == primary.generation
        assert follower.engine is not stale_engine
        assert follower.engine.database.objects == primary.database.objects
        assert follower.rebootstraps == 1
        assert follower.to_dict()["rebootstraps"] == 1
        # Subsequent polls are back to cheap incremental tailing.
        assert follower.poll() == 0
        assert follower.rebootstraps == 1
        follower.close()
        primary.close()

    def test_rebootstrap_requires_a_newer_snapshot(self, tmp_path):
        """A genuine log gap (no snapshot ahead) still raises."""
        primary = make_primary(tmp_path, segment_bytes=1)
        primary.apply_mutations([make_insert(900)])
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        primary.apply_mutations([Mutation.delete(0)])
        primary.apply_mutations([Mutation.delete(1)])
        # Remove the middle segment WITHOUT snapshotting: the tail now
        # has a genuine gap and nothing newer to re-bootstrap from, so
        # the error surfaces instead of a silent skip.
        sorted(tmp_path.glob("wal-*.log"))[1].unlink()
        with pytest.raises(WalCorruptionError):
            follower.poll()
        assert follower.rebootstraps == 0
        follower.close()
        primary.close()


class TestConsistencyToken:
    def test_read_honours_min_generation(self, tmp_path):
        primary = make_primary(tmp_path)
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        report = primary.apply_mutations([make_insert(900)])
        query = primary.make_query(Point(0.4, 0.4), frozenset({"chinese"}), 3)
        # The token the primary just acknowledged is satisfiable in one
        # poll, and the paired generation proves it.
        result, generation = follower.read(
            query, min_generation=report.generation
        )
        assert generation == report.generation
        assert 900 in {entry.obj.oid for entry in result.entries}
        follower.close()
        primary.close()

    def test_unreachable_token_raises_lag(self, tmp_path):
        primary = make_primary(tmp_path)
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        query = primary.make_query(Point(0.4, 0.4), frozenset({"chinese"}), 3)
        with pytest.raises(FollowerLagError, match="generation 0"):
            follower.read(query, min_generation=7)
        follower.close()
        primary.close()


class TestFollowerHammer:
    def test_tokened_reads_are_never_torn_or_stale(self, tmp_path):
        database = SyntheticDatasetBuilder(seed=61).build(
            40, vocabulary_size=12, doc_length=(2, 5)
        )
        dataspace = database.dataspace
        primary = make_primary(tmp_path, database=database)
        follower = FollowerEngine(
            tmp_path,
            database=SyntheticDatasetBuilder(seed=61).build(
                40, vocabulary_size=12, doc_length=(2, 5)
            ),
        )
        query = primary.make_query(
            Point(0.5, 0.5), frozenset({"kw000", "kw003"}), 4
        )

        states: dict[int, tuple] = {0: primary.database.objects}
        states_lock = threading.Lock()
        last_acked = [0]
        stop = threading.Event()
        failures: list[str] = []
        observed: list[tuple[int, dict]] = []
        observed_lock = threading.Lock()

        def writer() -> None:
            oid = 10_000
            words = ["kw000", "kw003", "kw007", "hammer"]
            try:
                while not stop.is_set():
                    batch = [
                        make_insert(
                            oid,
                            x=(oid % 13) / 13.0,
                            y=(oid % 7) / 7.0,
                            words=(words[oid % 4], words[(oid + 1) % 4]),
                        )
                    ]
                    if oid % 3 == 0 and oid > 10_001:
                        batch.append(Mutation.delete(oid - 2))
                    report = primary.apply_mutations(batch)
                    with states_lock:
                        states[report.generation] = primary.database.objects
                        last_acked[0] = report.generation
                    oid += 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(f"writer: {exc!r}")

        def reader() -> None:
            try:
                while not stop.is_set():
                    token = last_acked[0]
                    try:
                        result, generation = follower.read(
                            query, min_generation=token
                        )
                    except FollowerLagError:
                        continue  # healthy: merely behind, retry
                    if generation < token:
                        failures.append(
                            f"stale read: generation {generation} < "
                            f"token {token}"
                        )
                    with observed_lock:
                        observed.append((generation, result_to_dict(result)))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(f"reader: {exc!r}")

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        time.sleep(HAMMER_DURATION_S)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures[:5]
        assert observed, "hammer produced no reads"

        # The follower converges on the primary, gap-free.
        follower.poll()
        assert follower.generation == primary.generation
        assert sorted(states) == list(range(primary.generation + 1))

        # Every (generation, result) pair must be exactly that
        # generation's answer: rebuild a fresh engine per observed
        # generation (bounded sample) and compare bit-for-bit.
        distinct = sorted({generation for generation, _ in observed})
        sample = set(distinct[:: max(1, len(distinct) // 40)]) | {
            distinct[0],
            distinct[-1],
        }
        by_generation: dict[int, dict] = {}
        for generation in sample:
            fresh = YaskEngine(
                SpatialDatabase(states[generation], dataspace=dataspace)
            )
            by_generation[generation] = result_to_dict(fresh.query(query))
            fresh.close()
        checked = 0
        for generation, result in observed:
            if generation in by_generation:
                assert result == by_generation[generation], (
                    f"torn read at generation {generation}"
                )
                checked += 1
        assert checked > 0

        follower.close()
        primary.close()


class TestFollowerHTTP:
    @pytest.fixture()
    def replica_pair(self, tmp_path):
        from contextlib import ExitStack

        from repro.service.client import YaskClient
        from tests.service.conftest import running_server

        with ExitStack() as stack:
            primary = make_primary(tmp_path)
            primary_server = stack.enter_context(running_server(primary))
            follower = FollowerEngine(tmp_path, database=make_tiny_db())
            follower_server = stack.enter_context(
                running_server(follower.engine, follower=follower)
            )
            yield (
                stack.enter_context(YaskClient(primary_server.endpoint)),
                stack.enter_context(YaskClient(follower_server.endpoint)),
            )

    def test_write_to_primary_read_your_writes_on_follower(
        self, replica_pair
    ):
        primary, follower = replica_pair
        report = primary.mutate(
            [
                {
                    "op": "insert",
                    "oid": 900,
                    "x": 0.4,
                    "y": 0.4,
                    "keywords": ["chinese"],
                }
            ]
        )
        token = report["generation"]
        response = follower.query(
            0.4, 0.4, ["chinese"], 3, min_generation=token
        )
        oids = [e["object"]["oid"] for e in response["result"]["entries"]]
        assert 900 in oids
        stats = follower.durability_stats()
        assert stats["role"] == "follower"
        assert stats["generation"] >= token

    def test_follower_rejects_writes_with_403(self, replica_pair):
        from repro.service.client import YaskClientError

        _, follower = replica_pair
        with pytest.raises(YaskClientError) as exc:
            follower.mutate([{"op": "delete", "oid": 0}])
        assert exc.value.status == 403
        assert "read-only follower" in str(exc.value)
        with pytest.raises(YaskClientError) as exc:
            follower.delete_object(0)
        assert exc.value.status == 403

    def test_unreachable_token_is_structured_503(self, replica_pair):
        from repro.service.client import YaskClientError

        _, follower = replica_pair
        with pytest.raises(YaskClientError) as exc:
            follower.query(0.4, 0.4, ["chinese"], 3, min_generation=999)
        assert exc.value.status == 503
        assert "retry" in str(exc.value)

    def test_server_requires_matching_engine(self, tmp_path):
        from repro.service.server import YaskHTTPServer

        primary = make_primary(tmp_path)
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        other = YaskEngine(make_tiny_db())
        with pytest.raises(ValueError, match="follower"):
            YaskHTTPServer(other, follower=follower)
        other.close()
        follower.close()
        primary.close()
