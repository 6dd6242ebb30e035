"""Fault injection against the write-ahead log (satellite 2).

Every fault here asserts the same contract from a different angle: a
batch is either durable *and* applied, or neither — and the failure
surfaces as a structured error (WalWriteError in process, HTTP 503
over the wire), never as a half-logged batch or a half-mutated engine.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialObject
from repro.service.api import YaskEngine
from repro.service.wal import (
    WalError,
    WalWriteError,
    WriteAheadLog,
    read_records,
    recover_engine,
)
from repro.faults import FlakyOpener
from tests.conftest import make_tiny_db

DELETE_0 = {"op": "delete", "oid": 0}


def make_insert(oid: int) -> Mutation:
    return Mutation.insert(
        SpatialObject(oid, Point(0.4, 0.4), frozenset({"chinese"}), f"n{oid}")
    )


@pytest.fixture()
def flaky(tmp_path):
    opener = FlakyOpener()
    log = WriteAheadLog(tmp_path, fsync="always", opener=opener)
    yield log, opener, tmp_path
    log.close()


class TestLogFaults:
    def test_fsync_failure_rolls_back_the_frame(self, flaky):
        log, opener, tmp_path = flaky
        log.append(1, [DELETE_0])
        opener.sync_errors = 1
        with pytest.raises(WalWriteError, match="NOT applied"):
            log.append(2, [DELETE_0])
        # The partial frame was truncated away: the log is intact at
        # generation 1 and accepts the retry of generation 2.
        assert log.last_generation == 1
        assert not log.failed
        assert [r.generation for r in log.records()] == [1]
        log.append(2, [DELETE_0])
        assert [r.generation for r in log.records()] == [1, 2]

    def test_short_write_rolls_back_the_frame(self, flaky):
        log, opener, tmp_path = flaky
        log.append(1, [DELETE_0])
        opener.short_write_bytes = 7  # header + nothing useful
        with pytest.raises(WalWriteError):
            log.append(2, [DELETE_0])
        assert log.last_generation == 1
        assert [r.generation for r in log.records()] == [1]

    def test_unrollbackable_failure_poisons_the_writer(self, flaky):
        log, opener, tmp_path = flaky
        log.append(1, [DELETE_0])
        opener.short_write_bytes = 7
        opener.truncate_errors = 1  # rollback itself fails
        with pytest.raises(WalWriteError):
            log.append(2, [DELETE_0])
        assert log.failed
        with pytest.raises(WalWriteError, match="previously failed"):
            log.append(2, [DELETE_0])
        # Reopening performs torn-tail recovery over the stranded bytes
        # and the directory serves writes again.
        reopened = WriteAheadLog(tmp_path, fsync="never")
        assert reopened.last_generation == 1
        assert reopened.truncated_bytes > 0
        reopened.append(2, [DELETE_0])
        assert [r.generation for r in reopened.records()] == [1, 2]
        reopened.close()

    def test_read_eio_is_a_wal_error_not_silence(self, flaky):
        log, opener, tmp_path = flaky
        log.append(1, [DELETE_0])
        log.close()
        opener.fail_reads = True
        with pytest.raises(WalError, match="cannot read"):
            list(read_records(tmp_path, opener=opener))
        with pytest.raises(WalError, match="cannot read"):
            recover_engine(
                tmp_path, database=make_tiny_db(), opener=opener
            )


class TestEngineFaults:
    def test_failed_append_leaves_engine_untouched(self, tmp_path):
        opener = FlakyOpener()
        wal = WriteAheadLog(tmp_path, fsync="always", opener=opener)
        engine = YaskEngine(make_tiny_db(), wal=wal)
        before = engine.database.objects
        opener.sync_errors = 1
        with pytest.raises(WalWriteError):
            engine.apply_mutations([make_insert(900)])
        assert engine.generation == 0
        assert engine.database.objects == before
        with pytest.raises(KeyError):
            engine.database.get(900)
        # The fault cleared: the very same batch applies as generation 1.
        report = engine.apply_mutations([make_insert(900)])
        assert report.generation == 1
        assert engine.database.get(900).oid == 900
        assert [r.generation for r in wal.records()] == [1]
        engine.close()

    def test_half_logged_batch_never_replays(self, tmp_path):
        opener = FlakyOpener()
        wal = WriteAheadLog(tmp_path, fsync="always", opener=opener)
        engine = YaskEngine(make_tiny_db(), wal=wal)
        engine.apply_mutations([make_insert(900)])
        opener.short_write_bytes = 12
        opener.truncate_errors = 1  # leave the torn frame on disk
        with pytest.raises(WalWriteError):
            engine.apply_mutations([make_insert(901)])
        engine.close()
        # Recovery sees generation 1 only: the torn frame of the failed
        # batch is truncated, not replayed.
        recovered, report = recover_engine(tmp_path, database=make_tiny_db())
        assert report.generation == 1
        assert recovered.database.get(900).oid == 900
        with pytest.raises(KeyError):
            recovered.database.get(901)
        recovered.close()


class TestHTTPFaults:
    def test_wal_write_error_maps_to_structured_503(self, tmp_path):
        from repro.service.client import YaskClient, YaskClientError
        from tests.service.conftest import running_server

        opener = FlakyOpener()
        wal = WriteAheadLog(tmp_path, fsync="always", opener=opener)
        # retries=0: this test pins the raw 503 contract; the client's
        # own retry loop is covered by the chaos suite.
        with running_server(
            YaskEngine(make_tiny_db(), wal=wal)
        ) as server, YaskClient(server.endpoint, retries=0) as client:
            opener.sync_errors = 1
            with pytest.raises(YaskClientError) as exc:
                client.mutate([{"op": "delete", "oid": 0}])
            assert exc.value.status == 503
            assert "NOT applied" in str(exc.value)
            assert exc.value.retry_after is not None
            # The engine still serves its pre-batch state...
            assert client.get_object(0)["oid"] == 0
            assert client.mutation_stats()["generation"] == 0
            # ...and accepts the retry once the device recovers.
            report = client.mutate([{"op": "delete", "oid": 0}])
            assert report["generation"] == 1
            with pytest.raises(YaskClientError) as exc:
                client.get_object(0)
            assert exc.value.status == 404
