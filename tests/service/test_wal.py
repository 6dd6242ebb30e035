"""Unit tests for the write-ahead log: framing, segments, snapshots.

The crash-point *property* suite lives in
``tests/properties/test_prop_recovery.py``; fault injection (short
writes, fsync failures) in ``tests/service/test_wal_faults.py``.  This
module pins the deterministic mechanics: record framing round trips,
torn-tail truncation, contiguity enforcement, segment rollover,
snapshot + manifest + compaction, and the engine-side write-ahead
contract (no-op batches are never logged, attach requires agreement).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.geometry import Point
from repro.core.kernel import ScoringKernel
from repro.core.mutations import Mutation
from repro.core.objects import SpatialObject
from repro.service.api import YaskEngine
from repro.service.protocol import MAX_OBJECT_KEYWORDS, result_to_dict
from repro.service.wal import (
    FollowerEngine,
    RecoveryReport,
    WalCorruptionError,
    WalError,
    WalRecord,
    WriteAheadLog,
    load_snapshot,
    read_records,
    recover_engine,
    replay_into,
)
from tests.conftest import make_tiny_db

INSERT_900 = {
    "op": "insert",
    "oid": 900,
    "x": 0.5,
    "y": 0.5,
    "keywords": ["chinese", "noodles"],
}
DELETE_900 = {"op": "delete", "oid": 900}


def _append_n(log: WriteAheadLog, count: int, *, start: int = 1) -> None:
    for generation in range(start, start + count):
        log.append(generation, [{"op": "delete", "oid": generation}])


def _segment_files(directory) -> list[str]:
    return sorted(
        name for name in os.listdir(directory) if name.startswith("wal-")
    )


class TestFraming:
    def test_append_read_round_trip(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.append(1, [INSERT_900])
        log.append(2, [DELETE_900, INSERT_900])
        records = log.records()
        assert records == [
            WalRecord(1, (INSERT_900,)),
            WalRecord(2, (DELETE_900, INSERT_900)),
        ]
        assert log.last_generation == 2
        log.close()

    def test_reopen_resumes_generation(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 3)
        log.close()
        reopened = WriteAheadLog(tmp_path, fsync="never")
        assert reopened.last_generation == 3
        reopened.append(4, [DELETE_900])
        assert [r.generation for r in reopened.records()] == [1, 2, 3, 4]
        reopened.close()

    def test_non_contiguous_append_refused(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.append(1, [INSERT_900])
        with pytest.raises(WalError, match="non-contiguous"):
            log.append(3, [DELETE_900])
        with pytest.raises(WalError, match="non-contiguous"):
            log.append(1, [DELETE_900])
        log.close()

    def test_empty_batch_refused(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        with pytest.raises(WalError, match="empty"):
            log.append(1, [])
        log.close()

    def test_closed_log_refuses_appends(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.close()
        log.close()  # idempotent
        with pytest.raises(WalError, match="closed"):
            log.append(1, [INSERT_900])

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_after_filter_and_covered_segment_skip(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 4)
        log.close()
        assert len(_segment_files(tmp_path)) == 4
        generations = [
            r.generation for r in read_records(tmp_path, after=2)
        ]
        assert generations == [3, 4]


class TestTornTail:
    def test_writer_truncates_torn_tail(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 2)
        log.close()
        segment = tmp_path / _segment_files(tmp_path)[-1]
        intact = segment.read_bytes()
        segment.write_bytes(intact + b"\x99\x12torn-partial-frame")
        reopened = WriteAheadLog(tmp_path, fsync="never")
        assert reopened.last_generation == 2
        assert reopened.truncated_bytes > 0
        assert segment.read_bytes() == intact
        reopened.append(3, [DELETE_900])
        assert [r.generation for r in reopened.records()] == [1, 2, 3]
        reopened.close()

    def test_mid_record_truncation_drops_only_the_tail(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 3)
        log.close()
        segment = tmp_path / _segment_files(tmp_path)[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[: len(raw) - 5])  # tear record 3
        reopened = WriteAheadLog(tmp_path, fsync="never")
        assert [r.generation for r in reopened.records()] == [1, 2]
        assert reopened.last_generation == 2
        reopened.close()

    def test_torn_non_final_segment_is_corruption(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 3)
        log.close()
        first = tmp_path / _segment_files(tmp_path)[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(WalCorruptionError):
            list(read_records(tmp_path))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path, fsync="never")

    def test_crc_mismatch_behind_intact_records(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 2)
        log.close()
        first = tmp_path / _segment_files(tmp_path)[0]
        raw = bytearray(first.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte under the CRC
        first.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError):
            list(read_records(tmp_path))

    def test_reader_tolerates_torn_final_segment(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 2)
        log.close()
        segment = tmp_path / _segment_files(tmp_path)[-1]
        segment.write_bytes(segment.read_bytes() + b"\x01\x02half")
        generations = [r.generation for r in read_records(tmp_path)]
        assert generations == [1, 2]


class TestCorruptionMessages:
    """Satellite (b): the two failure classes are named, with evidence.

    A recoverable torn tail and unrecoverable mid-log corruption demand
    opposite operator responses (reopen the writer vs restore from a
    snapshot/replica), so the messages must say which one occurred, in
    which segment, and why the scan stopped.
    """

    def test_torn_tail_message_names_segment_and_remedy(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 2)
        log.close()
        segment = tmp_path / _segment_files(tmp_path)[-1]
        segment.write_bytes(segment.read_bytes() + b"\x01\x02half")
        with pytest.raises(WalCorruptionError) as exc:
            list(read_records(tmp_path, tolerate_torn_tail=False))
        message = str(exc.value)
        assert message.startswith(
            f"recoverable torn tail in segment {segment.name}: "
        )
        assert "reopening the write-ahead log writer truncates it away" in message

    def test_mid_log_message_names_segment_and_remedy(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 3)
        log.close()
        first = tmp_path / _segment_files(tmp_path)[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(WalCorruptionError) as exc:
            list(read_records(tmp_path))
        message = str(exc.value)
        assert message.startswith(
            f"mid-log corruption in segment {first.name}: "
        )
        assert "restore from a snapshot or a replica" in message
        assert "truncates it away" not in message

    def test_crc_mismatch_reports_offset_and_both_checksums(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 2)
        log.close()
        first = tmp_path / _segment_files(tmp_path)[0]
        raw = bytearray(first.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte under the CRC
        first.write_bytes(bytes(raw))
        with pytest.raises(
            WalCorruptionError,
            match=(
                r"record checksum mismatch at offset \d+: "
                r"expected CRC 0x[0-9a-f]{8}, got 0x[0-9a-f]{8}"
            ),
        ):
            list(read_records(tmp_path))


class TestBatchTokens:
    """Idempotency tokens ride the log and survive recovery."""

    def test_token_round_trips_through_the_log(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.append(1, [INSERT_900], token="client-abc")
        log.append(2, [DELETE_900])
        records = log.records()
        assert records[0].token == "client-abc"
        assert records[1].token is None
        log.close()
        assert [r.token for r in read_records(tmp_path)] == ["client-abc", None]

    def test_engine_deduplicates_a_replayed_token(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        engine = YaskEngine(make_tiny_db(), wal=wal)
        first = engine.apply_mutations(
            [Mutation.delete(0)], batch_token="tok-1"
        )
        assert not first.deduplicated
        assert first.generation == 1
        # The exact same batch again, same token: acknowledged, not
        # re-applied, and nothing new reaches the log.
        replay = engine.apply_mutations(
            [Mutation.delete(0)], batch_token="tok-1"
        )
        assert replay.deduplicated
        assert replay.generation == 1
        assert replay.to_dict()["deduplicated"] is True
        assert replay.to_dict()["inserted"] == 0
        assert engine.generation == 1
        assert wal.last_generation == 1
        engine.close()

    def test_tokens_survive_recovery(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        engine = YaskEngine(make_tiny_db(), wal=wal)
        engine.apply_mutations([Mutation.delete(0)], batch_token="tok-9")
        engine.close()
        recovered, report = recover_engine(tmp_path, database=make_tiny_db())
        assert report.generation == 1
        replay = recovered.apply_mutations(
            [Mutation.delete(0)], batch_token="tok-9"
        )
        assert replay.deduplicated
        assert replay.generation == 1
        assert recovered.generation == 1
        recovered.close()

    def test_distinct_tokens_apply_normally(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        engine = YaskEngine(make_tiny_db(), wal=wal)
        engine.apply_mutations([Mutation.delete(0)], batch_token="a")
        report = engine.apply_mutations([Mutation.delete(1)], batch_token="b")
        assert not report.deduplicated
        assert report.generation == 2
        engine.close()


class TestSegments:
    def test_rollover_names_segments_by_start_generation(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 3)
        log.close()
        assert _segment_files(tmp_path) == [
            "wal-0000000000000001.log",
            "wal-0000000000000002.log",
            "wal-0000000000000003.log",
        ]

    def test_oversize_existing_segment_rolls_on_reopen(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 2)
        log.close()
        reopened = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        reopened.append(3, [DELETE_900])
        reopened.close()
        assert len(_segment_files(tmp_path)) == 2
        assert [r.generation for r in read_records(tmp_path)] == [1, 2, 3]


class TestSnapshots:
    def _database_payload(self) -> dict:
        from repro.core.codec import database_to_doc

        return database_to_doc(make_tiny_db())

    def test_snapshot_round_trip_and_compaction(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never", segment_bytes=1)
        _append_n(log, 3)
        payload = self._database_payload()
        info = log.write_snapshot(2, payload)
        assert info["generation"] == 2
        assert info["segments_compacted"] == 2
        assert log.snapshot_generation == 2
        loaded = load_snapshot(tmp_path)
        assert loaded == (2, payload)
        # Records past the snapshot are still replayable.
        assert [r.generation for r in read_records(tmp_path, after=2)] == [3]
        log.close()

    def test_snapshot_never_deletes_active_segment(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 3)  # one segment holds everything
        log.write_snapshot(3, self._database_payload())
        assert len(_segment_files(tmp_path)) == 1
        log.append(4, [DELETE_900])
        assert [r.generation for r in log.records(after=3)] == [4]
        log.close()

    def test_new_snapshot_replaces_old_file(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 2)
        log.write_snapshot(1, self._database_payload())
        log.write_snapshot(2, self._database_payload())
        snapshots = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith("snapshot-")
        ]
        assert snapshots == ["snapshot-0000000000000002.json"]
        log.close()

    def test_snapshot_regression_and_future_refused(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 2)
        log.write_snapshot(2, self._database_payload())
        with pytest.raises(WalError, match="regress"):
            log.write_snapshot(1, self._database_payload())
        with pytest.raises(WalError, match="ahead"):
            log.write_snapshot(5, self._database_payload())
        log.close()

    def test_manifest_naming_missing_snapshot_is_corruption(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 1)
        log.write_snapshot(1, self._database_payload())
        log.close()
        for name in os.listdir(tmp_path):
            if name.startswith("snapshot-"):
                (tmp_path / name).unlink()
        with pytest.raises(WalCorruptionError, match="missing"):
            load_snapshot(tmp_path)

    def test_garbage_manifest_is_corruption(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path, fsync="never")

    def test_unsnapshotted_log_loads_none(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        _append_n(log, 1)
        log.close()
        assert load_snapshot(tmp_path) is None


class TestEngineContract:
    """The write-ahead contract as threaded through YaskEngine."""

    def _engine(self, tmp_path, **kwargs) -> YaskEngine:
        wal = WriteAheadLog(tmp_path, fsync="never")
        return YaskEngine(make_tiny_db(), wal=wal, **kwargs)

    def test_apply_logs_before_state_visible(self, tmp_path):
        engine = self._engine(tmp_path)
        report = engine.apply_mutations(
            [
                Mutation.insert(
                    SpatialObject(
                        900, Point(0.4, 0.4), frozenset({"chinese"}), "new"
                    )
                )
            ]
        )
        assert report.generation == 1
        assert engine.wal.last_generation == 1
        [record] = engine.wal.records()
        assert record.generation == 1
        assert record.mutations[0]["op"] == "insert"
        assert record.mutations[0]["oid"] == 900
        engine.close()

    def test_noop_batch_is_never_logged(self, tmp_path):
        engine = self._engine(tmp_path)
        obj = SpatialObject(900, Point(0.4, 0.4), frozenset({"chinese"}))
        report = engine.apply_mutations(
            [Mutation.insert(obj), Mutation.delete(900)]
        )
        assert report.change.is_noop
        assert report.generation == 0
        assert engine.generation == 0
        assert engine.wal.last_generation == 0
        assert engine.wal.records() == []
        engine.close()

    def test_attach_requires_generation_agreement(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.append(1, [DELETE_900])
        with pytest.raises(WalError, match="generation"):
            YaskEngine(make_tiny_db(), wal=log)
        log.close()

    def test_double_attach_refused(self, tmp_path):
        engine = self._engine(tmp_path)
        other = WriteAheadLog(tmp_path / "other", fsync="never")
        with pytest.raises(ValueError, match="already"):
            engine.attach_wal(other)
        other.close()
        engine.close()

    def test_snapshot_without_wal_refused(self):
        engine = YaskEngine(make_tiny_db())
        with pytest.raises(WalError, match="no write-ahead log"):
            engine.snapshot()
        assert engine.durability_stats() == {"enabled": False}
        engine.close()

    def test_durability_stats_report_primary_role(self, tmp_path):
        engine = self._engine(tmp_path)
        stats = engine.durability_stats()
        assert stats["enabled"] is True
        assert stats["role"] == "primary"
        assert stats["generation"] == 0
        engine.close()


class TestReplay:
    def test_double_replay_is_idempotent(self, tmp_path):
        engine = YaskEngine(make_tiny_db(), wal=WriteAheadLog(tmp_path, fsync="never"))
        engine.apply_mutations([Mutation.delete(0)])
        engine.apply_mutations([Mutation.delete(1)])
        records = engine.wal.records()
        engine.close()

        fresh = YaskEngine(make_tiny_db())
        assert replay_into(fresh, records) == (2, 2)
        assert fresh.generation == 2
        # Replaying the very same records again applies nothing.
        assert replay_into(fresh, records) == (0, 0)
        assert fresh.generation == 2
        fresh.close()

    def test_an_object_over_the_wire_keyword_cap_replays(self, tmp_path):
        # The keyword cap guards the HTTP boundary only: an in-process
        # batch may log an object with more keywords, and recovery and a
        # follower must replay that record, not call the log corrupt.
        words = frozenset(
            ["chinese"] + [f"w{i}" for i in range(MAX_OBJECT_KEYWORDS)]
        )
        primary = YaskEngine(
            make_tiny_db(), wal=WriteAheadLog(tmp_path, fsync="never")
        )
        follower = FollowerEngine(tmp_path, database=make_tiny_db())
        primary.apply_mutations(
            [Mutation.insert(SpatialObject(900, Point(0.4, 0.4), words))]
        )
        query = primary.make_query(Point(0.4, 0.4), frozenset({"chinese"}), 3)
        expected = result_to_dict(primary.query(query))
        assert 900 in primary.query(query).object_ids
        primary.close()

        assert follower.poll() == 1
        assert result_to_dict(follower.engine.query(query)) == expected
        follower.close()

        recovered, report = recover_engine(
            tmp_path, database=make_tiny_db(), attach=False
        )
        assert report.generation == 1
        assert result_to_dict(recovered.query(query)) == expected
        recovered.close()

    def test_generation_gap_is_corruption(self):
        fresh = YaskEngine(make_tiny_db())
        with pytest.raises(WalCorruptionError, match="gap"):
            replay_into(fresh, [WalRecord(2, ({"op": "delete", "oid": 0},))])
        fresh.close()

    def test_malformed_logged_mutation_is_corruption(self):
        fresh = YaskEngine(make_tiny_db())
        with pytest.raises(WalCorruptionError, match="malformed"):
            replay_into(fresh, [WalRecord(1, ({"op": "levitate"},))])
        fresh.close()

    def test_logged_noop_record_is_corruption(self):
        # A record the log claims bumped the generation must not replay
        # as a no-op; sequential semantics would silently shift every
        # later generation.
        fresh = YaskEngine(make_tiny_db())
        batch = (
            {
                "op": "insert",
                "oid": 900,
                "x": 0.4,
                "y": 0.4,
                "keywords": ["chinese"],
            },
            {"op": "delete", "oid": 900},
        )
        with pytest.raises(WalCorruptionError, match="sequential"):
            replay_into(fresh, [WalRecord(1, batch)])
        fresh.close()


class TestRecoverEngine:
    def test_recovery_without_seed_or_snapshot_fails(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.append(1, [DELETE_900])
        log.close()
        with pytest.raises(WalError, match="seed database"):
            recover_engine(tmp_path)

    def test_fresh_directory_recovers_the_seed(self, tmp_path):
        engine, report = recover_engine(tmp_path, database=make_tiny_db())
        assert report == RecoveryReport(
            generation=0,
            snapshot_generation=0,
            records_replayed=0,
            mutations_replayed=0,
            objects=5,
        )
        assert engine.wal is not None
        engine.apply_mutations([Mutation.delete(0)])
        assert engine.wal.last_generation == 1
        engine.close()

    def test_detached_recovery_leaves_no_writer(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.append(1, [{"op": "delete", "oid": 0}])
        log.close()
        engine, report = recover_engine(
            tmp_path, database=make_tiny_db(), attach=False
        )
        assert report.records_replayed == 1
        assert engine.wal is None
        engine.close()

    def test_replay_encodes_no_rows(self, tmp_path, monkeypatch):
        # Replay applies batches at the database layer only: no kernel
        # listens and no cache needs the added objects as kernel rows,
        # so a replayed batch must not pay for encoding them.
        engine = YaskEngine(make_tiny_db(), wal=WriteAheadLog(tmp_path, fsync="never"))
        engine.apply_mutations([Mutation.delete(0)])
        engine.snapshot()
        for oid in range(900, 904):
            doc = frozenset({"chinese", f"n{oid}"})
            newcomer = SpatialObject(oid, Point(0.1 * (oid - 899), 0.5), doc)
            engine.apply_mutations([Mutation.insert(newcomer)])
        engine.close()

        calls: list[int] = []
        encode_rows = ScoringKernel.encode_rows

        def spy(objects, vocabulary):
            calls.append(len(objects))
            return encode_rows(objects, vocabulary)

        monkeypatch.setattr(ScoringKernel, "encode_rows", staticmethod(spy))
        recovered, report = recover_engine(tmp_path, attach=False)
        assert (report.snapshot_generation, report.records_replayed) == (1, 4)
        assert calls == []
        # The recovered engine's own batches do encode their rows.
        recovered.apply_mutations(
            [Mutation.insert(SpatialObject(950, Point(0.5, 0.5), frozenset({"x"})))]
        )
        assert calls and set(calls) == {1}
        recovered.close()

    def test_report_serialises(self, tmp_path):
        _, report = recover_engine(tmp_path, database=make_tiny_db())
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
