"""The crash-point recovery property (the durability tier's contract).

For ANY sequence of mutation batches logged through the write-ahead
log — with or without a snapshot taken mid-stream — and ANY crash
point (after every record boundary AND at drawn byte offsets *inside*
a record, simulating a torn write), recovery must reconstruct an
engine that is *bit-for-bit* indistinguishable from a fresh engine
built from the state the surviving log prefix describes:

* the recovered generation is exactly the last fully-durable one
  (never a gap, never a partial batch);
* top-k results match float-for-float, tie-order included, against a
  fresh kernel engine, a set-path oracle and a sharded recovery;
* why-not answers match through their wire serialisations.

Because ``draw_batches`` can produce a batch whose net effect is
empty (insert + delete of the same oid), this suite also pins the
no-op/replay-idempotence fix: no-op batches never reach the log, so
logged generations stay contiguous and every replay lands exactly.

Budget: ``YASK_RECOVERY_EXAMPLES`` (default 8; ``make test-recovery``
raises it) — each example exercises every crash point of its log.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.objects import SpatialDatabase
from repro.core.scoring import Scorer
from repro.service.api import YaskEngine
from repro.service.protocol import result_to_dict, whynot_answer_to_dict
from repro.service.wal import (
    _HEADER,
    WriteAheadLog,
    load_snapshot,
    recover_engine,
)
from tests.properties.strategies import databases, queries
from tests.properties.test_prop_mutations import draw_batches, entry_tuple

MAX_EXAMPLES = int(os.environ.get("YASK_RECOVERY_EXAMPLES", "8"))

RECOVERY_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def recovery_scenarios(draw):
    database = draw(databases(min_size=4, max_size=16))
    query = draw(queries(k_max=5))
    # 1-byte segments force one record per segment (multi-segment
    # layout, compaction has bite); the default keeps one segment.
    segment_bytes = draw(st.sampled_from([1, 4 << 20]))
    return database, query, segment_bytes


def _segment_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("wal-*.log"))


def _record_frames(raw: bytes) -> list[tuple[int, int]]:
    """``(end_offset, generation)`` per record, via the frame headers."""
    import json

    frames = []
    offset = 0
    while offset < len(raw):
        length, _ = _HEADER.unpack_from(raw, offset)
        start = offset + _HEADER.size
        payload = json.loads(raw[start : start + length])
        offset = start + length
        frames.append((offset, payload["g"]))
    return frames


def _crash_copies(wal_dir: Path, data) -> list[tuple[Path, int]]:
    """Every crash point of the log: ``(crashed copy, expected gen)``.

    For each segment, one crash at every record boundary (offset 0 =
    "the segment file exists but holds nothing durable yet") plus one
    drawn byte offset strictly inside a record — the torn write.  The
    expected generation is the last record wholly below the crash
    point, floored by the snapshot generation: a snapshot is only ever
    written *after* the records it covers, so a surviving snapshot
    implies its generation was durable.
    """
    snapshot = load_snapshot(wal_dir)
    snapshot_generation = snapshot[0] if snapshot is not None else 0
    segments = [
        (path, _record_frames(path.read_bytes()))
        for path in _segment_paths(wal_dir)
    ]
    copies: list[tuple[Path, int]] = []
    previous_generation = 0
    for index, (path, frames) in enumerate(segments):
        offsets = [0] + [end for end, _ in frames]
        starts = [0] + [end for end, _ in frames[:-1]]
        if frames:
            # One torn write per segment: a byte inside a drawn record.
            victim = data.draw(
                st.integers(min_value=0, max_value=len(frames) - 1)
            )
            torn = data.draw(
                st.integers(
                    min_value=starts[victim] + 1,
                    max_value=frames[victim][0] - 1,
                )
            )
            offsets.append(torn)
        for offset in offsets:
            durable = [g for end, g in frames if end <= offset]
            expected = max(
                snapshot_generation,
                durable[-1] if durable else previous_generation,
            )
            copy = Path(tempfile.mkdtemp(prefix="yask-crash-"))
            copy.rmdir()
            shutil.copytree(wal_dir, copy)
            with open(copy / path.name, "r+b") as handle:
                handle.truncate(offset)
            for later, _ in segments[index + 1 :]:
                (copy / later.name).unlink()
            copies.append((copy, expected))
        previous_generation = frames[-1][1] if frames else previous_generation
    return copies


@RECOVERY_SETTINGS
@given(scenario=recovery_scenarios(), data=st.data())
def test_every_crash_point_recovers_bit_for_bit(scenario, data):
    database, query, segment_bytes = scenario
    dataspace = database.dataspace
    wal_dir = Path(tempfile.mkdtemp(prefix="yask-wal-"))
    crashes: list[tuple[Path, int]] = []
    try:
        primary = YaskEngine(
            SpatialDatabase(database.objects, dataspace=dataspace),
            wal=WriteAheadLog(
                wal_dir, fsync="never", segment_bytes=segment_bytes
            ),
        )
        states = {0: database.objects}
        batches = draw_batches(data.draw, primary.database)
        snapshot_after = data.draw(
            st.one_of(st.none(), st.integers(0, len(batches)))
        )
        for index, batch in enumerate(batches):
            if snapshot_after == index:
                primary.snapshot()
            report = primary.apply_mutations(batch)
            states[report.generation] = primary.database.objects
        if snapshot_after == len(batches):
            primary.snapshot()
        final_generation = primary.generation
        live_result = result_to_dict(primary.query(query))
        primary.close()

        # No-op batches never bump nor log: generations are gap-free.
        assert sorted(states) == list(range(final_generation + 1))

        crashes = _crash_copies(wal_dir, data)
        seed = lambda: SpatialDatabase(database.objects, dataspace=dataspace)
        for copy, expected_generation in crashes:
            recovered, report = recover_engine(
                copy, database=seed()
            )
            oracle = YaskEngine(
                SpatialDatabase(
                    states[expected_generation], dataspace=dataspace
                ),
            )
            try:
                assert recovered.generation == expected_generation
                assert report.generation == expected_generation
                got = recovered.query(query)
                want = oracle.query(query)
                assert list(map(entry_tuple, got.entries)) == list(
                    map(entry_tuple, want.entries)
                )
                assert result_to_dict(got) == result_to_dict(want)
                ranked = oracle.scorer.rank_all(query)
                missing = [
                    e.obj.oid for e in ranked if e.rank > query.k
                ]
                if missing:
                    assert whynot_answer_to_dict(
                        recovered.why_not(query, [missing[-1]])
                    ) == whynot_answer_to_dict(
                        oracle.why_not(query, [missing[-1]])
                    )
            finally:
                recovered.close()
                oracle.close()

        # The uncrashed log: recovery (sharded and unsharded) must be
        # indistinguishable from the live pre-close engine, and from
        # the set-path oracle.
        plain, _ = recover_engine(wal_dir, database=seed())
        sharded, _ = recover_engine(
            wal_dir, database=seed(), shards=3, attach=False
        )
        set_oracle = Scorer(
            SpatialDatabase(states[final_generation], dataspace=dataspace),
            use_kernel=False,
        )
        try:
            assert plain.generation == final_generation
            assert sharded.generation == final_generation
            assert result_to_dict(plain.query(query)) == live_result
            assert result_to_dict(sharded.query(query)) == live_result
            assert result_to_dict(set_oracle.top_k(query)) == live_result
        finally:
            plain.close()
            sharded.close()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
        for copy, _ in crashes:
            shutil.rmtree(copy, ignore_errors=True)
