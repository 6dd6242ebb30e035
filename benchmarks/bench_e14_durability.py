"""E14 — durability: logged ingest overhead, snapshot-recovery speedup.

PR 6 threads a write-ahead log through ``YaskEngine.apply_mutations``
(append + flush before any state moves) and adds snapshot + replay
recovery.  Two floors make the tier honest:

* **Logged ingest** (``fsync="never"``): appending every batch to the
  log costs at most a modest slice of ingest throughput — logged
  ingest sustains at least **0.6x** the unlogged rate (0.7x while an
  ingest batch also maintained the KcR-tree; see the test).  (The
  ``fsync="always"`` rate is also measured and reported, unasserted:
  it is bounded by the device's sync latency, not by this code.)
* **Recovery**: after a crash, the *only* way to rebuild the engine is
  from what is on disk.  Recovering a 20k-object dataset whose last 5%
  of mutations arrived after the snapshot is at least **1x as fast**
  as the full rebuild path (4x while every replayed batch maintained
  the KcR-tree; see the test) — replaying the entire ingest log from
  the seed through a live engine's per-batch index maintenance
  (``replay_into``), which is exactly what rebuilding a serving
  replica costs without the snapshot + bulk-recovery machinery — with
  bit-for-bit identical answers either way.  (``recover_engine``
  without a snapshot bulk-replays at the database layer and is
  reported too, unasserted: it shows how much of the win is the bulk
  replay and how much the snapshot.)

Workload notes (documented, deliberate):

* The dataset is *ingested*, not pre-built: a 50-object seed plus
  50-object mutation batches through the durable engine, the shape a
  durable deployment actually produces.  The log therefore holds the
  whole dataset, which is exactly what makes "full rebuild" = full-log
  replay well-defined after a crash (an in-memory rebuild needs the
  objects the crash just lost).
* The snapshot lands at the 95% point, so snapshot recovery still
  replays a real tail (20 batches) — measuring snapshot parse + engine
  build + tail replay, not just JSON loading.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_e14_durability.py -q``
(add ``-s`` for the tables).
"""

from __future__ import annotations

import shutil
import time

import pytest

from repro.bench.harness import Table
from repro.bench.workloads import QueryWorkload
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase
from repro.service.api import YaskEngine
from repro.service.protocol import result_to_dict
from repro.service.wal import (
    WriteAheadLog,
    read_records,
    recover_engine,
    replay_into,
)

#: Acceptance floors (both ratios re-baselined when the engine stopped
#: maintaining a tree; see the tests' docstrings).
LOGGED_THROUGHPUT_FLOOR = 0.6
RECOVERY_SPEEDUP_FLOOR = 1.0

OBJECTS = 20_000
SEED_OBJECTS = 50
BATCH = 50
TAIL_FRACTION = 0.05


@pytest.fixture(scope="module")
def full_db():
    from repro.datasets.generators import SyntheticDatasetBuilder

    return SyntheticDatasetBuilder(seed=2016).build(
        OBJECTS,
        vocabulary_size=50,
        doc_length=(4, 8),
        spatial="clustered",
        clusters=12,
    )


def _batches(objects, start: int) -> list[list[Mutation]]:
    return [
        [Mutation.insert(obj) for obj in objects[index : index + BATCH]]
        for index in range(start, len(objects), BATCH)
    ]


def test_e14_logged_ingest_vs_unlogged(full_db, tmp_path):
    """Acceptance: logged ingest sustains >= 0.6x unlogged throughput.

    The unlogged path lost the KcR-tree's ``insert_batch`` when the
    served engine stopped maintaining a tree, which was nearly all of
    it; the log's framing cost stayed.  Six alternating runs per commit
    read unlogged 193-212 ms -> 7.9-8.4 ms and logged 196-215 ms ->
    12.5-13.1 ms: both ~16-25x faster, the WAL's ~4.7 ms no longer
    hidden under ~190 ms of tree maintenance, so the ratio moved
    0.92-0.99 -> 0.62-0.64.  The floor is the change's minimum (0.618)
    rounded down to 0.1, a rule fixed before the runs; the absolute
    times are printed below and tabled for both commits in
    docs/BENCHMARKS.md ("After the engine stopped building a tree").
    """
    objects = full_db.objects
    base = objects[: OBJECTS - 1_000]
    tail_batches = _batches(objects, OBJECTS - 1_000)

    def ingest(wal=None) -> float:
        engine = YaskEngine(
            SpatialDatabase(base, dataspace=full_db.dataspace), wal=wal
        )
        started = time.perf_counter()
        for batch in tail_batches:
            engine.apply_mutations(batch)
        elapsed = time.perf_counter() - started
        engine.close()
        return elapsed

    unlogged_s = min(ingest() for _ in range(3))
    logged_s = min(
        ingest(WriteAheadLog(tmp_path / f"never{i}", fsync="never"))
        for i in range(3)
    )
    synced_s = ingest(WriteAheadLog(tmp_path / "always", fsync="always"))
    ratio = unlogged_s / logged_s

    table = Table(
        "path", "best_ms",
        title=(
            f"E14: ingest 1000 objects ({len(tail_batches)} batches) "
            f"into a {len(base)}-object engine"
        ),
    )
    table.add_row("unlogged", unlogged_s * 1000.0)
    table.add_row('logged fsync="never"', logged_s * 1000.0)
    table.add_row('logged fsync="always" (unasserted)', synced_s * 1000.0)
    table.add_row(
        f"logged throughput {ratio:.2f}x of unlogged "
        f"(floor {LOGGED_THROUGHPUT_FLOOR}x)",
        "",
    )
    table.print()
    assert ratio >= LOGGED_THROUGHPUT_FLOOR, (
        f"logged ingest sustains only {ratio:.2f}x of unlogged throughput "
        f"({logged_s * 1000:.0f}ms vs {unlogged_s * 1000:.0f}ms)"
    )


def test_e14_snapshot_recovery_vs_full_rebuild(full_db, tmp_path):
    """Acceptance: snapshot + 5% tail >= 1x as fast as full rebuild.

    "Full rebuild" is replaying the entire ingest log from the seed
    through a live engine (``replay_into``: per-batch incremental index
    maintenance) — what rebuilding a serving replica costs without the
    snapshot + bulk-recovery machinery.

    The floor was 5x while the engine maintained two R-trees per batch
    and 4x while it maintained one.  The live replay lost the last tree
    when the served engine stopped maintaining one, so 399 replayed
    batches now cost little more than the snapshot's JSON parse: six
    alternating runs per commit read replay 2 945-3 809 ms -> 397-418
    ms and snapshot + tail 531-614 ms -> 286-392 ms, so the ratio moved
    5.2-6.2x -> 1.0-1.5x with both paths faster.  The floor is the
    change's minimum (1.04x) rounded down to 0.1, a rule fixed before
    the runs; the absolute times are printed below and tabled for both
    commits in docs/BENCHMARKS.md ("After the engine stopped building a
    tree"), so a slower recovery cannot hide behind the ratio.
    """
    objects = full_db.objects
    seed = lambda: SpatialDatabase(
        objects[:SEED_OBJECTS], dataspace=full_db.dataspace
    )
    batches = _batches(objects, SEED_OBJECTS)
    tail_records = round(OBJECTS * TAIL_FRACTION / BATCH)
    wal_dir = tmp_path / "wal"

    primary = YaskEngine(
        seed(), wal=WriteAheadLog(wal_dir, fsync="never")
    )
    for index, batch in enumerate(batches):
        if index == len(batches) - tail_records:
            primary.snapshot()
        primary.apply_mutations(batch)
    final_generation = primary.generation
    queries = list(
        QueryWorkload(
            full_db, seed=7, k=10, keywords_per_query=(1, 2),
            location_jitter=0.01,
        ).queries(5)
    )
    live = [result_to_dict(primary.query(query)) for query in queries]
    primary.close()

    # A log copy without manifest/snapshot: the state a deployment that
    # never snapshotted is in, used by both full-rebuild measurements.
    replay_dir = tmp_path / "replay"
    shutil.copytree(wal_dir, replay_dir)
    (replay_dir / "MANIFEST.json").unlink()
    for path in replay_dir.glob("snapshot-*.json"):
        path.unlink()

    def recover(directory, database=None):
        started = time.perf_counter()
        engine, report = recover_engine(
            directory, database=database, attach=False
        )
        elapsed = time.perf_counter() - started
        return engine, report, elapsed

    snapshot_engine, snapshot_report, snapshot_s = recover(wal_dir)
    for _ in range(2):
        again, _, elapsed = recover(wal_dir)
        again.close()
        snapshot_s = min(snapshot_s, elapsed)

    started = time.perf_counter()
    rebuilt_engine = YaskEngine(seed())
    rebuilt_records, _ = replay_into(
        rebuilt_engine, read_records(replay_dir)
    )
    rebuild_s = time.perf_counter() - started

    bulk_engine, bulk_report, bulk_s = recover(replay_dir, seed())

    assert snapshot_report.generation == final_generation
    assert rebuilt_engine.generation == final_generation
    assert bulk_report.generation == final_generation
    assert snapshot_report.records_replayed == tail_records
    assert rebuilt_records == len(batches)
    for query, want in zip(queries, live):
        assert result_to_dict(snapshot_engine.query(query)) == want
        assert result_to_dict(rebuilt_engine.query(query)) == want
        assert result_to_dict(bulk_engine.query(query)) == want
    snapshot_engine.close()
    rebuilt_engine.close()
    bulk_engine.close()

    speedup = rebuild_s / snapshot_s
    table = Table(
        "path", "best_ms",
        title=(
            f"E14: recover {OBJECTS}-object engine at generation "
            f"{final_generation}"
        ),
    )
    table.add_row(
        f"full rebuild: live-engine replay ({len(batches)} records)",
        rebuild_s * 1000.0,
    )
    table.add_row(
        "bulk recovery, no snapshot (unasserted)", bulk_s * 1000.0
    )
    table.add_row(
        f"recovery: snapshot + {tail_records}-record tail",
        snapshot_s * 1000.0,
    )
    table.add_row(
        f"speedup {speedup:.1f}x (floor {RECOVERY_SPEEDUP_FLOOR}x)", ""
    )
    table.print()
    assert speedup >= RECOVERY_SPEEDUP_FLOOR, (
        f"snapshot recovery only {speedup:.2f}x faster than a full "
        f"rebuild ({snapshot_s * 1000:.0f}ms vs {rebuild_s * 1000:.0f}ms)"
    )
