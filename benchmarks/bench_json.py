"""Machine-readable benchmark snapshots: ``BENCH_E9/…/E14.json``.

``make bench-json`` runs this script to refresh the JSON files at the
repository root, so the perf trajectory of the serving tier (E9: query
executor, E10: why-not executor), the compute tier (E11: columnar
scoring kernel), the scatter tier (E12: spatial sharding), the
live-mutation tier (E13: incremental ingest + scoped invalidation) and
the durability tier (E14: logged ingest + snapshot recovery) is tracked
across PRs in a diffable form.

The numbers here are in-process measurements sized to finish in tens of
seconds; the assertion-bearing experiments (HTTP batch floors, kernel
speedup floors) live in the ``bench_e*.py`` pytest modules and
``make bench-smoke``.
"""

from __future__ import annotations

import json
import platform
import sys
from datetime import datetime, timezone
from heapq import nsmallest
from operator import neg
from pathlib import Path

from repro.bench.harness import time_call
from repro.bench.workloads import (
    QueryWorkload,
    first_view_reads,
    generate_whynot_scenarios,
)
from repro.core.query import Weights
from repro.core.scoring import Scorer
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.datasets.hotels import hong_kong_hotels
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion
from repro.paper import (
    DualIndexPreferenceAdjuster,
    LinearPreferenceAdjuster,
    ranks_at_weights,
)
from repro.whynot.preference import PreferenceAdjuster

REPO_ROOT = Path(__file__).resolve().parent.parent


def _snapshot(experiment: str, description: str, metrics: dict) -> dict:
    return {
        "experiment": experiment,
        "description": description,
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "metrics": metrics,
    }


def bench_e9(engine: YaskEngine) -> dict:
    """Query executor: cold vs. warm vs. in-process batch."""
    executor = QueryExecutor(engine)
    workload = QueryWorkload(engine.database, seed=41, k=5, keywords_per_query=(1, 2))
    queries = list(workload.queries(8))

    def cold():
        executor.invalidate()
        return [executor.execute(query) for query in queries]

    _, cold_timing = time_call(cold, repeat=5)
    executor.invalidate()
    for query in queries:
        executor.execute(query)
    _, warm_timing = time_call(
        lambda: [executor.execute(query) for query in queries], repeat=5
    )

    def batch():
        executor.invalidate()
        return executor.execute_batch(queries * 4)

    _, batch_timing = time_call(batch, repeat=5)
    executor.close()
    return {
        "queries": len(queries),
        "cold_ms": cold_timing.best_ms,
        "warm_ms": warm_timing.best_ms,
        "warm_speedup": cold_timing.best / warm_timing.best,
        "batch_of_32_ms": batch_timing.best_ms,
    }


def bench_e10(engine: YaskEngine) -> dict:
    """Why-not executor: cold vs. warm answering."""
    topk = QueryExecutor(engine)
    executor = WhyNotExecutor(engine, topk)
    scorer = engine.scorer
    scenarios = generate_whynot_scenarios(
        scorer, count=4, k=5, missing_count=1, rank_window=20, seed=23
    )
    questions = [
        WhyNotQuestion(
            query=scenario.query,
            missing=tuple(obj.oid for obj in scenario.missing),
            model="full",
        )
        for scenario in scenarios
    ]

    def cold():
        executor.invalidate()
        return [executor.execute(question) for question in questions]

    _, cold_timing = time_call(cold, repeat=3)
    executor.invalidate()
    for question in questions:
        executor.execute(question)
    _, warm_timing = time_call(
        lambda: [executor.execute(question) for question in questions], repeat=3
    )
    executor.close()
    topk.close()
    return {
        "questions": len(questions),
        "cold_ms": cold_timing.best_ms,
        "warm_ms": warm_timing.best_ms,
        "warm_speedup": cold_timing.best / warm_timing.best,
    }


def bench_e11() -> dict:
    """Columnar kernel vs. object-at-a-time scoring at 10k objects."""
    database = SyntheticDatasetBuilder(seed=2016).build(
        10_000,
        vocabulary_size=200,
        doc_length=(3, 8),
        spatial="clustered",
        clusters=12,
    )
    fast = Scorer(database)
    slow = Scorer(database, use_kernel=False)
    queries = list(
        QueryWorkload(database, seed=17, k=10, keywords_per_query=(2, 3)).queries(3)
    )

    _, fast_rank = time_call(
        lambda: [fast.rank_all(query) for query in queries], repeat=5
    )
    _, slow_rank = time_call(
        lambda: [slow.rank_all(query) for query in queries], repeat=5
    )

    scenarios = generate_whynot_scenarios(
        fast, count=2, k=10, missing_count=2, rank_window=40, seed=99
    )
    fast_adjuster = PreferenceAdjuster(fast)
    slow_adjuster = DualIndexPreferenceAdjuster(slow)
    _, fast_whynot = time_call(
        lambda: [fast_adjuster.refine(s.query, s.missing) for s in scenarios],
        repeat=3,
    )
    _, slow_whynot = time_call(
        lambda: [slow_adjuster.refine(s.query, s.missing) for s in scenarios],
        repeat=3,
    )

    # The TSim-levelled dual view against the O(n) reference, both over
    # the kernel's columns (ratios that hold on any host).
    linear_adjuster = LinearPreferenceAdjuster(fast)
    _, linear_whynot = time_call(
        lambda: [linear_adjuster.refine(s.query, s.missing) for s in scenarios],
        repeat=3,
    )
    duals = fast.dual_points(queries[0])
    targets = duals[:: len(duals) // 3][:3]
    oids = [dual.oid for dual in targets]
    weightings = [Weights.from_spatial(step / 18) for step in range(1, 18)]

    def fresh_view_ranks():
        """A fresh view each time: a view scores its rows as it is asked."""
        view = fast.kernel.dual_view(queries[0], oids)
        return [view.ranks_at(w.ws, w.wt, oids) for w in weightings]

    _, levelled_ranks = time_call(fresh_view_ranks, repeat=5)
    _, linear_ranks = time_call(
        lambda: [
            ranks_at_weights(w, targets, duals)
            for w in weightings
        ],
        repeat=3,
    )

    # The scan index against the full scan it replaced, at the 20k the
    # E11 floor is asserted at.
    big = SyntheticDatasetBuilder(seed=2016).build(
        20_000,
        vocabulary_size=400,
        doc_length=(3, 8),
        spatial="clustered",
        clusters=12,
    )
    big_scorer = Scorer(big)
    kernel = big_scorer.kernel
    prepared = [
        (query.k, kernel._query_scalars(query))
        for query in QueryWorkload(
            big, seed=17, k=10, keywords_per_query=(1, 3)
        ).queries(12)
    ]
    kernel.scan_top_k(prepared[0][0], *prepared[0][1])  # builds the index
    kernel.stats.reset()
    _, indexed_scan = time_call(
        lambda: [kernel.scan_top_k(k, *scalars) for k, scalars in prepared],
        repeat=5,
    )
    scan_stats = kernel.stats.to_dict()
    _, full_scan = time_call(
        lambda: [
            nsmallest(k, zip(map(neg, kernel.scalar_scores(*scalars)), kernel.oids))
            for k, scalars in prepared
        ],
        repeat=3,
    )

    # A dual view for one missing object at ranks 11-30, asked for its
    # rank and the nearest crossovers of its rank walk, against the
    # reference pass that scores every row, on the same 20k corpus.
    cases = [
        (query, big_scorer.rank_all(query)[10 + 4 * place].obj.oid)
        for place, query in enumerate(
            QueryWorkload(big, seed=17, k=10, keywords_per_query=(2, 3)).queries(5)
        )
    ]
    kernel.stats.reset()
    _, target_views = time_call(
        lambda: [first_view_reads(kernel, query, oid) for query, oid in cases],
        repeat=5,
    )
    view_stats = kernel.stats.to_dict()
    _, reference_duals = time_call(
        lambda: [kernel.dual_points_all(query) for query, _ in cases], repeat=5
    )
    return {
        "objects": len(database),
        "target_view_ms": target_views.best_ms,
        "dual_points_all_ms": reference_duals.best_ms,
        "target_view_speedup": reference_duals.best / target_views.best,
        "target_view_floor": 15.0,
        "target_view_rows_scored_per_view": (
            view_stats["dual_view_rows"] / view_stats["dual_views"]
        ),
        "indexed_scan_objects": len(big),
        "indexed_scan_ms": indexed_scan.best_ms,
        "full_scan_ms": full_scan.best_ms,
        "indexed_scan_speedup": full_scan.best / indexed_scan.best,
        "indexed_scan_floor": 16.0,
        "indexed_scan_rows_scored_per_scan": (
            scan_stats["scan_rows_scored"] / scan_stats["scan_calls"]
        ),
        "levelled_ranks_ms": levelled_ranks.best_ms,
        "linear_ranks_ms": linear_ranks.best_ms,
        "levelled_ranks_speedup": linear_ranks.best / levelled_ranks.best,
        "levelled_ranks_floor": 10.0,
        "linear_ablation_whynot_ms": linear_whynot.best_ms,
        "levelled_refine_speedup": linear_whynot.best / fast_whynot.best,
        "levelled_refine_floor": 2.0,
        "rank_all_object_ms": slow_rank.best_ms,
        "rank_all_kernel_ms": fast_rank.best_ms,
        "rank_all_speedup": slow_rank.best / fast_rank.best,
        "rank_all_floor": 3.0,
        "cold_whynot_object_ms": slow_whynot.best_ms,
        "cold_whynot_kernel_ms": fast_whynot.best_ms,
        "cold_whynot_speedup": slow_whynot.best / fast_whynot.best,
        "cold_whynot_floor": 2.0,
    }


def bench_e12() -> dict:
    """Scatter-gather sharding: 4 grid shards vs 1 (both indexed scans)."""
    database = SyntheticDatasetBuilder(seed=2016).build(
        20_000,
        vocabulary_size=50,
        doc_length=(4, 8),
        spatial="clustered",
        clusters=12,
    )
    baseline = YaskEngine(database, shards=1)
    sharded = YaskEngine(database, shards=4)
    queries = list(
        QueryWorkload(
            database, seed=7, k=10, keywords_per_query=(1, 2),
            location_jitter=0.01,
        ).queries(12)
    )
    _, baseline_topk = time_call(
        lambda: [baseline.query(query) for query in queries], repeat=5
    )
    sharded.shard_router.stats.reset()
    _, sharded_topk = time_call(
        lambda: [sharded.query(query) for query in queries], repeat=5
    )
    shard_stats = sharded.shard_router.to_dict()

    scenarios = generate_whynot_scenarios(
        baseline.scorer, count=4, k=10, missing_count=2, rank_window=20,
        seed=42,
    )
    baseline_adjuster = PreferenceAdjuster(baseline.scorer)
    sharded_adjuster = PreferenceAdjuster(sharded.scorer)
    _, baseline_whynot = time_call(
        lambda: [
            baseline_adjuster.refine(s.query, s.missing) for s in scenarios
        ],
        repeat=3,
    )
    _, sharded_whynot = time_call(
        lambda: [
            sharded_adjuster.refine(s.query, s.missing) for s in scenarios
        ],
        repeat=3,
    )
    return {
        "objects": len(database),
        "shards": 4,
        "topk_one_shard_ms": baseline_topk.best_ms,
        "topk_four_shards_ms": sharded_topk.best_ms,
        "topk_speedup": baseline_topk.best / sharded_topk.best,
        "topk_floor": 0.9,
        "topk_shard_scans_skipped": shard_stats["topk_shards_skipped"],
        "topk_shard_scans_run": shard_stats["topk_shards_scanned"],
        "cold_whynot_one_shard_ms": baseline_whynot.best_ms,
        "cold_whynot_four_shards_ms": sharded_whynot.best_ms,
        "cold_whynot_speedup": baseline_whynot.best / sharded_whynot.best,
        "cold_whynot_floor": 0.9,
    }


def bench_e13() -> dict:
    """Live mutation: incremental 5% ingest vs rebuild + warm hit rate."""
    import random
    import time as _time

    from repro.core.geometry import Point
    from repro.core.mutations import Mutation
    from repro.core.objects import SpatialDatabase, SpatialObject
    from repro.service.executor import QueryExecutor

    base = SyntheticDatasetBuilder(seed=2016).build(
        20_000,
        vocabulary_size=50,
        doc_length=(4, 8),
        spatial="clustered",
        clusters=12,
    )
    rng = random.Random(4)
    vocabulary = sorted(base.vocabulary())
    ingest = [
        SpatialObject(
            1_000_000 + i,
            Point(0.30 + rng.random() * 0.08, 0.60 + rng.random() * 0.08),
            frozenset(rng.sample(vocabulary, 5)),
        )
        for i in range(1_000)
    ]

    def incremental() -> float:
        engine = YaskEngine(
            SpatialDatabase(base.objects, dataspace=base.dataspace)
        )
        started = _time.perf_counter()
        for start in range(0, len(ingest), 250):
            engine.apply_mutations(
                [Mutation.insert(obj) for obj in ingest[start : start + 250]]
            )
        elapsed = _time.perf_counter() - started
        engine.close()
        return elapsed

    final_objects = list(base.objects) + ingest

    def rebuild() -> float:
        started = _time.perf_counter()
        engine = YaskEngine(
            SpatialDatabase(final_objects, dataspace=base.dataspace)
        )
        elapsed = _time.perf_counter() - started
        engine.close()
        return elapsed

    incremental_s = min(incremental() for _ in range(3))
    rebuild_s = min(rebuild() for _ in range(3))

    # Mixed read/write warm hit rate (the bench_e13_mutations.py shape).
    engine = YaskEngine(
        SpatialDatabase(base.objects, dataspace=base.dataspace)
    )
    executor = QueryExecutor(engine, cache_capacity=256, max_workers=1)
    queries = list(
        QueryWorkload(
            base, seed=21, k=10, keywords_per_query=(1, 2),
            location_jitter=0.01,
        ).queries(40)
    )
    for query in queries:
        executor.execute(query)
    hits = reads = 0
    next_oid = 2_000_000
    for round_index in range(6):
        cx = 0.15 + 0.1 * round_index
        hot_keyword = vocabulary[(7 * round_index) % len(vocabulary)]
        batch = []
        for index in range(20):
            doc = (
                frozenset({hot_keyword})
                if index < 4
                else frozenset({f"popup{round_index}", "popup"})
            )
            batch.append(
                Mutation.insert(
                    SpatialObject(
                        next_oid,
                        Point(
                            cx + rng.random() * 0.05, 0.2 + rng.random() * 0.05
                        ),
                        doc,
                    )
                )
            )
            next_oid += 1
        report = engine.apply_mutations(batch)
        executor.maintain(report.change)
        for query in queries:
            reads += 1
            if executor.execute(query).source == "cache":
                hits += 1
    stats = executor.stats()
    executor.close()
    engine.close()

    # Run as a script, so benchmarks/ is on sys.path: the ratio is the
    # one `make bench-smoke` asserts, measured by the same function.
    from bench_e13_mutations import full_cache_pass_cost, maintenance_pass_cost

    return {
        **maintenance_pass_cost(base),
        **full_cache_pass_cost(base),
        "objects": 20_000,
        "ingest_objects": len(ingest),
        "ingest_batches": 4,
        "incremental_ingest_ms": incremental_s * 1000.0,
        "full_rebuild_ms": rebuild_s * 1000.0,
        "ingest_speedup": rebuild_s / incremental_s,
        "ingest_floor": 4.4,
        "post_write_reads": reads,
        "post_write_hit_rate": hits / reads,
        "hit_rate_floor": 0.5,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "drop_on_write_passes": stats.maintenance_passes,
        "drop_on_write_dropped": stats.maintained_dropped,
        "drop_on_write_kept": stats.maintained_kept,
    }


def bench_e14() -> dict:
    """Durability: logged ingest overhead + snapshot-recovery speedup.

    The ``bench_e14_durability.py`` shape: a 50-object seed ingests the
    rest of a 20k synthetic dataset through the WAL in 50-object
    batches, a snapshot lands at the 95% point, and recovery (snapshot
    + 5% tail, bulk replay) races the full-rebuild path — replaying the
    whole log through a live engine's incremental index maintenance.
    """
    import shutil
    import tempfile
    import time as _time
    from pathlib import Path as _Path

    from repro.core.mutations import Mutation
    from repro.core.objects import SpatialDatabase
    from repro.service.wal import (
        WriteAheadLog,
        read_records,
        recover_engine,
        replay_into,
    )

    base = SyntheticDatasetBuilder(seed=2016).build(
        20_000,
        vocabulary_size=50,
        doc_length=(4, 8),
        spatial="clustered",
        clusters=12,
    )
    objects = base.objects
    workdir = _Path(tempfile.mkdtemp(prefix="yask-bench-e14-"))
    try:
        # Logged-ingest overhead: the last 1000 objects into a 19k engine.
        ingest_batches = [
            [Mutation.insert(obj) for obj in objects[start : start + 50]]
            for start in range(19_000, 20_000, 50)
        ]

        def ingest(wal=None) -> float:
            engine = YaskEngine(
                SpatialDatabase(objects[:19_000], dataspace=base.dataspace),
                wal=wal,
            )
            started = _time.perf_counter()
            for batch in ingest_batches:
                engine.apply_mutations(batch)
            elapsed = _time.perf_counter() - started
            engine.close()
            return elapsed

        unlogged_s = min(ingest() for _ in range(3))
        logged_s = min(
            ingest(WriteAheadLog(workdir / f"never{i}", fsync="never"))
            for i in range(3)
        )
        synced_s = ingest(WriteAheadLog(workdir / "always", fsync="always"))

        # Recovery: seed + logged ingest of the rest, snapshot at 95%.
        wal_dir = workdir / "wal"
        seed = lambda: SpatialDatabase(objects[:50], dataspace=base.dataspace)
        batches = [
            [Mutation.insert(obj) for obj in objects[start : start + 50]]
            for start in range(50, 20_000, 50)
        ]
        tail_records = round(20_000 * 0.05 / 50)
        primary = YaskEngine(seed(), wal=WriteAheadLog(wal_dir, fsync="never"))
        for index, batch in enumerate(batches):
            if index == len(batches) - tail_records:
                primary.snapshot()
            primary.apply_mutations(batch)
        primary.close()

        replay_dir = workdir / "replay"
        shutil.copytree(wal_dir, replay_dir)
        (replay_dir / "MANIFEST.json").unlink()
        for path in replay_dir.glob("snapshot-*.json"):
            path.unlink()

        def timed_recovery() -> float:
            started = _time.perf_counter()
            engine, _ = recover_engine(wal_dir, attach=False)
            elapsed = _time.perf_counter() - started
            engine.close()
            return elapsed

        snapshot_s = min(timed_recovery() for _ in range(3))
        started = _time.perf_counter()
        rebuilt = YaskEngine(seed())
        replay_into(rebuilt, read_records(replay_dir))
        rebuild_s = _time.perf_counter() - started
        rebuilt.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "objects": 20_000,
        "ingest_objects": 1_000,
        "unlogged_ingest_ms": unlogged_s * 1000.0,
        "logged_ingest_ms": logged_s * 1000.0,
        "logged_ingest_fsync_always_ms": synced_s * 1000.0,
        "logged_throughput_ratio": unlogged_s / logged_s,
        "logged_throughput_floor": 0.6,
        "log_records": len(batches),
        "tail_records": tail_records,
        "snapshot_recovery_ms": snapshot_s * 1000.0,
        "full_rebuild_replay_ms": rebuild_s * 1000.0,
        "recovery_speedup": rebuild_s / snapshot_s,
        "recovery_floor": 1.0,
    }


def main() -> int:
    engine = YaskEngine(hong_kong_hotels())
    snapshots = {
        "BENCH_E9.json": _snapshot(
            "E9",
            "query-execution tier: cold/warm/batch (hotels dataset)",
            bench_e9(engine),
        ),
        "BENCH_E10.json": _snapshot(
            "E10",
            "why-not execution tier: cold/warm (hotels dataset)",
            bench_e10(engine),
        ),
        "BENCH_E11.json": _snapshot(
            "E11",
            "columnar scoring kernel vs object-at-a-time (10k synthetic)",
            bench_e11(),
        ),
        "BENCH_E12.json": _snapshot(
            "E12",
            "scatter-gather sharding: 4 grid shards vs 1 shard (20k synthetic)",
            bench_e12(),
        ),
        "BENCH_E13.json": _snapshot(
            "E13",
            "live mutation: incremental ingest vs rebuild, the drop-on-write "
            "top-k cache's warm rate under writes and the cost of a "
            "maintenance pass over cached explain answers (20k synthetic)",
            bench_e13(),
        ),
        "BENCH_E14.json": _snapshot(
            "E14",
            "durability: logged ingest overhead + snapshot recovery vs "
            "full-log rebuild (20k synthetic)",
            bench_e14(),
        ),
    }
    for filename, snapshot in snapshots.items():
        path = REPO_ROOT / filename
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
