"""E13 — live mutation: incremental ingest vs. rebuild, warm caches under writes.

PR 5 makes the engine mutable at every layer: the database grows its
vocabulary append-only, the columnar kernel tombstones + appends +
compacts instead of rebuilding, the R-tree family takes batched Guttman
inserts with one deferred summary pass, and the executor tier replaces
global invalidation with a *scoped* drop (spatial-region +
keyword-overlap + k-th-score test against the batch).

Acceptance floors at 20k objects:

* **Ingest**: applying 5% new objects (1 000) through
  ``YaskEngine.apply_mutations`` is at least **4.4x faster** than
  building a fresh engine over the final object set, with bit-for-bit
  identical answers afterwards (5x while both paths carried the
  KcR-tree; see the test).
* **Warm caches under writes**: in a mixed read/write workload, the
  post-write top-k cache hit rate stays **above 50%** — scoped
  invalidation only drops the results a batch could actually affect.
* **Maintenance costs O(batch)**: a ``maintain()`` pass over 64 cached
  ``explain`` answers takes at most **3x** a pass over none (same
  top-k cache, same batches) — the why-not cache is drop-on-write, so
  the pass drops each cached answer without reading it or calling the
  engine.  A ratio, so it holds on any host.  The same table shows,
  with no floor, one top-k pass over a full 1 024-entry cache in
  E16's batch shape: its median time and the entries it visited.
* **Removals cost O(batch) on the sharded engine**: at 4 shards, the
  median batch of 6 inserts + 1 update + 1 delete costs at most
  **2.5x** the median insert-only batch of the same stream — kernels
  tombstone, summaries are recomputed only when a boundary holder
  leaves, row maps are patched, the database pops from its id map —
  with bit-for-bit a fresh engine's answers afterwards.  Also a ratio
  (see the test).

Workload notes (documented, deliberate):

* The ingest batch is *spatially clustered* — new POIs arriving in one
  district — which is both the realistic shape of geo ingest and the
  regime incremental R-tree maintenance is built for: the first insert
  into an STR-packed leaf splits it, its neighbours then land in
  half-full leaves.  Uniform-random ingest still wins over rebuild, but
  pays a split per touched leaf.
* The write traffic in the mixed workload carries *fresh* category
  keywords (a new POI type): the scoped-invalidation text bound then
  proves keyword-disjoint cached queries unaffected, leaving the drop
  decision to the spatial region alone — distant neighbourhoods stay
  warm, the written district recomputes.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_e13_mutations.py -q``
(add ``-s`` for the tables).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.bench.harness import Table
from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion

#: Acceptance floors (the ingest ratio re-baselined from 5.0 when the
#: engine stopped building a tree; see the test's docstring).
INGEST_SPEEDUP_FLOOR = 4.4
WARM_HIT_RATE_FLOOR = 0.5

#: Acceptance ceiling (PR 15): cached ``explain`` answers may cost a
#: maintenance pass at most this many times a pass without them.
MAINTAIN_PASS_RATIO_CEILING = 3.0
EXPLAIN_ENTRIES = 64
#: Informational, no floor: the full top-k cache of E16's server
#: default (1 024 entries).
FULL_CACHE_ENTRIES = 1024

#: Acceptance ceiling (PR 20): on a 4-shard engine, E16's batch shape
#: (6 inserts + 1 update + 1 delete of earlier inserts) against the
#: same stream with its update and delete dropped.  Read 1.3-1.8x at
#: PR 20 and 5.6x before it, when every removal compacted the kernels
#: and rebuilt summaries and row maps; loosened to 5.5x while a removal
#: rebuilt the database's dense tuples, back to 2.5x once it stopped
#: (see the test's docstring).
REMOVAL_BATCH_RATIO_CEILING = 2.5
SHARDS = 4
STREAM_BATCHES = 60

OBJECTS = 20_000
INGEST_FRACTION = 0.05
INGEST_BATCHES = 4


@pytest.fixture(scope="module")
def base_db():
    from repro.datasets.generators import SyntheticDatasetBuilder

    return SyntheticDatasetBuilder(seed=2016).build(
        OBJECTS,
        vocabulary_size=50,
        doc_length=(4, 8),
        spatial="clustered",
        clusters=12,
    )


@pytest.fixture(scope="module")
def ingest_objects(base_db):
    """5% new objects clustered in one district, existing vocabulary."""
    rng = random.Random(4)
    vocabulary = sorted(base_db.vocabulary())
    count = int(OBJECTS * INGEST_FRACTION)
    return [
        SpatialObject(
            1_000_000 + i,
            Point(0.30 + rng.random() * 0.08, 0.60 + rng.random() * 0.08),
            frozenset(rng.sample(vocabulary, 5)),
        )
        for i in range(count)
    ]


def test_e13_incremental_ingest_vs_rebuild(base_db, ingest_objects):
    """Acceptance: incremental 5% ingest >= 4.4x faster than full rebuild.

    Both paths lost the KcR-tree when the served engine stopped building
    one — the rebuild its bulk load, each ingest batch its
    ``insert_batch`` — which was most of either: six alternating runs
    per commit read rebuild 195-212 ms -> 28-30 ms and ingest 35-37 ms
    -> 6.0-6.3 ms, so the ratio moved 5.4-5.9x -> 4.5-4.7x with both
    paths ~6-7x faster.  The floor is the change's minimum (4.49x)
    rounded down to 0.1, a rule fixed before the runs; the absolute
    times are printed below and tabled for both commits in
    docs/BENCHMARKS.md ("After the engine stopped building a tree"), so
    a slower ingest cannot hide behind the ratio.
    """
    batch_size = len(ingest_objects) // INGEST_BATCHES

    def incremental() -> float:
        engine = YaskEngine(
            SpatialDatabase(base_db.objects, dataspace=base_db.dataspace)
        )
        started = time.perf_counter()
        for start in range(0, len(ingest_objects), batch_size):
            engine.apply_mutations(
                [
                    Mutation.insert(obj)
                    for obj in ingest_objects[start : start + batch_size]
                ]
            )
        elapsed = time.perf_counter() - started
        engine.close()
        return elapsed

    final_objects = list(base_db.objects) + ingest_objects

    def rebuild() -> float:
        started = time.perf_counter()
        engine = YaskEngine(
            SpatialDatabase(final_objects, dataspace=base_db.dataspace)
        )
        elapsed = time.perf_counter() - started
        engine.close()
        return elapsed

    incremental_s = min(incremental() for _ in range(3))
    rebuild_s = min(rebuild() for _ in range(3))
    speedup = rebuild_s / incremental_s

    table = Table(
        "path", "best_ms",
        title=(
            f"E13: ingest {len(ingest_objects)} objects into "
            f"{OBJECTS}-object engine ({INGEST_BATCHES} batches)"
        ),
    )
    table.add_row("full engine rebuild", rebuild_s * 1000.0)
    table.add_row("incremental apply_mutations", incremental_s * 1000.0)
    table.add_row(
        f"speedup {speedup:.1f}x (floor {INGEST_SPEEDUP_FLOOR}x)", ""
    )
    table.print()
    assert speedup >= INGEST_SPEEDUP_FLOOR, (
        f"incremental ingest only {speedup:.2f}x faster "
        f"({incremental_s * 1000:.0f}ms vs {rebuild_s * 1000:.0f}ms rebuild)"
    )


def test_e13_ingest_parity_with_rebuild(base_db, ingest_objects):
    """The speed is free: post-ingest answers equal the fresh rebuild's."""
    engine = YaskEngine(
        SpatialDatabase(base_db.objects, dataspace=base_db.dataspace)
    )
    engine.apply_mutations(
        [Mutation.insert(obj) for obj in ingest_objects]
    )
    fresh = YaskEngine(
        SpatialDatabase(
            list(base_db.objects) + ingest_objects,
            dataspace=base_db.dataspace,
        )
    )
    queries = list(
        QueryWorkload(
            base_db, seed=7, k=10, keywords_per_query=(1, 2),
            location_jitter=0.01,
        ).queries(8)
    )
    for query in queries:
        got = engine.query(query)
        want = fresh.query(query)
        assert [tuple(entry) for entry in got] == [
            tuple(entry) for entry in want
        ]
    engine.close()
    fresh.close()


def test_e13_warm_hit_rate_above_50_percent_under_writes(base_db):
    """Acceptance: with drop-on-write scoped by the batch summary the
    top-k cache stays >50% warm."""
    engine = YaskEngine(
        SpatialDatabase(base_db.objects, dataspace=base_db.dataspace)
    )
    executor = QueryExecutor(engine, cache_capacity=256, max_workers=1)
    queries = list(
        QueryWorkload(
            base_db, seed=21, k=10, keywords_per_query=(1, 2),
            location_jitter=0.01,
        ).queries(40)
    )
    for query in queries:  # prewarm
        executor.execute(query)

    rng = random.Random(99)
    vocabulary = sorted(base_db.vocabulary())
    next_oid = 2_000_000
    rounds = 6
    post_write_reads = 0
    post_write_hits = 0
    for round_index in range(rounds):
        # A write batch clustered in one district (a different district
        # each round): mostly fresh-category POIs — keyword-disjoint
        # from every cached query, so only the spatial bound matters —
        # plus a few short-document POIs carrying one real vocabulary
        # keyword, which *must* drop the cached queries that keyword
        # could now outrank.
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
                            cx + rng.random() * 0.05,
                            0.2 + rng.random() * 0.05,
                        ),
                        doc,
                    )
                )
            )
            next_oid += 1
        report = engine.apply_mutations(batch)
        executor.maintain(report.change)
        for query in queries:
            execution = executor.execute(query)
            post_write_reads += 1
            if execution.source == "cache":
                post_write_hits += 1

    hit_rate = post_write_hits / post_write_reads
    stats = executor.stats()
    table = Table(
        "metric", "value",
        title=(
            f"E13: mixed read/write ({rounds} write rounds x "
            f"{len(queries)} reads)"
        ),
    )
    table.add_row("post-write reads", post_write_reads)
    table.add_row("post-write cache hits", post_write_hits)
    table.add_row(f"hit rate {hit_rate:.0%} (floor {WARM_HIT_RATE_FLOOR:.0%})", "")
    table.add_row(
        f"maintain: dropped {stats.maintained_dropped}, "
        f"kept {stats.maintained_kept}",
        "",
    )
    table.print()
    assert stats.maintained_dropped > 0, "writes must drop the local entries"
    assert stats.maintained_kept > 0, "distant entries must survive"
    assert hit_rate > WARM_HIT_RATE_FLOOR, (
        f"warm hit rate {hit_rate:.0%} under write traffic "
        f"(floor {WARM_HIT_RATE_FLOOR:.0%})"
    )
    # The hits were honest: a recomputation after the final batch agrees
    # with a fresh engine (the caches never served stale data).
    fresh = YaskEngine(
        SpatialDatabase(
            engine.database.objects, dataspace=engine.database.dataspace
        )
    )
    for query in queries[:5]:
        got = executor.execute(query).result
        want = fresh.query(query)
        assert [tuple(entry) for entry in got] == [
            tuple(entry) for entry in want
        ]
    fresh.close()
    executor.close()
    engine.close()


def maintenance_pass_cost(base_db, *, rounds: int = 3) -> dict:
    """Best ``maintain()`` time without and with cached ``explain`` answers.

    Both sides hold the same top-k entries (E16's ``mixed_rw`` shape:
    200 hot queries plus the questions' initial queries) and see
    batches of the same shape: ten objects with vocabulary keywords at
    random locations.  Every batch drops every why-not entry, and the
    entries are re-primed before the next timed pass — every pass on
    the ``explain`` side runs over all 64.  Also what ``bench_json.py``
    records in ``BENCH_E13.json``.
    """
    engine = YaskEngine(
        SpatialDatabase(base_db.objects, dataspace=base_db.dataspace)
    )
    executor = QueryExecutor(engine, cache_capacity=512, max_workers=1)
    whynot = WhyNotExecutor(engine, executor, cache_capacity=256, max_workers=1)
    questions = [
        WhyNotQuestion(
            query=scenario.query,
            missing=tuple(obj.oid for obj in scenario.missing),
            model="explain",
        )
        for scenario in generate_whynot_scenarios(
            engine.scorer, count=EXPLAIN_ENTRIES, k=10, seed=57
        )
    ]
    hot_queries = list(
        QueryWorkload(
            base_db, seed=58, k=10, keywords_per_query=(1, 2),
            location_jitter=0.01,
        ).queries(200)
    ) + [question.query for question in questions]
    rng = random.Random(15)
    vocabulary = sorted(base_db.vocabulary())
    next_oid = 4_000_000

    def timed_pass() -> float:
        nonlocal next_oid
        batch = [
            Mutation.insert(
                SpatialObject(
                    next_oid + index,
                    Point(rng.random(), rng.random()),
                    frozenset(rng.sample(vocabulary, 5)),
                )
            )
            for index in range(10)
        ]
        next_oid += len(batch)
        report = engine.apply_mutations(batch)
        started = time.perf_counter()
        executor.maintain(report.change)
        return time.perf_counter() - started

    def best_pass(prime) -> float:
        best = float("inf")
        for _ in range(rounds):
            prime()
            best = min(best, timed_pass())
        return best

    def prime_topk() -> None:
        for query in hot_queries:
            executor.execute(query)

    def prime_explain() -> None:
        prime_topk()
        for question in questions:
            whynot.execute(question)
        assert whynot.stats().size == len(questions)

    none_s = best_pass(prime_topk)
    explain_s = best_pass(prime_explain)
    linked = whynot.stats()
    topk_entries = executor.stats().size
    whynot.close()
    executor.close()
    engine.close()
    return {
        "maintain_pass_topk_entries": topk_entries,
        "maintain_pass_explain_entries": len(questions),
        "maintain_pass_none_ms": none_s * 1000.0,
        "maintain_pass_explain_ms": explain_s * 1000.0,
        "maintain_pass_ratio": explain_s / none_s,
        "maintain_pass_ratio_ceiling": MAINTAIN_PASS_RATIO_CEILING,
        "maintain_pass_linked_dropped": linked.maintained_dropped,
    }


def full_cache_pass_cost(base_db, *, batches: int = 30) -> dict:
    """Median top-k ``maintain()`` over a full cache, E16's batch shape.

    Informational (no floor).  The cache holds ``FULL_CACHE_ENTRIES``
    distinct queries of 1-3 keywords on a 4-shard engine, E16's server
    default; each of ``batches`` batches from
    :func:`_batch_stream` is applied, then maintained and timed.  A
    pass visits the entries a batch can reach, so ``visited`` depends
    on the vocabulary: E13's 50 keywords share more of them with a
    batch than E16's 200.  Also what ``bench_json.py`` records.
    """
    engine = YaskEngine(
        SpatialDatabase(base_db.objects, dataspace=base_db.dataspace),
        shards=SHARDS,
    )
    executor = QueryExecutor(
        engine, cache_capacity=FULL_CACHE_ENTRIES, max_workers=1
    )
    for query in QueryWorkload(
        base_db, seed=59, k=10, keywords_per_query=(1, 3)
    ).queries(FULL_CACHE_ENTRIES):
        executor.execute(query)
    entries = executor.stats().size
    stream = _batch_stream(base_db)
    times, visited = [], []
    for _ in range(batches):
        report = engine.apply_mutations(next(stream))
        before = executor.stats().maintained_visited
        started = time.perf_counter()
        executor.maintain(report.change)
        times.append(time.perf_counter() - started)
        visited.append(executor.stats().maintained_visited - before)
    executor.close()
    engine.close()
    return {
        "full_cache_pass_entries": entries,
        "full_cache_pass_ms": statistics.median(times) * 1000.0,
        "full_cache_pass_visited": statistics.median(visited),
    }


def test_e13_maintenance_pass_over_explain_answers_costs_o_batch(base_db):
    """Acceptance (PR 15): 64 cached ``explain`` answers cost a
    maintenance pass at most 3x a pass over none."""
    cost = maintenance_pass_cost(base_db)
    full = full_cache_pass_cost(base_db)
    table = Table(
        "why-not cache", "best maintain() ms",
        title=(
            "E13: one maintenance pass, 10-insert batch, "
            f"{cost['maintain_pass_topk_entries']} top-k entries"
        ),
    )
    table.add_row("empty", cost["maintain_pass_none_ms"])
    table.add_row(
        f"{cost['maintain_pass_explain_entries']} explain answers",
        cost["maintain_pass_explain_ms"],
    )
    table.add_row(
        f"ratio {cost['maintain_pass_ratio']:.2f}x "
        f"(ceiling {MAINTAIN_PASS_RATIO_CEILING}x)",
        "",
    )
    table.add_row(
        f"info: {full['full_cache_pass_entries']} top-k entries, "
        f"E16 batch shape, {full['full_cache_pass_visited']:g} visited "
        "(median pass, no floor)",
        full["full_cache_pass_ms"],
    )
    table.print()
    assert full["full_cache_pass_entries"] >= 1000
    assert cost["maintain_pass_linked_dropped"] > 0, (
        "the batches never dropped the cached explain answers"
    )
    assert cost["maintain_pass_ratio"] <= MAINTAIN_PASS_RATIO_CEILING, (
        f"a pass over {EXPLAIN_ENTRIES} explain answers costs "
        f"{cost['maintain_pass_ratio']:.1f}x a pass over none"
    )


def _batch_stream(base_db):
    """E16's ``mixed_rw`` batches: 6 inserts near existing objects plus
    1 update and 1 delete of earlier inserts."""
    rng = random.Random(16)
    vocabulary = sorted(base_db.vocabulary())
    objects = base_db.objects
    live: list[int] = []
    next_oid = 5_000_000

    def near_existing(oid: int) -> SpatialObject:
        anchor = objects[rng.randrange(len(objects))].loc
        return SpatialObject(
            oid,
            Point(
                min(max(anchor.x + rng.gauss(0.0, 0.005), 0.0), 1.0),
                min(max(anchor.y + rng.gauss(0.0, 0.005), 0.0), 1.0),
            ),
            frozenset(rng.sample(vocabulary, 4)),
        )

    while True:
        earlier = len(live)
        batch = []
        for _ in range(6):
            batch.append(Mutation.insert(near_existing(next_oid)))
            live.append(next_oid)
            next_oid += 1
        if earlier >= 2:
            updated, deleted = rng.sample(range(earlier), 2)
            batch.append(Mutation.update(near_existing(live[updated])))
            batch.append(Mutation.delete(live.pop(deleted)))
        yield batch


def test_e13_sharded_batch_with_removals_costs_o_batch(base_db):
    """Acceptance: removals cost a sharded batch at most 2.5x.

    Both batches lost the KcR-tree's ``insert_batch`` when the served
    engine stopped maintaining a tree, the removing one its ``delete``
    too, and the ratio moved 1.9-2.3x -> 4.8-5.1x (ceiling 5.5x): a
    removal still rebuilt the parent's and the touched shard's dense
    object and doc-mask tuples, O(n), where an insert appended.  Once
    the database kept its objects only in its id map and a shard kept
    no database of its own, a removal became a dict pop: five runs per
    commit on one 2-vCPU host read 5.80-6.81x -> 0.82-1.46x (removing
    batch 4.4-5.1 ms -> 0.19-0.31 ms), so the ceiling is back at 2.5x.
    """

    def median_batch(*, removals: bool) -> tuple[float, YaskEngine]:
        engine = YaskEngine(
            SpatialDatabase(base_db.objects, dataspace=base_db.dataspace),
            shards=SHARDS,
        )
        stream = _batch_stream(base_db)
        engine.apply_mutations(next(stream))  # the one batch with no removals
        times = []
        for _ in range(STREAM_BATCHES):
            batch = next(stream)
            if not removals:  # the same stream, update and delete dropped
                batch = [m for m in batch if m.kind == "insert"]
            started = time.perf_counter()
            engine.apply_mutations(batch)
            times.append(time.perf_counter() - started)
        return statistics.median(times), engine

    inserts_s, insert_engine = median_batch(removals=False)
    insert_engine.close()
    mixed_s, engine = median_batch(removals=True)
    ratio = mixed_s / inserts_s

    table = Table(
        "batch", "median_ms",
        title=f"E13: one batch on a {SHARDS}-shard {OBJECTS}-object engine",
    )
    table.add_row("6 inserts", inserts_s * 1000.0)
    table.add_row("6 inserts + 1 update + 1 delete", mixed_s * 1000.0)
    table.add_row(
        f"ratio {ratio:.2f}x (ceiling {REMOVAL_BATCH_RATIO_CEILING}x)", ""
    )
    table.print()

    assert engine.kernel.mutation_info()["tombstones"] == 2 * STREAM_BATCHES
    fresh = YaskEngine(
        SpatialDatabase(engine.database.objects, dataspace=base_db.dataspace),
        shards=SHARDS,
    )
    for query in QueryWorkload(
        base_db, seed=7, k=10, keywords_per_query=(1, 2), location_jitter=0.01
    ).queries(8):
        assert [tuple(entry) for entry in engine.query(query)] == [
            tuple(entry) for entry in fresh.query(query)
        ]
    engine.close()
    fresh.close()
    assert ratio <= REMOVAL_BATCH_RATIO_CEILING, (
        f"a batch with removals costs {ratio:.1f}x an insert-only one "
        f"({mixed_s * 1000:.1f}ms vs {inserts_s * 1000:.1f}ms)"
    )
