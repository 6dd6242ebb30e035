"""E12 — scatter-gather sharding vs. the single-shard scan baseline.

PR 4 partitions the database into disjoint spatial shards
(``repro.core.sharding``) and runs top-k as a bound-ordered
scatter-gather, with the why-not rank primitives pruning whole shards.
Shards whose score upper bound cannot reach the running threshold are
never scanned, which the round-robin ablation (spatially incoherent
shards, bounds never fire) shows by never skipping.

Acceptance floors at 4 shards / 20k objects, against the same engine
configured with 1 shard, are both "shards cost this nothing":

* cold top-k no slower than 0.9x (measured 0.95-1.09x over fifteen
  runs, rounded down).  Until PR 18 this floor was ">= 1.8x": a shard
  scan scored every row, so skipping a shard skipped a quarter of the
  work.  Every kernel now answers from a scan
  index that scores only the rows that can still reach the running
  k-th score, inside one shard as between four, so one 20k-row kernel
  does what four 5k-row ones do and the ratio measures the scatter's
  fixed costs (bounds, merge, one index walk per scanned shard);
* a cold why-not question (preference model) no slower than 0.9x: its
  rank evaluations run over the global columns' TSim-levelled dual view
  (two bisects per level), which does less work than shard skipping at
  any shard count,

with bit-for-bit parity asserted first: top-k against the set-path
oracle (the unsharded production engine scans too, so it would be scan
against scan), why-not against the *unsharded* production engine.

Workload notes (documented, deliberate):

* The top-k workload is geo-local category search — clustered objects,
  queries anchored near the data, one or two frequent keywords over
  short tag documents.  In this regime the shard text bound is tight
  (a perfect keyword match exists near every query), so the k-th score
  localises the answer and distant shards are provably irrelevant.
  This is the regime spatial partitioning exists for; text-dominated
  workloads with globally scattered matches scan more shards (the
  bounds degrade gracefully to a full scatter, never to a wrong
  answer).
* The why-not scenarios keep the missing objects within 20 ranks of
  the result ("the cafe down the street"), where the refinement
  sweep's crossover structure stays small.  Neither the rank
  verifications (bisects in the levelled view) nor the crossover sweep
  (rank arithmetic on events) depends on the partitioning.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_e12_sharding.py -q``
(add ``-s`` for the speedup tables).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Table, time_call
from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.core.scoring import Scorer
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.whynot.preference import PreferenceAdjuster

#: Acceptance floors: 4 shards vs 1 shard at 20k objects.  ISSUE 17
#: replaced "why-not >= 1.5x", which measured shard skipping inside
#: ``ranks_at``, by "shards cost dual space nothing"; ISSUE 18 replaced
#: "top-k >= 1.8x", which measured shard skipping over full scans, by
#: the measured ratio of two indexed scatters, rounded down.
TOPK_FLOOR = 0.9
WHYNOT_FLOOR = 0.9

OBJECTS = 20_000
SHARDS = 4


@pytest.fixture(scope="module")
def shard_db():
    """Geo-local category-search corpus: clustered, short tag docs."""
    return SyntheticDatasetBuilder(seed=2016).build(
        OBJECTS,
        vocabulary_size=50,
        doc_length=(4, 8),
        spatial="clustered",
        clusters=12,
    )


@pytest.fixture(scope="module")
def unsharded_engine(shard_db):
    """The production unsharded engine — the why-not parity oracle."""
    return YaskEngine(shard_db)


@pytest.fixture(scope="module")
def baseline_engine(shard_db):
    """The scatter machinery at 1 shard: one indexed scan of 20k rows."""
    return YaskEngine(shard_db, shards=1)


@pytest.fixture(scope="module")
def sharded_engine(shard_db):
    return YaskEngine(shard_db, shards=SHARDS)


@pytest.fixture(scope="module")
def topk_queries(shard_db):
    workload = QueryWorkload(
        shard_db, seed=7, k=10, keywords_per_query=(1, 2),
        location_jitter=0.01,
    )
    return list(workload.queries(12))


def test_e12_topk_parity_and_skipping(
    shard_db, unsharded_engine, baseline_engine, sharded_engine, topk_queries
):
    """Bit-for-bit parity with the set-path oracle, and shards really skip."""
    oracle = Scorer(shard_db, use_kernel=False)
    sharded_engine.shard_router.stats.reset()
    for query in topk_queries:
        expected = [tuple(e) for e in oracle.top_k(query)]
        for engine in (unsharded_engine, baseline_engine, sharded_engine):
            assert [tuple(e) for e in engine.query(query)] == expected
    stats = sharded_engine.shard_router.to_dict()
    assert stats["topk_searches"] == len(topk_queries)
    assert stats["topk_shards_skipped"] > 0, (
        "grid shards must be skippable on the geo-local workload"
    )


def test_e12_cold_topk_not_slower(baseline_engine, sharded_engine, topk_queries):
    """Acceptance: the 4-shard scatter costs top-k no more than the floor."""

    def run(engine):
        return [engine.query(query) for query in topk_queries]

    sharded_results, sharded_timing = time_call(
        lambda: run(sharded_engine), repeat=5
    )
    baseline_results, baseline_timing = time_call(
        lambda: run(baseline_engine), repeat=5
    )
    for fast, slow in zip(sharded_results, baseline_results):
        assert [tuple(e) for e in fast] == [tuple(e) for e in slow]

    speedup = baseline_timing.best / sharded_timing.best
    stats = sharded_engine.shard_router.to_dict()
    table = Table(
        "configuration", "best_ms", "median_ms",
        title=f"E12: cold top-k ({OBJECTS} objects x {len(topk_queries)} queries)",
    )
    table.add_row("1 shard", baseline_timing.best_ms,
                  baseline_timing.median_ms)
    table.add_row(f"{SHARDS} shards (scatter)", sharded_timing.best_ms,
                  sharded_timing.median_ms)
    table.add_row(
        f"speedup {speedup:.2f}x (floor {TOPK_FLOOR}x), "
        f"skipped {stats['topk_shards_skipped']} shard scans", "", "",
    )
    table.print()
    assert speedup >= TOPK_FLOOR, (
        f"sharded top-k at {speedup:.2f}x the 1-shard speed "
        f"({sharded_timing.best_ms:.1f}ms vs {baseline_timing.best_ms:.1f}ms)"
    )


def test_e12_round_robin_ablation_does_not_skip(shard_db, topk_queries):
    """Spatial coherence is the mechanism: round-robin shards never skip."""
    ablation = YaskEngine(shard_db, shards=SHARDS, partitioner="round-robin")
    for query in topk_queries[:4]:
        ablation.query(query)
    stats = ablation.shard_router.to_dict()
    assert stats["topk_shards_skipped"] == 0
    assert stats["topk_shards_scanned"] == 4 * SHARDS


@pytest.fixture(scope="module")
def whynot_scenarios(unsharded_engine):
    return generate_whynot_scenarios(
        unsharded_engine.scorer, count=4, k=10, missing_count=2,
        rank_window=20, seed=42,
    )


def test_e12_cold_whynot_preference_not_slower(
    unsharded_engine, baseline_engine, sharded_engine, whynot_scenarios
):
    """Acceptance: cold preference why-not >= 0.9x, identical answers."""
    oracle = PreferenceAdjuster(unsharded_engine.scorer)
    baseline = PreferenceAdjuster(baseline_engine.scorer)
    sharded = PreferenceAdjuster(sharded_engine.scorer)

    def run(adjuster):
        return [
            adjuster.refine(s.query, s.missing, lam=0.5)
            for s in whynot_scenarios
        ]

    expected = run(oracle)
    sharded_refined, sharded_timing = time_call(lambda: run(sharded), repeat=5)
    baseline_refined, baseline_timing = time_call(
        lambda: run(baseline), repeat=5
    )
    assert sharded_refined == expected
    assert baseline_refined == expected

    speedup = baseline_timing.best / sharded_timing.best
    table = Table(
        "configuration", "best_ms", "median_ms",
        title=(
            f"E12: cold why-not, preference model "
            f"({OBJECTS} objects x {len(whynot_scenarios)} scenarios)"
        ),
    )
    table.add_row("1 shard", baseline_timing.best_ms,
                  baseline_timing.median_ms)
    table.add_row(f"{SHARDS} shards", sharded_timing.best_ms,
                  sharded_timing.median_ms)
    table.add_row(f"speedup {speedup:.2f}x (floor {WHYNOT_FLOOR}x)", "", "")
    table.print()
    assert speedup >= WHYNOT_FLOOR, (
        f"sharded cold why-not at {speedup:.2f}x the 1-shard speed "
        f"({sharded_timing.best_ms:.1f}ms vs {baseline_timing.best_ms:.1f}ms)"
    )


def test_e12_cached_whynot_runs_no_scatter(sharded_engine, whynot_scenarios):
    """The executor-tier guarantee survives sharding: a why-not question
    over a cached query charges zero scatter-gather searches."""
    from repro.service.executor import (
        QueryExecutor, WhyNotExecutor, WhyNotQuestion,
    )

    topk = QueryExecutor(sharded_engine, max_workers=1)
    whynot = WhyNotExecutor(sharded_engine, topk, max_workers=1)
    scenario = whynot_scenarios[0]
    topk.execute(scenario.query)
    router = sharded_engine.shard_router
    searches_before = router.stats.to_dict()["topk_searches"]
    execution = whynot.execute(
        WhyNotQuestion(
            query=scenario.query,
            missing=tuple(obj.oid for obj in scenario.missing),
            model="explain",
        )
    )
    assert execution.topk_source == "cache"
    assert router.stats.to_dict()["topk_searches"] == searches_before
    whynot.close()
    topk.close()
