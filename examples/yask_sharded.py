"""Sharded scatter-gather in action: parity first, then latency.

Two demonstrations:

1. **Hotels parity** — the 539-hotel dataset served by a 4-shard
   engine answers the paper's Example-2 query and a why-not question
   bit-for-bit identically to the unsharded engine, while the shard
   statistics show the scatter at work.
2. **Latency** — a 10k-object clustered corpus compares cold top-k and
   cold preference why-not between the scatter machinery at 1 shard
   (one full columnar scan) and at 4 shards (bound-ordered gather with
   shard skipping), the E12 experiment in miniature.

Run with ``PYTHONPATH=src python examples/yask_sharded.py``.
"""

import time

from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.core.geometry import Point
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.datasets.hotels import hong_kong_hotels
from repro.service.api import YaskEngine
from repro.whynot.preference import PreferenceAdjuster


def hotels_parity() -> None:
    print("=== Hong Kong hotels: 4-shard engine vs unsharded engine ===")
    hotels = hong_kong_hotels()
    plain = YaskEngine(hotels)
    sharded = YaskEngine(hotels, shards=4)

    venue = Point(114.1722, 22.2975)  # the "conference venue" of Example 2
    query = plain.make_query(venue, {"clean", "comfortable"}, k=3)
    plain_result = plain.query(query)
    sharded_result = sharded.query(query)
    topk_match = [tuple(e) for e in plain_result] == [
        tuple(e) for e in sharded_result
    ]

    missing = ["Grand Victoria Harbour Hotel"]
    plain_answer = plain.why_not(query, missing)
    sharded_answer = sharded.why_not(query, missing)
    whynot_match = (
        plain_answer.preference == sharded_answer.preference
        and plain_answer.keyword == sharded_answer.keyword
        and plain_answer.best_model == sharded_answer.best_model
    )

    for entry in sharded_result:
        print(f"  {entry.describe()}")
    stats = sharded.shard_router.to_dict()
    print(f"  shards: {stats['count']} x {stats['objects']} objects")
    print(
        f"  scatter: {stats['topk_shards_scanned']} shard scans, "
        f"{stats['topk_shards_skipped']} skipped by bounds"
    )
    print(f"  top-k parity check: {topk_match}")
    print(f"  why-not parity check: {whynot_match}")
    print(f"  suggested refinement: {sharded_answer.best_model}")


def latency_comparison() -> None:
    print()
    print("=== 10k clustered objects: 1 shard vs 4 shards (cold) ===")
    database = SyntheticDatasetBuilder(seed=2016).build(
        10_000, vocabulary_size=50, doc_length=(4, 8),
        spatial="clustered", clusters=12,
    )
    one = YaskEngine(database, shards=1)
    four = YaskEngine(database, shards=4)
    workload = QueryWorkload(
        database, seed=7, k=10, keywords_per_query=(1, 2),
        location_jitter=0.01,
    )
    queries = list(workload.queries(10))

    parity = all(
        [tuple(e) for e in one.query(q)] == [tuple(e) for e in four.query(q)]
        for q in queries
    )

    def best_of(callable_, repeat=3):
        best = float("inf")
        for _ in range(repeat):
            started = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - started)
        return best * 1000.0

    topk_one = best_of(lambda: [one.query(q) for q in queries])
    topk_four = best_of(lambda: [four.query(q) for q in queries])

    scenarios = generate_whynot_scenarios(
        one.scorer, count=2, k=10, missing_count=2, rank_window=20, seed=42
    )
    adjuster_one = PreferenceAdjuster(one.scorer)
    adjuster_four = PreferenceAdjuster(four.scorer)
    answers_match = [
        adjuster_one.refine(s.query, s.missing) for s in scenarios
    ] == [adjuster_four.refine(s.query, s.missing) for s in scenarios]
    whynot_one = best_of(
        lambda: [adjuster_one.refine(s.query, s.missing) for s in scenarios]
    )
    whynot_four = best_of(
        lambda: [adjuster_four.refine(s.query, s.missing) for s in scenarios]
    )

    stats = four.shard_router.to_dict()
    print(f"  parity check (top-k): {parity}")
    print(f"  parity check (why-not refinements): {answers_match}")
    print(
        f"  cold top-k, {len(queries)} queries: "
        f"1 shard {topk_one:.1f} ms -> 4 shards {topk_four:.1f} ms "
        f"({topk_one / topk_four:.2f}x)"
    )
    print(
        f"  cold why-not (preference), {len(scenarios)} scenarios: "
        f"1 shard {whynot_one:.1f} ms -> 4 shards {whynot_four:.1f} ms "
        f"({whynot_one / whynot_four:.2f}x)"
    )
    print(f"  top-k shard scans skipped so far: {stats['topk_shards_skipped']}")


if __name__ == "__main__":
    hotels_parity()
    latency_comparison()
