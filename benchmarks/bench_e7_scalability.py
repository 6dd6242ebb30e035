"""E7 — the scalability claim of Section 4.

"While the YASK system and its algorithms are built to be scalable and
offer good performance for data sets with millions of objects [4-6], we
use a small and focussed data set ... for demonstrating the system."

The laptop-scale sweep checks the *shape* of that claim on this
reproduction: index build should be near O(n log n), indexed top-k far
sublinear in n, and both why-not modules' costs dominated by terms that
grow much more slowly than brute force.  Absolute numbers are not
comparable to the authors' Java/Tomcat testbed.
"""

import pytest

from repro.bench.harness import Table, time_call
from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.core.scoring import Scorer
from repro.index.kcrtree import KcRTree
from repro.index.setrtree import SetRTree
from repro.paper import BestFirstTopK, KcRTreeKeywordAdapter
from repro.whynot.preference import PreferenceAdjuster

from benchmarks.conftest import build_database

SCALE_SIZES = (2_000, 10_000, 50_000, 100_000)


def test_e7_index_build_at_scale(benchmark):
    database = build_database(100_000)
    tree = benchmark.pedantic(
        SetRTree.build, args=(database,), kwargs={"max_entries": 32},
        rounds=2, iterations=1,
    )
    assert len(tree) == 100_000


def test_e7_topk_at_scale(benchmark):
    database = build_database(100_000)
    scorer = Scorer(database)
    tree = SetRTree.build(database, max_entries=32)
    engine = BestFirstTopK(tree, scorer)
    queries = list(
        QueryWorkload(database, seed=71, k=10, keyword_bias="uniform").queries(20)
    )

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


def test_e7_preference_at_scale(benchmark):
    database = build_database(100_000)
    scorer = Scorer(database)
    scenarios = generate_whynot_scenarios(
        scorer, count=1, k=10, missing_count=1, rank_window=40, seed=72
    )
    adjuster = PreferenceAdjuster(scorer)
    scenario = scenarios[0]

    benchmark.pedantic(
        lambda: adjuster.refine(scenario.query, scenario.missing),
        rounds=2, iterations=1,
    )


def test_e7_keyword_at_scale(benchmark):
    database = build_database(100_000)
    scorer = Scorer(database)
    tree = KcRTree.build(database, max_entries=32)
    scenarios = generate_whynot_scenarios(
        scorer, count=1, k=10, missing_count=1, rank_window=40, seed=73
    )
    adapter = KcRTreeKeywordAdapter(scorer, tree)
    scenario = scenarios[0]

    benchmark.pedantic(
        lambda: adapter.refine(scenario.query, scenario.missing),
        rounds=2, iterations=1,
    )


def test_e7_report_scaling_shape(benchmark, capsys):
    """The headline E7 table: cost vs n for every engine."""
    table = Table(
        "n", "build ms", "top-10 ms", "preference ms", "keyword ms",
        "topk objects scored",
        title="E7: scaling shape (per-operation latency vs database size)",
    )
    topk_latencies = []
    for n in SCALE_SIZES:
        database = build_database(n)
        scorer = Scorer(database)

        tree, build_timing = time_call(
            lambda: SetRTree.build(database, max_entries=32), repeat=1, warmup=0
        )
        kcr = KcRTree.build(database, max_entries=32)
        engine = BestFirstTopK(tree, scorer)
        queries = list(
            QueryWorkload(database, seed=74, k=10, keyword_bias="uniform").queries(10)
        )

        def run_topk():
            for query in queries:
                engine.search(query)

        _, topk_timing = time_call(run_topk, repeat=3)
        engine.search(queries[0])

        scenario = generate_whynot_scenarios(
            scorer, count=1, k=10, missing_count=1, rank_window=40, seed=75
        )[0]
        adjuster = PreferenceAdjuster(scorer)
        adapter = KcRTreeKeywordAdapter(scorer, kcr)
        _, pref_timing = time_call(
            lambda: adjuster.refine(scenario.query, scenario.missing), repeat=2
        )
        _, keyword_timing = time_call(
            lambda: adapter.refine(scenario.query, scenario.missing), repeat=2
        )
        per_query_ms = topk_timing.best_ms / len(queries)
        topk_latencies.append(per_query_ms)
        table.add_row(
            n,
            round(build_timing.best_ms, 1),
            round(per_query_ms, 3),
            round(pref_timing.best_ms, 1),
            round(keyword_timing.best_ms, 1),
            engine.stats.objects_scored,
        )
    with capsys.disabled():
        table.print()

    # Scaling-shape assertion: a 50x larger database must not cost
    # anywhere near 50x per top-k query (the index is sublinear).
    assert topk_latencies[-1] < topk_latencies[0] * (
        SCALE_SIZES[-1] / SCALE_SIZES[0]
    ) * 0.5
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
