"""E3 — Fig. 3 / demonstration scenario 1: top-k query latency.

SetR-tree best-first search versus the brute-force scan, swept over
database size ``n``, result size ``k`` and query keyword count.

Expected shape (Section 3.3): the index engine wins everywhere and
its advantage grows with ``n`` (it touches a near-constant number of
nodes while the scan is linear); latency grows mildly with ``k``.
"""

import pytest

from repro.bench.harness import Table, time_call
from repro.bench.workloads import QueryWorkload
from repro.core.scoring import Scorer
from repro.core.topk import BruteForceTopK
from repro.paper import BestFirstTopK
from repro.index.setrtree import SetRTree

from benchmarks.conftest import SWEEP_SIZES, build_database


@pytest.mark.parametrize("k", [1, 3, 10, 50], ids=lambda k: f"k={k}")
def test_e3_best_first_by_k(benchmark, bench_db, bench_scorer, bench_setrtree, k):
    engine = BestFirstTopK(bench_setrtree, bench_scorer)
    workload = QueryWorkload(bench_db, seed=31, k=k)
    queries = list(workload.queries(20))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


@pytest.mark.parametrize("k", [3, 10], ids=lambda k: f"k={k}")
def test_e3_brute_force_by_k(benchmark, bench_db, bench_scorer, k):
    engine = BruteForceTopK(bench_scorer)
    queries = list(QueryWorkload(bench_db, seed=31, k=k).queries(5))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


def test_e3_best_first_by_size(benchmark, sized_database):
    scorer = Scorer(sized_database)
    tree = SetRTree.build(sized_database, max_entries=32)
    engine = BestFirstTopK(tree, scorer)
    queries = list(QueryWorkload(sized_database, seed=32, k=10).queries(20))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


@pytest.mark.parametrize("keywords", [1, 2, 4], ids=lambda c: f"kw={c}")
def test_e3_best_first_by_keywords(
    benchmark, bench_db, bench_scorer, bench_setrtree, keywords
):
    engine = BestFirstTopK(bench_setrtree, bench_scorer)
    workload = QueryWorkload(
        bench_db, seed=33, k=10, keywords_per_query=(keywords, keywords)
    )
    queries = list(workload.queries(20))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


def test_e3_report_index_vs_scan(benchmark, capsys):
    """The headline E3 table: who wins and by what factor, per n.

    Both query regimes are reported: frequency-biased keywords (common
    facilities; the adversarial case for set bounds — every node union
    matches the query) and uniform keywords (rare terms; the favourable
    case where textual pruning bites).
    """
    table = Table(
        "n", "keywords", "best-first ms", "brute ms", "speedup", "objects scored",
        title="E3: top-10 query latency, SetR-tree best-first vs brute force",
    )
    for n in SWEEP_SIZES:
        database = build_database(n)
        scorer = Scorer(database)
        tree = SetRTree.build(database, max_entries=32)
        engine = BestFirstTopK(tree, scorer)
        brute = BruteForceTopK(scorer)
        for bias in ("frequency", "uniform"):
            queries = list(
                QueryWorkload(database, seed=34, k=10, keyword_bias=bias).queries(10)
            )

            def run_indexed():
                for query in queries:
                    engine.search(query)

            def run_brute():
                for query in queries:
                    brute.search(query)

            _, indexed_timing = time_call(run_indexed, repeat=3)
            _, brute_timing = time_call(run_brute, repeat=3)
            engine.search(queries[0])
            table.add_row(
                n,
                bias,
                round(indexed_timing.best_ms / len(queries), 3),
                round(brute_timing.best_ms / len(queries), 3),
                round(brute_timing.best / indexed_timing.best, 1),
                engine.stats.objects_scored,
            )
    with capsys.disabled():
        table.print()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
