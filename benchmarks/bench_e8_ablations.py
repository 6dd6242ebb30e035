"""E8 — ablations of the design choices Section 3.3 calls out.

Each ablation removes one ingredient of a YASK engine and measures what
it bought:

* SetR-tree keyword bounds → plain MINDIST-only bounds (text part
  bounded by 1.0) for top-k search,
* the levelled dual view → the paper's dual-space R-tree range queries
  → a linear scan for crossover retrieval,
* KcR-tree rank bounds → exhaustive ranking per candidate (also E5),
* R-tree fanout sensitivity.
"""

import pytest

from repro.bench.harness import Table, time_call
from repro.bench.workloads import QueryWorkload
from repro.index.setrtree import SetRTree
from repro.paper import BestFirstTopK, DualIndexPreferenceAdjuster, LinearPreferenceAdjuster
from repro.whynot.preference import PreferenceAdjuster

#: Crossover retrieval: the served view, the paper's dual R-tree, a scan.
CROSSOVER_ARMS = (
    (PreferenceAdjuster, "dual-view"),
    (DualIndexPreferenceAdjuster, "dual-rtree"),
    (LinearPreferenceAdjuster, "linear-scan"),
)


class _MindistOnlyIndex:
    """SetR-tree wrapper that ignores keyword summaries (ablation)."""

    def __init__(self, tree: SetRTree) -> None:
        self._tree = tree

    @property
    def root(self):
        return self._tree.root

    def __len__(self) -> int:
        return len(self._tree)

    def score_upper_bound(self, node, query):
        assert node.rect is not None
        min_sdist = min(
            node.rect.min_distance_to_point(query.loc)
            / self._tree.database.distance_normaliser,
            1.0,
        )
        # No textual information: TSim bounded by 1 for every node.
        return query.ws * (1.0 - min_sdist) + query.wt * 1.0


def test_e8_topk_with_keyword_bounds(benchmark, bench_db, bench_scorer, bench_setrtree):
    engine = BestFirstTopK(bench_setrtree, bench_scorer)
    queries = list(QueryWorkload(bench_db, seed=81, k=10).queries(20))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


def test_e8_topk_without_keyword_bounds(benchmark, bench_db, bench_scorer, bench_setrtree):
    engine = BestFirstTopK(_MindistOnlyIndex(bench_setrtree), bench_scorer)
    queries = list(QueryWorkload(bench_db, seed=81, k=10).queries(20))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


@pytest.mark.parametrize(
    "adjuster_class", [arm for arm, _ in CROSSOVER_ARMS],
    ids=[label for _, label in CROSSOVER_ARMS],
)
def test_e8_crossover_retrieval(benchmark, bench_scorer, bench_scenarios, adjuster_class):
    adjuster = adjuster_class(bench_scorer)
    scenario = bench_scenarios[0]

    benchmark.pedantic(
        lambda: adjuster.refine(scenario.query, scenario.missing),
        rounds=3, iterations=1, warmup_rounds=1,
    )


@pytest.mark.parametrize("fanout", [8, 32, 128], ids=lambda f: f"M={f}")
def test_e8_fanout_sensitivity(benchmark, bench_db, bench_scorer, fanout):
    tree = SetRTree.build(bench_db, max_entries=fanout)
    engine = BestFirstTopK(tree, bench_scorer)
    queries = list(QueryWorkload(bench_db, seed=82, k=10).queries(20))

    def run():
        for query in queries:
            engine.search(query)

    benchmark(run)


def test_e8_report_ablation_summary(
    benchmark, bench_db, bench_scorer, bench_setrtree, bench_scenarios, capsys
):
    table = Table(
        "configuration", "ms/op", "work metric",
        title="E8: ablation summary (10k objects)",
    )
    queries = list(QueryWorkload(bench_db, seed=83, k=10).queries(10))

    full = BestFirstTopK(bench_setrtree, bench_scorer)
    bare = BestFirstTopK(_MindistOnlyIndex(bench_setrtree), bench_scorer)

    def run_engine(engine):
        def run():
            for query in queries:
                engine.search(query)
        return run

    _, full_timing = time_call(run_engine(full), repeat=3)
    full.search(queries[0])
    full_scored = full.stats.objects_scored
    _, bare_timing = time_call(run_engine(bare), repeat=3)
    bare.search(queries[0])
    bare_scored = bare.stats.objects_scored
    table.add_row(
        "top-k, SetR-tree bounds",
        round(full_timing.best_ms / len(queries), 3),
        f"{full_scored} objects scored",
    )
    table.add_row(
        "top-k, MINDIST only",
        round(bare_timing.best_ms / len(queries), 3),
        f"{bare_scored} objects scored",
    )
    # The keyword bounds must pay for themselves in pruned work.
    assert full_scored <= bare_scored

    scenario = bench_scenarios[0]
    for adjuster_class, label in CROSSOVER_ARMS:
        adjuster = adjuster_class(bench_scorer)
        result, timing = time_call(
            lambda: adjuster.refine(scenario.query, scenario.missing), repeat=2
        )
        table.add_row(
            f"crossovers via {label}", round(timing.best_ms, 2),
            f"{result.crossovers} crossovers",
        )
    with capsys.disabled():
        table.print()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
