"""E2 — Fig. 2: the KcR-tree — exact example plus build cost/size sweep.

The exact five-object tree of Fig. 2 is asserted in
``tests/index/test_kcrtree.py::TestFig2Reproduction``; this module
measures what the figure's structure costs at scale: bulk-load time,
node counts and keyword-count-map sizes for growing databases, and the
per-node bound computations the keyword-adaption module performs on it.
"""

import pytest

from repro.bench.harness import Table
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.index.kcrtree import KcRTree


@pytest.mark.parametrize("n", [1_000, 5_000, 20_000], ids=lambda n: f"n={n}")
def test_e2_bulk_load(benchmark, n):
    database = SyntheticDatasetBuilder(seed=2).build(
        n, vocabulary_size=max(50, n // 50), doc_length=(3, 8)
    )
    tree = benchmark.pedantic(
        KcRTree.build, args=(database,), kwargs={"max_entries": 32},
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(tree) == n


def test_e2_incremental_insert(benchmark, bench_db):
    objects = bench_db.objects[:2_000]

    def build():
        tree = KcRTree(database=bench_db, max_entries=32)
        for obj in objects:
            tree.insert(obj, obj.loc)
        return tree

    tree = benchmark.pedantic(build, rounds=3, iterations=1, warmup_rounds=1)
    assert len(tree) == 2_000


def test_e2_node_bound_computation(benchmark, bench_kcrtree, bench_db):
    """Cost of the three Fig. 2-payload count bounds on the root map."""
    summary = bench_kcrtree.root.summary
    keywords = frozenset(sorted(bench_db.vocabulary())[:4])

    def bounds():
        return (
            summary.count_with_overlap_at_least(keywords, 2),
            summary.count_containing_all(keywords),
            summary.count_containing_any_upper(keywords),
        )

    upper, lower, any_upper = benchmark(bounds)
    assert 0 <= lower <= any_upper <= summary.cnt
    assert 0 <= upper <= summary.cnt


def test_e2_report_structure_sweep(benchmark, capsys):
    """Print E2's structure table (tools/paper_record.py pins its values)."""
    table = Table(
        "n", "nodes", "height", "root map keys", "avg leaf map keys",
        title="E2: KcR-tree structure vs database size",
    )
    for n in (1_000, 5_000, 20_000):
        database = SyntheticDatasetBuilder(seed=2).build(
            n, vocabulary_size=max(50, n // 50), doc_length=(3, 8)
        )
        tree = KcRTree.build(database, max_entries=32)
        leaves = list(tree.iter_levels())[-1]
        avg_leaf_keys = sum(
            len(leaf.summary.keyword_counts) for leaf in leaves
        ) / len(leaves)
        table.add_row(
            n, tree.node_count(), tree.height(),
            len(tree.root.summary.keyword_counts), round(avg_leaf_keys, 1),
        )
    with capsys.disabled():
        table.print()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
