"""E5 — Figs. 4-5 / demonstration scenario 2: keyword adaption.

KcR-tree bound-and-prune versus the exhaustive full-scan baseline,
swept over |q.doc|, |M| and λ; reports the pruning ratio (candidates
abandoned before exact ranking) and per-candidate object-scoring work.

Expected shape ([6], as Section 3.3 cites it): identical answers, with bound-and-prune
scoring a small fraction of the objects the exhaustive baseline scores;
the advantage grows with the candidate space (|q.doc| and |M|).
"""

import pytest

from repro.bench.harness import Table, time_call
from repro.bench.workloads import generate_whynot_scenarios
from repro.paper import ExhaustiveKeywordAdapter, KcRTreeKeywordAdapter


@pytest.mark.parametrize("query_keywords", [2, 3, 4], ids=lambda c: f"qdoc={c}")
def test_e5_bound_prune_by_query_keywords(
    benchmark, bench_scorer, bench_kcrtree, query_keywords
):
    scenarios = generate_whynot_scenarios(
        bench_scorer, count=2, k=10, missing_count=1, rank_window=40,
        seed=51, keywords_per_query=(query_keywords, query_keywords),
    )
    adapter = KcRTreeKeywordAdapter(bench_scorer, bench_kcrtree)

    def run():
        for s in scenarios:
            adapter.refine(s.query, s.missing)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("missing", [1, 2], ids=lambda m: f"M={m}")
def test_e5_bound_prune_by_missing_count(
    benchmark, bench_scorer, bench_kcrtree, missing
):
    scenarios = generate_whynot_scenarios(
        bench_scorer, count=2, k=10, missing_count=missing, rank_window=40,
        seed=52,
    )
    adapter = KcRTreeKeywordAdapter(bench_scorer, bench_kcrtree)

    def run():
        for s in scenarios:
            adapter.refine(s.query, s.missing)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


def test_e5_exhaustive_baseline(benchmark, bench_scorer, bench_scenarios):
    baseline = ExhaustiveKeywordAdapter(bench_scorer)
    scenario = bench_scenarios[0]

    benchmark.pedantic(
        lambda: baseline.refine(scenario.query, scenario.missing),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_e5_report_prune_effectiveness(
    benchmark, bench_scorer, bench_kcrtree, bench_scenarios, capsys
):
    """The headline E5 table: same answer, fraction of the work."""
    adapter = KcRTreeKeywordAdapter(bench_scorer, bench_kcrtree)
    baseline = ExhaustiveKeywordAdapter(bench_scorer)
    table = Table(
        "scenario", "penalty", "prune ratio",
        "objects scored (b&p)", "objects scored (exhaustive)", "work ratio",
        title="E5: keyword adaption, KcR-tree bound-and-prune vs exhaustive (λ=0.5)",
    )
    for index, scenario in enumerate(bench_scenarios[:3], start=1):
        pruned = adapter.refine(scenario.query, scenario.missing)
        exhaustive = baseline.refine(scenario.query, scenario.missing)
        assert abs(pruned.penalty - exhaustive.penalty) <= 1e-12
        work_ratio = (
            pruned.stats.objects_scored / exhaustive.stats.objects_scored
            if exhaustive.stats.objects_scored
            else 0.0
        )
        table.add_row(
            index,
            round(pruned.penalty, 4),
            round(pruned.stats.prune_ratio, 3),
            pruned.stats.objects_scored,
            exhaustive.stats.objects_scored,
            round(work_ratio, 4),
        )
        assert work_ratio < 1.0  # pruning must save object scorings
    with capsys.disabled():
        table.print()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e5_report_runtime_by_lambda(
    benchmark, bench_scorer, bench_kcrtree, bench_scenarios, capsys
):
    adapter = KcRTreeKeywordAdapter(bench_scorer, bench_kcrtree)
    table = Table(
        "lambda", "ms/question", "candidates", "pruned", "Δdoc", "Δk",
        title="E5b: keyword adaption cost vs λ",
    )
    scenario = bench_scenarios[0]
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        result, timing = time_call(
            lambda: adapter.refine(scenario.query, scenario.missing, lam=lam),
            repeat=3,
        )
        table.add_row(
            lam,
            round(timing.best_ms, 2),
            result.stats.candidates_generated,
            result.stats.candidates_pruned,
            result.delta_doc,
            result.delta_k,
        )
    with capsys.disabled():
        table.print()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
