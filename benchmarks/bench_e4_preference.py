"""E4 — Figs. 4-5 / demonstration scenario 2: preference adjustment.

The exact weight-sweep algorithm (two dual-space range queries +
crossover sweep with the rank update theorem) versus the sampling
baseline, swept over k, |M| and λ.

Expected shape ([5], as Section 3.3 cites it): the exact algorithm's penalty is never
worse than sampling's (it is the true optimum); its runtime is
comparable to moderate sampling and independent of the probe-count
accuracy trade-off that sampling faces.
"""

import pytest

from repro.bench.harness import Table, time_call
from repro.bench.workloads import generate_whynot_scenarios
from repro.paper import SamplingPreferenceAdjuster
from repro.whynot.preference import PreferenceAdjuster


@pytest.mark.parametrize("k", [3, 10, 30], ids=lambda k: f"k={k}")
def test_e4_exact_by_k(benchmark, bench_scorer, k):
    scenarios = generate_whynot_scenarios(
        bench_scorer, count=3, k=k, missing_count=1, rank_window=40, seed=41
    )
    adjuster = PreferenceAdjuster(bench_scorer)

    def run():
        for s in scenarios:
            adjuster.refine(s.query, s.missing)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("missing", [1, 2, 4], ids=lambda m: f"M={m}")
def test_e4_exact_by_missing_count(benchmark, bench_scorer, missing):
    scenarios = generate_whynot_scenarios(
        bench_scorer, count=3, k=10, missing_count=missing, rank_window=40,
        seed=42,
    )
    adjuster = PreferenceAdjuster(bench_scorer)

    def run():
        for s in scenarios:
            adjuster.refine(s.query, s.missing)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("samples", [50, 200, 800], ids=lambda s: f"s={s}")
def test_e4_sampling_baseline(benchmark, bench_scorer, bench_scenarios, samples):
    sampler = SamplingPreferenceAdjuster(bench_scorer, samples=samples)
    scenarios = bench_scenarios[:2]

    def run():
        for s in scenarios:
            sampler.refine(s.query, s.missing)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


def test_e4_report_quality_vs_runtime(benchmark, bench_scorer, bench_scenarios, capsys):
    """The headline E4 table: penalty optimality and runtime per method."""
    adjuster = PreferenceAdjuster(bench_scorer)
    table = Table(
        "method", "mean penalty", "optimality gap", "ms/question",
        title="E4: preference adjustment, exact weight-sweep vs sampling (λ=0.5)",
    )
    scenarios = bench_scenarios[:3]

    def run_exact():
        return [adjuster.refine(s.query, s.missing) for s in scenarios]

    exact_results, exact_timing = time_call(run_exact, repeat=3)
    exact_penalties = [r.penalty for r in exact_results]
    table.add_row(
        "exact weight-sweep",
        round(sum(exact_penalties) / len(exact_penalties), 4),
        0.0,
        round(exact_timing.best_ms / len(scenarios), 2),
    )

    for samples in (50, 200, 800):
        sampler = SamplingPreferenceAdjuster(bench_scorer, samples=samples)

        def run_sampled():
            return [sampler.refine(s.query, s.missing) for s in scenarios]

        sampled_results, sampled_timing = time_call(run_sampled, repeat=3)
        penalties = [r.penalty for r in sampled_results]
        gap = max(
            sampled - exact
            for sampled, exact in zip(penalties, exact_penalties)
        )
        table.add_row(
            f"sampling-{samples}",
            round(sum(penalties) / len(penalties), 4),
            round(gap, 4),
            round(sampled_timing.best_ms / len(scenarios), 2),
        )
        # The exact algorithm is optimal: sampling can never beat it.
        assert gap >= -1e-9
    with capsys.disabled():
        table.print()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
