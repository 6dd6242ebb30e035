"""E6 — Section 4 "Query Refinement Effectiveness": the impact of λ.

"We are able to show how the initial queries are minimally modified to
revive the missing hotels and to demonstrate the impact of the setting
of weight parameter λ in the penalty functions (Eqns. (3) and (4)) on
the quality of refined queries."

The report prints the (Δk, Δw) / (Δk, Δdoc) trade-off per λ for both
models, on the demonstration dataset — the quantitative version of the
demo's effectiveness walkthrough.  The asserted shape: as λ grows, the
models shift from modifying the query (λ→0) to enlarging k (λ→1), with
Δk weakly decreasing in λ and the modification magnitude weakly
increasing.
"""

import pytest

from repro.bench.harness import Table
from repro.core.geometry import Point
from repro.datasets.hotels import GRAND_VICTORIA

LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def demo_query(hotels_engine):
    return hotels_engine.make_query(
        Point(114.1722, 22.2975), {"clean", "comfortable"}, 3
    )


@pytest.mark.parametrize("lam", LAMBDAS, ids=lambda l: f"lam={l}")
def test_e6_preference_by_lambda(benchmark, hotels_engine, demo_query, lam):
    refinement = benchmark(
        hotels_engine.refine_preference, demo_query, [GRAND_VICTORIA], lam=lam
    )
    assert refinement.penalty <= lam + 1e-12


@pytest.mark.parametrize("lam", LAMBDAS, ids=lambda l: f"lam={l}")
def test_e6_keyword_by_lambda(benchmark, hotels_engine, demo_query, lam):
    refinement = benchmark(
        hotels_engine.refine_keywords, demo_query, [GRAND_VICTORIA], lam=lam
    )
    assert refinement.penalty <= lam + 1e-12


def test_e6_report_tradeoff(benchmark, hotels_engine, demo_query, capsys):
    table = Table(
        "lambda",
        "pref Δw", "pref Δk", "pref penalty",
        "kw Δdoc", "kw Δk", "kw penalty",
        title="E6: λ impact on refinement quality (Grand Victoria scenario)",
    )
    pref_delta_ks, kw_delta_ks = [], []
    pref_delta_ws, kw_delta_docs = [], []
    for lam in LAMBDAS:
        pref = hotels_engine.refine_preference(
            demo_query, [GRAND_VICTORIA], lam=lam
        )
        keyword = hotels_engine.refine_keywords(
            demo_query, [GRAND_VICTORIA], lam=lam
        )
        pref_delta_ks.append(pref.delta_k)
        kw_delta_ks.append(keyword.delta_k)
        pref_delta_ws.append(pref.delta_w)
        kw_delta_docs.append(keyword.delta_doc)
        table.add_row(
            lam,
            round(pref.delta_w, 4), pref.delta_k, round(pref.penalty, 4),
            keyword.delta_doc, keyword.delta_k, round(keyword.penalty, 4),
        )
    with capsys.disabled():
        table.print()

    # The paper's claimed trade-off shape: growing λ moves both models
    # away from enlarging k and towards modifying the query.
    assert pref_delta_ks == sorted(pref_delta_ks, reverse=True)
    assert kw_delta_ks == sorted(kw_delta_ks, reverse=True)
    assert pref_delta_ws == sorted(pref_delta_ws)
    assert kw_delta_docs == sorted(kw_delta_docs)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e6_report_synthetic_scenarios(
    benchmark, bench_scorer, bench_kcrtree, bench_scenarios, capsys
):
    """The same λ sweep averaged over synthetic why-not scenarios: one
    context per scenario, so each question's preference front is swept
    once and every λ is a lookup on it."""
    from repro.whynot.context import WhyNotContext
    from repro.whynot.keyword import KeywordAdapter
    from repro.whynot.preference import PreferenceAdjuster

    adjuster = PreferenceAdjuster(bench_scorer)
    adapter = KeywordAdapter(bench_scorer, bench_kcrtree)
    scenarios = bench_scenarios[:3]
    contexts = [WhyNotContext(bench_scorer, s.query, s.missing) for s in scenarios]
    fronts = []
    table = Table(
        "lambda", "pref mean Δk", "pref mean Δw", "kw mean Δk", "kw mean Δdoc",
        title="E6b: λ sweep on synthetic scenarios (10k objects, |M|=2)",
    )
    for lam in LAMBDAS:
        pref_dk = pref_dw = kw_dk = kw_dd = 0.0
        for s, context in zip(scenarios, contexts):
            pref = adjuster.refine(s.query, s.missing, lam=lam, context=context)
            keyword = adapter.refine(s.query, s.missing, lam=lam)
            pref_dk += pref.delta_k
            pref_dw += pref.delta_w
            kw_dk += keyword.delta_k
            kw_dd += keyword.delta_doc
        count = len(scenarios)
        table.add_row(
            lam,
            round(pref_dk / count, 1), round(pref_dw / count, 4),
            round(kw_dk / count, 1), round(kw_dd / count, 2),
        )
        fronts.append([context.front for context in contexts])
    with capsys.disabled():
        table.print()
    # One sweep per question: the first λ built each front, the rest
    # read the very same one.
    assert all(front is not None for front in fronts[0])
    assert all(a is b for row in fronts for a, b in zip(row, fronts[0]))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
