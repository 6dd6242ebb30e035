"""The paper's experiments E2–E8 at smoke size, as one deterministic record.

``make paper`` times E1–E8 and asserts their shapes; this record pins
what they compute instead, on the same seeded generators at a smaller
size (2 000 objects for the synthetic runs, the 539 Hong Kong hotels
for E6):

* E2 — the KcR-tree's structure (nodes, height, root and leaf keyword
  maps) and the node bounds keyword adaption reads off its root;
* E3 — SetR-tree best-first top-k answers per ``k``, keyword count and
  keyword bias, with the nodes expanded and objects scored, checked
  against the brute-force answers;
* E4 — the exact weight sweep's refinements and the sampling
  baseline's penalties and optimality gaps;
* E5 — KcR-tree bound-and-prune against exhaustive keyword adaption:
  refinements, prune ratios, objects scored, and the λ sweep;
* E6 — the λ trade-off on the hotels and on synthetic scenarios;
* E7 — top-k work and both refinements at two sizes;
* E8 — keyword bounds against MINDIST only, fanout 8/32/128, and the
  crossovers found by the levelled dual view, the dual R-tree and the
  linear scan.

There are no times in it.  Floats are written as ``repr`` (JSON's own),
so two trees agree on the record only if they compute the same bits.

Run::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tools.paper_record          # compare
    PYTHONHASHSEED=0 PYTHONPATH=src python -m tools.paper_record --write  # regenerate

The compare exits 1 and names the first differing entry when the
record and ``tests/golden/paper_record.json`` disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from benchmarks.bench_e8_ablations import _MindistOnlyIndex
from benchmarks.conftest import build_database
from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.core.geometry import Point
from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.core.topk import BruteForceTopK
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.datasets.hotels import GRAND_VICTORIA, hong_kong_hotels
from repro.index.kcrtree import KcRTree
from repro.index.setrtree import SetRTree
from repro.paper import (
    BestFirstTopK,
    DualIndexPreferenceAdjuster,
    ExhaustiveKeywordAdapter,
    KcRTreeKeywordAdapter,
    LinearPreferenceAdjuster,
    SamplingPreferenceAdjuster,
)
from repro.service.api import YaskEngine
from repro.whynot.context import WhyNotContext
from repro.whynot.preference import PreferenceAdjuster

RECORD = Path(__file__).resolve().parent.parent / "tests" / "golden" / "paper_record.json"

#: The synthetic database of every run but E2's and E7's sweeps.
SMOKE_N = 2_000
LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _query(query: SpatialKeywordQuery) -> dict[str, Any]:
    return {
        "loc": [query.loc.x, query.loc.y], "doc": sorted(query.doc),
        "k": query.k, "weights": [query.ws, query.wt],
    }


def _answer(result: QueryResult) -> list[list[Any]]:
    return [[entry.obj.oid, entry.score] for entry in result.entries]


def _preference(refinement) -> dict[str, Any]:
    return {
        "query": _query(refinement.refined_query),
        "penalty": refinement.penalty,
        "delta_k": refinement.delta_k,
        "delta_w": refinement.delta_w,
        "worst": [refinement.initial_worst_rank, refinement.refined_worst_rank],
        "crossovers": refinement.crossovers,
        "candidates": refinement.candidates_evaluated,
        "method": refinement.method,
    }


def _keyword(refinement) -> dict[str, Any]:
    stats = refinement.stats
    return {
        "query": _query(refinement.refined_query),
        "penalty": refinement.penalty,
        "delta_k": refinement.delta_k,
        "delta_doc": refinement.delta_doc,
        "worst": [refinement.initial_worst_rank, refinement.refined_worst_rank],
        "method": refinement.method,
        "candidates": [
            stats.candidates_generated, stats.candidates_pruned,
            stats.candidates_evaluated, stats.edit_levels_explored,
        ],
        "prune_ratio": stats.prune_ratio,
        "nodes": [stats.nodes_expanded, stats.nodes_resolved_by_bounds],
        "objects_scored": stats.objects_scored,
    }


def _search(engine: BestFirstTopK, brute: BruteForceTopK, queries) -> list[dict[str, Any]]:
    """Each query's best-first answer and work; the answer must be brute force's."""
    runs = []
    for query in queries:
        result = engine.search(query)
        if _answer(result) != _answer(brute.search(query)):
            raise AssertionError(f"best-first differs from brute force on {query}")
        stats = engine.stats
        runs.append({
            "answer": _answer(result),
            "nodes_expanded": stats.nodes_expanded,
            "objects_scored": stats.objects_scored,
        })
    return runs


def e2() -> dict[str, Any]:
    sweep = []
    for n in (1_000, 5_000):
        database = SyntheticDatasetBuilder(seed=2).build(
            n, vocabulary_size=max(50, n // 50), doc_length=(3, 8)
        )
        tree = KcRTree.build(database, max_entries=32)
        leaves = list(tree.iter_levels())[-1]
        sweep.append({
            "n": n, "nodes": tree.node_count(), "height": tree.height(),
            "root_map_keys": len(tree.root.summary.keyword_counts),
            "leaf_map_keys": sum(len(leaf.summary.keyword_counts) for leaf in leaves),
            "leaves": len(leaves),
        })
    database = build_database(SMOKE_N)
    summary = KcRTree.build(database, max_entries=32).root.summary
    keywords = frozenset(sorted(database.vocabulary())[:4])
    return {
        "structure": sweep,
        "root_bounds": {
            "keywords": sorted(keywords),
            "overlap_at_least_2": summary.count_with_overlap_at_least(keywords, 2),
            "containing_all": summary.count_containing_all(keywords),
            "containing_any_upper": summary.count_containing_any_upper(keywords),
        },
    }


def e3(database, scorer, setrtree) -> dict[str, Any]:
    engine, brute = BestFirstTopK(setrtree, scorer), BruteForceTopK(scorer)
    return {
        "by_k": {
            str(k): _search(engine, brute, QueryWorkload(database, seed=31, k=k).queries(5))
            for k in (1, 3, 10, 50)
        },
        "by_keywords": {
            str(count): _search(engine, brute, QueryWorkload(
                database, seed=33, k=10, keywords_per_query=(count, count)
            ).queries(5))
            for count in (1, 2, 4)
        },
        "by_bias": {
            bias: _search(engine, brute, QueryWorkload(
                database, seed=34, k=10, keyword_bias=bias
            ).queries(5))
            for bias in ("frequency", "uniform")
        },
    }


def e4(scorer, scenarios) -> dict[str, Any]:
    adjuster = PreferenceAdjuster(scorer)
    exact = [adjuster.refine(s.query, s.missing) for s in scenarios]
    sampling = {}
    for samples in (50, 200, 800):
        sampler = SamplingPreferenceAdjuster(scorer, samples=samples)
        sampled = [sampler.refine(s.query, s.missing) for s in scenarios]
        sampling[str(samples)] = {
            "refinements": [_preference(r) for r in sampled],
            "gaps": [r.penalty - e.penalty for r, e in zip(sampled, exact)],
        }
    by_k = {}
    for k in (3, 10, 30):
        cases = generate_whynot_scenarios(
            scorer, count=2, k=k, missing_count=1, rank_window=40, seed=41
        )
        by_k[str(k)] = [_preference(adjuster.refine(s.query, s.missing)) for s in cases]
    return {
        "exact": [_preference(r) for r in exact],
        "sampling": sampling,
        "by_k": by_k,
    }


def e5(scorer, kcrtree, scenarios) -> dict[str, Any]:
    adapter = KcRTreeKeywordAdapter(scorer, kcrtree)
    baseline = ExhaustiveKeywordAdapter(scorer)
    pairs = []
    for scenario in scenarios:
        pruned = adapter.refine(scenario.query, scenario.missing)
        exhaustive = baseline.refine(scenario.query, scenario.missing)
        pairs.append({"bound_prune": _keyword(pruned), "exhaustive": _keyword(exhaustive)})
    by_query_keywords = {}
    for count in (2, 3, 4):
        cases = generate_whynot_scenarios(
            scorer, count=1, k=10, missing_count=1, rank_window=40,
            seed=51, keywords_per_query=(count, count),
        )
        by_query_keywords[str(count)] = [
            _keyword(adapter.refine(s.query, s.missing)) for s in cases
        ]
    scenario = scenarios[0]
    return {
        "bound_prune_vs_exhaustive": pairs,
        "by_query_keywords": by_query_keywords,
        "by_lambda": {
            str(lam): _keyword(adapter.refine(scenario.query, scenario.missing, lam=lam))
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9)
        },
    }


def e6(scorer, kcrtree, scenarios) -> dict[str, Any]:
    engine = YaskEngine(hong_kong_hotels())
    query = engine.make_query(Point(114.1722, 22.2975), {"clean", "comfortable"}, 3)
    hotels = {
        str(lam): {
            "preference": _preference(
                engine.refine_preference(query, [GRAND_VICTORIA], lam=lam)
            ),
            "keyword": _keyword(engine.refine_keywords(query, [GRAND_VICTORIA], lam=lam)),
        }
        for lam in LAMBDAS
    }
    adjuster = PreferenceAdjuster(scorer)
    adapter = KcRTreeKeywordAdapter(scorer, kcrtree)
    contexts = [WhyNotContext(scorer, s.query, s.missing) for s in scenarios]
    synthetic = {
        str(lam): [
            {
                "preference": _preference(
                    adjuster.refine(s.query, s.missing, lam=lam, context=context)
                ),
                "keyword": _keyword(adapter.refine(s.query, s.missing, lam=lam)),
            }
            for s, context in zip(scenarios, contexts)
        ]
        for lam in LAMBDAS
    }
    return {"hotels": hotels, "synthetic": synthetic}


def e7() -> list[dict[str, Any]]:
    rows = []
    for n in (2_000, 5_000):
        database = build_database(n)
        scorer = Scorer(database)
        engine = BestFirstTopK(SetRTree.build(database, max_entries=32), scorer)
        queries = QueryWorkload(database, seed=74, k=10, keyword_bias="uniform").queries(5)
        scenario = generate_whynot_scenarios(
            scorer, count=1, k=10, missing_count=1, rank_window=40, seed=75
        )[0]
        kcr = KcRTree.build(database, max_entries=32)
        rows.append({
            "n": n,
            "topk": _search(engine, BruteForceTopK(scorer), queries),
            "preference": _preference(
                PreferenceAdjuster(scorer).refine(scenario.query, scenario.missing)
            ),
            "keyword": _keyword(
                KcRTreeKeywordAdapter(scorer, kcr).refine(scenario.query, scenario.missing)
            ),
        })
    return rows


def e8(database, scorer, setrtree, scenarios) -> dict[str, Any]:
    brute = BruteForceTopK(scorer)
    queries = list(QueryWorkload(database, seed=83, k=10).queries(5))
    fanout = {}
    for entries in (8, 32, 128):
        tree = SetRTree.build(database, max_entries=entries)
        fanout[str(entries)] = _search(BestFirstTopK(tree, scorer), brute, queries)
    scenario = scenarios[0]
    return {
        "keyword_bounds": _search(BestFirstTopK(setrtree, scorer), brute, queries),
        "mindist_only": _search(
            BestFirstTopK(_MindistOnlyIndex(setrtree), scorer), brute, queries
        ),
        "fanout": fanout,
        "crossovers": {
            label: _preference(
                adjuster(scorer).refine(scenario.query, scenario.missing)
            )
            for adjuster, label in (
                (PreferenceAdjuster, "dual_view"), (LinearPreferenceAdjuster, "linear_scan")
            )
        },
        # The paper's two range queries over a dual R-tree: the set path
        # has no levelled view to answer them.
        "dual_rtree": _preference(
            DualIndexPreferenceAdjuster(Scorer(database, use_kernel=False)).refine(
                scenario.query, scenario.missing
            )
        ),
    }


def record() -> dict[str, Any]:
    """The record document (see the module docstring)."""
    database = build_database(SMOKE_N)
    scorer = Scorer(database)
    setrtree = SetRTree.build(database, max_entries=32)
    kcrtree = KcRTree.build(database, max_entries=32)
    scenarios = generate_whynot_scenarios(
        scorer, count=3, k=10, missing_count=2, rank_window=40, seed=99
    )
    return {
        "smoke_n": SMOKE_N,
        "e2": e2(),
        "e3": e3(database, scorer, setrtree),
        "e4": e4(scorer, scenarios),
        "e5": e5(scorer, kcrtree, scenarios),
        "e6": e6(scorer, kcrtree, scenarios),
        "e7": e7(),
        "e8": e8(database, scorer, setrtree, scenarios),
    }


def _first_difference(got: Any, want: Any, path: str = "") -> str | None:
    if type(got) is not type(want):
        return f"{path or '/'}: {want!r} -> {got!r}"
    if isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}/{key}: only in {'record' if key in want else 'this run'}"
            found = _first_difference(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: {len(want)} entries -> {len(got)}"
        for index, (a, b) in enumerate(zip(got, want)):
            found = _first_difference(a, b, f"{path}/{index}")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {want!r} -> {got!r}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"regenerate {RECORD.relative_to(RECORD.parent.parent.parent)} "
        "instead of comparing against it",
    )
    args = parser.parse_args(argv)
    text = json.dumps(record(), indent=1, sort_keys=True) + "\n"
    if args.write:
        RECORD.parent.mkdir(parents=True, exist_ok=True)
        RECORD.write_text(text, encoding="utf-8")
        print(f"paper record written: {RECORD}")
        return 0
    if not RECORD.exists():
        print(f"paper record missing: {RECORD} (regenerate with --write)", file=sys.stderr)
        return 1
    recorded = RECORD.read_text(encoding="utf-8")
    if text == recorded:
        print("paper record ok: E2-E8 compute the recorded answers and work")
        return 0
    difference = _first_difference(json.loads(text), json.loads(recorded))
    print(f"paper record differs at {difference}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
