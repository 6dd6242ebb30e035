"""E11 — the columnar scoring kernel vs. the object-at-a-time path.

PRs 1-2 made the *serving* tier fast; every cache miss still paid
object-at-a-time Python scoring for the Eqn. (1)/(3) hot loops.  The
kernel (interned keyword bitsets + flat coordinate arrays,
``repro.core.kernel``) attacks exactly those loops, and this experiment
asserts the acceptance floors against the pre-kernel path at 10k
objects:

* full-scan ``rank_all`` at least 3x faster, and
* a cold why-not question (preference model) at least 2x faster,

and, as ratios between two kernel-backed paths that hold on any host,
the TSim-levelled dual view against the O(n) reference that stays in
the tree as the kernel-less path:

* ``DualView.ranks_at`` at 20k objects at least 10x a
  ``repro.paper.ranks_at_weights`` pass over the dual points, and
* ``PreferenceAdjuster.refine`` at least 2x its linear ablation,
  ``repro.paper.LinearPreferenceAdjuster`` (DualPoint list, linear
  crossover retrieval, linear ranks),
* the indexed ``scan_top_k`` at 20k objects at least 5x the reference
  full scan it replaced (``scalar_scores`` + ``nsmallest``),
* a dual view for one missing object at ranks 11-30 at 20k objects
  built at least 5x faster than ``dual_points_all``, the reference
  pass that scores every row,

with bit-for-bit parity assertions — identical scores, tie order and
refinements — plus a SearchStats check that best-first search does the
*same* index work either way (the kernel changes how leaf entries are
scored, never which nodes are visited).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_e11_kernel.py -q``
(add ``-s`` for the speedup tables).
"""

from __future__ import annotations

from dataclasses import replace
from heapq import nsmallest
from operator import neg

import pytest

from benchmarks.conftest import build_database
from repro.bench.harness import Table, time_call
from repro.bench.workloads import (
    QueryWorkload,
    first_view_reads,
    generate_whynot_scenarios,
)
from repro.core.query import Weights
from repro.core.scoring import Scorer
from repro.paper import (
    BestFirstTopK,
    DualIndexPreferenceAdjuster,
    LinearPreferenceAdjuster,
    ranks_at_weights,
)
from repro.whynot.preference import PreferenceAdjuster

#: Acceptance floors (ISSUE 3): kernel speedup over the pre-kernel path.
RANK_ALL_FLOOR = 3.0
WHYNOT_FLOOR = 2.0
#: Acceptance floors (ISSUE 17): levelled dual view over the linear
#: reference, both on the kernel's columns.
LEVELLED_RANKS_FLOOR = 10.0
LEVELLED_REFINE_FLOOR = 2.0
#: Acceptance floor: the scan index over the full scan it replaced,
#: both on one kernel's columns.  Rule fixed before measuring: the
#: minimum speedup over five runs, rounded down to a multiple of 0.5
#: (16.0-20.6x measured since the scan walks buckets of one exact TSim,
#: 114 rows scored per scan; ~13x and 281 rows under the per-level
#: bound before).
INDEXED_SCAN_FLOOR = 16.0
#: Acceptance floor: a dual view read off the scan index for one missing
#: object at ranks 11-30 over the reference pass that scores every row.
#: Rule fixed before measuring: the minimum speedup over five runs,
#: rounded down to a multiple of 0.5 (15.0-18.4x measured since the
#: view splits keyword levels by doc length; 5.4-7.4x before).  Since
#: views score their rows as they are asked, the timed work is a fresh
#: view, its target's rank and the nearest crossovers of its rank walk
#: (16.7-31.9x measured on a shared 2-core host).
TARGET_VIEW_FLOOR = 15.0


@pytest.fixture(scope="module")
def fast_scorer(bench_db):
    scorer = Scorer(bench_db)
    assert scorer.kernel is not None, "bench model must have a kernel"
    return scorer


@pytest.fixture(scope="module")
def slow_scorer(bench_db):
    return Scorer(bench_db, use_kernel=False)


@pytest.fixture(scope="module")
def db_20k():
    return build_database(20_000)


@pytest.fixture(scope="module")
def kernel_queries(bench_db):
    workload = QueryWorkload(bench_db, seed=17, k=10, keywords_per_query=(2, 3))
    return list(workload.queries(5))


def test_e11_rank_all_3x(fast_scorer, slow_scorer, kernel_queries):
    """Acceptance: full-scan ranking >= 3x, with bit-identical output."""
    queries = kernel_queries[:3]
    fast_rankings, fast_timing = time_call(
        lambda: [fast_scorer.rank_all(q) for q in queries], repeat=5
    )
    slow_rankings, slow_timing = time_call(
        lambda: [slow_scorer.rank_all(q) for q in queries], repeat=5
    )

    # Parity first: every entry identical — object, score, sdist, tsim, rank.
    for fast_ranking, slow_ranking in zip(fast_rankings, slow_rankings):
        assert [tuple(e) for e in fast_ranking] == [
            tuple(e) for e in slow_ranking
        ]

    speedup = slow_timing.best / fast_timing.best
    table = Table(
        "path", "best_ms", "median_ms", title="E11: full-scan rank_all (10k x 3 queries)"
    )
    table.add_row("object-at-a-time", slow_timing.best_ms, slow_timing.median_ms)
    table.add_row("columnar kernel", fast_timing.best_ms, fast_timing.median_ms)
    table.add_row(f"speedup {speedup:.2f}x (floor {RANK_ALL_FLOOR}x)", "", "")
    table.print()
    assert speedup >= RANK_ALL_FLOOR, (
        f"kernel rank_all only {speedup:.2f}x faster "
        f"({fast_timing.best_ms:.1f}ms vs {slow_timing.best_ms:.1f}ms)"
    )


def test_e11_cold_whynot_preference_2x(fast_scorer, slow_scorer):
    """Acceptance: cold preference-model why-not >= 2x, same refinements."""
    scenarios = generate_whynot_scenarios(
        fast_scorer, count=2, k=10, missing_count=2, rank_window=40, seed=99
    )
    fast_adjuster = PreferenceAdjuster(fast_scorer)
    slow_adjuster = DualIndexPreferenceAdjuster(slow_scorer)

    def run(adjuster):
        return [
            adjuster.refine(s.query, s.missing, lam=0.5) for s in scenarios
        ]

    fast_refined, fast_timing = time_call(lambda: run(fast_adjuster), repeat=5)
    slow_refined, slow_timing = time_call(lambda: run(slow_adjuster), repeat=5)

    # The whole refinement must agree: query, penalty, ranks, diagnostics.
    assert fast_refined == slow_refined

    speedup = slow_timing.best / fast_timing.best
    table = Table(
        "path", "best_ms", "median_ms",
        title="E11: cold why-not, preference model (10k x 2 scenarios)",
    )
    table.add_row("object-at-a-time", slow_timing.best_ms, slow_timing.median_ms)
    table.add_row("columnar kernel", fast_timing.best_ms, fast_timing.median_ms)
    table.add_row(f"speedup {speedup:.2f}x (floor {WHYNOT_FLOOR}x)", "", "")
    table.print()
    assert speedup >= WHYNOT_FLOOR, (
        f"kernel cold why-not only {speedup:.2f}x faster "
        f"({fast_timing.best_ms:.1f}ms vs {slow_timing.best_ms:.1f}ms)"
    )


def test_e11_levelled_ranks_at_10x(db_20k, kernel_queries):
    """Acceptance: a levelled rank at 20k >= 10x the linear pass."""
    scorer = Scorer(db_20k)
    query = kernel_queries[0]
    duals = scorer.dual_points(query)
    targets = duals[:: len(duals) // 3][:3]
    oids = [dual.oid for dual in targets]
    weightings = [Weights.from_spatial(step / 18) for step in range(1, 18)]

    def levelled_ranks():
        """A fresh view each time: a view scores the rows its ranks need
        as they are asked for, so a reused one would time only lookups."""
        view = scorer.kernel.dual_view(query, oids)
        return [view.ranks_at(w.ws, w.wt, oids) for w in weightings]

    levelled, levelled_timing = time_call(levelled_ranks, repeat=5)
    linear, linear_timing = time_call(
        lambda: [
            dict(ranks_at_weights(w, targets, duals))
            for w in weightings
        ],
        repeat=3,
    )
    assert levelled == linear

    speedup = linear_timing.best / levelled_timing.best
    table = Table(
        "path", "best_ms", "median_ms",
        title="E11: 17 rank evaluations x 3 targets in dual space (20k)",
    )
    table.add_row("linear reference", linear_timing.best_ms, linear_timing.median_ms)
    table.add_row("levelled view", levelled_timing.best_ms, levelled_timing.median_ms)
    table.add_row(f"speedup {speedup:.1f}x (floor {LEVELLED_RANKS_FLOOR}x)", "", "")
    table.print()
    assert speedup >= LEVELLED_RANKS_FLOOR, (
        f"levelled ranks_at only {speedup:.1f}x the linear pass "
        f"({levelled_timing.best_ms:.2f}ms vs {linear_timing.best_ms:.1f}ms)"
    )


def test_e11_indexed_scan_top_k_5x(db_20k):
    """Acceptance: the indexed scan_top_k at 20k >= INDEXED_SCAN_FLOOR x
    the full scan."""
    database = db_20k
    kernel = Scorer(database).kernel
    workload = QueryWorkload(database, seed=17, k=10, keywords_per_query=(1, 3))
    queries = list(workload.queries(12))
    prepared = [(query.k, kernel._query_scalars(query)) for query in queries]

    def full_scan(k, scalars):
        """The reference: one score pass and a bounded heap selection."""
        return nsmallest(
            k, zip(map(neg, kernel.scalar_scores(*scalars)), kernel.oids)
        )

    kernel.scan_top_k(prepared[0][0], *prepared[0][1])  # builds the index
    indexed, indexed_timing = time_call(
        lambda: [kernel.scan_top_k(k, *scalars) for k, scalars in prepared],
        repeat=5,
    )
    reference, reference_timing = time_call(
        lambda: [full_scan(k, scalars) for k, scalars in prepared], repeat=3
    )
    # The scan's rows carry the components its score was summed from.
    assert [[row[:2] for row in rows] for rows in indexed] == reference
    for query, rows in zip(queries, indexed):
        sdists, tsims, _ = kernel.components_all(query)
        by_oid = {oid: (sdists[row], tsims[row]) for row, oid in enumerate(kernel.oids)}
        assert [row[2:] for row in rows] == [by_oid[row[1]] for row in rows]

    stats = kernel.stats.to_dict()
    speedup = reference_timing.best / indexed_timing.best
    table = Table(
        "path", "best_ms", "median_ms",
        title=f"E11: scan_top_k, {len(prepared)} queries at k=10 (20k)",
    )
    table.add_row("full scan (reference)", reference_timing.best_ms,
                  reference_timing.median_ms)
    table.add_row("scan index", indexed_timing.best_ms, indexed_timing.median_ms)
    table.add_row(
        f"speedup {speedup:.1f}x (floor {INDEXED_SCAN_FLOOR}x), "
        f"{stats['scan_rows_scored'] // stats['scan_calls']} of "
        f"{len(database)} rows scored per scan", "", "",
    )
    table.print()
    assert speedup >= INDEXED_SCAN_FLOOR, (
        f"indexed scan_top_k only {speedup:.1f}x the full scan "
        f"({indexed_timing.best_ms:.2f}ms vs {reference_timing.best_ms:.1f}ms)"
    )


def test_e11_target_view_builds_5x(db_20k):
    """Acceptance: a dual view for one missing object at ranks 11-30 at
    20k, asked for the object's rank and the eight crossovers nearest
    ``q.ws`` on each side of its rank walk, >= TARGET_VIEW_FLOOR x faster
    than the reference pass over every row.  Each repeat builds fresh
    views: a view scores its rows as it is asked."""
    scorer = Scorer(db_20k)
    kernel = scorer.kernel
    workload = QueryWorkload(db_20k, seed=17, k=10, keywords_per_query=(2, 3))
    cases = []
    for place, query in enumerate(workload.queries(5)):
        entry = scorer.rank_all(query)[10 + 4 * place]  # ranks 11, 15, ..., 27
        cases.append((query, entry.obj.oid, entry.rank))
    kernel.dual_view(cases[0][0], [cases[0][1]])  # builds the scan index
    kernel.stats.reset()
    reads, view_timing = time_call(
        lambda: [first_view_reads(kernel, query, oid) for query, oid, _ in cases],
        repeat=5,
    )
    rows_per_view = kernel.stats.dual_view_rows / kernel.stats.dual_views
    passes, pass_timing = time_call(
        lambda: [kernel.dual_points_all(query) for query, _, _ in cases], repeat=5
    )
    # The view ranks the target as the reference does, and so does its walk.
    for (rank, walked, _), duals, (query, oid, expected) in zip(reads, passes, cases):
        view = kernel.dual_view(query, [oid])
        assert view.dual_points_of([oid]) == [d for d in duals if d.oid == oid]
        assert rank == walked == expected

    speedup = pass_timing.best / view_timing.best
    table = Table(
        "path", "best_ms", "median_ms",
        title=f"E11: {len(cases)} dual views, one target at ranks 11-30 (20k)",
    )
    table.add_row("dual_points_all (reference)", pass_timing.best_ms,
                  pass_timing.median_ms)
    table.add_row("view + rank + walk", view_timing.best_ms, view_timing.median_ms)
    table.add_row(
        f"speedup {speedup:.1f}x (floor {TARGET_VIEW_FLOOR}x), "
        f"{rows_per_view:.0f} of {len(db_20k)} rows scored per view", "", "",
    )
    table.print()
    assert speedup >= TARGET_VIEW_FLOOR, (
        f"target view only {speedup:.1f}x the reference pass "
        f"({view_timing.best_ms:.2f}ms vs {pass_timing.best_ms:.1f}ms)"
    )


def test_e11_refine_2x_linear_ablation(fast_scorer):
    """Acceptance: refine >= 2x its linear ablation."""
    scenarios = generate_whynot_scenarios(
        fast_scorer, count=2, k=10, missing_count=2, rank_window=40, seed=99
    )
    levelled = PreferenceAdjuster(fast_scorer)
    ablation = LinearPreferenceAdjuster(fast_scorer)

    def run(adjuster):
        return [
            adjuster.refine(s.query, s.missing, lam=0.5) for s in scenarios
        ]

    refined, timing = time_call(lambda: run(levelled), repeat=5)
    ablated, ablation_timing = time_call(lambda: run(ablation), repeat=3)
    # Same refinement; only the reported retrieval method differs.
    assert refined == [replace(r, method="weight-sweep") for r in ablated]

    speedup = ablation_timing.best / timing.best
    table = Table(
        "path", "best_ms", "median_ms",
        title="E11: PreferenceAdjuster.refine (10k x 2 scenarios)",
    )
    table.add_row("linear ablation", ablation_timing.best_ms,
                  ablation_timing.median_ms)
    table.add_row("levelled view", timing.best_ms, timing.median_ms)
    table.add_row(f"speedup {speedup:.2f}x (floor {LEVELLED_REFINE_FLOOR}x)", "", "")
    table.print()
    assert speedup >= LEVELLED_REFINE_FLOOR, (
        f"refine only {speedup:.2f}x its linear ablation "
        f"({timing.best_ms:.1f}ms vs {ablation_timing.best_ms:.1f}ms)"
    )


def test_e11_best_first_same_search_stats(
    bench_setrtree, fast_scorer, slow_scorer, kernel_queries
):
    """Kernel leaf scoring changes *how* leaves are scored, not *which*.

    SearchStats must be identical between the two scorers — same nodes
    expanded, same objects scored, same heap pushes — and the kernel's
    own counter must attribute exactly those leaf scorings.
    """
    fast_engine = BestFirstTopK(bench_setrtree, fast_scorer)
    slow_engine = BestFirstTopK(bench_setrtree, slow_scorer)
    fast_scorer.kernel.stats.reset()
    point_scores = 0
    for query in kernel_queries:
        fast_result = fast_engine.search(query)
        slow_result = slow_engine.search(query)
        assert [tuple(e) for e in fast_result] == [
            tuple(e) for e in slow_result
        ]
        assert fast_engine.stats == slow_engine.stats
        point_scores += fast_engine.stats.objects_scored
    assert fast_scorer.kernel.stats.point_scores == point_scores


def test_e11_batch_primitives_parity(fast_scorer, slow_scorer, kernel_queries):
    """score_all / rank_of_many / dual_points agree with the oracle."""
    query = kernel_queries[0]
    kernel = fast_scorer.kernel
    scores = kernel.score_all(query)
    database = fast_scorer.database
    for row, obj in enumerate(database):
        assert scores[row] == slow_scorer.score(obj, query)
    sample = [obj.oid for obj in list(database.objects)[:: len(database) // 7]]
    ranks = kernel.rank_of_many(sample, query)
    for oid in sample:
        assert ranks[oid] == slow_scorer.rank_of(database.get(oid), query)
    assert fast_scorer.dual_points(query) == slow_scorer.dual_points(query)
