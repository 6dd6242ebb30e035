"""Deterministic work budgets for the why-not view and the top-k scan.

Fixed-seed streams through ``YaskEngine`` on a 3 000-object clustered
corpus (the E16 corpus's shape at a smaller size): 50 why-not sessions
(an explanation without an initial result, then one refinement) and
200 cold top-k queries.  The counters are deterministic, so a change
that re-widens the view (rows given a ``hypot`` per view) or the scan
(index columns walked per scan) fails here rather than surfacing as a
benchmark drift.  The ceilings sit above the counts measured when they
were set — 218 rows per view and 4.9 columns per cold scan, where the
eager view scored 473 and the column walk without peeling took 8.0 —
with headroom for a stream that shifts a little.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine

ROWS_PER_VIEW = 300
COLUMNS_PER_COLD_SCAN = 6.0
REFINEMENTS = ("refine_preference", "refine_keywords", "refine_combined")


@pytest.fixture(scope="module")
def engine():
    database = SyntheticDatasetBuilder(seed=2016).build(
        3000, vocabulary_size=200, doc_length=(3, 8), spatial="clustered", clusters=12
    )
    engine = YaskEngine(database)
    yield engine
    engine.close()


def test_whynot_sessions_stay_within_their_view_budget(engine):
    scenarios = generate_whynot_scenarios(
        engine.scorer, count=50, k=10, missing_count=1, seed=1, rank_window=20
    )
    stats = engine.kernel.stats
    stats.reset()
    for turn, scenario in enumerate(scenarios):
        missing = [obj.oid for obj in scenario.missing]
        engine.explain(scenario.query, missing)
        getattr(engine, REFINEMENTS[turn % 3])(scenario.query, missing)
    counts = stats.to_dict()
    assert counts["full_passes"] == 0
    assert counts["dual_views"] >= len(scenarios)
    assert counts["dual_view_rows"] <= ROWS_PER_VIEW * counts["dual_views"]


def test_cold_queries_stay_within_their_scan_budget(engine):
    stats = engine.kernel.stats
    stats.reset()
    for query in QueryWorkload(engine.database, seed=7, k=10).queries(200):
        engine.query(query)
    counts = stats.to_dict()
    assert counts["scan_calls"] == 200
    assert counts["scan_columns_visited"] <= COLUMNS_PER_COLD_SCAN * counts["scan_calls"]
