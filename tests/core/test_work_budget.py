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

The same streams run once more after 48 batches of seven inserts near
existing objects, a 336-row tail under the index's rebuild threshold,
against the same ceilings: rows inserted since the build are filed into
their x-columns, so a view and a scan cost what they cost on a freshly
built index (238 rows per view; 555 when every inserted row was a
boundary row of every view).
"""

from __future__ import annotations

import random

import pytest

from repro.bench.workloads import QueryWorkload, generate_whynot_scenarios
from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialObject
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine

ROWS_PER_VIEW = 300
COLUMNS_PER_COLD_SCAN = 6.0
REFINEMENTS = ("refine_preference", "refine_keywords", "refine_combined")


#: The mutated case: this many batches of this many inserts, under the
#: 3 000-row index's rebuild threshold of 375 rows.
BATCHES, INSERTS = 48, 7


def new_engine() -> YaskEngine:
    database = SyntheticDatasetBuilder(seed=2016).build(
        3000, vocabulary_size=200, doc_length=(3, 8), spatial="clustered", clusters=12
    )
    return YaskEngine(database)


@pytest.fixture(scope="module")
def engine():
    engine = new_engine()
    yield engine
    engine.close()


def scenarios_of(engine):
    return generate_whynot_scenarios(
        engine.scorer, count=50, k=10, missing_count=1, seed=1, rank_window=20
    )


def cold_queries_of(engine):
    return list(QueryWorkload(engine.database, seed=7, k=10).queries(200))


def check_view_budget(engine, scenarios):
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


def check_scan_budget(engine, queries):
    stats = engine.kernel.stats
    stats.reset()
    for query in queries:
        engine.query(query)
    counts = stats.to_dict()
    assert counts["scan_calls"] == len(queries)
    assert counts["scan_columns_visited"] <= COLUMNS_PER_COLD_SCAN * counts["scan_calls"]


def test_whynot_sessions_stay_within_their_view_budget(engine):
    check_view_budget(engine, scenarios_of(engine))


def test_cold_queries_stay_within_their_scan_budget(engine):
    check_scan_budget(engine, cold_queries_of(engine))


def test_budgets_hold_after_inserts_since_the_index_build():
    """The same sessions and cold queries, asked after 336 inserts near
    existing objects landed in an already-built index."""
    engine = new_engine()
    try:
        database = engine.database
        scenarios, queries = scenarios_of(engine), cold_queries_of(engine)
        engine.query(scenarios[0].query)  # builds the kernel's scan index
        index = engine.kernel._scan_index
        rng = random.Random(45)
        vocabulary = sorted(database.keyword_document_frequencies())
        space, objects = database.dataspace, database.objects
        oid = 1_000_000
        for _ in range(BATCHES):
            batch = []
            for _ in range(INSERTS):
                anchor = objects[rng.randrange(len(objects))].loc
                x = anchor.x + rng.gauss(0.0, 0.005 * space.width)
                y = anchor.y + rng.gauss(0.0, 0.005 * space.height)
                doc = frozenset(rng.sample(vocabulary, 4))
                batch.append(Mutation.insert(SpatialObject(oid, Point(x, y), doc)))
                oid += 1
            engine.apply_mutations(batch)
        assert engine.kernel._scan_index is index  # filed into, not rebuilt
        check_view_budget(engine, scenarios)
        check_scan_budget(engine, queries)
    finally:
        engine.close()
