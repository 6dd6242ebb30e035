"""Property suite: the process worker pool is bit-for-bit the thread path.

The proc tier (``shard_workers="proc"``) must be *undetectable* from
results: same top-k entries in the same tie order, same why-not
answers, and the same scatter statistics (scanned/skipped counts) as
the threaded scatter oracle — across random databases, random mutation
histories and every shard count.  Workers scan shared-memory column
attachments and replay generation-stamped deltas, so any drift here
means a torn or stale generation was served.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.service.api import YaskEngine
from tests.properties.strategies import (
    ALPHABET,
    coordinates,
    databases,
    databases_with_queries,
    queries,
)

pytestmark = pytest.mark.slow

shard_counts = st.integers(min_value=1, max_value=4)

#: Mutation docs reach beyond the build-time alphabet so histories
#: exercise vocabulary growth (new mask bits) across the pipe protocol.
FRESH_WORDS = [f"fresh{i}" for i in range(4)]
mutation_docs = st.sets(
    st.sampled_from(ALPHABET + FRESH_WORDS), min_size=1, max_size=5
).map(frozenset)


def copy_database(database: SpatialDatabase) -> SpatialDatabase:
    """An independent database over the same objects and dataspace.

    The proc and oracle engines must not share mutable state — each
    applies the same mutation history to its own copy.
    """
    return SpatialDatabase(database.objects, dataspace=database.dataspace)


def entries(result) -> list[tuple]:
    return [tuple(entry) for entry in result]


def make_pair(database, shards):
    """(proc engine, threaded oracle engine) over equal databases.

    The oracle forces ``shard_workers=2`` so it takes the *parallel*
    scatter shape (first shard sets the threshold, survivors fan) —
    the shape the proc path mirrors — rather than the sequential
    adaptive gather a single-core host would default to; scanned and
    skipped counters are only comparable between like shapes.
    """
    proc = YaskEngine(
        copy_database(database), shards=shards, shard_workers="proc"
    )
    oracle = YaskEngine(copy_database(database), shards=shards, shard_workers=2)
    return proc, oracle


def scatter_counters(engine) -> tuple[float, float]:
    stats = engine.shard_router.stats.to_dict()
    return stats["topk_shards_scanned"], stats["topk_shards_skipped"]


def draw_batches(draw, database: SpatialDatabase) -> list[list[Mutation]]:
    """1-3 batches of 1-5 valid mutations against the live id set."""
    live = {obj.oid for obj in database.objects}
    next_oid = max(live) + 1
    batches: list[list[Mutation]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch: list[Mutation] = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            kind = draw(
                st.sampled_from(["insert", "insert", "update", "delete"])
            )
            if kind == "insert" or len(live) <= 2:
                obj = SpatialObject(
                    next_oid,
                    Point(draw(coordinates), draw(coordinates)),
                    draw(mutation_docs),
                )
                next_oid += 1
                live.add(obj.oid)
                batch.append(Mutation.insert(obj))
            elif kind == "update":
                oid = draw(st.sampled_from(sorted(live)))
                batch.append(
                    Mutation.update(
                        SpatialObject(
                            oid,
                            Point(draw(coordinates), draw(coordinates)),
                            draw(mutation_docs),
                        )
                    )
                )
            else:
                oid = draw(st.sampled_from(sorted(live)))
                live.discard(oid)
                batch.append(Mutation.delete(oid))
        if batch:
            batches.append(batch)
    return batches


@settings(max_examples=20, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts)
def test_procpool_topk_matches_threaded_oracle(data, shards):
    """Entries, tie order and scatter counters are all identical."""
    database, query = data
    proc, oracle = make_pair(database, shards)
    inline = YaskEngine(copy_database(database), shards=shards, shard_workers=1)
    try:
        expected = entries(oracle.query(query))
        assert entries(proc.query(query)) == expected
        # One shard per wave prunes more than a fan-out can, so the
        # inline gather agrees on the answer, not on the counters.
        assert entries(inline.query(query)) == expected
        assert scatter_counters(proc) == scatter_counters(oracle)
    finally:
        proc.close()
        oracle.close()
        inline.close()


@settings(max_examples=15, deadline=None)
@given(
    data=databases_with_queries(),
    shards=shard_counts,
    cut=st.sampled_from(["below", "at", "above"]),
)
def test_procpool_scan_floor_crosses_the_pipe(data, shards, cut):
    """A worker cuts its scan at the floor exactly as the shard kernel does."""
    database, query = data
    proc = YaskEngine(
        copy_database(database), shards=shards, shard_workers="proc"
    )
    try:
        kth = proc.query(query).entries[-1].score
        floor = {"below": kth - 0.25, "at": kth, "above": kth + 1e-3}[cut]
        router = proc.shard_router
        over_the_pipe = proc.worker_pool.scan_many(
            [
                (shard, query.k, shard.kernel._query_scalars(query), floor)
                for shard in router.shards
            ]
        )
        for shard in router.shards:
            in_process = proc.topk_engine._scan_shard(
                shard, query, query.k, floor
            )
            assert over_the_pipe[shard.shard_id] == in_process
            assert all(-negscore >= floor for negscore, _ in in_process)
    finally:
        proc.close()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    db=databases(min_size=4, max_size=24),
    query=queries(k_max=6),
    shards=shard_counts,
    data=st.data(),
)
def test_procpool_matches_oracle_through_mutation_history(
    db, query, shards, data
):
    """After every batch the workers serve the post-batch generation.

    Both engines apply an identical random mutation history; a query
    after each batch must agree bit for bit, which fails if a worker
    ever serves a torn, stale or mis-encoded delta.
    """
    proc, oracle = make_pair(db, shards)
    try:
        batches = draw_batches(data.draw, db)
        for batch in batches:
            proc.apply_mutations(list(batch))
            oracle.apply_mutations(list(batch))
            assert [tuple(e) for e in proc.query(query)] == [
                tuple(e) for e in oracle.query(query)
            ]
        assert scatter_counters(proc) == scatter_counters(oracle)
        pool_stats = proc.worker_pool.to_dict()
        assert pool_stats["restarts"] == 0
    finally:
        proc.close()
        oracle.close()


@settings(max_examples=8, deadline=None)
@given(
    db=databases(min_size=6, max_size=30),
    query=queries(k_max=3),
    shards=shard_counts,
    lam=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_procpool_whynot_matches_oracle(db, query, shards, lam):
    """Whole why-not answers agree across the process boundary."""
    proc, oracle = make_pair(db, shards)
    try:
        ranking = oracle.scorer.rank_all(query)
        outside = [entry.obj for entry in ranking[query.k :]]
        if not outside:
            return
        missing = [outside[0].oid]
        expected = oracle.why_not(query, missing, lam=lam)
        actual = proc.why_not(query, missing, lam=lam)
        assert actual.preference == expected.preference
        assert actual.keyword == expected.keyword
        assert actual.best_model == expected.best_model
        assert (
            actual.explanation.worst_rank == expected.explanation.worst_rank
        )
        assert [
            (e.obj.oid, e.rank, e.reason)
            for e in actual.explanation.explanations
        ] == [
            (e.obj.oid, e.rank, e.reason)
            for e in expected.explanation.explanations
        ]
    finally:
        proc.close()
        oracle.close()


@settings(max_examples=10, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts)
def test_procpool_frees_segments_on_close(data, shards):
    """Shutdown unlinks every shared-memory segment it created."""
    import os

    database, query = data
    proc = YaskEngine(
        copy_database(database), shards=shards, shard_workers="proc"
    )
    try:
        proc.query(query)
        names = proc.worker_pool.segment_names()
        assert len(names) == len(proc.shard_router.shards)
    finally:
        proc.close()
    leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
    assert leaked == []
