"""Property suite: the sharded engine is bit-for-bit the unsharded one.

Every sharded primitive — scatter-gather top-k, the pruned rank
primitives, the dual-space sweep substrate and whole why-not answers —
must produce *identical* values to the plain-kernel path (which PR 3's
suite in turn pins to the set-based semantics oracle).  Shard skipping
is only sound if no skipped shard could have contributed, so these
tests are the safety net for every bound in ``repro.core.sharding``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import Scorer
from repro.core.sharding import ShardRouter
from repro.service.api import YaskEngine
from repro.service.sharded import ShardedEngine
from tests.properties.strategies import databases, databases_with_queries, queries

shard_counts = st.integers(min_value=1, max_value=5)
partitioners = st.sampled_from(["grid", "round-robin"])


def make_pair(database, shards, partitioner):
    """(plain scorer, sharded scorer) over one database."""
    router = ShardRouter(
        database, shards=shards, partitioner=partitioner,
        text_model=Scorer(database).text_model,
    )
    return Scorer(database), Scorer(database, shard_router=router), router


@settings(max_examples=60, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts, part=partitioners)
def test_scatter_gather_topk_matches_oracle(data, shards, part):
    database, query = data
    plain, sharded, router = make_pair(database, shards, part)
    engine = ShardedEngine(router, sharded)
    expected = plain.top_k(query)
    actual = engine.search(query)
    assert [tuple(e) for e in actual] == [tuple(e) for e in expected]


@settings(max_examples=40, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts, part=partitioners)
def test_floor_cut_scans_merge_to_the_same_topk(data, shards, part):
    """What the scatter hands down is sound at every shard.

    A shard scan under the global k-th score as its inclusive floor is
    the uncut scan minus the pairs below the floor, so ties at the
    floor still reach the merge and compete on oid.
    """
    database, query = data
    plain, sharded, router = make_pair(database, shards, part)
    expected = plain.top_k(query)
    floor = expected[-1].score
    merged = []
    for shard in router.shards:
        uncut = ShardedEngine._scan_shard(shard, query, query.k)
        cut = ShardedEngine._scan_shard(shard, query, query.k, floor)
        assert cut == [pair for pair in uncut if -pair[0] >= floor]
        merged.extend(cut)
    assert [oid for _, oid in sorted(merged)[: query.k]] == [
        entry.obj.oid for entry in expected
    ]


@settings(max_examples=60, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts, part=partitioners)
def test_rank_primitives_match(data, shards, part):
    database, query = data
    plain, sharded, _ = make_pair(database, shards, part)
    for obj in database:
        assert sharded.rank_of(obj, query) == plain.rank_of(obj, query)
    targets = list(database.objects[:3])
    assert sharded.worst_rank(targets, query) == plain.worst_rank(
        targets, query
    )


@settings(max_examples=40, deadline=None)
@given(
    data=databases_with_queries(),
    shards=shard_counts,
    part=partitioners,
    ws=st.floats(min_value=0.02, max_value=0.98),
)
def test_dual_view_primitives_match(data, shards, part, ws):
    database, query = data
    plain, sharded, _ = make_pair(database, shards, part)
    oids = [obj.oid for obj in database.objects[:4]]
    plain_view = plain.kernel.dual_view(query, oids)
    sharded_view = sharded.kernel.dual_view(query, oids)

    # Both hold the same rows: every row the targets can meet, and only those.
    for dual in plain.dual_points(query):
        try:
            expected = plain_view.dual_points_of([dual.oid])
        except KeyError:
            with pytest.raises(KeyError):
                sharded_view.dual_points_of([dual.oid])
        else:
            assert sharded_view.dual_points_of([dual.oid]) == expected == [dual]

    wt = 1.0 - ws
    assert sharded_view.ranks_at(ws, wt, oids) == plain_view.ranks_at(
        ws, wt, oids
    )
    for oid in oids:
        assert sharded_view.crossing_candidates(
            oid
        ) == plain_view.crossing_candidates(oid)
        assert sharded_view.strictly_above_at_zero(
            oid
        ) == plain_view.strictly_above_at_zero(oid)
        assert sharded_view.permanent_ties_smaller(
            oid
        ) == plain_view.permanent_ties_smaller(oid)


@settings(max_examples=30, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts, part=partitioners)
def test_doc_rank_scans_match(data, shards, part):
    database, query = data
    plain, sharded, _ = make_pair(database, shards, part)
    plain_prox = plain.kernel.proximities(query)
    sharded_prox = sharded.kernel.proximities(query)
    assert list(sharded_prox) == plain_prox

    candidate = frozenset(list(query.doc)[:1]) | frozenset({"t0", "t7"})
    plain_ctx = plain.kernel.doc_context(candidate)
    sharded_ctx = sharded.kernel.doc_context(candidate)
    for obj in database.objects[:5]:
        assert sharded_ctx.rank_scan(
            query.ws, query.wt, sharded_prox, obj.oid
        ) == plain_ctx.rank_scan(query.ws, query.wt, plain_prox, obj.oid)


@settings(max_examples=20, deadline=None)
@given(
    db=databases(min_size=6, max_size=30),
    query=queries(k_max=3),
    shards=shard_counts,
    part=partitioners,
    lam=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_whynot_answers_match(db, query, shards, part, lam):
    """Whole why-not answers agree: explanation + both refinements."""
    plain_engine = YaskEngine(db)
    sharded_engine = YaskEngine(db, shards=shards, partitioner=part)
    ranking = plain_engine.scorer.rank_all(query)
    outside = [entry.obj for entry in ranking[query.k :]]
    if not outside:
        return
    missing = [outside[0].oid]

    expected = plain_engine.why_not(query, missing, lam=lam)
    actual = sharded_engine.why_not(query, missing, lam=lam)
    assert actual.preference == expected.preference
    assert actual.keyword == expected.keyword
    assert actual.best_model == expected.best_model
    assert actual.explanation.worst_rank == expected.explanation.worst_rank
    assert [
        (e.obj.oid, e.rank, e.reason, e.closer_objects, e.more_similar_objects)
        for e in actual.explanation.explanations
    ] == [
        (e.obj.oid, e.rank, e.reason, e.closer_objects, e.more_similar_objects)
        for e in expected.explanation.explanations
    ]


@settings(max_examples=30, deadline=None)
@given(db=databases(min_size=4, max_size=25), query=queries(k_max=4),
       shards=shard_counts)
def test_engine_query_matches_unsharded_engine(db, query, shards):
    """Both engines scan, so each is held to the set path, not to the
    other."""
    expected = [tuple(e) for e in Scorer(db, use_kernel=False).top_k(query)]
    assert [tuple(e) for e in YaskEngine(db, shards=shards).query(query)] == expected
    assert [tuple(e) for e in YaskEngine(db).query(query)] == expected
