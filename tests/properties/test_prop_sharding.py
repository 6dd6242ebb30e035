"""Property suite: the sharded engine is bit-for-bit the unsharded one.

The scatter-gather top-k and whole why-not answers must produce
*identical* values to the plain-kernel path (which
``test_prop_kernel.py`` in turn pins to the set-based semantics
oracle), and the rank primitives a sharded engine's why-not modules
read off its one global kernel must match the set path directly.  Shard skipping is only sound if no skipped shard could have
contributed, so these tests are the safety net for every bound in
``repro.core.sharding``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import Weights
from repro.core.scoring import Scorer
from repro.core.sharding import ShardRouter
from repro.service.api import YaskEngine
from repro.service.sharded import ShardedEngine
from tests.properties.strategies import databases, databases_with_queries, queries

shard_counts = st.integers(min_value=1, max_value=5)
partitioners = st.sampled_from(["grid", "round-robin"])


def make_pair(database, shards, partitioner):
    """(scorer, shard router) over one database."""
    scorer = Scorer(database)
    router = ShardRouter(
        database, shards=shards, partitioner=partitioner,
        text_model=scorer.text_model,
    )
    return scorer, router


@settings(max_examples=60, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts, part=partitioners)
def test_scatter_gather_topk_matches_oracle(data, shards, part):
    database, query = data
    plain, router = make_pair(database, shards, part)
    engine = ShardedEngine(router, plain)
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
    plain, router = make_pair(database, shards, part)
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
def test_sharded_rank_primitives_match_set_path(data, shards, part):
    """A sharded engine's rank utilities run on its one global kernel
    and agree with the set path."""
    database, query = data
    engine = YaskEngine(database, shards=shards, partitioner=part)
    oracle = Scorer(database, use_kernel=False)
    for obj in database:
        assert engine.scorer.rank_of(obj, query) == oracle.rank_of(obj, query)
    targets = list(database.objects[:3])
    assert engine.scorer.worst_rank(targets, query) == oracle.worst_rank(
        targets, query
    )


@settings(max_examples=40, deadline=None)
@given(
    data=databases_with_queries(),
    shards=shard_counts,
    part=partitioners,
    ws=st.floats(min_value=0.02, max_value=0.98),
)
def test_sharded_dual_view_matches_set_path(data, shards, part, ws):
    """The dual view a sharded engine's why-not modules read holds the
    set path's dual points and ranks its targets as the set path does."""
    database, query = data
    engine = YaskEngine(database, shards=shards, partitioner=part)
    oracle = Scorer(database, use_kernel=False)
    oids = [obj.oid for obj in database.objects[:4]]
    view = engine.kernel.dual_view(query, oids)
    expected = {dual.oid: dual for dual in oracle.dual_points(query)}
    assert view.dual_points_of(oids) == [expected[oid] for oid in oids]
    weights = Weights.from_spatial(ws)
    reweighted = query.with_weights(weights)
    assert view.ranks_at(weights.ws, weights.wt, oids) == {
        oid: oracle.rank_of(database.get(oid), reweighted) for oid in oids
    }


@settings(max_examples=30, deadline=None)
@given(data=databases_with_queries(), shards=shard_counts, part=partitioners)
def test_sharded_doc_rank_scans_match_set_path(data, shards, part):
    """The keyword module's candidate-doc rank scans, on a sharded
    engine's kernel, agree with the set path under the candidate doc."""
    database, query = data
    engine = YaskEngine(database, shards=shards, partitioner=part)
    oracle = Scorer(database, use_kernel=False)
    proximities = engine.kernel.proximities(query)
    candidate = frozenset(sorted(query.doc)[:1]) | frozenset({"t0", "t7"})
    context = engine.kernel.doc_context(candidate)
    adapted = query.with_doc(candidate)
    for obj in database.objects[:5]:
        assert context.rank_scan(
            query.ws, query.wt, proximities, obj.oid
        ) == oracle.rank_of(obj, adapted)


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
