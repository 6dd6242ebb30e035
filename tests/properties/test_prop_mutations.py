"""The mutation parity property (the live-mutation tier's contract).

After ANY sequence of insert/update/delete batches, the mutated engine
must be *bit-for-bit* indistinguishable from a fresh engine built from
the final object set over the same dataspace:

* top-k results: same objects, same score/sdist/tsim floats, same tie
  order — across the unsharded kernel engine, the sharded scatter-gather
  engine and the set-path oracle;
* all three why-not refinement paths (preference, keywords, combined)
  plus the explanation, compared through their wire serialisations.

This is the property that makes every incremental structure — the
append-only vocabulary, the tombstoned kernel columns, the widened shard
summaries, the Guttman-maintained trees — an *optimisation* rather than
a semantics change.

The engine property looks after *every* batch, on histories long and
delete-heavy enough that the sharded engine is queried while tombstoned
and after its global and shard kernels compacted at different batches;
there it also pins the shard bookkeeping itself (membership, summaries,
sizes) against a freshly built :class:`~repro.core.sharding.Shard`.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.scoring import Scorer
from repro.core.sharding import Shard
from repro.service.api import YaskEngine
from repro.service.protocol import result_to_dict, whynot_answer_to_dict
from repro.text.similarity import JACCARD
from tests.properties.strategies import ALPHABET, databases, queries

#: Extra keywords only mutations introduce — exercises the append-only
#: vocabulary growth path (new bit positions beyond the built corpus).
FRESH_WORDS = [f"fresh{i}" for i in range(4)]

coordinates = st.floats(
    min_value=-0.2, max_value=1.2, allow_nan=False, allow_infinity=False
)
mutation_docs = st.sets(
    st.sampled_from(ALPHABET + FRESH_WORDS), min_size=1, max_size=5
).map(frozenset)


#: The ingest-leaning mix, and a churn mix whose tombstones outrun its
#: appends so kernels cross their compaction threshold.
INGEST = ["insert", "insert", "update", "delete"]
CHURN = ["insert", "update", "delete", "delete"]


def draw_batch(draw, live: set[int], next_oid: int, kinds=INGEST) -> list[Mutation]:
    """1-5 valid mutations against the live id set (updated in place)."""
    batch: list[Mutation] = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "insert" or len(live) <= 2:
            obj = SpatialObject(
                next_oid + len(batch),
                Point(draw(coordinates), draw(coordinates)),
                draw(mutation_docs),
            )
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
    return batch


def draw_batches(draw, database: SpatialDatabase) -> list[list[Mutation]]:
    """Draw 1-3 batches of 1-5 valid mutations against the live id set."""
    live = {obj.oid for obj in database.objects}
    next_oid = max(live) + 1
    batches: list[list[Mutation]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batches.append(draw_batch(draw, live, next_oid))
        next_oid += len(batches[-1])
    return batches


def entry_tuple(entry):
    return (entry.obj.oid, entry.score, entry.sdist, entry.tsim, entry.rank)


@st.composite
def mutation_scenarios(draw, max_size: int = 24):
    database = draw(databases(min_size=4, max_size=max_size))
    query = draw(queries(k_max=6))
    return database, query


def assert_shard_bookkeeping(engine: YaskEngine) -> None:
    """Membership, sizes and summaries of a sharded engine, tombstoned or not."""
    database, kernel, router = engine.database, engine.kernel, engine.shard_router
    assert sum(router.shard_sizes()) == len(database) == kernel.live_count
    position = {obj.oid: row for row, obj in enumerate(database.objects)}
    live_rows = {
        shard: [obj for obj in shard.kernel.row_objects if obj is not None]
        for shard in router.shards
    }
    owners = {obj.oid: obj for objs in live_rows.values() for obj in objs}
    assert owners.keys() == position.keys()
    for oid, obj in owners.items():
        assert obj == database.get(oid)
    for shard, members in live_rows.items():
        assert len(shard) == len(members)
        assert shard.kernel._row_of.keys() == {obj.oid for obj in members}
        fresh = Shard(
            shard.shard_id, database, [position[obj.oid] for obj in members], JACCARD
        )
        assert (
            shard.mbr, shard.vocab_mask, shard.min_doc_len, shard.max_doc_len
        ) == (fresh.mbr, fresh.vocab_mask, fresh.min_doc_len, fresh.max_doc_len)


def assert_rank_primitives(live: YaskEngine, fresh: YaskEngine, query) -> None:
    """The mutated kernel's rank primitives against a fresh kernel's."""
    kernel, oracle = live.kernel, fresh.kernel
    proximities = kernel.proximities(query)
    oracle_proximities = oracle.proximities(query)
    candidate = frozenset(sorted(query.doc)[:1]) | {"t0", "fresh1"}
    context, oracle_context = kernel.doc_context(candidate), oracle.doc_context(candidate)
    targets = [obj.oid for obj in fresh.database.objects[-4:]]
    assert kernel.rank_of_many(targets, query) == oracle.rank_of_many(targets, query)
    for oid in targets:
        score = fresh.scorer.score(fresh.database.get(oid), query)
        assert kernel.count_better(score, oid, query) == oracle.count_better(
            score, oid, query
        )
        assert context.rank_scan(
            query.ws, query.wt, proximities, oid
        ) == oracle_context.rank_scan(query.ws, query.wt, oracle_proximities, oid)


def check_engines_through_history(scenario, data, *, batches_max: int) -> None:
    database, query = scenario
    initial_objects = database.objects

    live_plain = YaskEngine(
        SpatialDatabase(initial_objects, dataspace=database.dataspace),
    )
    live_sharded = YaskEngine(
        SpatialDatabase(initial_objects, dataspace=database.dataspace),
        shards=3,
    )
    draw = data.draw
    kinds = draw(st.sampled_from([INGEST, CHURN]))
    live = {obj.oid for obj in initial_objects}
    next_oid = max(live) + 1
    for _ in range(draw(st.integers(min_value=1, max_value=batches_max))):
        batch = draw_batch(draw, live, next_oid, kinds)
        next_oid += len(batch)
        live_plain.apply_mutations(batch)
        live_sharded.apply_mutations(list(batch))

        objects = live_plain.database.objects
        assert objects == live_sharded.database.objects
        fresh = YaskEngine(
            SpatialDatabase(objects, dataspace=database.dataspace),
        )
        assert_shard_bookkeeping(live_sharded)
        assert_rank_primitives(live_sharded, fresh, query)

        # --- top-k parity: plain, sharded, fresh, set-path oracle -----
        expected = fresh.query(query)
        for engine in (live_plain, live_sharded):
            got = engine.query(query)
            assert list(map(entry_tuple, got.entries)) == list(
                map(entry_tuple, expected.entries)
            )
        oracle = Scorer(
            SpatialDatabase(objects, dataspace=database.dataspace),
            use_kernel=False,
        )
        assert result_to_dict(oracle.top_k(query)) == result_to_dict(expected)

        # --- why-not parity over all refinement paths -----------------
        ranked = fresh.scorer.rank_all(query)
        if ranked[-1].rank > query.k:
            missing = [ranked[-1].obj.oid]
            expected_answer = whynot_answer_to_dict(fresh.why_not(query, missing))
            for engine in (live_plain, live_sharded):
                got_answer = whynot_answer_to_dict(engine.why_not(query, missing))
                assert got_answer == expected_answer
        fresh.close()

    live_plain.close()
    live_sharded.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=mutation_scenarios(), data=st.data())
def test_mutated_engines_match_fresh_rebuild(scenario, data):
    check_engines_through_history(scenario, data, batches_max=6)


@pytest.mark.slow
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=mutation_scenarios(max_size=40), data=st.data())
def test_mutated_engines_match_fresh_rebuild_deep(scenario, data):
    check_engines_through_history(scenario, data, batches_max=20)


@settings(max_examples=25, deadline=None)
@given(scenario=mutation_scenarios(), data=st.data())
def test_mutated_scorer_matches_set_path_oracle(scenario, data):
    """rank_all on the mutated kernel equals the set path on the final set."""
    database, query = scenario
    live = SpatialDatabase(database.objects, dataspace=database.dataspace)
    scorer = Scorer(live)
    from repro.core.mutations import MutableDatabase

    mutable = MutableDatabase(live, model_code=scorer.kernel.model_code)
    mutable.register_listener(scorer.kernel)
    for batch in draw_batches(data.draw, live):
        mutable.apply(batch)
    oracle = Scorer(
        SpatialDatabase(live.objects, dataspace=live.dataspace),
        use_kernel=False,
    )
    got = scorer.rank_all(query)
    want = oracle.rank_all(query)
    assert list(map(entry_tuple, got)) == list(map(entry_tuple, want))
    assert scorer.dual_points(query) == oracle.dual_points(query)
