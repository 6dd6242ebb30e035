"""Property suite: answer maintenance serves bit-for-bit cold answers.

The patch-on-write contract (:meth:`QueryExecutor.maintain`): after ANY
mutation history, every cached top-k result the maintenance pass kept or
patched — and every why-not answer served warm after the batch — must
be *bit-for-bit* the answer a cold rescan of the post-mutation engine
produces: same objects, same score/sdist/tsim floats, same tie order,
same ranks, counts and viable-weight intervals.  Across skyband widths Δ (including
Δ=0), across the unsharded kernel engine and the sharded one —
maintenance arithmetic never sees engine internals, so the scatter
must be undetectable.

A maintenance pass visits only the cached entries a batch can reach
(its keywords, its removed objects, a proximity reach or a complete
buffer) and leaves the rest as they are.  The reach scenarios fill a
cache larger than any batch's reach — disjoint keywords and far
locations, buffers shrunk by deletes, complete buffers over tiny
databases, Δ=0 — and check every cached entry, reached or not, against
a cold rescan after every batch.

The slow hammer at the bottom adds the concurrency half: readers racing
a mutator must only ever observe *some* generation's exact answer —
never a torn skyband mixing two generations.

Budget: ``YASK_SKYBAND_EXAMPLES`` (default 25; ``make test-scan``
raises it) sets the unsharded suites' examples, the sharded ones run
three fifths of it.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point, Rect
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion
from tests.properties.strategies import ALPHABET, databases, queries

FRESH_WORDS = [f"fresh{i}" for i in range(4)]

EXAMPLES = int(os.environ.get("YASK_SKYBAND_EXAMPLES", "25"))
SHARDED_EXAMPLES = max(1, EXAMPLES * 3 // 5)

coordinates = st.floats(
    min_value=-0.2, max_value=1.2, allow_nan=False, allow_infinity=False
)
mutation_docs = st.sets(
    st.sampled_from(ALPHABET + FRESH_WORDS), min_size=1, max_size=5
).map(frozenset)


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


def entry_tuple(entry):
    return (entry.obj.oid, entry.score, entry.sdist, entry.tsim, entry.rank)


def result_tuples(result):
    return tuple(entry_tuple(entry) for entry in result.entries)


@st.composite
def skyband_scenarios(draw):
    database = draw(databases(min_size=4, max_size=24))
    query_set = draw(
        st.lists(queries(k_max=5), min_size=1, max_size=4)
    )
    delta = draw(st.integers(min_value=0, max_value=4))
    return database, query_set, delta


def run_maintenance_history(engine, query_set, delta, data) -> None:
    """Cache, mutate+maintain per batch, then assert cold parity."""
    executor = QueryExecutor(engine, cache_capacity=64, skyband_delta=delta)
    whynot = WhyNotExecutor(engine, executor, cache_capacity=32)
    try:
        for query in query_set:
            executor.execute(query)
        # Cache why-not answers for objects outside each query's result
        # (explain reuses the cached top-k, preference ranks in dual
        # space); every batch drops them, so each warm read recomputes.
        questions = []
        for query in query_set:
            result = engine.query(query)
            in_result = {entry.obj.oid for entry in result.entries}
            outside = [
                obj.oid
                for obj in engine.database.objects
                if obj.oid not in in_result
            ]
            if not outside:
                continue
            for model in ("explain", "preference"):
                question = WhyNotQuestion(
                    query=query, missing=(outside[-1],), model=model
                )
                whynot.execute(question)
                questions.append(question)

        for batch in draw_batches(data.draw, engine.database):
            report = engine.apply_mutations(batch)
            executor.maintain(report.change)

            for query in query_set:
                warm = executor.execute(query)
                cold = engine.query(query)
                assert result_tuples(warm.result) == result_tuples(cold)

            live_oids = {obj.oid for obj in engine.database.objects}
            for question in questions:
                missing_oid = question.missing[0]
                if missing_oid not in live_oids:
                    continue
                initial = engine.query(question.query)
                if missing_oid in {e.obj.oid for e in initial.entries}:
                    continue  # no longer missing: the question is moot
                warm_answer = whynot.execute(question).answer
                cold_answer = engine.answer_whynot(question)
                assert warm_answer == cold_answer
    finally:
        whynot.close()
        executor.close()
        engine.close()


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=skyband_scenarios(), data=st.data())
def test_maintained_answers_match_cold_rescan_unsharded(scenario, data):
    database, query_set, delta = scenario
    engine = YaskEngine(
        SpatialDatabase(database.objects, dataspace=database.dataspace),
    )
    run_maintenance_history(engine, query_set, delta, data)


@settings(
    max_examples=SHARDED_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=skyband_scenarios(), data=st.data())
def test_maintained_answers_match_cold_rescan_sharded(scenario, data):
    database, query_set, delta = scenario
    engine = YaskEngine(
        SpatialDatabase(database.objects, dataspace=database.dataspace),
        shards=3,
    )
    run_maintenance_history(engine, query_set, delta, data)


# ----------------------------------------------------------------------
# Caches larger than a batch's reach
# ----------------------------------------------------------------------
#: Cached queries and the objects near them use the near words in the
#: near corner; most batch objects carry far words in the far corner,
#: so most entries share no keyword and no proximity with a batch.
NEAR_WORDS = ["n0", "n1", "n2"]
FAR_WORDS = ["f0", "f1", "f2"]
DATASPACE = Rect(0.0, 0.0, 1.0, 1.0)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def corner_point(draw, near: bool) -> Point:
    low = 0.0 if near else 0.75
    return Point(low + 0.25 * draw(unit), low + 0.25 * draw(unit))


def corner_object(draw, oid: int, near: bool) -> SpatialObject:
    words = NEAR_WORDS if near else FAR_WORDS
    doc = draw(st.sets(st.sampled_from(words), min_size=1, max_size=2))
    return SpatialObject(oid, corner_point(draw, near), frozenset(doc))


@st.composite
def reach_scenarios(draw):
    """A tiny or small database, many cached queries, one Δ."""
    size = draw(st.sampled_from([2, 3, 5, 12, 24, 40]))
    objects = [
        corner_object(draw, oid, near=draw(st.booleans()) or oid % 3 == 0)
        for oid in range(size)
    ]
    query_set = []
    for _ in range(draw(st.integers(min_value=4, max_value=10))):
        near = draw(st.integers(min_value=0, max_value=4)) > 0
        words = NEAR_WORDS if near else FAR_WORDS
        doc = draw(st.sets(st.sampled_from(words), min_size=1, max_size=2))
        query_set.append(
            SpatialKeywordQuery(
                loc=corner_point(draw, near),
                doc=frozenset(doc),
                k=draw(st.integers(min_value=1, max_value=4)),
                weights=Weights.from_spatial(
                    draw(st.sampled_from([0.2, 0.2, 0.5, 0.8]))
                ),
            )
        )
    delta = draw(st.sampled_from([0, 0, 1, 2, 4]))
    return SpatialDatabase(objects, dataspace=DATASPACE), query_set, delta


def draw_reach_batch(draw, live: list[int], next_oid: int) -> list[Mutation]:
    """Mostly far inserts; some near inserts, updates and deletes (a
    delete of a buffered object shrinks that buffer below k + Δ)."""
    batch: list[Mutation] = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["far", "far", "near", "update", "delete"]))
        if kind in ("far", "near") or len(live) <= 2:
            obj = corner_object(draw, next_oid, near=kind == "near")
            next_oid += 1
            live.append(obj.oid)
            batch.append(Mutation.insert(obj))
        elif kind == "update":
            oid = draw(st.sampled_from(live))
            near = draw(st.booleans())
            batch.append(Mutation.update(corner_object(draw, oid, near)))
        else:
            oid = draw(st.sampled_from(live))
            live.remove(oid)
            batch.append(Mutation.delete(oid))
    return batch


def assert_every_cached_entry_is_cold(executor, engine, delta) -> None:
    """Every cached entry — served prefix and skyband buffer — is the
    cold rescan of the current generation, and says so."""
    cache = executor._cache
    for key in executor.cached_fingerprints():
        value, meta = cache.peek_entry(key)
        query = value.query
        assert result_tuples(value) == result_tuples(engine.query(query))
        assert meta.generation == engine.generation
        if delta:
            cold = engine.query(query.with_k(query.k + delta)).entries
            buffer = tuple(entry_tuple(entry) for entry in meta.entries)
            assert buffer == tuple(entry_tuple(e) for e in cold[: len(buffer)])
            if meta.complete:
                assert len(buffer) == len(engine.database.objects)


def assert_index_matches_entries(cache) -> None:
    """The maintenance index files every entry under exactly its keys."""
    expected: dict = {}
    for key in cache.keys():
        _, meta = cache._cache[key]
        for reach_key in cache._filing(meta):
            expected.setdefault(reach_key, set()).add(key)
    assert cache._postings == expected


def run_reach_history(engine, query_set, delta, data) -> None:
    executor = QueryExecutor(engine, cache_capacity=64, skyband_delta=delta)
    live = [obj.oid for obj in engine.database.objects]
    next_oid = 1000
    try:
        for query in query_set:
            executor.execute(query)
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            batch = draw_reach_batch(data.draw, live, next_oid)
            next_oid += len(batch)
            report = engine.apply_mutations(batch)
            tally = executor.maintain(report.change)
            stats = executor.stats()
            assert stats.maintained_visited <= stats.maintained_kept + (
                stats.maintained_patched + stats.maintained_dropped
                + stats.skyband_rescans
            )
            assert tally["kept"] + tally["patched"] == stats.size
            assert_every_cached_entry_is_cold(executor, engine, delta)
            assert_index_matches_entries(executor._cache)
            # Re-cache what the batch dropped, at the new generation.
            for query in data.draw(
                st.lists(st.sampled_from(query_set), max_size=len(query_set))
            ):
                executor.execute(query)
            assert_every_cached_entry_is_cold(executor, engine, delta)
    finally:
        executor.close()
        engine.close()


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=reach_scenarios(), data=st.data())
def test_entries_beyond_a_batch_reach_stay_cold_exact_unsharded(scenario, data):
    database, query_set, delta = scenario
    run_reach_history(YaskEngine(database), query_set, delta, data)


@settings(
    max_examples=SHARDED_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=reach_scenarios(), data=st.data())
def test_entries_beyond_a_batch_reach_stay_cold_exact_sharded(scenario, data):
    database, query_set, delta = scenario
    run_reach_history(YaskEngine(database, shards=3), query_set, delta, data)


def test_a_batch_that_misses_a_cached_query_keeps_its_whynot_initial():
    """The why-not executor trusts the cached initial top-k only when its
    (effective) generation is the engine's: an unreached entry must say
    so, or every explain re-runs its query inside the read view."""
    objects = [
        SpatialObject(i, Point(0.05 * i, 0.05 * i), frozenset({"t0", "t1"}))
        for i in range(8)
    ]
    engine = YaskEngine(
        SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0))
    )
    topk = QueryExecutor(engine, cache_capacity=8, skyband_delta=2)
    whynot = WhyNotExecutor(engine, topk, cache_capacity=8)
    query = SpatialKeywordQuery(loc=Point(0.0, 0.0), doc=frozenset({"t0"}), k=2)
    question = WhyNotQuestion(query=query, missing=(5,), model="explain")
    try:
        topk.execute(query)
        for oid in (98, 99):  # the first pass visits every entry
            report = engine.apply_mutations(
                [Mutation.insert(SpatialObject(oid, Point(1.0, 1.0), frozenset({"x"})))]
            )
            tally = topk.maintain(report.change)
        assert tally["kept"] == 1 and topk.stats().maintained_visited == 1
        execution = whynot.execute(question)
        assert execution.source == "engine"
        assert execution.topk_source == "cache"
        assert execution.answer == engine.answer_whynot(question)
    finally:
        whynot.close()
        topk.close()
        engine.close()


def test_underflow_falls_back_to_rescan_and_recovers():
    """Deleting past the skyband evicts (rescan) — never serves short."""
    objects = [
        SpatialObject(i, Point(0.1 * i, 0.1 * i), frozenset({"t0", "t1"}))
        for i in range(8)
    ]
    engine = YaskEngine(
        SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0)),
    )
    executor = QueryExecutor(engine, cache_capacity=8, skyband_delta=1)
    from repro.core.query import SpatialKeywordQuery

    query = SpatialKeywordQuery(
        loc=Point(0.0, 0.0), doc=frozenset({"t0"}), k=3
    )
    executor.execute(query)
    members = [entry.obj.oid for entry in engine.query(query).entries]
    # Delete two members: k+Δ = 4-entry buffer drops to 2 < k = 3.
    report = engine.apply_mutations(
        [Mutation.delete(members[0]), Mutation.delete(members[1])]
    )
    tally = executor.maintain(report.change)
    assert tally["rescans"] == 1
    assert executor.stats().skyband_rescans == 1
    refreshed = executor.execute(query)
    assert refreshed.source == "engine"
    assert result_tuples(refreshed.result) == result_tuples(
        engine.query(query)
    )
    executor.close()
    engine.close()


def test_delta_zero_degrades_to_scoped_drop_on_write():
    """``skyband_delta=0`` leaves nothing to patch from: affected drops."""
    objects = [
        SpatialObject(i, Point(0.1 * i, 0.1 * i), frozenset({"t0", "t1"}))
        for i in range(8)
    ]
    engine = YaskEngine(
        SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0)),
    )
    executor = QueryExecutor(engine, cache_capacity=8, skyband_delta=0)
    from repro.core.query import SpatialKeywordQuery

    query = SpatialKeywordQuery(
        loc=Point(0.0, 0.0), doc=frozenset({"t0"}), k=3
    )
    executor.execute(query)
    # An insert landing on the query: drop-on-write must evict, the
    # maintained path would have patched.
    report = engine.apply_mutations(
        [
            Mutation.insert(
                SpatialObject(900, Point(0.0, 0.0), frozenset({"t0"}))
            )
        ]
    )
    tally = executor.maintain(report.change)
    assert tally["patched"] == 0 and tally["rescans"] == 0
    assert tally["dropped"] == 1
    stats = executor.stats()
    assert stats.maintenance_passes == 1
    assert stats.maintained_dropped == 1
    assert stats.maintained_patched == 0
    refreshed = executor.execute(query)
    assert refreshed.source == "engine"
    assert result_tuples(refreshed.result) == result_tuples(
        engine.query(query)
    )
    executor.close()
    engine.close()


@pytest.mark.slow
def test_mutate_while_querying_never_serves_torn_skyband():
    """Readers racing the mutator only ever see whole-generation answers.

    A torn skyband — an entry mixing pre- and post-batch members or
    floats — would produce a served result matching *no* generation's
    cold answer.  The validation set holds every generation's exact
    answer per query; each concurrent read must hit the set.
    """
    import random

    rng = random.Random(20160830)
    objects = [
        SpatialObject(
            oid,
            Point(rng.random(), rng.random()),
            frozenset(rng.sample(ALPHABET, 3)),
        )
        for oid in range(60)
    ]
    from repro.core.query import SpatialKeywordQuery

    engine = YaskEngine(
        SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0)),
    )
    executor = QueryExecutor(engine, cache_capacity=16, skyband_delta=3)
    query_set = [
        SpatialKeywordQuery(
            loc=Point(rng.random(), rng.random()),
            doc=frozenset(rng.sample(ALPHABET, 2)),
            k=5,
        )
        for _ in range(4)
    ]
    valid: dict[int, set[tuple]] = {}
    valid_lock = threading.Lock()
    for index, query in enumerate(query_set):
        executor.execute(query)
        valid[index] = {result_tuples(engine.query(query))}

    violations: list[tuple] = []
    stop = threading.Event()

    def reader() -> None:
        local_rng = random.Random(threading.get_ident())
        while not stop.is_set():
            index = local_rng.randrange(len(query_set))
            served = result_tuples(executor.execute(query_set[index]).result)
            with valid_lock:
                known = set(valid[index])
            if served not in known:
                # Re-check against the freshest set: the mutator may
                # have registered the new generation after our read.
                with valid_lock:
                    known = set(valid[index])
                if served not in known:
                    violations.append((index, served))

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()

    next_oid = 1000
    try:
        for _ in range(12):
            batch = []
            for _ in range(3):
                if rng.random() < 0.6:
                    batch.append(
                        Mutation.insert(
                            SpatialObject(
                                next_oid,
                                Point(rng.random(), rng.random()),
                                frozenset(rng.sample(ALPHABET, 3)),
                            )
                        )
                    )
                    next_oid += 1
                else:
                    live = [obj.oid for obj in engine.database.objects]
                    batch.append(Mutation.delete(rng.choice(live)))
            report = engine.apply_mutations(batch)
            # Register the new generation's exact answers BEFORE
            # maintenance patches entries to it: a reader observing a
            # freshly patched entry must already find it valid.
            with valid_lock:
                for index, query in enumerate(query_set):
                    valid[index].add(result_tuples(engine.query(query)))
            executor.maintain(report.change)
    finally:
        stop.set()
        for thread in readers:
            thread.join()
        executor.close()
        engine.close()

    assert not violations, f"torn results observed: {violations[:3]}"
