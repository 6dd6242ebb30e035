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

The slow hammer at the bottom adds the concurrency half: readers racing
a mutator must only ever observe *some* generation's exact answer —
never a torn skyband mixing two generations.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point, Rect
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion
from tests.properties.strategies import ALPHABET, databases, queries

FRESH_WORDS = [f"fresh{i}" for i in range(4)]

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
    max_examples=25,
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
    max_examples=15,
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
