"""Concurrent mutation vs. query/stats hammer (torn-read detector).

Writer threads apply mutation batches through the engine (followed by
executor maintenance, exactly as the HTTP tier does) while reader
threads run both executors' ``execute_batch`` and ``consistent_stats``.
The engine's read/write lock promises each reader a *consistent
snapshot*: every result it sees must be internally coherent (ranks
contiguous, members distinct, each entry's score recomputable from its
own components) and generation numbers must be monotone from every
thread's point of view.
"""

from __future__ import annotations

import math
import threading

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.service.executor import (
    QueryExecutor,
    WhyNotExecutor,
    WhyNotQuestion,
    consistent_stats,
)
from repro.whynot.errors import WhyNotError

import pytest

pytestmark = pytest.mark.slow

DURATION_S = 1.2


@pytest.mark.parametrize("shards", [None, 4], ids=["unsharded", "sharded"])
def test_mutation_query_hammer(shards):
    database = SyntheticDatasetBuilder(seed=77).build(
        150, vocabulary_size=24, doc_length=(2, 5)
    )
    engine = YaskEngine(database, shards=shards)
    topk = QueryExecutor(engine, cache_capacity=64, max_workers=4)
    whynot = WhyNotExecutor(engine, topk, cache_capacity=32, max_workers=4)

    queries = [
        SpatialKeywordQuery(
            loc=Point(0.1 * i, 1.0 - 0.1 * i),
            doc=frozenset({f"kw{i % 24:03d}", "kw000"}),
            k=5,
        )
        for i in range(8)
    ]
    # A stable target the writers never touch; sometimes it is in the
    # top-k (NotMissingError), which is a legitimate outcome, not a tear.
    stable_oid = database.objects[0].oid
    questions = [
        WhyNotQuestion(query=query, missing=(stable_oid,), model="preference")
        for query in queries[:3]
    ]

    stop = threading.Event()
    failures: list[str] = []
    # One generation log per writer: appends happen outside the engine's
    # write lock, so a single shared list could interleave out of order
    # even though the generations themselves are strictly monotone.
    writer_generations: dict[int, list[int]] = {10_000: [], 50_000: []}

    def fail(message: str) -> None:
        failures.append(message)
        stop.set()

    def writer(base_oid: int) -> None:
        generations = writer_generations[base_oid]
        owned: list[int] = []
        next_oid = base_oid
        while not stop.is_set():
            try:
                batch: list[Mutation] = []
                for _ in range(3):
                    if owned and len(owned) > 5:
                        batch.append(Mutation.delete(owned.pop(0)))
                    else:
                        obj = SpatialObject(
                            next_oid,
                            Point(
                                (next_oid % 97) / 97.0, (next_oid % 89) / 89.0
                            ),
                            frozenset({f"kw{next_oid % 24:03d}"}),
                        )
                        owned.append(next_oid)
                        next_oid += 1
                        batch.append(Mutation.insert(obj))
                report = engine.apply_mutations(batch)
                topk.maintain(report.change)
                generations.append(report.generation)
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                fail(f"writer raised: {exc!r}")
                return

    def check_result(result) -> None:
        entries = result.entries
        oids = [entry.obj.oid for entry in entries]
        if len(set(oids)) != len(oids):
            fail(f"duplicate members in result: {oids}")
        if [entry.rank for entry in entries] != list(
            range(1, len(entries) + 1)
        ):
            fail(f"non-contiguous ranks: {[e.rank for e in entries]}")
        query = result.query
        for entry in entries:
            if not math.isfinite(entry.score):
                fail(f"non-finite score {entry.score}")
            recomputed = query.ws * (1.0 - entry.sdist) + query.wt * entry.tsim
            if recomputed != entry.score:
                fail(
                    f"torn entry: score {entry.score} != recomputed "
                    f"{recomputed} for oid {entry.obj.oid}"
                )
        scores = [entry.score for entry in entries]
        if scores != sorted(scores, reverse=True):
            fail(f"scores out of order: {scores}")

    def query_reader() -> None:
        last_generation = 0
        while not stop.is_set():
            try:
                batch = topk.execute_batch(queries)
                for execution in batch:
                    check_result(execution.result)
                generation = engine.generation
                if generation < last_generation:
                    fail(
                        f"generation went backwards: {generation} < "
                        f"{last_generation}"
                    )
                last_generation = generation
            except Exception as exc:  # noqa: BLE001
                fail(f"query reader raised: {exc!r}")
                return

    def whynot_reader() -> None:
        while not stop.is_set():
            try:
                batch = whynot.execute_batch(questions)
                for execution in batch:
                    if execution.source == "error":
                        continue  # e.g. NotMissing after a nearby insert
                    answer = execution.answer
                    if answer is None:
                        fail("non-error execution without an answer")
            except WhyNotError:
                pass
            except Exception as exc:  # noqa: BLE001
                fail(f"whynot reader raised: {exc!r}")
                return

    def stats_reader() -> None:
        while not stop.is_set():
            try:
                topk_stats, whynot_stats = consistent_stats(topk, whynot)
                # Every domain pass hits the linked why-not cache
                # exactly once — full invalidations cascade a full
                # drop, maintenance passes a maintenance pass — so the
                # totals move in lockstep; a mixed-generation snapshot
                # would break this identity.
                expected = (
                    topk_stats.invalidations + topk_stats.maintenance_passes
                )
                observed = (
                    whynot_stats.invalidations
                    + whynot_stats.maintenance_passes
                )
                if observed != expected:
                    fail(
                        "mixed-generation stats snapshot: whynot "
                        f"{observed} != {expected}"
                    )
            except Exception as exc:  # noqa: BLE001
                fail(f"stats reader raised: {exc!r}")
                return

    threads = [
        threading.Thread(target=writer, args=(10_000,)),
        threading.Thread(target=writer, args=(50_000,)),
        threading.Thread(target=query_reader),
        threading.Thread(target=query_reader),
        threading.Thread(target=whynot_reader),
        threading.Thread(target=stats_reader),
    ]
    for thread in threads:
        thread.start()
    stop.wait(timeout=DURATION_S)
    stop.set()
    for thread in threads:
        thread.join(timeout=20)
    whynot.close()
    topk.close()
    engine.close()

    assert not failures, failures[:5]
    all_generations = sorted(
        generation
        for generations in writer_generations.values()
        for generation in generations
    )
    assert all_generations, "writers never applied a batch"
    for generations in writer_generations.values():
        assert generations == sorted(generations)  # monotone per writer
    # Generations are globally unique and gap-free across both writers.
    assert all_generations == list(range(1, len(all_generations) + 1))
    assert engine.generation == len(all_generations)
    # The post-hammer engine still answers exactly like a fresh rebuild.
    from repro.core.objects import SpatialDatabase

    fresh = YaskEngine(
        SpatialDatabase(
            engine.database.objects, dataspace=engine.database.dataspace
        ),
    )
    for query in queries:
        got = engine.query(query)
        want = fresh.query(query)
        assert [
            (e.obj.oid, e.score, e.sdist, e.tsim) for e in got.entries
        ] == [(e.obj.oid, e.score, e.sdist, e.tsim) for e in want.entries]
    fresh.close()
