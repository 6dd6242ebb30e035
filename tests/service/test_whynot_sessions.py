"""A mutation batch ends every why-not context of the generation before.

``explain`` warms the engine's context for ``(query, M)``; a batch that
changes the ranking lands; the refinement that follows must be the
answer of a cold engine built from the new object set — on the primary,
on a follower that replayed the batch and on an engine recovered from
the log, which all reach ``WhyNotEngine.apply_mutations`` through the
one ``MutableDatabase`` listener list.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import generate_whynot_scenarios
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.service.executor import WhyNotQuestion
from repro.service.protocol import whynot_value_to_dict
from repro.service.wal import FollowerEngine, WriteAheadLog, recover_engine

REFINEMENTS = ("combined", "keywords", "preference")


def seed_db() -> SpatialDatabase:
    """A private copy per engine: engines mutate their database in place."""
    return SyntheticDatasetBuilder(seed=11).build(
        120, vocabulary_size=30, doc_length=(2, 6)
    )


@pytest.fixture(scope="module")
def scenario():
    engine = YaskEngine(seed_db())
    (scenario,) = generate_whynot_scenarios(
        engine.scorer, count=1, k=5, missing_count=1, seed=53, rank_window=25
    )
    engine.close()
    return scenario


def rivals(scenario, first_oid: int) -> list[Mutation]:
    """Objects at the query location carrying its keywords: each outranks
    the missing object, so every rank the old context holds is stale."""
    return [
        Mutation.insert(
            SpatialObject(first_oid + i, scenario.query.loc, scenario.query.doc)
        )
        for i in range(3)
    ]


def ask(engine: YaskEngine, model: str, scenario) -> dict:
    question = WhyNotQuestion(
        query=scenario.query,
        missing=tuple(obj.oid for obj in scenario.missing),
        model=model,
    )
    return whynot_value_to_dict(model, engine.answer_whynot(question))


def cold_answer(live: YaskEngine, model: str, scenario) -> dict:
    database = live.database
    cold = YaskEngine(
        SpatialDatabase(database.objects, dataspace=database.dataspace),
    )
    try:
        return ask(cold, model, scenario)
    finally:
        cold.close()


@pytest.mark.parametrize("model", REFINEMENTS)
@pytest.mark.parametrize("shards", [None, 2])
def test_batch_between_explain_and_refinement(tmp_path, scenario, model, shards):
    primary = YaskEngine(
        seed_db(),
        shards=shards,
        wal=WriteAheadLog(tmp_path, fsync="never"),
    )
    follower = FollowerEngine(
        tmp_path, database=seed_db(), shards=shards
    )
    try:
        before = ask(primary, "explain", scenario)
        assert ask(follower.engine, "explain", scenario) == before

        primary.apply_mutations(rivals(scenario, 9_000))
        assert follower.poll() == 1

        expected = cold_answer(primary, model, scenario)
        assert ask(primary, model, scenario) == expected
        assert ask(follower.engine, model, scenario) == expected
        after = ask(primary, "explain", scenario)
        assert after == cold_answer(primary, "explain", scenario)
        assert after["worst_rank"] == before["worst_rank"] + 3
    finally:
        follower.close()
        primary.close()

    recovered, _report = recover_engine(
        tmp_path, database=seed_db(), fsync="never", shards=shards
    )
    try:
        assert ask(recovered, model, scenario) == expected
        recovered.apply_mutations(rivals(scenario, 9_100))
        assert ask(recovered, model, scenario) == cold_answer(
            recovered, model, scenario
        )
    finally:
        recovered.close()
