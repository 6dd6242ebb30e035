"""A why-not session pays for its dual space once.

``WhyNotEngine`` keeps the last few ``WhyNotContext`` objects, one per
``(loc, doc, weights, M)``: the questions of one session share a dual
view, and the answers are what a fresh engine gives.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.bench.workloads import generate_whynot_scenarios
from repro.service.api import YaskEngine
from repro.service.executor import WhyNotQuestion
from repro.service.protocol import whynot_value_to_dict
from repro.whynot import engine as whynot_engine
from repro.whynot.context import WhyNotContext
from repro.whynot.errors import NotMissingError
from repro.whynot.preference import PreferenceAdjuster


def ask(engine: YaskEngine, model: str, scenario) -> dict:
    question = WhyNotQuestion(
        query=scenario.query,
        missing=tuple(obj.oid for obj in scenario.missing),
        model=model,
    )
    return whynot_value_to_dict(model, engine.answer_whynot(question))


def dual_views(engine: YaskEngine) -> int:
    return engine.kernel.stats.to_dict()["dual_views"]


@pytest.fixture(scope="module")
def scenarios(small_scorer):
    return generate_whynot_scenarios(
        small_scorer, count=6, k=5, missing_count=2, seed=77, rank_window=25
    )


@pytest.fixture(params=[None, 4], ids=["unsharded", "4-shards"])
def engine(request, small_db):
    engine = YaskEngine(small_db, shards=request.param)
    yield engine
    engine.close()


class TestOneDualSpacePerSession:
    def test_explain_then_preference_builds_one_view(self, engine, scenarios):
        before = dual_views(engine)
        ask(engine, "explain", scenarios[0])
        ask(engine, "preference", scenarios[0])
        assert dual_views(engine) == before + 1

    def test_a_second_lambda_reads_the_same_front(
        self, engine, scenarios, monkeypatch
    ):
        """The demo's λ slider: a refinement at another λ prices the
        front the first one built, with no march and no view."""
        marches = []
        march = PreferenceAdjuster._past_crossing_candidate

        def counted(self, *args):
            marches.append(args)
            return march(self, *args)

        monkeypatch.setattr(PreferenceAdjuster, "_past_crossing_candidate", counted)
        scenario = scenarios[0]
        missing = [obj.oid for obj in scenario.missing]
        before = dual_views(engine)
        ask(engine, "explain", scenario)
        low = engine.refine_preference(scenario.query, missing, lam=0.1)
        (context,) = engine.whynot._contexts.values()
        front, marched = context.front, len(marches)
        high = engine.refine_preference(scenario.query, missing, lam=0.9)
        assert context.front is front and front is not None
        assert len(marches) == marched
        assert dual_views(engine) == before + 1
        assert low.candidates_evaluated == high.candidates_evaluated == len(front)

    def test_keywords_after_explain_builds_none(self, engine, scenarios):
        ask(engine, "explain", scenarios[0])
        before = dual_views(engine)
        rank_scans = engine.kernel.stats.to_dict()["rank_of_many_calls"]
        ask(engine, "keywords", scenarios[0])
        assert dual_views(engine) == before
        assert engine.kernel.stats.to_dict()["rank_of_many_calls"] == rank_scans

    def test_combined_after_explain_builds_at_most_one_more(
        self, engine, scenarios
    ):
        """One context for q, one view for the keyword-first second stage."""
        for scenario in scenarios[:3]:
            before = dual_views(engine)
            ask(engine, "explain", scenario)
            ask(engine, "combined", scenario)
            assert dual_views(engine) <= before + 2
        assert engine.kernel.stats.to_dict()["rank_of_many_calls"] == 0

    def test_shared_answers_equal_cold_answers(self, engine, small_db, scenarios):
        """A question answered from a warm context reads like a first one."""
        scenario = scenarios[1]
        for model in ("preference", "keywords", "combined", "explain"):
            cold = YaskEngine(small_db)
            ask(engine, "explain", scenario)
            assert ask(engine, model, scenario) == ask(cold, model, scenario)
            cold.close()

    def test_no_question_runs_a_whole_database_rank_scan(
        self, engine, small_db, scenarios
    ):
        """Every kind ranks in dual space on the one global kernel, so a
        sharded engine's answers are the unsharded engine's, and no
        question of either counts beaters over the whole database."""
        plain = YaskEngine(small_db)
        for scenario in scenarios[:3]:
            for model in ("explain", "preference", "keywords", "combined"):
                assert ask(engine, model, scenario) == ask(plain, model, scenario)
        plain.close()
        stats = engine.kernel.stats.to_dict()
        assert stats["count_better_calls"] == 0
        assert stats["rank_of_many_calls"] == 0
        assert stats["doc_rank_scans"] == 0

    def test_k_is_not_part_of_the_key(self, engine, scenarios):
        scenario = scenarios[0]
        ask(engine, "explain", scenario)
        before = dual_views(engine)
        wider = scenario.query.with_k(scenario.query.k + 1)
        engine.refine_preference(wider, [obj.oid for obj in scenario.missing])
        assert dual_views(engine) == before

    def test_k_is_read_from_the_request(self, engine, small_db, scenarios):
        """A context answers for other k than the one that built it."""
        asked = 0
        for scenario in scenarios:
            ask(engine, "explain", scenario)
            for extra in (1, 3):
                if min(scenario.missing_ranks) <= scenario.query.k + extra:
                    continue  # explain wants every object of M missing
                wider = replace(
                    scenario, query=scenario.query.with_k(scenario.query.k + extra)
                )
                before = dual_views(engine)
                for model in ("combined", "preference", "keywords", "explain"):
                    cold = YaskEngine(small_db)
                    assert ask(engine, model, wider) == ask(cold, model, wider)
                    cold.close()
                    asked += 1
                assert dual_views(engine) <= before + 1  # combined's second stage
        assert asked >= 16


class TestMemo:
    def test_a_refused_question_builds_no_view_and_takes_no_slot(
        self, engine, scenarios
    ):
        scenario = scenarios[0]
        memo = engine.whynot._contexts
        before = dual_views(engine)
        present = engine.query(scenario.query).entries[0].obj.oid
        for model in ("explain", "preference", "keywords", "combined", "full"):
            with pytest.raises(ValueError):
                engine.answer_whynot(
                    WhyNotQuestion(query=scenario.query, missing=(), model=model)
                )
        with pytest.raises(NotMissingError):
            engine.explain(scenario.query, [present])
        assert dual_views(engine) == before
        # A refiner has to rank to find nothing missing; it keeps nothing.
        with pytest.raises(NotMissingError):
            engine.refine_combined(scenario.query, [present])
        assert not memo

    def test_never_exceeds_its_bound(self, engine, scenarios):
        memo = engine.whynot._contexts
        for scenario in scenarios:
            ask(engine, "explain", scenario)
            assert len(memo) <= whynot_engine.CONTEXT_MEMO_SIZE
        assert len(memo) == whynot_engine.CONTEXT_MEMO_SIZE
        # Least recently asked goes first: the last few are still warm.
        before = dual_views(engine)
        for scenario in scenarios[-whynot_engine.CONTEXT_MEMO_SIZE :]:
            ask(engine, "preference", scenario)
        assert dual_views(engine) == before
        ask(engine, "preference", scenarios[0])
        assert dual_views(engine) == before + 1

    def test_two_threads_one_context(self, engine, small_db, scenarios):
        """Different models of one (query, M) at once: a shared context's
        walks only republish what they walked, so all read
        single-threaded answers."""
        scenario = scenarios[2]
        cold = YaskEngine(small_db)
        expected = {
            model: ask(cold, model, scenario)
            for model in ("explain", "preference", "combined", "keywords")
        }
        cold.close()
        answers: dict[str, list] = {model: [] for model in expected}
        barrier = threading.Barrier(len(expected))

        def worker(model: str) -> None:
            barrier.wait(timeout=30)
            for _ in range(5):
                answers[model].append(ask(engine, model, scenario))

        threads = [
            threading.Thread(target=worker, args=(model,)) for model in expected
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for model, got in answers.items():
            assert got == [expected[model]] * 5


def test_threads_extend_one_walk_and_widen_one_view(medium_scorer):
    """Threads walk one missing object's rank at once — outward a
    crossover at a time, and to both ends in one go — while others rank
    it off the same view at the walk's crossovers: each walk extension
    republishes a side and each widening of the view a level's rows, so
    all read what a lone reader reads, and the walk ends whole."""
    (scenario,) = generate_whynot_scenarios(
        medium_scorer, count=1, k=5, missing_count=1, seed=91, rank_window=40
    )
    query, missing = scenario.query, scenario.missing
    adjuster = PreferenceAdjuster(medium_scorer)
    lone = WhyNotContext(medium_scorer, query, missing)
    (alone,) = adjuster._walks(lone)
    expected = alone.walked()
    assert len(expected.profile.weights) >= 50
    probes = sorted(expected.profile.weights, key=lambda w: abs(w - query.ws))
    oid = missing[0].oid
    ranks = [lone.view.ranks_at(w, 1.0 - w, [oid]) for w in probes]
    context = WhyNotContext(medium_scorer, query, missing)
    (walk,) = adjuster._walks(context)
    kinds = ("stepwise", "whole", "ranks", "stepwise", "whole", "ranks")
    barrier = threading.Barrier(len(kinds))
    got: dict[str, list] = {kind: [] for kind in kinds}

    def reader(kind: str) -> None:
        barrier.wait(timeout=30)
        if kind == "stepwise":
            got[kind].append([(walk.rank(w), walk.oids_at(w)) for w in probes])
        elif kind == "whole":
            got[kind].append(walk.walked())
        else:
            got[kind].append([context.view.ranks_at(w, 1.0 - w, [oid]) for w in probes])

    threads = [threading.Thread(target=reader, args=(kind,)) for kind in kinds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got["whole"] == [expected] * 2 and walk.walked() == expected
    assert got["stepwise"] == [[(alone.rank(w), alone.oids_at(w)) for w in probes]] * 2
    assert got["ranks"] == [ranks] * 2
