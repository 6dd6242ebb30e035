"""Tests for the caching/deduplicating/batching :class:`WhyNotExecutor`."""

import threading

import pytest

from repro.core.geometry import Point
from repro.core.query import SpatialKeywordQuery
from repro.service.api import YaskEngine
from repro.service.executor import (
    QueryExecutor,
    WhyNotExecutor,
    WhyNotQuestion,
    query_fingerprint,
    whynot_fingerprint,
)
from repro.whynot.errors import NotMissingError, UnknownObjectError


def make_query(x: float, *, k: int = 3, keywords=("kw000", "kw001")):
    return SpatialKeywordQuery(loc=Point(x, 0.5), doc=frozenset(keywords), k=k)


def make_question(x: float = 0.1, *, missing=(7,), model="full", lam=0.5):
    return WhyNotQuestion(
        query=make_query(x), missing=tuple(missing), model=model, lam=lam
    )


class StubEngine:
    """Minimal SupportsQuery + SupportsWhyNot engine for executor tests.

    ``resolve_missing_oids`` treats string refs named ``"name-of-N"`` as
    aliases of id ``N`` (mirroring database name resolution) and rejects
    negative ids like the real engine rejects unknown references.
    """

    def __init__(self, *, gate: threading.Event | None = None) -> None:
        self.query_calls = 0
        self.whynot_calls = 0
        self.initial_results_seen = []
        self._lock = threading.Lock()
        self._gate = gate

    def query(self, query):
        with self._lock:
            self.query_calls += 1
        return ("topk-result", query_fingerprint(query))

    def resolve_missing_oids(self, references):
        oids = set()
        for ref in references:
            if isinstance(ref, str):
                if not ref.startswith("name-of-"):
                    raise UnknownObjectError(ref)
                ref = int(ref.removeprefix("name-of-"))
            if ref < 0:
                raise UnknownObjectError(ref)
            oids.add(ref)
        return tuple(sorted(oids))

    def answer_whynot(self, question, *, initial_result=None):
        with self._lock:
            self.whynot_calls += 1
            self.initial_results_seen.append(initial_result)
        if self._gate is not None:
            self._gate.wait(timeout=10.0)
        return ("whynot-answer", question.model, question.lam)


def make_executors(engine=None, **kwargs):
    engine = engine if engine is not None else StubEngine()
    topk = QueryExecutor(engine, max_workers=kwargs.pop("topk_workers", 2))
    return engine, topk, WhyNotExecutor(engine, topk, **kwargs)


class TestQuestionValidation:
    def test_empty_missing_rejected(self):
        with pytest.raises(ValueError):
            make_question(missing=())

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_question(model="telepathy")

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            make_question(lam=1.5)


class TestFingerprint:
    def test_missing_order_and_duplicates_are_canonical(self):
        assert whynot_fingerprint(
            make_query(0.1), [3, 1, 2], "full", 0.5
        ) == whynot_fingerprint(make_query(0.1), [1, 2, 3, 2], "full", 0.5)

    def test_name_and_id_share_a_fingerprint(self):
        engine, _, executor = make_executors()
        by_id = make_question(missing=(4, 9))
        by_name = make_question(missing=("name-of-9", 4))
        assert executor.fingerprint(by_id) == executor.fingerprint(by_name)

    def test_every_parameter_distinguishes(self):
        base = whynot_fingerprint(make_query(0.1), [1], "full", 0.5)
        assert base != whynot_fingerprint(make_query(0.2), [1], "full", 0.5)
        assert base != whynot_fingerprint(make_query(0.1), [2], "full", 0.5)
        assert base != whynot_fingerprint(make_query(0.1), [1], "explain", 0.5)
        assert base != whynot_fingerprint(make_query(0.1), [1], "full", 0.25)

    def test_lambda_is_canonicalised_for_models_that_ignore_it(self):
        # An explanation does not depend on λ: questions differing only
        # in λ share a cache entry instead of recomputing.
        engine, _, executor = make_executors()
        a = make_question(model="explain", lam=0.2)
        b = make_question(model="explain", lam=0.8)
        assert executor.fingerprint(a) == executor.fingerprint(b)
        executor.execute(a)
        assert executor.execute(b).cached
        assert engine.whynot_calls == 1
        # ...but λ still distinguishes the refinement models.
        assert executor.fingerprint(
            make_question(model="preference", lam=0.2)
        ) != executor.fingerprint(make_question(model="preference", lam=0.8))

    def test_unknown_reference_raises_before_touching_the_cache(self):
        engine, _, executor = make_executors()
        with pytest.raises(UnknownObjectError):
            executor.execute(make_question(missing=(-1,)))
        assert executor.stats().requests == 0
        assert executor.stats().size == 0


class TestCaching:
    def test_repeat_question_is_a_cache_hit(self):
        engine, _, executor = make_executors()
        first = executor.execute(make_question())
        second = executor.execute(make_question())
        assert engine.whynot_calls == 1
        assert first.source == "engine" and not first.cached
        assert second.source == "cache" and second.cached
        assert second.answer == first.answer
        stats = executor.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_distinct_models_cache_separately(self):
        engine, _, executor = make_executors()
        executor.execute(make_question(model="full"))
        executor.execute(make_question(model="preference"))
        assert engine.whynot_calls == 2
        assert executor.stats().size == 2

    def test_lru_eviction(self):
        engine, _, executor = make_executors(cache_capacity=2)
        q1, q2, q3 = (make_question(x) for x in (0.1, 0.2, 0.3))
        executor.execute(q1)
        executor.execute(q2)
        executor.execute(q1)  # refresh q1: q2 is least recently used
        executor.execute(q3)  # evicts q2
        assert executor.stats().evictions == 1
        assert executor.execute(q1).cached
        assert not executor.execute(q2).cached


class TestTopKReuse:
    def test_full_answer_reuses_cached_topk(self):
        """Acceptance: a why-not question whose underlying top-k query
        is already cached must not re-execute the top-k search."""
        engine, topk, executor = make_executors()
        question = make_question()
        topk.execute(question.query)  # prime the top-k cache
        assert engine.query_calls == 1

        execution = executor.execute(question)
        assert execution.topk_source == "cache"
        assert engine.query_calls == 1  # the search never re-ran
        stats = topk.stats()
        assert stats.hits == 1 and stats.misses == 1
        # The executor really handed the cached result to the engine.
        assert engine.initial_results_seen == [
            ("topk-result", query_fingerprint(question.query))
        ]

    def test_cold_question_primes_the_topk_cache(self):
        engine, topk, executor = make_executors()
        question = make_question()
        execution = executor.execute(question)
        assert execution.topk_source == "engine"
        assert topk.execute(question.query).cached

    def test_refiner_models_skip_the_topk_fetch(self):
        # preference/keywords/combined rank in dual space: no initial
        # result is needed, so none may be charged.
        engine, topk, executor = make_executors()
        for model in ("preference", "keywords", "combined"):
            execution = executor.execute(make_question(model=model))
            assert execution.topk_source is None
        assert engine.query_calls == 0
        assert topk.stats().requests == 0

    def test_real_engine_search_stats_prove_no_retraversal(self, small_db):
        """Same acceptance against the real index: the kernel's
        scan_calls must not move when the why-not answer starts from an
        already-cached top-k result."""
        engine = YaskEngine(small_db)
        topk = QueryExecutor(engine)
        executor = WhyNotExecutor(engine, topk)
        query = engine.make_query(Point(0.5, 0.5), {"kw000", "kw001"}, 3)
        topk.execute(query)  # prime: one indexed scan
        scans_after_prime = engine.kernel.stats.scan_calls
        assert scans_after_prime == 1

        # A rank just outside the top-k makes a well-posed question.
        ranking = engine.scorer.rank_all(query)
        missing_oid = ranking[5].obj.oid
        execution = executor.execute(
            WhyNotQuestion(query=query, missing=(missing_oid,), model="explain")
        )
        assert execution.topk_source == "cache"
        assert engine.kernel.stats.scan_calls == scans_after_prime
        assert topk.stats().hits == 1


class TestErrorHandling:
    def test_engine_rejections_propagate_and_are_not_cached(self, small_db):
        engine = YaskEngine(small_db)
        topk = QueryExecutor(engine)
        executor = WhyNotExecutor(engine, topk)
        query = engine.make_query(Point(0.5, 0.5), {"kw000"}, 3)
        top_oid = engine.query(query).entries[0].obj.oid
        question = WhyNotQuestion(query=query, missing=(top_oid,))
        with pytest.raises(NotMissingError):
            executor.execute(question)
        assert executor.stats().size == 0

    def test_batch_captures_errors_per_member(self):
        engine, _, executor = make_executors()
        batch = executor.execute_batch(
            [
                make_question(0.1),
                make_question(0.2, missing=("untranslatable",)),
                make_question(0.3),
            ]
        )
        assert len(batch) == 3
        good_first, bad, good_last = batch.executions
        assert good_first.ok and good_last.ok
        assert not bad.ok
        assert bad.source == "error" and bad.answer is None
        assert "untranslatable" in bad.error


class TestSharedInvalidation:
    def test_topk_invalidation_drops_whynot_cache(self):
        engine, topk, executor = make_executors()
        executor.execute(make_question())
        assert executor.stats().size == 1
        topk.invalidate()
        assert executor.stats().size == 0
        assert executor.stats().invalidations == 1
        assert not executor.execute(make_question()).cached

    def test_whynot_invalidation_drops_topk_cache(self):
        engine, topk, executor = make_executors()
        executor.execute(make_question())  # populates both caches
        assert topk.stats().size == 1
        dropped = executor.invalidate()
        assert dropped == 1
        assert topk.stats().size == 0
        assert executor.stats().size == 0

    def test_invalidation_during_flight_bars_stale_answer(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        _, topk, executor = make_executors(engine)
        done = []
        worker = threading.Thread(
            target=lambda: done.append(executor.execute(make_question()))
        )
        worker.start()
        while engine.whynot_calls == 0:
            pass
        executor.invalidate()  # dataset changed mid-computation
        gate.set()
        worker.join(timeout=10.0)
        assert done and done[0].source == "engine"
        assert executor.stats().size == 0  # the stale answer was not cached


class TestConcurrency:
    def test_concurrent_identical_questions_compute_once(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        _, topk, executor = make_executors(engine)
        question = make_question()
        executions = []
        executions_lock = threading.Lock()

        def run():
            execution = executor.execute(question)
            with executions_lock:
                executions.append(execution)

        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        while engine.whynot_calls == 0:
            pass
        while len(executor._inflight) == 0:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(executions) == 8
        assert engine.whynot_calls == 1
        sources = sorted(execution.source for execution in executions)
        assert sources.count("engine") == 1
        assert all(s in ("engine", "inflight", "cache") for s in sources)

    def test_stats_stay_consistent_under_threads(self):
        engine, _, executor = make_executors()
        questions = [make_question(0.1 * (1 + i % 4)) for i in range(4)]
        per_thread = 25
        threads = [
            threading.Thread(
                target=lambda: [
                    executor.execute(question)
                    for _ in range(per_thread)
                    for question in questions
                ]
            )
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stats = executor.stats()
        total = 6 * per_thread * len(questions)
        # Every request is accounted for exactly once.
        assert stats.hits + stats.misses + stats.inflight_waits == total
        # At most one computation per distinct question ever reached the
        # engine (identical concurrent questions dedup or hit).
        assert stats.misses == len(questions)
        assert engine.whynot_calls == len(questions)
        assert stats.size == len(questions)

    def test_concurrent_batches_dedup_across_batches(self):
        engine, _, executor = make_executors(max_workers=4)
        questions = [make_question(0.1), make_question(0.2)]
        results = []
        results_lock = threading.Lock()

        def run():
            batch = executor.execute_batch(questions * 3)
            with results_lock:
                results.append(batch)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 4
        assert all(len(batch) == 6 for batch in results)
        assert engine.whynot_calls == 2  # one computation per question, ever


class TestBatch:
    def test_batch_preserves_order(self):
        engine, _, executor = make_executors(max_workers=4)
        questions = [
            make_question(0.1),
            make_question(0.2),
            make_question(0.1),  # duplicate of the first
        ]
        batch = executor.execute_batch(questions)
        assert len(batch) == 3
        fingerprints = [e.fingerprint for e in batch.executions]
        assert fingerprints == [executor.fingerprint(q) for q in questions]
        assert engine.whynot_calls == 2  # the duplicate never recomputed

    def test_empty_batch(self):
        _, _, executor = make_executors()
        batch = executor.execute_batch([])
        assert len(batch) == 0 and batch.total_ms == 0.0

    def test_single_worker_batch_is_sequential(self):
        engine, _, executor = make_executors(max_workers=1)
        batch = executor.execute_batch([make_question(0.1), make_question(0.2)])
        assert engine.whynot_calls == 2
        assert len(batch.answers) == 2


class TestRealEngine:
    def test_cached_answer_matches_fresh_answer(self, small_db):
        engine = YaskEngine(small_db)
        topk = QueryExecutor(engine)
        executor = WhyNotExecutor(engine, topk)
        query = engine.make_query(Point(0.5, 0.5), {"kw000", "kw001"}, 3)
        ranking = engine.scorer.rank_all(query)
        missing_oid = ranking[6].obj.oid
        question = WhyNotQuestion(query=query, missing=(missing_oid,))
        fresh = executor.execute(question)
        cached = executor.execute(question)
        assert cached.cached
        assert cached.answer is fresh.answer
        direct = engine.why_not(query, [missing_oid])
        assert cached.answer.best_model == direct.best_model
        assert cached.answer.explanation.worst_rank == direct.explanation.worst_rank

    def test_refinement_survives_the_audit(self, small_db):
        from repro.service.audit import audit_refinement

        engine = YaskEngine(small_db)
        topk = QueryExecutor(engine)
        executor = WhyNotExecutor(engine, topk)
        query = engine.make_query(Point(0.5, 0.5), {"kw000", "kw001"}, 3)
        missing_oid = engine.scorer.rank_all(query)[6].obj.oid
        execution = executor.execute(
            WhyNotQuestion(
                query=query, missing=(missing_oid,), model="preference"
            )
        )
        report = audit_refinement(
            engine.scorer, execution.answer, [missing_oid]
        )
        assert report.ok, report.describe()


    def test_deadline_explain_never_pairs_a_stale_initial_topk(self):
        """Between ``apply_mutations`` and ``maintain`` the cached top-k
        is one generation behind; an ``explain`` under a deadline must
        recompute it inside its read view like any other explain, or
        the answer mixes two generations."""
        from repro.core.mutations import Mutation
        from repro.core.objects import SpatialObject
        from repro.datasets.generators import SyntheticDatasetBuilder
        from repro.faults import Deadline

        database = SyntheticDatasetBuilder(seed=11).build(
            120, vocabulary_size=30, doc_length=(2, 6)
        )
        engine = YaskEngine(database)
        topk = QueryExecutor(engine)
        executor = WhyNotExecutor(engine, topk)
        query = engine.make_query(Point(0.5, 0.5), {"kw000", "kw001"}, 3)
        missing_oid = engine.scorer.rank_all(query)[8].obj.oid
        stale = topk.execute(query).result
        # A perfect match on the query point takes rank 1 — applied
        # without maintain(), so the cached result stays at generation g.
        engine.apply_mutations(
            [
                Mutation.insert(
                    SpatialObject(9000, Point(0.5, 0.5), query.doc)
                )
            ]
        )
        question = WhyNotQuestion(
            query=query, missing=(missing_oid,), model="explain"
        )
        execution = executor.execute(question, deadline=Deadline(600000.0))
        assert execution.degraded is None
        assert execution.topk_source == "engine"
        assert execution.answer == engine.answer_whynot(question)
        assert execution.answer != engine.answer_whynot(
            question, initial_result=stale
        )
        executor.close()
        topk.close()
        engine.close()


class TestValidation:
    def test_bad_capacity_rejected(self):
        engine = StubEngine()
        topk = QueryExecutor(engine)
        with pytest.raises(ValueError):
            WhyNotExecutor(engine, topk, cache_capacity=-1)

    def test_bad_workers_rejected(self):
        engine = StubEngine()
        topk = QueryExecutor(engine)
        with pytest.raises(ValueError):
            WhyNotExecutor(engine, topk, max_workers=0)
