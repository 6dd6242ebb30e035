"""Tests for the YaskEngine facade (:mod:`repro.service.api`)."""

from contextlib import contextmanager

import pytest

from repro.core.geometry import Point
from repro.core.mutations import Mutation
from repro.core.objects import SpatialObject
from repro.core.query import Weights
from repro.core.scoring import Scorer
from repro.core.topk import BruteForceTopK
from repro.service.api import YaskEngine
from repro.text.similarity import CosineTfIdfSimilarity
from tests.conftest import make_tiny_db


@pytest.fixture(scope="module")
def engine(small_db):
    return YaskEngine(small_db)


class TestTopK:
    def test_matches_brute_force(self, small_db, engine):
        scorer = Scorer(small_db)
        oracle = BruteForceTopK(scorer)
        from tests.conftest import random_queries

        for q in random_queries(small_db, 10, seed=160, k=5):
            assert [e.obj.oid for e in engine.query(q)] == [
                e.obj.oid for e in oracle.search(q)
            ]

    def test_top_k_convenience(self, small_db, engine):
        loc = small_db.objects[0].loc
        keywords = set(list(small_db.vocabulary())[:2])
        result = engine.top_k(loc, keywords, 4)
        assert len(result) == 4
        assert result.query.weights == engine.default_weights

    def test_make_query_uses_server_default_weights(self, small_db):
        engine = YaskEngine(small_db, default_weights=Weights.from_spatial(0.7))
        q = engine.make_query(Point(0.5, 0.5), {"kw000"}, 3)
        assert q.ws == 0.7

    def test_explicit_weights_override_default(self, engine):
        q = engine.make_query(
            Point(0.5, 0.5), {"kw000"}, 3, weights=Weights.from_spatial(0.9)
        )
        assert q.ws == 0.9

    def test_timed_query_reports_milliseconds(self, small_db, engine):
        q = engine.make_query(Point(0.5, 0.5), {"kw000"}, 3)
        timed = engine.timed_query(q)
        assert timed.response_ms >= 0.0
        assert len(timed.value) == 3


class TestEngineVariants:
    def test_indexed_engine_matches_brute_force(self, small_db):
        indexed = YaskEngine(small_db)
        brute = BruteForceTopK(indexed.scorer)
        q = indexed.make_query(Point(0.4, 0.6), {"kw001", "kw002"}, 5)
        assert [e.obj.oid for e in indexed.query(q)] == [
            e.obj.oid for e in brute.search(q)
        ]

    def test_text_model_option_is_refused(self, small_db):
        # The engine serves Jaccard only; the option went with the other
        # models (a cosine engine is BestFirstTopK over an IRTree).
        cosine = CosineTfIdfSimilarity(
            small_db.keyword_document_frequencies(), len(small_db)
        )
        with pytest.raises(TypeError, match="text_model"):
            YaskEngine(small_db, text_model=cosine)

    @pytest.mark.parametrize(
        "options, error, match",
        [
            ({"partitioner": "round-robin"}, ValueError, "without shards"),
            # The deleted scan backends' option is refused, not ignored.
            ({"shards": 2, "shard_workers": 2}, TypeError, "shard_workers"),
        ],
    )
    def test_shard_options_without_shards_refused(
        self, small_db, options, error, match
    ):
        with pytest.raises(error, match=match):
            YaskEngine(small_db, **options)


class TestWhyNotIntegration:
    def _scenario(self, small_db, engine):
        from repro.bench.workloads import generate_whynot_scenarios

        return generate_whynot_scenarios(
            engine.scorer, count=1, k=5, missing_count=1, seed=161,
            rank_window=25,
        )[0]

    def test_full_why_not_flow(self, small_db, engine):
        s = self._scenario(small_db, engine)
        answer = engine.why_not(s.query, [m.oid for m in s.missing])
        assert answer.preference is not None and answer.keyword is not None
        for refinement in (answer.preference, answer.keyword):
            refined = engine.query(refinement.refined_query)
            assert all(refined.contains(m) for m in s.missing)

    def test_explain_only(self, small_db, engine):
        s = self._scenario(small_db, engine)
        explanation = engine.explain(s.query, [m.oid for m in s.missing])
        assert explanation.worst_rank > s.query.k

    def test_single_model_calls(self, small_db, engine):
        s = self._scenario(small_db, engine)
        missing_ids = [m.oid for m in s.missing]
        pref = engine.refine_preference(s.query, missing_ids, lam=0.3)
        kw = engine.refine_keywords(s.query, missing_ids, lam=0.3)
        assert pref.lam == 0.3 and kw.lam == 0.3


class _HandOverLock:
    """The engine's lock, with a second writer queued behind the first:
    ``then`` runs the instant the first write section releases."""

    def __init__(self, inner, then):
        self._inner = inner
        self._then = then

    def read(self):
        return self._inner.read()

    @contextmanager
    def write(self):
        with self._inner.write():
            yield
        then, self._then = self._then, None
        if then is not None:
            then()


class TestMutationReport:
    def test_report_describes_its_own_batch(self):
        """A writer taking the lock right after a batch releases it must
        not leak into that batch's report."""
        engine = YaskEngine(make_tiny_db())

        def second_writer():
            engine.apply_mutations(
                [
                    Mutation.insert(
                        SpatialObject(11, Point(0.6, 0.6), frozenset({"bar"}))
                    ),
                    Mutation.delete(0),
                ]
            )

        engine._lock = _HandOverLock(engine._lock, second_writer)
        report = engine.apply_mutations(
            [Mutation.insert(SpatialObject(10, Point(0.5, 0.5), frozenset({"bar"})))]
        )
        assert engine.generation == 2  # the second writer did run
        assert report.generation == 1
        assert report.objects == 6
        assert report.kernel["rows"] == 6
        assert report.kernel["live_rows"] == 6
        assert report.kernel["tombstones"] == 0
        engine.close()


class _ReadCountingLock:
    """The engine's lock, counting the read sections currently open."""

    def __init__(self, inner):
        self._inner = inner
        self.readers = 0

    @contextmanager
    def read(self):
        with self._inner.read():
            self.readers += 1
            try:
                yield
            finally:
                self.readers -= 1

    def write(self):
        return self._inner.write()


class TestObjectListing:
    def test_get_objects_iterates_under_the_read_lock(self, monkeypatch):
        """Iterating fills the database's dense object cache, which a
        batch clears: a lock-free reader could store a pre-batch tuple
        that a later snapshot would serialise."""
        from repro.core.objects import SpatialDatabase
        from repro.service.client import YaskClient
        from tests.service.conftest import running_server

        engine = YaskEngine(make_tiny_db())
        lock = engine._lock = _ReadCountingLock(engine._lock)
        held_at_iteration: list[int] = []
        iterate = SpatialDatabase.__iter__

        def spy(database):
            held_at_iteration.append(lock.readers)
            return iterate(database)

        monkeypatch.setattr(SpatialDatabase, "__iter__", spy)
        with running_server(engine) as server:
            with YaskClient(server.endpoint) as client:
                engine.apply_mutations(
                    [Mutation.insert(SpatialObject(10, Point(0.5, 0.5), frozenset({"bar"})))]
                )
                listed = client.objects()
        assert [obj["oid"] for obj in listed] == [0, 1, 2, 3, 4, 10]
        assert held_at_iteration and all(held_at_iteration)
