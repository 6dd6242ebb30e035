"""Unit tests for the live-mutation substrate (repro.core.mutations)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.geometry import Point, Rect
from repro.core.kernel import ScoringKernel
from repro.core.mutations import (
    BatchSummary,
    MissingTargetError,
    MutableDatabase,
    Mutation,
    MutationError,
    ReadWriteLock,
    topk_reach_keys,
)
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.scoring import Scorer
from repro.text.similarity import JACCARD
from tests.conftest import make_query, make_tiny_db


def obj(oid: int, x: float = 0.5, y: float = 0.5, *keywords: str, name=None):
    return SpatialObject(oid, Point(x, y), frozenset(keywords or ("kw",)), name)


class TestMutationValidation:
    def test_kinds_are_validated(self):
        with pytest.raises(MutationError):
            Mutation(kind="upsert", oid=1, obj=obj(1))

    def test_delete_carries_no_payload(self):
        with pytest.raises(MutationError):
            Mutation(kind="delete", oid=1, obj=obj(1))

    def test_insert_requires_payload(self):
        with pytest.raises(MutationError):
            Mutation(kind="insert", oid=1)

    def test_oid_must_match_object(self):
        with pytest.raises(MutationError):
            Mutation(kind="insert", oid=2, obj=obj(1))


class TestBatchNormalisation:
    def make(self):
        db = make_tiny_db()
        return db, MutableDatabase(db, model_code="jaccard")

    def test_insert_then_delete_is_a_noop(self):
        db, mutable = self.make()
        before = db.objects
        change = mutable.apply(
            [Mutation.insert(obj(9)), Mutation.delete(9), Mutation.insert(obj(10))]
        )
        assert change.inserted_count == 2 and change.deleted_count == 1
        assert [o.oid for o in db.objects] == [o.oid for o in before] + [10]

    def test_delete_then_insert_nets_to_update(self):
        db, mutable = self.make()
        replacement = obj(0, 0.9, 0.9, "swapped")
        change = mutable.apply(
            [Mutation.delete(0), Mutation.insert(replacement)]
        )
        assert change.removed[0].oid == 0
        assert change.appended == (replacement,)
        assert db.get(0) is replacement
        # Order rule: the replaced object moved to the end.
        assert db.objects[-1] is replacement

    def test_duplicate_insert_rejected(self):
        _, mutable = self.make()
        with pytest.raises(MutationError, match="already in use"):
            mutable.apply([Mutation.insert(obj(0))])

    def test_update_unknown_is_missing_target(self):
        _, mutable = self.make()
        with pytest.raises(MissingTargetError):
            mutable.apply([Mutation.update(obj(99))])

    def test_delete_unknown_is_missing_target(self):
        _, mutable = self.make()
        with pytest.raises(MissingTargetError):
            mutable.apply([Mutation.delete(99)])

    def test_batch_must_not_empty_database(self):
        _, mutable = self.make()
        with pytest.raises(MutationError, match="empty"):
            mutable.apply([Mutation.delete(oid) for oid in range(5)])

    def test_empty_batch_rejected(self):
        _, mutable = self.make()
        with pytest.raises(MutationError):
            mutable.apply([])

    def test_failed_batch_leaves_generation_untouched(self):
        _, mutable = self.make()
        with pytest.raises(MutationError):
            mutable.apply([Mutation.insert(obj(0))])
        assert mutable.generation == 0

    def test_generation_is_monotone(self):
        _, mutable = self.make()
        for expected in (1, 2, 3):
            mutable.apply([Mutation.insert(obj(100 + expected))])
            assert mutable.generation == expected


class TestDatabaseMaintenance:
    def test_name_lookup_follows_mutations(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db)
        mutable.apply([Mutation.delete(0)])
        assert db.find_by_name("o1") is None
        mutable.apply([Mutation.insert(obj(50, 0.3, 0.3, "x", name="o1"))])
        assert db.find_by_name("o1").oid == 50

    def test_name_passes_to_the_next_holder(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db)
        mutable.apply([Mutation.insert(obj(50, 0.3, 0.3, "x", name="o1"))])
        assert db.find_by_name("o1").oid == 0  # first holder wins
        mutable.apply([Mutation.delete(0)])
        assert db.find_by_name("o1").oid == 50
        # Removing a later holder leaves the registered one alone.
        mutable.apply([Mutation.insert(obj(51, 0.4, 0.4, "x", name="o1"))])
        mutable.apply([Mutation.delete(51)])
        assert db.find_by_name("o1").oid == 50
        # An update moves the object to the end: the name goes to the
        # first remaining holder in object order.
        mutable.apply([Mutation.insert(obj(52, 0.4, 0.4, "x", name="o1"))])
        mutable.apply([Mutation.update(obj(50, 0.2, 0.2, "y", name="o1"))])
        assert db.find_by_name("o1").oid == 52

    def test_lookups_match_a_fresh_database_after_every_batch(self):
        rng = random.Random(20)
        db = make_tiny_db()
        _ = db.doc_masks  # force interning
        mutable = MutableDatabase(db)
        live = [o.oid for o in db.objects]
        ever = set(live)
        names = ["o1", "o2", "shared", None]
        for step in range(60):
            batch = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["insert", "insert", "update", "delete"])
                if kind == "insert" or len(live) <= 2:
                    oid = max(ever) + 1
                    ever.add(oid)
                    live.append(oid)
                    batch.append(
                        Mutation.insert(
                            obj(oid, rng.random(), rng.random(),
                                rng.choice("abc"), name=rng.choice(names))
                        )
                    )
                elif kind == "update":
                    batch.append(
                        Mutation.update(
                            obj(rng.choice(live), rng.random(), rng.random(),
                                rng.choice("abc"), name=rng.choice(names))
                        )
                    )
                else:
                    batch.append(Mutation.delete(live.pop(rng.randrange(len(live)))))
            mutable.apply(batch)
            fresh = SpatialDatabase(db.objects, dataspace=db.dataspace)
            assert sorted(live) == sorted(o.oid for o in db.objects)
            for oid in ever:
                assert (oid in db) == (oid in fresh)
                if oid in fresh:
                    assert db.get(oid) is fresh.get(oid)
                    assert db.get(oid) in db
            for name in names[:-1] + ["nobody"]:
                assert db.find_by_name(name) is fresh.find_by_name(name)
            assert [
                db.vocabulary_index.decode(mask) for mask in db.doc_masks
            ] == [o.doc for o in db.objects]

    def test_vocabulary_extends_append_only(self):
        db = make_tiny_db()
        _ = db.doc_masks  # force interning
        before = db.vocabulary_index.keywords
        mutable = MutableDatabase(db)
        mutable.apply([Mutation.insert(obj(50, 0.3, 0.3, "aaa_new"))])
        after = db.vocabulary_index.keywords
        assert after[: len(before)] == before  # old positions untouched
        assert "aaa_new" in after
        assert db.doc_masks[-1] == 1 << after.index("aaa_new")

    @pytest.mark.parametrize("shards", [None, 4])
    def test_e16_shaped_batches_build_no_dense_tuple(self, shards):
        """A batch patches the id map and drops the dense caches; the
        first read after it rebuilds them exactly as a fresh database
        with the adopted vocabulary would."""
        from repro.datasets.generators import SyntheticDatasetBuilder
        from repro.service.api import YaskEngine

        base = SyntheticDatasetBuilder(seed=16).build(
            300, vocabulary_size=30, doc_length=(2, 5)
        )
        db = SpatialDatabase(base.objects, dataspace=base.dataspace)
        engine = YaskEngine(db, shards=shards)
        rng = random.Random(16)
        vocabulary = sorted(base.vocabulary())
        # The order rule, modelled: survivors keep their order, inserts
        # and updates go to the end.
        expected = {o.oid: o for o in base.objects}
        live: list[int] = []
        next_oid = 1_000_000

        def minted(oid):
            doc = set(rng.sample(vocabulary, rng.randint(1, 4)))
            if rng.random() < 0.2:
                doc.add(f"fresh{oid}")  # extends the vocabulary
            return obj(oid, rng.random(), rng.random(), *doc)

        for _ in range(50):
            batch = []
            for _ in range(6):
                batch.append(Mutation.insert(minted(next_oid)))
                live.append(next_oid)
                next_oid += 1
            if len(live) > 8:
                updated, deleted = rng.sample(range(len(live) - 6), 2)
                batch.append(Mutation.update(minted(live[updated])))
                batch.append(Mutation.delete(live.pop(deleted)))
            for mutation in batch:
                expected.pop(mutation.oid, None)
                if mutation.obj is not None:
                    expected[mutation.oid] = mutation.obj
            engine.apply_mutations(batch)
            # Neither the batch nor any listener rebuilt a dense tuple.
            assert db._objects is None and db._doc_masks is None
        fresh = SpatialDatabase(expected.values(), dataspace=db.dataspace)
        fresh.adopt_vocabulary(db.vocabulary_index.keywords)
        assert db.objects == fresh.objects
        assert db.doc_masks == fresh.doc_masks
        engine.close()

    def test_dataspace_and_normaliser_are_pinned(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db)
        before = db.distance_normaliser
        mutable.apply([Mutation.insert(obj(50, 5.0, 5.0, "far"))])
        assert db.dataspace == Rect(0.0, 0.0, 1.0, 1.0)
        assert db.distance_normaliser == before


class TestKernelMaintenance:
    def make(self):
        db = make_tiny_db()
        kernel = ScoringKernel(db, JACCARD, compaction_threshold=0.5)
        mutable = MutableDatabase(db, model_code="jaccard")
        mutable.register_listener(kernel)
        return db, kernel, mutable

    def test_tombstones_then_threshold_compaction(self):
        db, kernel, mutable = self.make()
        mutable.apply([Mutation.delete(1)])
        info = kernel.mutation_info()
        assert info["tombstones"] == 1 and info["compactions"] == 0
        assert kernel.live_count == 4
        mutable.apply([Mutation.delete(2), Mutation.delete(3)])
        info = kernel.mutation_info()
        # 3 dead of 5 rows > 0.5 threshold → compacted.
        assert info["tombstones"] == 0 and info["compactions"] == 1
        assert info["rows"] == 2

    def test_compacted_rows_match_database_order(self):
        db = make_tiny_db()
        kernel = ScoringKernel(db, JACCARD, compaction_threshold=0.2)
        mutable = MutableDatabase(db, model_code="jaccard")
        mutable.register_listener(kernel)
        mutable.apply(
            [
                Mutation.delete(0),
                Mutation.delete(2),
                Mutation.delete(4),
                Mutation.insert(obj(7, 0.4, 0.4, "restaurant")),
            ]
        )
        assert kernel.mutation_info()["tombstones"] == 0
        assert list(kernel.row_objects) == list(db.objects)

    def test_tombstoned_rows_never_rank(self):
        db, kernel, mutable = self.make()
        scorer = Scorer(db)
        object.__setattr__  # quiet lint; scorer built pre-mutation below
        mutable.register_listener(scorer.kernel)
        mutable.apply([Mutation.delete(1)])
        query = make_query(keywords=("restaurant",), k=10)
        ranked = scorer.rank_all(query)
        assert [entry.obj.oid for entry in ranked] == sorted(
            o.oid for o in db.objects
        ) or len(ranked) == 4
        assert all(entry.obj.oid != 1 for entry in ranked)
        top = scorer.top_k(make_query(keywords=("restaurant",), k=10))
        assert len(top.entries) == 4


class TestBatchSummary:
    def summary(self, mutable: MutableDatabase, mutations) -> BatchSummary:
        return mutable.apply(mutations).summary

    def test_removed_member_always_affects(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db, model_code="jaccard")
        summary = self.summary(mutable, [Mutation.delete(0)])

        class Meta:
            loc = Point(0.1, 0.1)
            doc = frozenset({"restaurant"})
            ws = wt = 0.5
            kth_score = 0.4
            result_oids = frozenset({0, 1})
            full = True

        assert summary.affects_topk(Meta())
        Meta.result_oids = frozenset({1, 2})
        assert not summary.affects_topk(Meta())  # pure delete, not a member

    def test_distant_irrelevant_insert_does_not_affect(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db, model_code="jaccard")
        summary = self.summary(
            mutable, [Mutation.insert(obj(50, 0.95, 0.95, "zzz"))]
        )

        class Meta:
            loc = Point(0.05, 0.05)
            doc = frozenset({"chinese"})
            ws = wt = 0.5
            kth_score = 0.45
            result_oids = frozenset({0, 1})
            full = True

        # Proximity bound: 1 − hypot(0.9, 0.9)/√2 ≈ 0.1; tsim bound 0
        # (no keyword overlap) → 0.5·0.1 < 0.45 ⇒ provably unaffected.
        assert not summary.affects_topk(Meta())
        # The same insert near the query must affect it.
        Meta.loc = Point(0.94, 0.94)
        assert summary.affects_topk(Meta())

    def test_partial_result_is_always_affected_by_inserts(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db, model_code="jaccard")
        summary = self.summary(
            mutable, [Mutation.insert(obj(50, 0.95, 0.95, "zzz"))]
        )

        class Meta:
            loc = Point(0.05, 0.05)
            doc = frozenset({"chinese"})
            ws = wt = 0.5
            kth_score = 0.45
            result_oids = frozenset({0, 1})
            full = False

        assert summary.affects_topk(Meta())

    def test_unknown_model_code_is_conservative(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db, model_code=None)
        summary = self.summary(
            mutable, [Mutation.insert(obj(50, 0.95, 0.95, "zzz"))]
        )

        class Meta:
            loc = Point(0.05, 0.05)
            doc = frozenset({"chinese"})
            ws = wt = 0.5
            kth_score = 0.99
            result_oids = frozenset({0})
            full = True

        assert summary.affects_topk(Meta())

    def test_reach_keys_find_every_result_a_batch_affects(self):
        """``affects_topk`` True implies the batch's reach keys meet the
        result's (the maintenance index finds every affected entry)."""
        rng = random.Random(39)
        words = ["chinese", "restaurant", "spanish", "zzz", "new"]
        for _ in range(300):
            db = make_tiny_db()
            query = make_query(
                rng.random(),
                rng.random(),
                keywords=tuple(rng.sample(words, rng.randrange(1, 3))),
                k=rng.randrange(1, 5),
                ws=rng.random(),
            )
            result = Scorer(db).top_k(query)

            class Meta:
                loc = query.loc
                doc = query.doc
                ws = query.ws
                wt = query.wt
                kth_score = result.entries[-1].score
                result_oids = frozenset(e.obj.oid for e in result.entries)
                full = len(result.entries) >= query.k

            batch = [
                Mutation.insert(
                    obj(50 + i, rng.random(), rng.random(), *rng.sample(words, 2))
                )
                for i in range(rng.randrange(3))
            ] + [Mutation.delete(oid) for oid in rng.sample(range(5), rng.randrange(3))]
            if not batch:
                continue
            summary = MutableDatabase(db, model_code="jaccard").apply(batch).summary
            if summary.affects_topk(Meta()):
                assert not summary.reach_keys().isdisjoint(topk_reach_keys(Meta()))


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        order: list[str] = []
        entered = threading.Barrier(3)

        def reader():
            with lock.read():
                entered.wait(timeout=5)  # both readers inside together
                order.append("read")

        threads = [threading.Thread(target=reader) for _ in range(2)]
        with lock.read():  # main thread is the third concurrent reader
            for thread in threads:
                thread.start()
            entered.wait(timeout=5)
        for thread in threads:
            thread.join(timeout=5)
        assert order == ["read", "read"]

    def test_nested_read_on_one_thread(self):
        lock = ReadWriteLock()
        with lock.read():
            with lock.read():  # the why-not → top-k re-entry pattern
                pass

    def test_writer_waits_for_readers(self):
        lock = ReadWriteLock()
        wrote = threading.Event()
        release = threading.Event()
        seen: list[str] = []

        def reader():
            with lock.read():
                seen.append("reader")
                release.wait(timeout=5)

        def writer():
            with lock.write():
                seen.append("writer")
                wrote.set()

        r = threading.Thread(target=reader)
        r.start()
        while not seen:
            pass
        w = threading.Thread(target=writer)
        w.start()
        assert not wrote.wait(timeout=0.05)  # blocked behind the reader
        release.set()
        assert wrote.wait(timeout=5)
        r.join(timeout=5)
        w.join(timeout=5)
        assert seen == ["reader", "writer"]


class TestNoopBatchesAndPreCommit:
    """Regressions for the durability tier's sequential-semantics fix.

    A batch whose *net* effect is empty must not bump the generation
    (or notify anyone): the WAL never logs it, so replaying the log
    reproduces the exact generation sequence of the original run.
    """

    def make(self):
        db = make_tiny_db()
        return db, MutableDatabase(db, model_code="jaccard")

    def test_net_empty_batch_is_a_noop(self):
        db, mutable = self.make()
        before = db.objects
        change = mutable.apply([Mutation.insert(obj(9)), Mutation.delete(9)])
        assert change.is_noop
        assert change.generation == 0
        assert mutable.generation == 0
        assert db.objects == before
        # The per-op counts are still reported faithfully.
        assert change.inserted_count == 1
        assert change.deleted_count == 1
        # ...but the cumulative stats never saw a batch.
        assert mutable.stats.to_dict()["batches"] == 0

    def test_noop_batch_skips_listeners_and_pre_commit(self):
        _, mutable = self.make()
        calls: list = []

        class Listener:
            def apply_mutations(self, change):
                calls.append(("listener", change.generation))

        mutable.register_listener(Listener())
        mutable.apply(
            [Mutation.insert(obj(9)), Mutation.delete(9)],
            pre_commit=lambda gen, muts: calls.append(("pre_commit", gen)),
        )
        assert calls == []

    def test_generations_stay_contiguous_across_noops(self):
        _, mutable = self.make()
        mutable.apply([Mutation.insert(obj(9))])
        noop = mutable.apply([Mutation.insert(obj(10)), Mutation.delete(10)])
        real = mutable.apply([Mutation.insert(obj(11))])
        assert noop.generation == 1
        assert real.generation == 2  # no gap where the no-op sat

    def test_pre_commit_sees_the_next_generation(self):
        _, mutable = self.make()
        seen: list[int] = []
        mutable.apply(
            [Mutation.insert(obj(9))],
            pre_commit=lambda gen, muts: seen.append(gen),
        )
        assert seen == [1]
        assert mutable.generation == 1

    def test_pre_commit_failure_abandons_the_batch(self):
        db, mutable = self.make()
        before = db.objects

        def refuse(gen, muts):
            raise RuntimeError("log unavailable")

        with pytest.raises(RuntimeError, match="log unavailable"):
            mutable.apply([Mutation.insert(obj(9))], pre_commit=refuse)
        assert mutable.generation == 0
        assert db.objects == before
        assert mutable.stats.to_dict()["batches"] == 0

    def test_start_generation_resumes_a_snapshot(self):
        db = make_tiny_db()
        mutable = MutableDatabase(db, start_generation=7)
        assert mutable.generation == 7
        change = mutable.apply([Mutation.insert(obj(9))])
        assert change.generation == 8

    def test_negative_start_generation_rejected(self):
        with pytest.raises(ValueError):
            MutableDatabase(make_tiny_db(), start_generation=-1)
