"""Unit tests for :mod:`repro.core.sharding`.

The bit-for-bit parity of whole engines is covered by
``tests/properties/test_prop_sharding.py``; here the partitioners, the
shard summaries, the pruning bounds' *safety* (never below a true shard
maximum), the router bookkeeping and the one plain kernel a sharded
engine ranks on are pinned down directly.
"""

import random

import pytest

from repro.core.geometry import Point, Rect
from repro.core.kernel import ScoringKernel
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.core.sharding import (
    PARTITIONERS,
    Shard,
    ShardRouter,
    ShardStats,
    grid_partition,
    round_robin_partition,
)
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine


@pytest.fixture(scope="module")
def clustered_db() -> SpatialDatabase:
    return SyntheticDatasetBuilder(seed=5).build(
        400, vocabulary_size=40, doc_length=(2, 6),
        spatial="clustered", clusters=6,
    )


def fresh_engine(database: SpatialDatabase, **options) -> YaskEngine:
    """An engine over a private copy: mutation batches change its database."""
    return YaskEngine(
        SpatialDatabase(database.objects, dataspace=database.dataspace),
        **options,
    )


def members(shard: Shard) -> list[SpatialObject]:
    """The shard's live objects: its kernel's rows minus tombstones."""
    return [obj for obj in shard.kernel.row_objects if obj is not None]


def assert_shards_partition_the_database(router: ShardRouter) -> None:
    """Every live object is held by exactly one shard kernel, whose
    row map names it and no tombstone."""
    held = [obj.oid for shard in router.shards for obj in members(shard)]
    assert sorted(held) == sorted(obj.oid for obj in router.database)
    for shard in router.shards:
        assert shard.kernel._row_of.keys() == {obj.oid for obj in members(shard)}


def assert_disjoint_cover(assignments, n):
    seen = set()
    for rows in assignments:
        assert rows, "no shard may be empty"
        assert rows == sorted(rows), "rows must ascend within a shard"
        assert not (seen & set(rows)), "shards must be disjoint"
        seen.update(rows)
    assert seen == set(range(n)), "shards must cover every row"


class TestPartitioners:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5, 6, 8])
    def test_grid_is_a_balanced_disjoint_cover(self, clustered_db, shards):
        assignments = grid_partition(clustered_db, shards)
        assert len(assignments) == shards
        assert_disjoint_cover(assignments, len(clustered_db))
        sizes = sorted(len(rows) for rows in assignments)
        assert sizes[-1] - sizes[0] <= 2  # quantile tiles stay balanced

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_round_robin_is_a_disjoint_cover(self, clustered_db, shards):
        assignments = round_robin_partition(clustered_db, shards)
        assert len(assignments) == shards
        assert_disjoint_cover(assignments, len(clustered_db))

    def test_more_shards_than_objects_clamps(self, tiny_db):
        assert len(grid_partition(tiny_db, 50)) == len(tiny_db)
        assert len(round_robin_partition(tiny_db, 50)) == len(tiny_db)

    def test_zero_shards_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            grid_partition(tiny_db, 0)

    def test_grid_tiles_are_spatially_coherent(self, clustered_db):
        """Quantile tiles must not overlap in their split dimension."""
        assignments = grid_partition(clustered_db, 4)
        objects = clustered_db.objects
        xs = [
            sorted(objects[row].loc.x for row in rows)
            for rows in assignments
        ]
        # 4 = 2x2: the first two shards share an x-slice, the last two
        # the other; slices must not interleave in x.
        assert max(xs[0] + xs[1]) <= min(xs[2] + xs[3]) + 1e-12

    def test_registry_names(self):
        assert set(PARTITIONERS) == {"grid", "round-robin"}


class TestRouter:
    def test_shard_kernels_share_the_parent_normaliser_and_vocabulary(
        self, clustered_db
    ):
        router = ShardRouter(clustered_db, shards=4)
        global_kernel = ScoringKernel(clustered_db)
        for shard in router.shards:
            assert shard.kernel.database is clustered_db
            assert shard.kernel._normaliser == clustered_db.distance_normaliser
            assert shard.kernel.vocabulary is clustered_db.vocabulary_index
            for obj in members(shard):
                assert shard.kernel._masks[shard.kernel.row_of(obj.oid)] == (
                    global_kernel._masks[global_kernel.row_of(obj.oid)]
                )

    def test_shard_summaries(self, clustered_db):
        router = ShardRouter(clustered_db, shards=3)
        encode = clustered_db.vocabulary_index.encode
        for shard in router.shards:
            union = 0
            lengths = []
            for obj in members(shard):
                union |= encode(obj.doc)
                lengths.append(len(obj.doc))
                assert shard.mbr.contains_point(obj.loc)
            assert shard.vocab_mask == union
            assert shard.min_doc_len == min(lengths)
            assert shard.max_doc_len == max(lengths)

    def test_shard_rows_round_trip(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4)
        covered = []
        for shard in router.shards:
            for local, obj in enumerate(members(shard)):
                assert clustered_db.get(obj.oid) is obj
                assert shard.kernel.row_of(obj.oid) == local
                covered.append(obj.oid)
        assert sorted(covered) == sorted(obj.oid for obj in clustered_db)

    def test_rejects_unknown_partitioner(self, clustered_db):
        with pytest.raises(ValueError, match="unknown partitioner"):
            ShardRouter(clustered_db, shards=2, partitioner="zorder")

    def test_rejects_bad_custom_partition(self, clustered_db):
        def overlapping(database, shards):
            rows = list(range(len(database)))
            return [rows, rows]

        with pytest.raises(ValueError, match="disjoint cover"):
            ShardRouter(clustered_db, shards=2, partitioner=overlapping)

    def test_to_dict_shape(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4)
        payload = router.to_dict()
        assert payload["count"] == 4
        assert payload["partitioner"] == "grid"
        assert sum(payload["objects"]) == len(clustered_db)
        assert payload["topk_searches"] == 0


class TestBoundSafety:
    """The static bounds must dominate every true shard value.

    Skips rest on these inequalities; a violation would silently break
    result parity, so they are pinned against brute-force maxima across
    partitioners and many random queries.
    """

    @pytest.mark.parametrize("partitioner", ["grid", "round-robin"])
    def test_score_upper_bounds_dominate(self, clustered_db, partitioner):
        router = ShardRouter(clustered_db, shards=5, partitioner=partitioner)
        scorer = Scorer(clustered_db, use_kernel=False)
        vocab = sorted(clustered_db.vocabulary())
        rng = random.Random(99)
        for trial in range(25):
            doc = frozenset(rng.sample(vocab, rng.randint(1, 4)))
            if trial % 5 == 0:
                doc |= {"never-seen-keyword"}
            query = SpatialKeywordQuery(
                loc=Point(rng.random(), rng.random()),
                doc=doc,
                k=3,
                weights=Weights.from_spatial(rng.uniform(0.05, 0.95)),
            )
            bounds = router.score_upper_bounds(query)
            for shard, bound in zip(router.shards, bounds):
                true_max = max(
                    scorer.score(obj, query) for obj in members(shard)
                )
                assert bound >= true_max - 1e-12, (
                    f"unsafe bound: {bound} < {true_max}"
                )

    def test_proximity_bound_clamps_like_the_kernel(self):
        objects = [
            SpatialObject(0, Point(0.0, 0.0), frozenset({"a"})),
            SpatialObject(1, Point(0.1, 0.1), frozenset({"b"})),
        ]
        db = SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 0.2, 0.2))
        router = ShardRouter(db, shards=1)
        # A query far outside the dataspace: SDist clamps at 1, so the
        # proximity bound must clamp to 0, never go negative.
        bound = router.shards[0].proximity_upper_bound(
            50.0, 50.0, db.distance_normaliser
        )
        assert bound == 0.0


class TestMaintenanceIsBatchSized:
    """A batch that moves no boundary pays for neither a compaction nor
    a summary recompute."""

    def test_e16_shaped_batches_then_a_delete_heavy_tail(
        self, clustered_db, monkeypatch
    ):
        engine = YaskEngine(
            SpatialDatabase(clustered_db.objects, dataspace=clustered_db.dataspace),
            shards=4,
        )
        router, kernel = engine.shard_router, engine.kernel
        calls = {"_recompute_summaries": 0}
        original = Shard._recompute_summaries

        def counted(self, *args):
            calls["_recompute_summaries"] += 1
            return original(self, *args)

        monkeypatch.setattr(Shard, "_recompute_summaries", counted)

        # Inserts that can never hold a boundary wherever they land:
        # strictly inside a shard's MBR, keywords and a doc length that
        # base objects (never removed here) hold in every shard.
        vocabulary = engine.database.vocabulary_index
        everywhere = router.shards[0].vocab_mask
        for shard in router.shards[1:]:
            everywhere &= shard.vocab_mask
        doc = frozenset(sorted(vocabulary.decode(everywhere))[:3])
        assert len(doc) == 3
        for shard in router.shards:
            assert any(len(obj.doc) == 3 for obj in members(shard))
        rng = random.Random(16)

        def minted(oid):
            mbr = router.shards[oid % 4].mbr
            return SpatialObject(
                oid,
                Point(
                    mbr.center.x + rng.uniform(-0.2, 0.2) * mbr.width,
                    mbr.center.y + rng.uniform(-0.2, 0.2) * mbr.height,
                ),
                doc,
            )

        live: list[int] = []
        next_oid = 1_000_000
        for _ in range(50):
            earlier = len(live)
            batch = []
            for _ in range(6):
                batch.append(Mutation.insert(minted(next_oid)))
                live.append(next_oid)
                next_oid += 1
            if earlier >= 2:
                updated, deleted = rng.sample(range(earlier), 2)
                batch.append(Mutation.update(minted(live[updated])))
                batch.append(Mutation.delete(live.pop(deleted)))
            engine.apply_mutations(batch)
        assert kernel.mutation_info()["tombstones"] == 2 * 49
        assert kernel.compactions == 0
        assert [shard.kernel.compactions for shard in router.shards] == [0] * 4
        assert sum(shard.kernel.mutation_info()["tombstones"]
                   for shard in router.shards) == 2 * 49
        assert calls == {"_recompute_summaries": 0}

        # The tail: retire a third of one shard, its west-most object
        # (an MBR edge) first.  That shard's kernel crosses its own
        # threshold long before the global kernel does.
        victim = router.shards[0]
        doomed = sorted(members(victim), key=lambda obj: obj.loc.x)
        doomed = [obj.oid for obj in doomed[: len(doomed) // 3]]
        for start in range(0, len(doomed), 8):
            engine.apply_mutations(
                [Mutation.delete(oid) for oid in doomed[start : start + 8]]
            )
        assert victim.kernel.compactions >= 1
        assert kernel.compactions == 0 and kernel.has_tombstones
        assert calls["_recompute_summaries"] >= 1
        assert_shards_partition_the_database(router)
        for shard in router.shards:
            for obj in members(shard):
                assert obj is engine.database.get(obj.oid)
        engine.close()


class TestOneKernel:
    """A sharded engine ranks on one plain kernel over the whole
    database; its shards serve the top-k scatter and nothing else."""

    def test_sharded_engine_scores_on_one_plain_kernel(self, clustered_db):
        engine = fresh_engine(clustered_db, shards=4)
        assert type(engine.kernel) is ScoringKernel
        assert engine.scorer.kernel is engine.kernel
        assert engine.kernel.database is engine.database
        assert engine.kernel.live_count == len(clustered_db)
        engine.close()

    def test_shard_kernels_are_plain_kernels_over_their_members(
        self, clustered_db
    ):
        router = ShardRouter(clustered_db, shards=4)
        for shard in router.shards:
            assert type(shard.kernel) is ScoringKernel
            assert shard.kernel.live_count == len(shard) == len(members(shard))

    def test_scorer_takes_no_shard_router(self, clustered_db):
        router = ShardRouter(clustered_db, shards=2)
        with pytest.raises(TypeError, match="shard_router"):
            Scorer(clustered_db, shard_router=router)

    def test_stats_count_only_the_topk_scatter(self, clustered_db):
        fields = {
            "topk_searches",
            "topk_shards_scanned",
            "topk_shards_skipped",
            "topk_scatter_ms",
            "topk_merge_ms",
        }
        assert ShardStats().to_dict().keys() == fields
        router = ShardRouter(clustered_db, shards=3)
        assert router.to_dict().keys() == {"count", "partitioner", "objects"} | fields

    def test_rank_utilities_never_touch_the_shards(self, clustered_db):
        engine = fresh_engine(clustered_db, shards=4)
        router, scorer = engine.shard_router, engine.scorer
        vocab = sorted(clustered_db.vocabulary())
        query = SpatialKeywordQuery(
            loc=Point(0.1, 0.1), doc=frozenset(vocab[:2]), k=3,
            weights=Weights.from_spatial(0.9),
        )
        targets = list(engine.database.objects[:3])
        scorer.rank_of(targets[0], query)
        scorer.worst_rank(targets, query)
        engine.kernel.doc_context(frozenset(vocab[2:4])).rank_scan(
            query.ws, query.wt, engine.kernel.proximities(query), targets[0].oid
        )
        stats = engine.kernel.stats.to_dict()
        assert stats["count_better_calls"] == 1
        assert stats["rank_of_many_calls"] == 1
        assert stats["doc_rank_scans"] == 1
        assert all(value == 0 for value in router.stats.to_dict().values())
        for shard in router.shards:
            assert all(value == 0 for value in shard.kernel.stats.to_dict().values())
        engine.close()

    @pytest.mark.parametrize("partitioner", ["grid", "round-robin"])
    def test_rank_utilities_match_the_set_path(self, clustered_db, partitioner):
        engine = fresh_engine(clustered_db, shards=4, partitioner=partitioner)
        oracle = Scorer(clustered_db, use_kernel=False)
        vocab = sorted(clustered_db.vocabulary())
        query = SpatialKeywordQuery(
            loc=Point(0.4, 0.6), doc=frozenset(vocab[3:6]), k=5,
            weights=Weights.from_spatial(0.3),
        )
        sample = engine.database.objects[::37]
        for obj in sample:
            assert engine.scorer.rank_of(obj, query) == oracle.rank_of(obj, query)
        assert engine.scorer.worst_rank(sample, query) == oracle.worst_rank(
            sample, query
        )
        engine.close()

    def test_proximity_column_is_database_ordered(self, clustered_db):
        engine = fresh_engine(clustered_db, shards=4)
        oracle = Scorer(clustered_db, use_kernel=False)
        query = SpatialKeywordQuery(
            loc=Point(0.4, 0.6), doc=frozenset(sorted(clustered_db.vocabulary())[:1]),
            k=2,
        )
        assert engine.kernel.proximities(query) == [
            1.0 - oracle.sdist(obj, query) for obj in clustered_db
        ]
        engine.close()


class TestEmptiedShard:
    """A batch that empties a shard drops it; the shards after it move
    down one index, and later batches still route each removal to the
    shard kernel that holds it."""

    @staticmethod
    def drop_shard(engine: YaskEngine, index: int) -> tuple[int, ...]:
        router = engine.shard_router
        ids_before = tuple(shard.shard_id for shard in router.shards)
        doomed = [obj.oid for obj in members(router.shards[index])]
        engine.apply_mutations([Mutation.delete(oid) for oid in doomed])
        return ids_before[:index] + ids_before[index + 1 :]

    def test_emptied_shard_is_dropped(self, clustered_db):
        engine = fresh_engine(clustered_db, shards=4)
        survivors = self.drop_shard(engine, 1)
        router = engine.shard_router
        assert tuple(shard.shard_id for shard in router.shards) == survivors
        assert len(router) == 3
        assert sum(router.shard_sizes()) == len(engine.database)
        assert_shards_partition_the_database(router)
        engine.close()

    def test_survivors_hold_no_tombstoned_member(self, clustered_db):
        engine = fresh_engine(clustered_db, shards=4)
        router = engine.shard_router
        # One delete per surviving shard stays a tombstone in its kernel.
        tombstoned = [members(router.shards[index])[0].oid
                      for index in (0, 2, 3)]
        engine.apply_mutations([Mutation.delete(oid) for oid in tombstoned])
        assert all(router.shards[index].kernel.has_tombstones
                   for index in (0, 2, 3))
        self.drop_shard(engine, 1)
        assert not set(tombstoned) & {
            oid for shard in router.shards for oid in shard.kernel._row_of
        }
        assert_shards_partition_the_database(router)
        engine.close()

    def test_later_batches_route_by_the_shifted_indices(self, clustered_db):
        engine = fresh_engine(clustered_db, shards=4)
        self.drop_shard(engine, 0)
        router = engine.shard_router
        last = router.shards[-1]
        victim = members(last)[0].oid
        newcomer = SpatialObject(
            2_000_000, last.mbr.center, frozenset(sorted(clustered_db.vocabulary())[:2])
        )
        engine.apply_mutations(
            [Mutation.delete(victim), Mutation.insert(newcomer)]
        )
        assert victim not in {obj.oid for obj in members(last)}
        (owner,) = [
            shard for shard in router.shards if newcomer.oid in shard.kernel._row_of
        ]
        assert engine.database.get(newcomer.oid) in members(owner)
        assert_shards_partition_the_database(router)
        query = SpatialKeywordQuery(
            loc=newcomer.loc, doc=newcomer.doc, k=10,
            weights=Weights.from_spatial(0.5),
        )
        oracle = Scorer(engine.database, use_kernel=False)
        assert [tuple(entry) for entry in engine.query(query)] == [
            tuple(entry) for entry in oracle.top_k(query)
        ]
        engine.close()
