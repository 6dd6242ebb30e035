"""Unit tests for :mod:`repro.core.sharding`.

The bit-for-bit parity of whole engines is covered by
``tests/properties/test_prop_sharding.py``; here the partitioners, the
shard summaries, the pruning bounds' *safety* (never below a true shard
maximum) and the router bookkeeping are pinned down directly.
"""

import math
import random

import pytest

from repro.core.geometry import Point, Rect
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.core.sharding import (
    PARTITIONERS,
    Shard,
    ShardRouter,
    ShardedKernel,
    grid_partition,
    round_robin_partition,
)
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.text.similarity import (
    JACCARD,
    CosineTfIdfSimilarity,
    DiceSimilarity,
    OverlapSimilarity,
)

DICE = DiceSimilarity()
OVERLAP = OverlapSimilarity()


@pytest.fixture(scope="module")
def clustered_db() -> SpatialDatabase:
    return SyntheticDatasetBuilder(seed=5).build(
        400, vocabulary_size=40, doc_length=(2, 6),
        spatial="clustered", clusters=6,
    )


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
    def test_shards_inherit_dataspace_and_normaliser(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4, text_model=JACCARD)
        for shard in router.shards:
            assert shard.database.dataspace == clustered_db.dataspace
            assert (
                shard.database.distance_normaliser
                == clustered_db.distance_normaliser
            )

    def test_shard_summaries(self, clustered_db):
        router = ShardRouter(clustered_db, shards=3, text_model=JACCARD)
        masks = clustered_db.doc_masks
        for shard in router.shards:
            union = 0
            lengths = []
            for row in shard.rows:
                union |= masks[row]
                lengths.append(len(clustered_db.objects[row].doc))
                assert shard.mbr.contains_point(clustered_db.objects[row].loc)
            assert shard.vocab_mask == union
            assert shard.min_doc_len == min(lengths)
            assert shard.max_doc_len == max(lengths)

    def test_shard_rows_round_trip(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4, text_model=JACCARD)
        covered = []
        for shard in router.shards:
            for local, row in enumerate(shard.rows):
                oid = clustered_db.objects[row].oid
                assert shard.kernel.row_of(oid) == local
                covered.append(row)
        assert sorted(covered) == list(range(len(clustered_db)))

    def test_rejects_unknown_partitioner(self, clustered_db):
        with pytest.raises(ValueError, match="unknown partitioner"):
            ShardRouter(clustered_db, shards=2, partitioner="zorder",
                        text_model=JACCARD)

    def test_rejects_kernel_free_model(self, clustered_db):
        cosine = CosineTfIdfSimilarity(
            clustered_db.keyword_document_frequencies(), len(clustered_db)
        )
        with pytest.raises(ValueError, match="columnar kernel"):
            ShardRouter(clustered_db, shards=2, text_model=cosine)

    def test_rejects_bad_custom_partition(self, clustered_db):
        def overlapping(database, shards):
            rows = list(range(len(database)))
            return [rows, rows]

        with pytest.raises(ValueError, match="disjoint cover"):
            ShardRouter(clustered_db, shards=2, partitioner=overlapping,
                        text_model=JACCARD)

    def test_to_dict_shape(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4, text_model=JACCARD)
        payload = router.to_dict()
        assert payload["count"] == 4
        assert payload["partitioner"] == "grid"
        assert sum(payload["objects"]) == len(clustered_db)
        assert payload["topk_searches"] == 0


class TestBoundSafety:
    """The static bounds must dominate every true shard value.

    Skips rest on these inequalities; a violation would silently break
    result parity, so they are pinned against brute-force maxima across
    models, partitioners and many random queries.
    """

    @pytest.mark.parametrize("model", [JACCARD, DICE, OVERLAP],
                             ids=["jaccard", "dice", "overlap"])
    @pytest.mark.parametrize("partitioner", ["grid", "round-robin"])
    def test_score_upper_bounds_dominate(
        self, clustered_db, model, partitioner
    ):
        router = ShardRouter(
            clustered_db, shards=5, partitioner=partitioner, text_model=model
        )
        scorer = Scorer(clustered_db, text_model=model, use_kernel=False)
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
                    scorer.score(obj, query) for obj in shard.database
                )
                assert bound >= true_max - 1e-12, (
                    f"unsafe bound for {model.name}: {bound} < {true_max}"
                )

    def test_proximity_bound_clamps_like_the_kernel(self):
        objects = [
            SpatialObject(0, Point(0.0, 0.0), frozenset({"a"})),
            SpatialObject(1, Point(0.1, 0.1), frozenset({"b"})),
        ]
        db = SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 0.2, 0.2))
        router = ShardRouter(db, shards=1, text_model=JACCARD)
        # A query far outside the dataspace: SDist clamps at 1, so the
        # proximity bound must clamp to 0, never go negative.
        bound = router.shards[0].proximity_upper_bound(
            50.0, 50.0, db.distance_normaliser
        )
        assert bound == 0.0


class TestShardedKernel:
    def test_maybe_build_falls_back_without_router(self, clustered_db):
        kernel = ShardedKernel.maybe_build(clustered_db, JACCARD, None)
        assert kernel is not None and not isinstance(kernel, ShardedKernel)

    def test_maybe_build_none_for_unsupported_model(self, clustered_db):
        model = CosineTfIdfSimilarity(
            clustered_db.keyword_document_frequencies(), len(clustered_db)
        )
        assert ShardedKernel.maybe_build(clustered_db, model, None) is None

    def test_router_database_mismatch_rejected(self, clustered_db, small_db):
        router = ShardRouter(small_db, shards=2, text_model=JACCARD)
        with pytest.raises(ValueError, match="same database"):
            ShardedKernel(clustered_db, JACCARD, router)

    def test_proximity_column_is_database_ordered(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4, text_model=JACCARD)
        sharded = Scorer(clustered_db, shard_router=router)
        plain = Scorer(clustered_db)
        keyword = sorted(clustered_db.vocabulary())[0]
        query = SpatialKeywordQuery(
            loc=Point(0.4, 0.6), doc=frozenset({keyword}), k=2
        )
        column = sharded.kernel.proximities(query)
        assert list(column) == plain.kernel.proximities(query)
        assert len(column.shard_slices) == 4
        for piece, top in zip(column.shard_slices, column.shard_maxima):
            assert top == max(piece)

    def test_skip_counters_move(self, clustered_db):
        router = ShardRouter(clustered_db, shards=4, text_model=JACCARD)
        scorer = Scorer(clustered_db, shard_router=router)
        vocab = sorted(clustered_db.vocabulary())
        query = SpatialKeywordQuery(
            loc=Point(0.1, 0.1), doc=frozenset(vocab[:2]), k=3,
            weights=Weights.from_spatial(0.9),
        )
        target = clustered_db.objects[0]
        scorer.rank_of(target, query)
        stats = router.stats.to_dict()
        assert stats["count_passes"] == 1
        assert (
            stats["count_shards_scanned"] + stats["count_shards_skipped"] == 4
        )


class TestMaintenanceIsBatchSized:
    """A batch that renumbers nothing and moves no boundary pays for
    neither: no compaction, no summary recompute, no row-map rebuild."""

    def test_e16_shaped_batches_then_a_delete_heavy_tail(
        self, clustered_db, monkeypatch
    ):
        engine = YaskEngine(
            SpatialDatabase(clustered_db.objects, dataspace=clustered_db.dataspace),
            shards=4,
        )
        router, kernel = engine.shard_router, engine.kernel
        calls = {"_recompute_summaries": 0, "_rebuild_row_maps": 0}
        for owner, name in ((Shard, "_recompute_summaries"),
                            (ShardRouter, "_rebuild_row_maps")):
            def counted(self, *args, _original=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)
            monkeypatch.setattr(owner, name, counted)

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
            assert any(len(obj.doc) == 3 for obj in shard.database)
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
        assert calls == {"_recompute_summaries": 0, "_rebuild_row_maps": 0}

        # The tail: retire a third of one shard, its west-most object
        # (an MBR edge) first.  That shard's kernel crosses its own
        # threshold long before the global kernel does.
        victim = router.shards[0]
        doomed = sorted(victim.database, key=lambda obj: obj.loc.x)
        doomed = [obj.oid for obj in doomed[: len(doomed) // 3]]
        for start in range(0, len(doomed), 8):
            engine.apply_mutations(
                [Mutation.delete(oid) for oid in doomed[start : start + 8]]
            )
        assert victim.kernel.compactions >= 1
        assert kernel.compactions == 0 and kernel.has_tombstones
        assert calls["_recompute_summaries"] >= 1
        assert calls["_rebuild_row_maps"] == victim.kernel.compactions
        owners = {
            obj.oid: shard for shard in router.shards for obj in shard.database
        }
        for obj in engine.database:
            shard = owners[obj.oid]
            assert shard.rows[shard.kernel.row_of(obj.oid)] == kernel.row_of(obj.oid)
        engine.close()
