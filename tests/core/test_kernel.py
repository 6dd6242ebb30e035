"""Unit tests for the columnar scoring kernel (repro.core.kernel).

The exhaustive bit-for-bit parity sweeps live in
``tests/properties/test_prop_kernel.py``; this module covers the
kernel's construction rules, counters, edge cases and the scorer's
fallback behaviour around it.
"""

from types import SimpleNamespace

import pytest

from repro.core.geometry import Point, Rect
from repro.core.kernel import ScoringKernel
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.index.dualspace import DualSpaceIndex
from repro.paper import ranks_at_weights
from repro.text.similarity import JACCARD, JaccardSimilarity
from repro.whynot.context import WhyNotContext
from repro.whynot.preference import PreferenceAdjuster


def edge_db() -> SpatialDatabase:
    """Empty docs, shared keywords and score ties in one database."""
    return SpatialDatabase(
        [
            SpatialObject(oid=0, loc=Point(0.1, 0.1), doc=frozenset({"cafe", "wifi"})),
            SpatialObject(oid=1, loc=Point(0.9, 0.9), doc=frozenset()),
            SpatialObject(oid=2, loc=Point(0.1, 0.1), doc=frozenset({"cafe", "wifi"})),
            SpatialObject(oid=3, loc=Point(0.5, 0.5), doc=frozenset({"bar"})),
        ],
        dataspace=Rect(0.0, 0.0, 1.0, 1.0),
    )


def crossing_events(view, oid: int, ws: float = 0.5) -> list[tuple[float, int]]:
    """The target's crossover events, every run of its view walked end
    to end: ``(w*, oid)`` sorted."""
    return sorted(
        run.event(t)
        for run in view.crossing_runs(oid, ws)
        for t in range(run.low, run.stop)
    )


def linear_events(duals, m) -> list[tuple[float, int]]:
    """The same events from the linear quadrant scan, one line at a
    time: every valid crossover weight of an opposite-quadrant point."""
    events = []
    for other in DualSpaceIndex.crossing_candidates_linear(duals, m):
        w = m.crossover_with(other)
        if w is not None and Weights.interior(w):
            events.append((w, other.oid))
    return sorted(events)


def query(keywords, *, k=2, ws=0.5) -> SpatialKeywordQuery:
    return SpatialKeywordQuery(
        loc=Point(0.2, 0.3),
        doc=frozenset(keywords),
        k=k,
        weights=Weights.from_spatial(ws),
    )


class TestConstruction:
    def test_kernel_scores_jaccard_and_takes_no_model(self):
        with pytest.raises(TypeError):
            ScoringKernel(edge_db(), JaccardSimilarity())

    def test_scorer_takes_no_text_model(self):
        with pytest.raises(TypeError, match="text_model"):
            Scorer(edge_db(), text_model=JACCARD)

    def test_scorer_builds_kernel_by_default(self):
        assert Scorer(edge_db()).kernel is not None

    def test_scorer_kernel_opt_out(self):
        assert Scorer(edge_db(), use_kernel=False).kernel is None

    def test_columns_align_with_database(self):
        db = edge_db()
        kernel = ScoringKernel(db)
        assert len(kernel) == len(db)
        assert list(kernel.oids) == [obj.oid for obj in db]
        assert [kernel.row_of(obj.oid) for obj in db] == list(range(len(db)))


class TestEdgeCases:
    def test_empty_doc_scores_zero_tsim(self):
        db = edge_db()
        kernel = ScoringKernel(db)
        q = query({"cafe"})
        _sdists, tsims, _scores = kernel.components_all(q)
        assert tsims[kernel.row_of(1)] == 0.0

    def test_out_of_vocabulary_query_keywords(self):
        """Unknown query keywords never match but still enlarge |q.doc|."""
        db = edge_db()
        scorer = Scorer(db)
        q = query({"cafe", "sushi"})  # "sushi" unseen in the corpus
        for obj in db:
            expected = JACCARD.similarity(obj.doc, q.doc)
            prepared = scorer.kernel.prepare(q)
            _sdists, tsims, _scores = scorer.kernel.components_all(q)
            assert tsims[scorer.kernel.row_of(obj.oid)] == expected
            assert prepared.score_oid(obj.oid) == scorer.score(obj, q)

    def test_all_query_keywords_unknown(self):
        db = edge_db()
        scorer = Scorer(db)
        q = query({"sushi", "ramen"})
        _sdists, tsims, _scores = scorer.kernel.components_all(q)
        assert list(tsims) == [0.0] * len(db)

    def test_tie_order_prefers_smaller_oid(self):
        """Objects 0 and 2 are exact duplicates; oid breaks the tie."""
        scorer = Scorer(edge_db())
        ranking = scorer.rank_all(query({"cafe"}))
        oids = [entry.obj.oid for entry in ranking]
        assert oids.index(0) < oids.index(2)

    def test_order_rows_with_non_ascending_oids(self):
        db = SpatialDatabase(
            [
                SpatialObject(oid=7, loc=Point(0.1, 0.1), doc=frozenset({"a"})),
                SpatialObject(oid=3, loc=Point(0.1, 0.1), doc=frozenset({"a"})),
                SpatialObject(oid=5, loc=Point(0.1, 0.1), doc=frozenset({"a"})),
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
        fast = Scorer(db)
        slow = Scorer(db, use_kernel=False)
        q = SpatialKeywordQuery(loc=Point(0.1, 0.1), doc=frozenset({"a"}), k=3)
        assert [e.obj.oid for e in fast.rank_all(q)] == [3, 5, 7]
        assert [tuple(e) for e in fast.rank_all(q)] == [
            tuple(e) for e in slow.rank_all(q)
        ]


class TestRankPrimitives:
    def test_count_better_matches_rank_of(self):
        db = edge_db()
        fast = Scorer(db)
        slow = Scorer(db, use_kernel=False)
        q = query({"cafe", "bar"})
        for obj in db:
            expected = slow.rank_of(obj, q)
            assert fast.rank_of(obj, q) == expected
            score = slow.score(obj, q)
            assert fast.kernel.count_better(score, obj.oid, q) + 1 == expected

    def test_rank_of_many_matches_individual_ranks(self):
        db = edge_db()
        fast = Scorer(db)
        slow = Scorer(db, use_kernel=False)
        q = query({"cafe", "wifi"})
        ranks = fast.kernel.rank_of_many([obj.oid for obj in db], q)
        assert ranks == {obj.oid: slow.rank_of(obj, q) for obj in db}

    def test_worst_rank_matches_set_path(self):
        db = edge_db()
        fast = Scorer(db)
        slow = Scorer(db, use_kernel=False)
        q = query({"cafe"})
        targets = [db.get(1), db.get(3)]
        assert fast.worst_rank(targets, q) == slow.worst_rank(targets, q)

    def test_foreign_object_falls_back_to_set_path(self):
        """An object outside D is scored as passed, not via the columns."""
        db = edge_db()
        fast = Scorer(db)
        slow = Scorer(db, use_kernel=False)
        foreign = SpatialObject(oid=0, loc=Point(0.9, 0.2), doc=frozenset({"bar"}))
        q = query({"bar"})
        assert fast.rank_of(foreign, q) == slow.rank_of(foreign, q)
        assert fast.worst_rank([foreign], q) == slow.worst_rank([foreign], q)


class TestBestFirstGuard:
    def test_foreign_index_entries_scored_as_passed(self):
        """Leaf entries that are not the scorer database's own objects
        must be scored object-at-a-time (pre-kernel semantics), not via
        the columns of a same-oid database row."""
        from repro.paper import BestFirstTopK
        from repro.index.setrtree import SetRTree

        db = edge_db()
        # Same oids/locations, different keyword sets: a kernel lookup
        # by oid would score the wrong documents.
        twisted = SpatialDatabase(
            [
                SpatialObject(oid=obj.oid, loc=obj.loc, doc=frozenset({"bar"}))
                for obj in db
            ],
            dataspace=db.dataspace,
        )
        index = SetRTree.build(twisted, max_entries=2)
        q = query({"bar"}, k=4)
        fast = BestFirstTopK(index, Scorer(db))
        slow = BestFirstTopK(index, Scorer(db, use_kernel=False))
        assert [tuple(e) for e in fast.search(q)] == [
            tuple(e) for e in slow.search(q)
        ]


class TestDualView:
    def test_dual_points_match_scorer(self):
        db = edge_db()
        fast = Scorer(db)
        slow = Scorer(db, use_kernel=False)
        q = query({"cafe", "bar"})
        assert fast.dual_points(q) == slow.dual_points(q)

    def test_crossing_candidates_match_linear_scan(self):
        db = edge_db()
        fast = Scorer(db)
        q = query({"cafe", "bar"})
        duals = fast.dual_points(q)
        for dual in duals:
            view = fast.kernel.dual_view(q, [dual.oid])
            for ws in (0.1, 0.5, 0.9):
                assert crossing_events(view, dual.oid, ws) == linear_events(duals, dual)

    def test_a_view_answers_for_its_targets_only(self):
        kernel = Scorer(edge_db()).kernel
        q = query({"cafe"})
        view = kernel.dual_view(q, [3])
        for primitive in (
            lambda oid: view.crossing_runs(oid, 0.5),
            view.strictly_above_at_zero,
            view.permanent_ties_smaller,
        ):
            with pytest.raises(ValueError):
                primitive(1)
        with pytest.raises(ValueError):
            view.ranks_at(0.5, 0.5, [3, 1])
        with pytest.raises(ValueError):
            kernel.dual_view(q, [])

    def test_closer_count_where_proximity_clamps(self):
        """A dataspace smaller than the extent: the far rows and a
        tombstone all sit at proximity 0, where only the raw distances
        tell them apart."""
        db = SpatialDatabase(
            [
                SpatialObject(oid, Point(x, 0.0), frozenset({"cafe"}))
                for oid, x in enumerate([0.05, 3.0, 5.0, 4.0, 4.0, 9.0])
            ],
            dataspace=Rect(0.0, 0.0, 0.1, 0.1),
        )
        kernel = Scorer(db).kernel
        # Delete oid 1 at x = 3: the closest clamped row.
        kernel.apply_mutations(SimpleNamespace(removed_oids=[1], appended=()))
        q = SpatialKeywordQuery(Point(0.0, 0.0), frozenset({"cafe"}), 1)
        view = kernel.dual_view(q, [2])  # proximity 0: every live row
        assert [p.a for p in view.dual_points_of([2, 3, 4, 5])] == [0.0] * 4
        # Strictly closer than oid 2 (x = 5): oid 0 and the two at x = 4.
        assert view.count_closer(5.0) == 3
        assert view.count_closer(4.0) == 1
        assert view.count_closer(100.0) == 5
        assert view.count_closer(float("inf")) == 5  # not the dead row
        # A view of the near object counts out there too: the count is
        # the view's question, whatever its targets.
        near = kernel.dual_view(q, [0])
        assert near.count_closer(0.05) == 0
        assert near.count_closer(5.0) == 3

    def test_closer_count_of_an_object_at_the_query_location(self):
        kernel = Scorer(edge_db()).kernel
        q = SpatialKeywordQuery(Point(0.1, 0.1), frozenset({"cafe"}), 1)
        assert kernel.dual_view(q, [0]).count_closer(0.0) == 0

    def test_rows_scored_into_a_view(self):
        """A view scores nothing when it is built, and a count scores
        only what it must.  Above-at-zero is a popcount of the TSim 1
        level plus the target's own level split at its proximity: the
        disk there places every other row by its y-run, and only the
        target, on its boundary, is scored.  The rank at ``q.ws``
        scores the rows its threshold needs: the two TSim 1 rows, whose
        disk reaches past the target.  The split already places the
        TSim 1/3 and 0 levels' rows on the losing side."""
        db = SpatialDatabase(
            [
                SpatialObject(oid, Point(0.0, y), frozenset(doc.split()))
                for oid, (y, doc) in enumerate(
                    [
                        (0.1, "bar"),  # in the disk
                        (0.2, "cafe"),  # in the disk and a kept bucket
                        (0.3, "cafe wifi"),  # the target: a_m, TSim 1/2
                        (0.5, "bar"),  # in neither cut: not scored
                        (0.6, "cafe wifi bar"),  # TSim 1/3, outside the disk
                        (0.7, "cafe"),  # bucket only, TSim 1: kept
                    ]
                )
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
        kernel = Scorer(db).kernel
        q = SpatialKeywordQuery(Point(0.0, 0.0), frozenset({"cafe"}), 1)
        view = kernel.dual_view(q, [2])
        stats = kernel.stats
        assert (stats.dual_views, stats.dual_view_rows) == (1, 0)
        assert stats.scan_index_builds == 1  # built by the view, lazily
        assert [p.oid for p in view.dual_points_of([0, 1, 2, 4, 5])] == [0, 1, 2, 4, 5]
        assert view.strictly_above_at_zero(2) == 2  # oids 1 and 5
        assert stats.dual_view_rows == 1  # the target, on its own disk's boundary
        assert view.ranks_at(0.5, 0.5, [2]) == {2: 3}  # behind oids 1 and 5
        assert stats.dual_view_rows == 3
        kernel.dual_points_all(q)  # the reference pass: every live row
        assert (stats.dual_views, stats.dual_view_rows) == (2, 9)
        assert stats.scan_index_builds == 1

    def test_one_keyword_level_split_by_doc_length(self):
        """Every row shares one keyword with the query; doc lengths 2
        and 4 put them at TSim 1/2 and 1/4 (Jaccard), either side of a
        target at 1/3.  Counting the 1/2 bucket is a popcount: no row
        scored.  The rank at ``q.ws`` scores each bucket from the query
        out to the proximity where its rows stop beating the target
        (0.62 for 1/2, 0.87 for 1/4), on the index's ladder of radii,
        plus the target's own one-row bucket whole: 3 rows, where the
        whole level is 7."""
        docs = {2: "cafe a", 3: "cafe a b", 4: "cafe a b c"}
        rows = [
            (0.1, 4),  # TSim 1/4, proximity 0.93: scored, beats the target
            (0.2, 2),  # TSim 1/2, proximity 0.86: scored, beats the target
            (0.3, 3),  # the target: TSim 1/3
            (0.6, 4),  # TSim 1/4: not scored
            (0.7, 2),  # TSim 1/2, proximity 0.505: not scored
            (0.8, 4),  # TSim 1/4: not scored
            (0.9, 2),  # TSim 1/2: not scored
        ]
        db = SpatialDatabase(
            [
                SpatialObject(oid, Point(0.0, y), frozenset(docs[length].split()))
                for oid, (y, length) in enumerate(rows)
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
        kernel = Scorer(db).kernel
        q = SpatialKeywordQuery(Point(0.0, 0.0), frozenset({"cafe"}), 1)
        view = kernel.dual_view(q, [2])
        assert (kernel.stats.dual_views, kernel.stats.dual_view_rows) == (1, 0)
        assert [p.b for p in view.dual_points_of([0, 1, 2, 4, 6])] == [
            0.25, 0.5, 1 / 3, 0.5, 0.5
        ]
        assert [p.b for p in view.dual_points_of([3, 5])] == [0.25, 0.25]
        assert view.count_more_similar(1 / 3) == 3  # the 1/2 bucket
        assert kernel.stats.dual_view_rows == 0
        assert view.ranks_at(0.5, 0.5, [2]) == {2: 3}  # behind oids 0 and 1
        assert kernel.stats.dual_view_rows == 3

    def test_proximity_ties_against_an_updated_row_order(self):
        """Oids 0–3 and the target 2 sit 1/4 from the query on four
        sides: one proximity, and the scan index's spatial order is not
        oid order.  Updating oid 0 moves it to the last row (and, once
        the index is built, to its tail).  The tie run stays in oid
        order, and every primitive reads the linear reference's counts."""
        def obj(oid, x, y, doc="cafe"):
            return SpatialObject(oid, Point(x, y), frozenset(doc.split()))

        db = SpatialDatabase(
            [
                obj(0, 0.25, 0.5), obj(1, 0.75, 0.5), obj(2, 0.5, 0.25),
                obj(3, 0.5, 0.75), obj(4, 0.5, 0.625),
                obj(5, 0.5, 0.5, "cafe wifi"),  # TSim 1/2, nearer: crosses
                obj(6, 0.625, 0.5, "cafe wifi"),  # likewise
                obj(7, 1.0, 1.0, "bar"),  # behind on both axes: not held
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
        kernel = Scorer(db).kernel
        q = SpatialKeywordQuery(Point(0.5, 0.5), frozenset({"cafe"}), 1)
        kernel.dual_view(q, [2])  # builds the scan index before the update
        kernel.apply_mutations(
            SimpleNamespace(removed_oids=[0], appended=(obj(0, 0.25, 0.5),))
        )
        assert kernel.oids[-1] == 0
        view = kernel.dual_view(q, [2])
        duals = kernel.dual_points_all(q)
        (m,) = [dual for dual in duals if dual.oid == 2]
        ties = DualSpaceIndex.permanent_ties_smaller(m, duals)
        assert view.permanent_ties_smaller(2) == ties == 2  # oids 0 and 1
        # The run at 1/4 is in oid order whoever asks: each tied oid
        # has exactly the smaller tied oids ahead of it.
        for tied in (0, 1, 3):
            assert kernel.dual_view(q, [tied]).permanent_ties_smaller(tied) == sum(
                other < tied for other in (0, 1, 2, 3)
            )
        found = crossing_events(view, 2)
        assert found == linear_events(duals, m)
        assert sorted(oid for _, oid in found) == [5, 6]
        for ws in (0.1, 0.5, 0.9):
            weights = Weights.from_spatial(ws)
            assert view.ranks_at(weights.ws, weights.wt, [2]) == dict(
                ranks_at_weights(weights, [m], duals)
            )
        for radius in (0.0, 0.125, 0.2, 0.25):  # 0.25: the exact run
            assert view.count_closer(radius) == sum(
                1 for o in db if o.loc.distance_to(q.loc) < radius
            )
        assert [p.oid for p in view.dual_points_of([0, 5, 7])] == [0, 5, 7]


class TestStats:
    def test_rows_scored_by_a_top_k_scan(self):
        """Every "cafe" row shares one keyword with the query; doc
        lengths 1 and 4 put them at TSim 1 and 1/4 (Jaccard).  Every row
        sits in the index's one column, so a one-row bucket is peeled:
        the TSim 1 row is scored outright and sets θ; the 1/4 bucket's
        rows sit nearer the query but top out at ws + wt/4 < θ, so the
        peel ends there, no column is walked and neither they nor the
        no-keyword row are scored: 1 row scored, where the whole level
        is 4."""
        rows = [
            (0.0, "cafe a b c"),  # TSim 1/4: at most 0.625, not scored
            (0.0, "bar"),  # TSim 0: not scored
            (0.1, "cafe"),  # TSim 1: scored, the answer
            (0.0, "cafe a b d"),  # TSim 1/4: not scored
            (0.05, "cafe a c d"),  # TSim 1/4: not scored
        ]
        db = SpatialDatabase(
            [
                SpatialObject(oid, Point(0.0, y), frozenset(doc.split()))
                for oid, (y, doc) in enumerate(rows)
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
        scorer = Scorer(db)
        kernel = scorer.kernel
        q = SpatialKeywordQuery(
            Point(0.0, 0.0), frozenset({"cafe"}), 1, Weights.from_spatial(0.5)
        )
        qmask, _unknown = kernel.vocabulary.encode_query(q.doc)
        pairs = kernel.scan_top_k(1, 0.0, 0.0, qmask, 1, 0.5, 0.5)
        winner = scorer.breakdown(db.get(2), q)
        assert pairs == [(-winner.score, 2, winner.sdist, winner.tsim)]
        assert (kernel.stats.scan_calls, kernel.stats.scan_rows_scored) == (1, 1)
        assert kernel.stats.scan_columns_visited == 0  # the peel decided
        # k = 2 needs a second row: θ stays −inf until the heap is full,
        # so the one-row TSim 0 bucket is peeled too (θ = 1/2); the
        # three-row 1/4 bucket is walked, its one column scored whole.
        pairs = kernel.scan_top_k(2, 0.0, 0.0, qmask, 1, 0.5, 0.5)
        assert [oid for _, oid, _, _ in pairs] == [2, 0]
        assert kernel.stats.scan_rows_scored == 1 + 5
        assert kernel.stats.scan_columns_visited == 1

    def test_dual_view_events_count_the_crossovers_a_walk_reads(self):
        """Oid 0 is nearest the query and shares no keyword; the three
        farther "cafe" rows cross its line.  Building its rank walk reads
        no event (the count and the rank at q.ws are bisects); walking
        reads each once, and a second walk of the range reads none."""
        rows = [(0.1, "bar"), (0.3, "cafe"), (0.2, "cafe wifi"), (0.6, "cafe")]
        db = SpatialDatabase(
            [
                SpatialObject(oid, Point(0.0, y), frozenset(doc.split()))
                for oid, (y, doc) in enumerate(rows)
            ],
            dataspace=Rect(0.0, 0.0, 1.0, 1.0),
        )
        scorer = Scorer(db)
        q = SpatialKeywordQuery(
            Point(0.0, 0.0), frozenset({"cafe"}), 1, Weights.from_spatial(0.5)
        )
        context = WhyNotContext(scorer, q, [db.get(0)])
        (walk,) = PreferenceAdjuster(scorer)._walks(context)
        stats = scorer.kernel.stats
        assert (stats.dual_views, stats.dual_view_events, walk.total) == (1, 0, 3)
        walk.rank(q.ws)  # every crossover lies above q.ws = 0.5: none read
        assert stats.dual_view_events == 0
        walk.walked()
        assert stats.dual_view_events == 3
        walk.walked()
        assert stats.to_dict()["dual_view_events"] == 3

    def test_counters_track_batch_passes(self):
        db = edge_db()
        scorer = Scorer(db)
        kernel = scorer.kernel
        q = query({"cafe"})
        kernel.stats.reset()
        scorer.rank_all(q)
        assert kernel.stats.full_passes == 1
        scorer.rank_of(db.get(3), q)
        assert kernel.stats.count_better_calls == 1
        assert kernel.stats.score_passes == 1
        scorer.worst_rank([db.get(3)], q)
        assert kernel.stats.rank_of_many_calls == 1
        scorer.dual_points(q)
        assert kernel.stats.dual_views == 1
        prepared = kernel.prepare(q)
        prepared.score_oid(0)
        assert prepared.scored == 1
        prepared.flush_stats()
        assert kernel.stats.point_scores == 1
        snapshot = kernel.stats.to_dict()
        # The dual view runs its own (a, b) pass, not a component pass.
        assert snapshot["full_passes"] == 1
        kernel.stats.reset()
        assert kernel.stats.to_dict()["full_passes"] == 0
