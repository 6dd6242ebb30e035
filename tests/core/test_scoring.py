"""Unit tests for :mod:`repro.core.scoring` (Eqn. 1 and the dual view)."""

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer


@pytest.fixture()
def db():
    return SpatialDatabase(
        [
            SpatialObject(0, Point(0.0, 0.0), frozenset({"a", "b"})),
            SpatialObject(1, Point(3.0, 4.0), frozenset({"b", "c"})),
            SpatialObject(2, Point(1.0, 1.0), frozenset({"x"})),
        ],
        dataspace=Rect(0, 0, 3, 4),
    )


@pytest.fixture()
def scorer(db):
    return Scorer(db)


def query(x=0.0, y=0.0, doc=("a", "b"), k=2, ws=0.5):
    return SpatialKeywordQuery(Point(x, y), frozenset(doc), k, Weights.from_spatial(ws))


class TestComponents:
    def test_sdist_is_normalised(self, scorer, db):
        q = query()
        assert scorer.sdist(db.get(0), q) == 0.0
        assert scorer.sdist(db.get(1), q) == 1.0  # full diagonal away

    def test_tsim_is_jaccard(self, scorer, db):
        q = query(doc=("a", "b"))
        assert scorer.tsim(db.get(0), q.doc) == 1.0
        assert scorer.tsim(db.get(1), q.doc) == pytest.approx(1 / 3)
        assert scorer.tsim(db.get(2), q.doc) == 0.0

    def test_score_is_convex_combination(self, scorer, db):
        q = query(ws=0.3)
        breakdown = scorer.breakdown(db.get(1), q)
        expected = 0.3 * (1.0 - breakdown.sdist) + 0.7 * breakdown.tsim
        assert breakdown.score == pytest.approx(expected)

    def test_score_in_unit_interval(self, scorer, db):
        for obj in db:
            for ws in (0.1, 0.5, 0.9):
                assert 0.0 <= scorer.score(obj, query(ws=ws)) <= 1.0

    def test_perfect_object_scores_one(self, scorer, db):
        q = query(x=0.0, y=0.0, doc=("a", "b"))
        assert scorer.score(db.get(0), q) == pytest.approx(1.0)


class TestDualView:
    def test_dual_point_components(self, scorer, db):
        q = query()
        dual = scorer.dual_point(db.get(1), q)
        assert dual.oid == 1
        assert dual.a == pytest.approx(1.0 - scorer.sdist(db.get(1), q))
        assert dual.b == pytest.approx(scorer.tsim(db.get(1), q.doc))

    def test_dual_score_matches_scorer_bitwise(self, scorer, db):
        # The preference module depends on this equality being exact.
        for ws in (0.15, 0.5, 0.85):
            q = query(ws=ws)
            for obj in db:
                dual = scorer.dual_point(obj, q)
                assert q.ws * dual.a + q.wt * dual.b == scorer.score(obj, q)

    def test_dual_points_cover_database(self, scorer):
        duals = scorer.dual_points(query())
        assert sorted(d.oid for d in duals) == [0, 1, 2]

    def test_crossover_solves_line_intersection(self, scorer, db):
        q = query()
        d0 = scorer.dual_point(db.get(0), q)
        d1 = scorer.dual_point(db.get(1), q)
        w = d0.crossover_with(d1)
        if w is not None:
            assert d0.score_at(w) == pytest.approx(d1.score_at(w), abs=1e-12)

    def test_crossover_parallel_lines_is_none(self):
        from repro.core.scoring import DualPoint

        a = DualPoint(0, 0.5, 0.25)
        b = DualPoint(1, 0.75, 0.5)  # same slope 0.25 (exactly representable)
        assert a.crossover_with(b) is None

    def test_slope(self):
        from repro.core.scoring import DualPoint

        assert DualPoint(0, 0.7, 0.2).slope == pytest.approx(0.5)


class TestRanking:
    def test_rank_all_is_total_order(self, scorer):
        ranking = scorer.rank_all(query())
        assert [e.rank for e in ranking] == [1, 2, 3]
        for earlier, later in zip(ranking, ranking[1:]):
            assert (earlier.score, -earlier.obj.oid) >= (later.score, -later.obj.oid)

    def test_top_k_prefix_of_rank_all(self, scorer):
        q = query(k=2)
        ranking = scorer.rank_all(q)
        result = scorer.top_k(q)
        assert [e.obj.oid for e in result] == [e.obj.oid for e in ranking[:2]]

    def test_rank_of_matches_rank_all(self, scorer, db):
        q = query()
        ranking = {e.obj.oid: e.rank for e in scorer.rank_all(q)}
        for obj in db:
            assert scorer.rank_of(obj, q) == ranking[obj.oid]

    def test_worst_rank_is_max_of_ranks(self, scorer, db):
        q = query()
        ranks = {oid: scorer.rank_of(db.get(oid), q) for oid in (0, 1, 2)}
        assert scorer.worst_rank([db.get(1), db.get(2)], q) == max(ranks[1], ranks[2])

    def test_worst_rank_empty_raises(self, scorer):
        with pytest.raises(ValueError):
            scorer.worst_rank([], query())

    def test_tie_break_by_oid(self):
        # Two objects at identical locations with identical docs tie in
        # score; the smaller oid must rank first.
        db = SpatialDatabase(
            [
                SpatialObject(5, Point(0, 0), frozenset({"a"})),
                SpatialObject(2, Point(0, 0), frozenset({"a"})),
            ],
            dataspace=Rect(0, 0, 1, 1),
        )
        scorer = Scorer(db)
        ranking = scorer.rank_all(query(doc=("a",)))
        assert [e.obj.oid for e in ranking] == [2, 5]

    def test_result_from_objects_attaches_ranks(self, scorer, db):
        q = query(k=2)
        expected = scorer.top_k(q)
        rebuilt = scorer.result_from_objects(q, [e.obj for e in expected])
        assert [e.rank for e in rebuilt] == [1, 2]
        assert [e.score for e in rebuilt] == [e.score for e in expected]
