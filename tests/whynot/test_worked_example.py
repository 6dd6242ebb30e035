"""A fully hand-computed worked example of both refinement models.

Five objects on the unit square, every SDist/TSim/score/rank/crossover/
penalty derived by hand in the comments and asserted exactly.  If any
engine drifts from the paper's equations, this module says precisely
where.

Setup (dataspace = unit square, diagonal = sqrt(2)):

  oid  loc           doc              dist to q=(0,0)   SDist = dist/√2
  0    (0.00, 0.00)  {a}              0                 0
  1    (0.30, 0.40)  {a, b}           0.5               0.5/√2 ≈ 0.35355
  2    (0.60, 0.80)  {a, b, c, d}     1.0               1/√2   ≈ 0.70711
  3    (0.00, 0.70)  {x}              0.7               0.7/√2 ≈ 0.49497
  4    (1.00, 1.00)  {a, b}           √2                1

Query: loc=(0,0), doc={a,b}, k=1, w=(0.5, 0.5).

Jaccard TSim against {a,b}:
  o0: |{a}∩{a,b}| / |{a}∪{a,b}| = 1/2
  o1: 2/2 = 1
  o2: 2/4 = 1/2
  o3: 0
  o4: 2/2 = 1

Scores ST = 0.5(1 − SDist) + 0.5·TSim:
  o0: 0.5(1)       + 0.25    = 0.75
  o1: 0.5(0.64645) + 0.5     = 0.82322...
  o2: 0.5(0.29289) + 0.25    = 0.39645...
  o3: 0.5(0.50503) + 0       = 0.25251...
  o4: 0.5(0)       + 0.5     = 0.5

Ranking: o1 (0.8232) > o0 (0.75) > o4 (0.5) > o2 (0.3965) > o3 (0.2525).
"""

import math

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.index.kcrtree import KcRTree
from repro.paper import KcRTreeKeywordAdapter
from repro.whynot.preference import PreferenceAdjuster

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def db():
    return SpatialDatabase(
        [
            SpatialObject(0, Point(0.00, 0.00), frozenset({"a"})),
            SpatialObject(1, Point(0.30, 0.40), frozenset({"a", "b"})),
            SpatialObject(2, Point(0.60, 0.80), frozenset({"a", "b", "c", "d"})),
            SpatialObject(3, Point(0.00, 0.70), frozenset({"x"})),
            SpatialObject(4, Point(1.00, 1.00), frozenset({"a", "b"})),
        ],
        dataspace=Rect(0, 0, 1, 1),
    )


@pytest.fixture(scope="module")
def scorer(db):
    return Scorer(db)


@pytest.fixture(scope="module")
def query():
    return SpatialKeywordQuery(
        Point(0.0, 0.0), frozenset({"a", "b"}), 1, Weights(0.5, 0.5)
    )


class TestHandComputedScores:
    def test_sdist_values(self, scorer, db, query):
        expected = [0.0, 0.5 / SQRT2, 1.0 / SQRT2, 0.7 / SQRT2, 1.0]
        for oid, value in enumerate(expected):
            assert scorer.sdist(db.get(oid), query) == pytest.approx(value)

    def test_tsim_values(self, scorer, db, query):
        expected = [0.5, 1.0, 0.5, 0.0, 1.0]
        for oid, value in enumerate(expected):
            assert scorer.tsim(db.get(oid), query.doc) == pytest.approx(value)

    def test_scores(self, scorer, db, query):
        expected = {
            0: 0.75,
            1: 0.5 * (1 - 0.5 / SQRT2) + 0.5,
            2: 0.5 * (1 - 1.0 / SQRT2) + 0.25,
            3: 0.5 * (1 - 0.7 / SQRT2),
            4: 0.5,
        }
        for oid, value in expected.items():
            assert scorer.score(db.get(oid), query) == pytest.approx(value)

    def test_ranking(self, scorer, query):
        assert [e.obj.oid for e in scorer.rank_all(query)] == [1, 0, 4, 2, 3]


class TestHandComputedPreference:
    """Why-not for o0 (rank 2, k=1): the refinement math by hand.

    o0's dual point: a₀ = 1, b₀ = 0.5 (slope 0.5).
    o1's dual point: a₁ = 1 − 0.5/√2 ≈ 0.64645, b₁ = 1 (slope −0.35355).

    o0 and o1 cross where w·a₀ + (1−w)·b₀ = w·a₁ + (1−w)·b₁:
      w(1 − 0.64645) = (1 − w)(1 − 0.5)
      0.35355·w = 0.5 − 0.5w  →  w* = 0.5/(0.5 + 0.5/√2) ≈ 0.58579.
    For w > w*, o0 outscores o1 and takes rank 1.

    o4 (a=0, b=1, slope −1) crosses o0 where w·1 + (1−w)·0.5 = (1−w):
      0.5w + 0.5 = 1 − w → 1.5w = 0.5 → w = 1/3; for w > 1/3 o0 is above
      (it already is at w = 0.5).  Nothing else outranks o0 at w ≥ 0.5.

    So with λ = 0.5 and R(M,q) = 2, k = 1:
      k-only:   penalty = 0.5·(2−1)/(2−1)            = 0.5
      w-change: Δw = √2(w* − 0.5) ≈ 0.121320,
                penalty = 0.5·0.121320/√1.5 ≈ 0.049533... (Δk = 0)
    The weight change wins; refined ws == w* (the tie at w* goes to o0,
    oid 0 < oid 1, so the crossover itself already ranks o0 first).
    """

    W_STAR = 0.5 / (0.5 + 0.5 / SQRT2)

    def test_initial_rank_of_o0(self, scorer, db, query):
        assert scorer.rank_of(db.get(0), query) == 2

    def test_refinement_matches_hand_math(self, scorer, db, query):
        adjuster = PreferenceAdjuster(scorer)
        refinement = adjuster.refine(query, [db.get(0)], lam=0.5)
        assert refinement.initial_worst_rank == 2
        assert refinement.delta_k == 0
        assert refinement.refined_query.k == 1
        assert refinement.refined_query.ws == pytest.approx(self.W_STAR, abs=1e-12)
        expected_penalty = (
            0.5 * (SQRT2 * (self.W_STAR - 0.5)) / math.sqrt(1.5)
        )
        assert refinement.penalty == pytest.approx(expected_penalty, abs=1e-9)

    def test_refined_query_puts_o0_first(self, scorer, db, query):
        adjuster = PreferenceAdjuster(scorer)
        refinement = adjuster.refine(query, [db.get(0)], lam=0.5)
        result = scorer.top_k(refinement.refined_query)
        assert result.entries[0].obj.oid == 0

    @pytest.mark.parametrize(
        "window, front_size, marches", [(1, 2, 0), (2, 3, 1), (16, 5, 2)]
    )
    def test_front_and_marches(
        self, scorer, db, query, monkeypatch, window, front_size, marches
    ):
        """o0's profile: rank 3 on (0, 1/3), 2 at and past 1/3 (o4 drops
        below), 1 at and past w* (o1 does) — ranks [3, 2, 2, 1, 1].

        Met outward from ws = 0.5: ws (rank 2, Δw 0), then w* (rank 1),
        then 1/3 (rank 2, dominated by ws and w*).  With a window of 1,
        w* proves everything past it dominated (nothing there ranks
        below 1) and ws everything below 1/3: no march.  With 2, w* is
        alone at rank 1, so its neighbour is marched and kept; then
        ws, w* and that neighbour end the lower side.  With 16 nothing
        is dominated: both crossovers are marched and all five kept.
        """
        calls = []
        march = PreferenceAdjuster._past_crossing_candidate

        def counted(self, *args):
            calls.append(args)
            return march(self, *args)

        monkeypatch.setattr(PreferenceAdjuster, "_past_crossing_candidate", counted)
        adjuster = PreferenceAdjuster(scorer, verification_window=window)
        refinement = adjuster.refine(query, [db.get(0)], lam=0.5)
        assert refinement.candidates_evaluated == front_size
        assert len(calls) == marches
        assert refinement.refined_query.ws == pytest.approx(self.W_STAR, abs=1e-12)

    def test_viable_interval_starts_at_crossover(self, scorer, db, query):
        adjuster = PreferenceAdjuster(scorer)
        intervals = adjuster.viable_weight_intervals(query, db.get(0))
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(self.W_STAR, abs=1e-12)
        assert hi == 1.0


class TestHandComputedKeyword:
    """Why-not for o2 (rank 4, k=1) via keyword adaption, λ = 0.5.

    M.doc = {a,b,c,d}; |q.doc ∪ M.doc| = 4; R(M,q) = 4 → normaliser 3.

    Candidate S = {c} (Δdoc = 3: remove a, b; add c):
      TSim(o2) = 1/4, others 0 (only o2 contains c; |o2 ∪ {c}| = 4).
      scores: o0 0.5, o1 0.32322, o2 0.271446+0.125 = wait —
      recompute: o2: 0.5(1−0.70711) + 0.5(0.25) = 0.146447 + 0.125 = 0.271447
      o0: 0.5(1) + 0 = 0.5 ; o1: 0.5(0.64645) = 0.32322 ; o3: 0.25251 ;
      o4: 0. So o2 ranks 3 → Δk = 2.
      penalty = 0.5·2/3 + 0.5·3/4 = 1/3 + 3/8 = 0.70833.

    Candidate S = {c, d} (Δdoc = 4): TSim(o2) = 2/4 = 0.5 → score
      0.146447 + 0.25 = 0.396447; o0 0.5 still above → rank 2, Δk = 1.
      penalty = 0.5·1/3 + 0.5·4/4 = 0.16667 + 0.5 = 0.66667.

    Candidate S = q.doc (Δdoc = 0): rank stays 4, Δk = 3,
      penalty = 0.5·3/3 + 0 = 0.5.

    Candidate S = {a,b,c} (Δdoc = 1): TSim o2 = 3/4, o1 = 2/3, o4 = 2/3,
      o0 = 1/3:
      o2: 0.146447 + 0.375   = 0.521447
      o1: 0.323223 + 1/3     = 0.656556
      o0: 0.5      + 1/6     = 0.666667
      o4: 0        + 1/3     = 0.333333
      → o2 rank 3, Δk = 2: penalty = 0.5·2/3 + 0.5·1/4 = 0.458333.

    Candidate S = {a,b,c,d} (Δdoc = 2): TSim o2 = 1, o1 = o4 = 1/2,
      o0 = 1/4:
      o2: 0.146447 + 0.5   = 0.646447
      o1: 0.323223 + 0.25  = 0.573223
      o0: 0.5      + 0.125 = 0.625
      → o2 rank 1!  Δk = 0: penalty = 0 + 0.5·2/4 = 0.25.  ← optimum
    """

    def test_initial_rank_of_o2(self, scorer, db, query):
        assert scorer.rank_of(db.get(2), query) == 4

    def test_adaption_finds_hand_computed_optimum(self, scorer, db, query):
        tree = KcRTree.build(db, max_entries=3, min_entries=1)
        adapter = KcRTreeKeywordAdapter(scorer, tree)
        refinement = adapter.refine(query, [db.get(2)], lam=0.5)
        assert refinement.refined_query.doc == frozenset({"a", "b", "c", "d"})
        assert refinement.delta_doc == 2
        assert refinement.delta_k == 0
        assert refinement.refined_query.k == 1
        assert refinement.penalty == pytest.approx(0.25, abs=1e-12)

    def test_intermediate_candidates_match_hand_math(self, scorer, db, query):
        from repro.whynot.penalty import KeywordPenalty

        penalty = KeywordPenalty(query, [db.get(2)], 4, lam=0.5)
        assert penalty(4, query.doc) == pytest.approx(0.5)
        assert penalty(3, frozenset({"a", "b", "c"})) == pytest.approx(
            0.5 * 2 / 3 + 0.5 * 1 / 4
        )
        assert penalty(1, frozenset({"a", "b", "c", "d"})) == pytest.approx(0.25)

    def test_refined_query_puts_o2_first(self, scorer, db, query):
        tree = KcRTree.build(db, max_entries=3, min_entries=1)
        adapter = KcRTreeKeywordAdapter(scorer, tree)
        refinement = adapter.refine(query, [db.get(2)], lam=0.5)
        result = scorer.top_k(refinement.refined_query)
        assert result.entries[0].obj.oid == 2
