"""Tests for the combined why-not engine facade."""

import pytest

from repro.whynot.engine import WhyNotEngine
from repro.whynot.errors import UnknownObjectError


def scenario(scorer, seed=140, k=5):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=1, k=k, missing_count=1, seed=seed, rank_window=25
    )[0]


@pytest.fixture(scope="module")
def engine(small_scorer):
    return WhyNotEngine(small_scorer)


class TestResolution:
    def test_resolve_by_id(self, engine, small_db):
        assert engine.resolve_missing([3])[0].oid == 3

    def test_resolve_by_object(self, engine, small_db):
        obj = small_db.get(5)
        assert engine.resolve_missing([obj])[0] is obj

    def test_duplicates_collapse(self, engine):
        assert len(engine.resolve_missing([3, 3, 3])) == 1

    def test_unknown_id_raises(self, engine):
        with pytest.raises(UnknownObjectError):
            engine.resolve_missing([99999])

    def test_unknown_name_raises(self, engine):
        with pytest.raises(UnknownObjectError):
            engine.resolve_missing(["No Such Hotel"])


class TestDispatch:
    def test_explain(self, engine, small_scorer):
        s = scenario(small_scorer)
        explanation = engine.explain(s.query, [m.oid for m in s.missing])
        assert explanation.worst_rank > s.query.k

    def test_refine_preference(self, engine, small_scorer):
        s = scenario(small_scorer, seed=141)
        refinement = engine.refine_preference(s.query, [m.oid for m in s.missing])
        assert refinement.penalty <= 0.5 + 1e-12

    def test_refine_keywords(self, engine, small_scorer):
        s = scenario(small_scorer, seed=142)
        refinement = engine.refine_keywords(s.query, [m.oid for m in s.missing])
        assert refinement.penalty <= 0.5 + 1e-12

    def test_refine_both_returns_all_parts(self, engine, small_scorer):
        s = scenario(small_scorer, seed=143)
        answer = engine.refine_both(s.query, [m.oid for m in s.missing])
        assert answer.explanation is not None
        assert answer.preference is not None
        assert answer.keyword is not None
        assert answer.best_model in ("preference adjustment", "keyword adaption")

    def test_best_model_picks_lower_penalty(self, engine, small_scorer):
        s = scenario(small_scorer, seed=144)
        answer = engine.refine_both(s.query, [m.oid for m in s.missing])
        if answer.best_model == "preference adjustment":
            assert answer.preference.penalty <= answer.keyword.penalty
        else:
            assert answer.keyword.penalty < answer.preference.penalty

    def test_best_model_with_partial_answers(self, engine, small_scorer):
        from repro.whynot.engine import WhyNotAnswer

        s = scenario(small_scorer, seed=145)
        explanation = engine.explain(s.query, [m.oid for m in s.missing])
        assert WhyNotAnswer(explanation).best_model is None
        pref = engine.refine_preference(s.query, [m.oid for m in s.missing])
        assert (
            WhyNotAnswer(explanation, preference=pref).best_model
            == "preference adjustment"
        )


class TestBestModelTieBreaking:
    """Regression: `WhyNotAnswer.best_model` must resolve exactly equal
    penalties explicitly and deterministically (preference adjustment
    wins ties — it keeps the user's keywords verbatim)."""

    @staticmethod
    def make_answer(pref_penalty, kw_penalty):
        from repro.core.geometry import Point
        from repro.core.query import SpatialKeywordQuery
        from repro.whynot.engine import WhyNotAnswer
        from repro.whynot.explanation import WhyNotExplanation
        from repro.whynot.keyword import AdaptionStats, KeywordRefinement
        from repro.whynot.preference import PreferenceRefinement

        query = SpatialKeywordQuery(
            loc=Point(0.5, 0.5), doc=frozenset({"cafe"}), k=3
        )
        explanation = WhyNotExplanation(
            query=query, explanations=(), worst_rank=7,
            suggested_model="preference adjustment",
        )
        preference = (
            PreferenceRefinement(
                refined_query=query.with_k(7), penalty=pref_penalty,
                delta_k=4, delta_w=0.0, refined_worst_rank=7,
                initial_worst_rank=7, lam=0.5,
            )
            if pref_penalty is not None
            else None
        )
        keyword = (
            KeywordRefinement(
                refined_query=query.with_k(7), penalty=kw_penalty,
                delta_k=4, delta_doc=0, added=frozenset(),
                removed=frozenset(), refined_worst_rank=7,
                initial_worst_rank=7, lam=0.5, stats=AdaptionStats(),
            )
            if kw_penalty is not None
            else None
        )
        return WhyNotAnswer(
            explanation=explanation, preference=preference, keyword=keyword
        )

    def test_exactly_equal_penalties_prefer_preference_adjustment(self):
        # The engineered tie: both models report the bit-identical
        # penalty.  The documented rule picks the less intrusive model.
        answer = self.make_answer(0.25, 0.25)
        assert answer.best_model == "preference adjustment"

    def test_strictly_lower_keyword_penalty_wins(self):
        answer = self.make_answer(0.25, 0.2499999999999999)
        assert answer.best_model == "keyword adaption"

    def test_strictly_lower_preference_penalty_wins(self):
        answer = self.make_answer(0.1, 0.25)
        assert answer.best_model == "preference adjustment"

    def test_single_model_wins_by_default(self):
        assert self.make_answer(0.9, None).best_model == "preference adjustment"
        assert self.make_answer(None, 0.9).best_model == "keyword adaption"

    def test_no_model_executed_means_no_winner(self):
        assert self.make_answer(None, None).best_model is None

    def test_tie_rule_is_stable_across_argument_order(self):
        # Determinism: the winner depends only on the penalties, never
        # on construction order or identity.
        first = self.make_answer(0.5, 0.5)
        second = self.make_answer(0.5, 0.5)
        assert first.best_model == second.best_model == "preference adjustment"
