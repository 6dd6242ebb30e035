"""Tests for the explanation generator (Section 3.3)."""

import pytest

from repro.core.scoring import Scorer
from repro.paper import ScanExplanationGenerator
from repro.whynot.errors import NotMissingError
from repro.whynot.explanation import ExplanationGenerator, MissingReason

from tests.conftest import random_queries


def scenario(scorer, seed=100, k=5, missing_count=1):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=1, k=k, missing_count=missing_count, seed=seed,
        rank_window=25,
    )[0]


@pytest.fixture(scope="module")
def generator(small_scorer):
    return ExplanationGenerator(small_scorer)


def explained(generator, scorer, scenario):
    """``generator``'s explanation of ``scenario`` against the scorer's top-k."""
    return generator.explain(
        scenario.query, scenario.missing, result=scorer.top_k(scenario.query)
    )


class TestExplanationContent:
    def test_rank_matches_scorer(self, small_scorer, generator):
        s = scenario(small_scorer)
        explanation = explained(generator, small_scorer, s)
        for obj_explanation, missing in zip(explanation.explanations, s.missing):
            assert obj_explanation.rank == small_scorer.rank_of(missing, s.query)

    def test_worst_rank_is_r_m_q(self, small_scorer, generator):
        s = scenario(small_scorer, seed=101, missing_count=2)
        explanation = explained(generator, small_scorer, s)
        assert explanation.worst_rank == small_scorer.worst_rank(s.missing, s.query)

    def test_counts_match_linear_scan(self, small_scorer, generator):
        s = scenario(small_scorer, seed=102)
        explanation = explained(generator, small_scorer, s)
        missing = s.missing[0]
        entry = explanation.explanations[0]
        distance = missing.loc.distance_to(s.query.loc)
        expected_closer = sum(
            1
            for obj in small_scorer.database
            if obj.loc.distance_to(s.query.loc) < distance
        )
        tsim = small_scorer.tsim(missing, s.query.doc)
        expected_similar = sum(
            1
            for obj in small_scorer.database
            if small_scorer.tsim(obj, s.query.doc) > tsim
        )
        assert entry.closer_objects == expected_closer
        assert entry.more_similar_objects == expected_similar

    def test_index_and_scan_generators_agree(self, small_scorer):
        with_view = ExplanationGenerator(small_scorer)
        without_view = ScanExplanationGenerator(
            Scorer(small_scorer.database, use_kernel=False)
        )
        s = scenario(small_scorer, seed=103)
        a = explained(with_view, small_scorer, s).explanations[0]
        b = explained(without_view, small_scorer, s).explanations[0]
        assert (a.closer_objects, a.more_similar_objects) == (
            b.closer_objects, b.more_similar_objects,
        )
        assert a.reason == b.reason

    def test_ranks_behind(self, small_scorer, generator):
        s = scenario(small_scorer, seed=104)
        entry = explained(generator, small_scorer, s).explanations[0]
        assert entry.ranks_behind == entry.rank - s.query.k

    def test_narrative_mentions_key_numbers(self, small_scorer, generator):
        s = scenario(small_scorer, seed=105)
        entry = explained(generator, small_scorer, s).explanations[0]
        text = entry.narrative()
        assert f"#{entry.rank}" in text
        assert "Reason:" in text

    def test_full_narrative_suggests_a_model(self, small_scorer, generator):
        s = scenario(small_scorer, seed=106)
        explanation = explained(generator, small_scorer, s)
        assert explanation.suggested_model in (
            "preference adjustment", "keyword adaption",
        )
        assert explanation.suggested_model in explanation.narrative()


class TestReasonClassification:
    def test_reasons_are_consistent_with_components(self, small_scorer, generator):
        for seed in range(110, 118):
            s = scenario(small_scorer, seed=seed)
            explanation = explained(generator, small_scorer, s)
            entry = explanation.explanations[0]
            kth = entry.kth_breakdown
            assert kth is not None
            if entry.reason is MissingReason.BOTH:
                assert entry.breakdown.sdist > kth.sdist
                assert entry.breakdown.tsim < kth.tsim
            elif entry.reason is MissingReason.TOO_FAR:
                assert entry.breakdown.sdist > kth.sdist
            elif entry.reason is MissingReason.LOW_RELEVANCE:
                assert entry.breakdown.tsim < kth.tsim

    def test_headlines_exist_for_every_reason(self):
        for reason in MissingReason:
            assert reason.headline()


class TestErrors:
    def test_object_in_result_raises(self, small_scorer, generator):
        q = random_queries(small_scorer.database, 1, seed=119, k=5)[0]
        top = small_scorer.top_k(q)
        with pytest.raises(NotMissingError):
            generator.explain(q, [top.entries[0].obj], result=top)

    def test_empty_missing_rejected(self, small_scorer, generator):
        q = random_queries(small_scorer.database, 1, seed=120, k=5)[0]
        with pytest.raises(ValueError):
            generator.explain(q, [], result=small_scorer.top_k(q))

    def test_cached_result_reused(self, small_scorer, generator):
        s = scenario(small_scorer, seed=121)
        result = small_scorer.top_k(s.query)
        explanation = generator.explain(s.query, s.missing, result=result)
        assert explanation.worst_rank >= s.query.k
