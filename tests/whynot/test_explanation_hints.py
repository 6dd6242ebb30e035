"""Tests for the weight-interval hints in explanations (Example 1's
"how can the ranking function be adjusted?" question)."""

import pytest

from repro.core.geometry import Point
from repro.core.query import Weights
from repro.whynot.explanation import ExplanationGenerator
from repro.whynot.preference import PreferenceAdjuster


def scenario(scorer, seed=240, k=5):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=1, k=k, missing_count=1, seed=seed, rank_window=25
    )[0]


@pytest.fixture(scope="module")
def generator(small_scorer):
    return ExplanationGenerator(
        small_scorer,
        preference_adjuster=PreferenceAdjuster(small_scorer),
    )


def explained(generator, scorer, scenario):
    """``generator``'s explanation of ``scenario`` against the scorer's top-k."""
    return generator.explain(
        scenario.query, scenario.missing, result=scorer.top_k(scenario.query)
    )


class TestWeightHints:
    def test_intervals_attached_when_adjuster_present(self, small_scorer, generator):
        s = scenario(small_scorer)
        entry = explained(generator, small_scorer, s).explanations[0]
        assert entry.viable_ws_intervals is not None
        assert entry.fixable_by_weights_alone in (True, False)

    def test_intervals_none_without_adjuster(self, small_scorer):
        plain = ExplanationGenerator(small_scorer)
        s = scenario(small_scorer, seed=241)
        entry = explained(plain, small_scorer, s).explanations[0]
        assert entry.viable_ws_intervals is None
        assert entry.fixable_by_weights_alone is None

    def test_intervals_match_direct_adjuster_call(self, small_scorer, generator):
        adjuster = PreferenceAdjuster(small_scorer)
        s = scenario(small_scorer, seed=242)
        entry = explained(generator, small_scorer, s).explanations[0]
        direct = tuple(
            adjuster.viable_weight_intervals(s.query, s.missing[0])
        )
        assert entry.viable_ws_intervals == direct

    def test_narrative_mentions_hint(self, small_scorer, generator):
        s = scenario(small_scorer, seed=243)
        entry = explained(generator, small_scorer, s).explanations[0]
        text = entry.narrative()
        if entry.fixable_by_weights_alone:
            assert "Adjusting the spatial weight" in text
        else:
            assert "No preference weighting alone" in text

    def test_fixable_consistent_with_refinement(self, small_scorer, generator):
        # When weights alone can fix it, preference adjustment at λ=1
        # (only Δk penalised) must find a zero-Δk refinement.
        adjuster = PreferenceAdjuster(small_scorer)
        for seed in (244, 245, 246):
            s = scenario(small_scorer, seed=seed)
            entry = explained(generator, small_scorer, s).explanations[0]
            refinement = adjuster.refine(s.query, s.missing, lam=1.0)
            if entry.fixable_by_weights_alone:
                assert refinement.delta_k == 0

    def test_engine_explanations_carry_hints(self, small_db):
        from repro.service.api import YaskEngine
        from repro.bench.workloads import generate_whynot_scenarios

        engine = YaskEngine(small_db)
        s = generate_whynot_scenarios(
            engine.scorer, count=1, k=5, missing_count=1, seed=247,
            rank_window=25,
        )[0]
        explanation = engine.explain(s.query, [m.oid for m in s.missing])
        assert explanation.explanations[0].viable_ws_intervals is not None

    def test_protocol_serialises_hints(self, small_db):
        import json

        from repro.service.api import YaskEngine
        from repro.service.protocol import explanation_to_dict
        from repro.bench.workloads import generate_whynot_scenarios

        engine = YaskEngine(small_db)
        s = generate_whynot_scenarios(
            engine.scorer, count=1, k=5, missing_count=1, seed=248,
            rank_window=25,
        )[0]
        payload = explanation_to_dict(
            engine.explain(s.query, [m.oid for m in s.missing])
        )
        json.dumps(payload)
        first = payload["objects"][0]
        assert "viable_ws_intervals" in first
        assert "fixable_by_weights_alone" in first
