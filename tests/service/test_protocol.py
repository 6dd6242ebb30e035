"""Tests for the JSON protocol (:mod:`repro.service.protocol`)."""

import json

import pytest

from repro.core.geometry import Point
from repro.core.query import DEFAULT_WEIGHTS, SpatialKeywordQuery, Weights
from repro.service.protocol import (
    MAX_OBJECT_KEYWORDS,
    MAX_QUERY_K,
    MAX_QUERY_KEYWORDS,
    ProtocolError,
    explanation_to_dict,
    keyword_refinement_to_dict,
    mutation_from_dict,
    preference_refinement_to_dict,
    query_from_dict,
    query_to_dict,
    result_to_dict,
    spatial_object_from_dict,
)


class TestQueryRoundTrip:
    def test_round_trip_preserves_fields(self):
        q = SpatialKeywordQuery(
            Point(1.25, -2.5), frozenset({"b", "a"}), 7, Weights.from_spatial(0.3)
        )
        parsed = query_from_dict(query_to_dict(q))
        assert parsed.loc == q.loc
        assert parsed.doc == q.doc
        assert parsed.k == q.k
        assert parsed.weights.ws == pytest.approx(q.weights.ws)

    def test_payload_is_json_serialisable(self):
        q = SpatialKeywordQuery(Point(0, 0), frozenset({"a"}), 1)
        json.dumps(query_to_dict(q))

    def test_weights_default_to_server_parameter(self):
        parsed = query_from_dict({"x": 0, "y": 0, "keywords": ["a"], "k": 1})
        assert parsed.weights == DEFAULT_WEIGHTS

    def test_custom_default_weights(self):
        parsed = query_from_dict(
            {"x": 0, "y": 0, "keywords": ["a"], "k": 1},
            default_weights=Weights.from_spatial(0.7),
        )
        assert parsed.ws == 0.7

    def test_ws_only_implies_wt(self):
        parsed = query_from_dict(
            {"x": 0, "y": 0, "keywords": ["a"], "k": 1, "ws": 0.25}
        )
        assert parsed.wt == 0.75

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"x": 0, "y": 0, "k": 1},                        # no keywords
            {"x": 0, "y": 0, "keywords": "abc", "k": 1},     # keywords not a list
            {"x": 0, "y": 0, "keywords": ["a"]},             # no k
            {"x": "no", "y": 0, "keywords": ["a"], "k": 1},  # bad type
            {"x": 0, "y": 0, "keywords": ["a"], "k": 0},     # invalid k
            {"x": 0, "y": 0, "keywords": ["a"], "k": MAX_QUERY_K + 1},
            {"x": 0, "y": 0, "keywords": [], "k": 1},        # empty keywords
            {"x": 0, "y": 0, "keywords": ["a"], "k": 1, "ws": 1.5},
        ],
    )
    def test_malformed_payload_raises_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            query_from_dict(payload)

    def test_k_up_to_the_cap_parses(self):
        payload = {"x": 0, "y": 0, "keywords": ["a"], "k": MAX_QUERY_K}
        assert query_from_dict(payload).k == MAX_QUERY_K
        with pytest.raises(ProtocolError, match=f"at most {MAX_QUERY_K}"):
            query_from_dict({**payload, "k": 10**9})


def _words(count):
    return [f"kw{index}" for index in range(count)]


#: ``keywords`` values refused with a reason, for queries and objects
#: alike: items are never coerced to strings, and a JSON object does not
#: contribute its keys.
_NOT_A_LIST_OF_STRINGS = {
    "null and number items": [None, 3],
    "number item": ["a", 3],
    "nested list": [["a"]],
    "object": {"a": 1, "b": 2},
    "string": "abc",
    "number": 7,
    "null": None,
}


class TestKeywordLists:
    """``keywords`` is a JSON list of strings, bounded per message type."""

    @staticmethod
    def object_payload(keywords):
        return {"oid": 1, "x": 0.5, "y": 0.5, "keywords": keywords}

    @staticmethod
    def query_payload(keywords):
        return {"x": 0.5, "y": 0.5, "keywords": keywords, "k": 1}

    @pytest.mark.parametrize("case", sorted(_NOT_A_LIST_OF_STRINGS))
    def test_non_strings_are_refused_not_coerced(self, case):
        keywords = _NOT_A_LIST_OF_STRINGS[case]
        with pytest.raises(ProtocolError, match="list of strings"):
            query_from_dict(self.query_payload(keywords))
        with pytest.raises(ProtocolError, match="list of strings"):
            spatial_object_from_dict(self.object_payload(keywords))

    def test_query_keywords_up_to_the_cap_parse(self):
        at_cap = query_from_dict(self.query_payload(_words(MAX_QUERY_KEYWORDS)))
        assert len(at_cap.doc) == MAX_QUERY_KEYWORDS
        for count in (MAX_QUERY_KEYWORDS + 1, 100_000):
            with pytest.raises(
                ProtocolError, match=f"{count} entries; the cap is {MAX_QUERY_KEYWORDS}"
            ):
                query_from_dict(self.query_payload(_words(count)))

    def test_object_keywords_up_to_the_cap_parse(self):
        at_cap = self.object_payload(_words(MAX_OBJECT_KEYWORDS))
        assert len(spatial_object_from_dict(at_cap).doc) == MAX_OBJECT_KEYWORDS
        over = self.object_payload(_words(MAX_OBJECT_KEYWORDS + 1))
        reason = f"{MAX_OBJECT_KEYWORDS + 1} entries; the cap is {MAX_OBJECT_KEYWORDS}"
        with pytest.raises(ProtocolError, match=reason):
            spatial_object_from_dict(over)
        with pytest.raises(ProtocolError, match=reason):
            mutation_from_dict({"op": "update", **over})

    def test_objects_may_carry_no_text(self):
        assert spatial_object_from_dict(self.object_payload([])).doc == frozenset()


class TestResponseSerialisation:
    @pytest.fixture(scope="class")
    def scenario(self, small_scorer):
        from repro.bench.workloads import generate_whynot_scenarios

        return generate_whynot_scenarios(
            small_scorer, count=1, k=5, missing_count=1, seed=150, rank_window=25
        )[0]

    def test_result_to_dict_shape(self, small_scorer, scenario):
        result = small_scorer.top_k(scenario.query)
        payload = result_to_dict(result)
        json.dumps(payload)
        assert len(payload["entries"]) == len(result)
        first = payload["entries"][0]
        assert first["rank"] == 1
        assert set(first) == {"rank", "score", "sdist", "tsim", "object"}

    def test_explanation_to_dict_shape(self, small_scorer, scenario):
        from repro.whynot.explanation import ExplanationGenerator

        generator = ExplanationGenerator(small_scorer)
        explanation = generator.explain(
            scenario.query, scenario.missing, result=small_scorer.top_k(scenario.query)
        )
        payload = explanation_to_dict(explanation)
        json.dumps(payload)
        assert payload["worst_rank"] == explanation.worst_rank
        assert payload["objects"][0]["reason"] in {
            "too-far", "low-text-relevance", "too-far-and-low-relevance",
            "preference-imbalance",
        }

    def test_preference_refinement_to_dict(self, small_scorer, scenario):
        from repro.whynot.preference import PreferenceAdjuster

        refinement = PreferenceAdjuster(small_scorer).refine(
            scenario.query, scenario.missing
        )
        payload = preference_refinement_to_dict(refinement)
        json.dumps(payload)
        assert payload["model"] == "preference-adjustment"
        assert payload["penalty"] == pytest.approx(refinement.penalty)

    def test_keyword_refinement_to_dict(
        self, small_scorer, small_kcrtree, scenario
    ):
        from repro.paper import KcRTreeKeywordAdapter

        refinement = KcRTreeKeywordAdapter(small_scorer, small_kcrtree).refine(
            scenario.query, scenario.missing
        )
        payload = keyword_refinement_to_dict(refinement)
        json.dumps(payload)
        assert payload["model"] == "keyword-adaption"
        assert payload["added"] == sorted(refinement.added)


class TestMutationWireRoundTrip:
    """mutation_to_dict (the WAL's record shape) inverts mutation_from_dict."""

    def roundtrip(self, mutation):
        from repro.service.protocol import mutation_from_dict, mutation_to_dict

        payload = mutation_to_dict(mutation)
        assert json.loads(json.dumps(payload)) == payload  # JSON-clean
        return mutation_from_dict(payload)

    def test_insert_round_trips(self):
        from repro.core.mutations import Mutation
        from repro.core.objects import SpatialObject

        original = Mutation.insert(
            SpatialObject(
                7, Point(0.125, 0.375), frozenset({"b", "a"}), "named"
            )
        )
        assert self.roundtrip(original) == original

    def test_update_without_name_round_trips(self):
        from repro.core.mutations import Mutation
        from repro.core.objects import SpatialObject

        original = Mutation.update(
            SpatialObject(3, Point(0.1, 0.9), frozenset({"only"}))
        )
        restored = self.roundtrip(original)
        assert restored == original
        assert restored.obj.name is None

    def test_delete_round_trips(self):
        from repro.core.mutations import Mutation

        original = Mutation.delete(11)
        assert self.roundtrip(original) == original

    def test_awkward_floats_survive_bit_for_bit(self):
        # JSON float repr round-trips exactly — the property replay
        # parity depends on it.
        from repro.core.mutations import Mutation
        from repro.core.objects import SpatialObject

        original = Mutation.insert(
            SpatialObject(
                7, Point(0.1 + 0.2, 1.0 / 3.0), frozenset({"w"})
            )
        )
        restored = self.roundtrip(original)
        assert restored.obj.loc.x == original.obj.loc.x
        assert restored.obj.loc.y == original.obj.loc.y


class TestMinGenerationToken:
    def parse(self, payload):
        from repro.service.protocol import min_generation_from_dict

        return min_generation_from_dict(payload)

    def test_absent_means_any(self):
        assert self.parse({}) is None
        assert self.parse({"min_generation": None}) is None

    def test_valid_tokens(self):
        assert self.parse({"min_generation": 0}) == 0
        assert self.parse({"min_generation": 12}) == 12

    @pytest.mark.parametrize(
        "bad", [True, False, -1, 1.5, "3", [3], {}]
    )
    def test_invalid_tokens_are_protocol_errors(self, bad):
        with pytest.raises(ProtocolError, match="min_generation"):
            self.parse({"min_generation": bad})
