"""Tests for the combined refinement of Section 3.2.

"Users can apply the two refinement functions simultaneously to find
better solutions" — the combined refiner chains keyword adaption and
preference adjustment in both orders and returns the cheaper result.
"""

import pytest

from repro.core.topk import BruteForceTopK
from repro.whynot.combined import CombinedRefiner
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.preference import PreferenceAdjuster


def scenarios(scorer, *, count, k=5, missing_count=1, seed=200):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=count, k=k, missing_count=missing_count, seed=seed,
        rank_window=25,
    )


@pytest.fixture(scope="module")
def refiner(small_scorer, small_kcrtree):
    return CombinedRefiner(
        small_scorer,
        PreferenceAdjuster(small_scorer),
        KeywordAdapter(small_scorer, small_kcrtree),
    )


class TestContainment:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_combined_refinement_revives_missing(self, small_scorer, refiner, lam):
        oracle = BruteForceTopK(small_scorer)
        for scenario in scenarios(small_scorer, count=4):
            refinement = refiner.refine(scenario.query, scenario.missing, lam=lam)
            result = oracle.search(refinement.refined_query)
            assert all(result.contains(m) for m in scenario.missing), (
                refinement.describe()
            )

    def test_multiple_missing(self, small_scorer, refiner):
        oracle = BruteForceTopK(small_scorer)
        for scenario in scenarios(small_scorer, count=2, missing_count=2, seed=201):
            refinement = refiner.refine(scenario.query, scenario.missing)
            result = oracle.search(refinement.refined_query)
            assert all(result.contains(m) for m in scenario.missing)


class TestComposition:
    def test_order_reported_and_stages_kept(self, small_scorer, refiner):
        scenario = scenarios(small_scorer, count=1, seed=202)[0]
        refinement = refiner.refine(scenario.query, scenario.missing)
        assert refinement.order in ("keyword-first", "preference-first")
        # At least the first stage of the winning order must exist.
        assert (
            refinement.keyword_stage is not None
            or refinement.preference_stage is not None
        )

    def test_deltas_match_final_query(self, small_scorer, refiner):
        for scenario in scenarios(small_scorer, count=3, seed=203):
            refinement = refiner.refine(scenario.query, scenario.missing)
            q = scenario.query
            refined = refinement.refined_query
            assert refinement.delta_doc == len(q.doc ^ refined.doc)
            assert refinement.delta_w == pytest.approx(
                q.weights.distance_to(refined.weights)
            )
            assert refinement.delta_k == max(0, refinement.refined_worst_rank - q.k)

    def test_refined_k_covers_worst_rank(self, small_scorer, refiner):
        for scenario in scenarios(small_scorer, count=3, seed=204):
            refinement = refiner.refine(scenario.query, scenario.missing)
            assert refinement.refined_query.k >= refinement.refined_worst_rank

    def test_location_never_changes(self, small_scorer, refiner):
        for scenario in scenarios(small_scorer, count=3, seed=205):
            refinement = refiner.refine(scenario.query, scenario.missing)
            assert refinement.refined_query.loc == scenario.query.loc

    def test_penalty_in_unit_interval(self, small_scorer, refiner):
        for lam in (0.0, 0.5, 1.0):
            scenario = scenarios(small_scorer, count=1, seed=206)[0]
            refinement = refiner.refine(scenario.query, scenario.missing, lam=lam)
            assert 0.0 <= refinement.penalty <= 1.0 + 1e-9

    def test_empty_missing_rejected(self, small_scorer, refiner):
        scenario = scenarios(small_scorer, count=1, seed=207)[0]
        with pytest.raises(ValueError):
            refiner.refine(scenario.query, [])


class TestEngineIntegration:
    def test_engine_facade_dispatch(self, small_db):
        from repro.service.api import YaskEngine
        from repro.bench.workloads import generate_whynot_scenarios

        engine = YaskEngine(small_db)
        scenario = generate_whynot_scenarios(
            engine.scorer, count=1, k=5, missing_count=1, seed=208,
            rank_window=25,
        )[0]
        refinement = engine.refine_combined(
            scenario.query, [m.oid for m in scenario.missing]
        )
        refined = engine.query(refinement.refined_query)
        assert all(refined.contains(m) for m in scenario.missing)

    def test_http_endpoint(self, small_db):
        from repro.service.api import YaskEngine
        from repro.service.client import YaskClient
        from repro.service.server import YaskHTTPServer
        from repro.bench.workloads import generate_whynot_scenarios

        engine = YaskEngine(small_db)
        scenario = generate_whynot_scenarios(
            engine.scorer, count=1, k=5, missing_count=1, seed=209,
            rank_window=25,
        )[0]
        server = YaskHTTPServer(engine)
        server.start_background()
        try:
            with YaskClient(server.endpoint) as client:
                q = scenario.query
                session = client.query(q.loc.x, q.loc.y, sorted(q.doc), q.k, ws=q.ws)
                response = client.refine_combined(
                    session["session_id"], [m.oid for m in scenario.missing]
                )
                log = client.query_log(session["session_id"])
            assert response["refinement"]["model"] == "combined"
            refined_ids = {
                entry["object"]["oid"]
                for entry in response["refined_result"]["entries"]
            }
            assert {m.oid for m in scenario.missing} <= refined_ids
            assert any(e["kind"] == "combined refinement" for e in log)
        finally:
            server.shutdown()
            server.server_close()


class TestGoldenMultiObject:
    """``CombinedRefinement`` for |M| > 1, pinned at the commit before the
    stages began sharing one ``WhyNotContext`` (R(M, q) from the context,
    R(M, q'') from the last stage).  The paper's KcR-tree arm must
    reproduce every field, both stages and the keyword stage's work
    counters; the served engine, which ranks keyword candidates on the
    kernel's scan index, every field but the keyword stage's ``method``
    and those tree counters."""

    @pytest.fixture(scope="class")
    def golden(self):
        import json
        from pathlib import Path

        path = Path(__file__).with_name("golden_combined_multi.json")
        return json.loads(path.read_text())

    @staticmethod
    def _answer(refinement):
        from dataclasses import asdict

        from repro.service.protocol import combined_refinement_to_dict

        answer = combined_refinement_to_dict(refinement)
        answer["keyword_stage_stats"] = (
            asdict(refinement.keyword_stage.stats)
            if refinement.keyword_stage is not None
            else None
        )
        return answer

    def test_kcr_tree_arm_equals_every_field(self, medium_db, medium_scorer, golden):
        from repro.index.kcrtree import KcRTree
        from repro.service.protocol import query_from_dict

        refiner = CombinedRefiner(
            medium_scorer,
            PreferenceAdjuster(medium_scorer),
            KeywordAdapter(medium_scorer, KcRTree.build(medium_db, max_entries=16)),
        )
        for case in golden:
            refinement = refiner.refine(
                query_from_dict(case["query"]),
                [medium_db.get(oid) for oid in case["missing"]],
                lam=case["lambda"],
            )
            assert self._answer(refinement) == case["answer"]

    @pytest.mark.parametrize("shards", [None, 4])
    def test_served_engine_equals_every_answer_field(self, medium_db, golden, shards):
        from repro.service.api import YaskEngine
        from repro.service.protocol import query_from_dict

        engine = YaskEngine(medium_db, shards=shards)
        orders = set()
        for case in golden:
            refinement = engine.refine_combined(
                query_from_dict(case["query"]), case["missing"], lam=case["lambda"]
            )
            answer = self._answer(refinement)
            expected = dict(case["answer"])
            del answer["keyword_stage_stats"], expected["keyword_stage_stats"]
            if expected["keyword_stage"] is not None:
                assert answer["keyword_stage"].pop("method") == "scan-index-bound-prune"
                expected["keyword_stage"] = {
                    key: value
                    for key, value in expected["keyword_stage"].items()
                    if key != "method"
                }
            assert answer == expected
            orders.add(refinement.order)
        engine.close()
        assert orders == {"keyword-first", "preference-first"}
