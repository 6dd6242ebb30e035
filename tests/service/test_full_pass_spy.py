"""No public why-not call and no served request runs a full pass.

``ScoringKernel.components_all`` scores every row: it is the
brute-force reference's pass (``Scorer.top_k`` / ``rank_all``), which
the audit endpoint reads on purpose.  A why-not question without an
initial result runs the engine's own top-k — the indexed scan the
served ``/api/query`` runs — so neither ``YaskEngine``'s public
why-not methods nor any served request but the audit may reach it.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import generate_whynot_scenarios
from repro.core.kernel import ScoringKernel
from repro.core.scoring import Scorer
from repro.service.api import YaskEngine
from repro.service.client import YaskClient
from repro.service.executor import WhyNotQuestion

MODELS = ("full", "explain", "preference", "keywords", "combined")


@pytest.fixture(scope="module")
def scenario(small_db):
    (scenario,) = generate_whynot_scenarios(
        Scorer(small_db), count=1, k=5, missing_count=1, seed=170, rank_window=25
    )
    return scenario


@pytest.fixture
def full_passes(monkeypatch):
    """Every ``components_all`` call made while the test runs."""
    calls: list[object] = []
    original = ScoringKernel.components_all

    def spy(kernel, query):
        calls.append(query)
        return original(kernel, query)

    monkeypatch.setattr(ScoringKernel, "components_all", spy)
    return calls


@pytest.mark.parametrize("shards", [None, 2])
def test_public_whynot_calls_run_no_full_pass(small_db, scenario, shards, full_passes):
    engine = YaskEngine(small_db, shards=shards)
    query, missing = scenario.query, [obj.oid for obj in scenario.missing]
    try:
        # The reference: the explanation of the brute-force result.
        reference = engine.whynot.explain(
            query, missing, initial_result=engine.scorer.top_k(query)
        )
        full_passes.clear()
        assert engine.explain(query, missing) == reference
        assert engine.why_not(query, missing).explanation == reference
        engine.refine_preference(query, missing)
        engine.refine_keywords(query, missing)
        engine.refine_combined(query, missing)
        for model in MODELS:
            engine.answer_whynot(
                WhyNotQuestion(query=query, missing=tuple(missing), model=model)
            )
        assert full_passes == []
    finally:
        engine.close()


def test_served_requests_run_no_full_pass(small_db, scenario, full_passes):
    from tests.service.conftest import running_server

    query, missing = scenario.query, [obj.oid for obj in scenario.missing]
    body = {
        "x": query.loc.x, "y": query.loc.y, "keywords": sorted(query.doc),
        "k": query.k, "missing": missing,
    }
    with running_server(YaskEngine(small_db, shards=2)) as server:
        with YaskClient(server.endpoint) as client:
            session = client.query(query.loc.x, query.loc.y, query.doc, query.k)
            client.explain(session["session_id"], missing)
            client.refine_preference(session["session_id"], missing)
            client.refine_keywords(session["session_id"], missing)
            client.refine_combined(session["session_id"], missing)
            answers = client.whynot_batch([{**body, "model": model} for model in MODELS])
            assert all("error" not in entry for entry in answers["results"])
            client.query_batch([{key: body[key] for key in ("x", "y", "keywords", "k")}])
    assert full_passes == []
