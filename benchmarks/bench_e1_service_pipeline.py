"""E1 — Fig. 1: end-to-end request flow through the service architecture.

Measures the full browser-server pipeline on the 539-hotel demonstration
dataset: the initial top-k query, the explanation, each refinement model
and the combined why-not answer — the latency budget of one complete
demonstration interaction (Section 4).

Regenerates: the architecture walk of Fig. 1 / the response times shown
in the query-log panel (Fig. 4, Panel 5).
"""

import pytest

from repro.core.geometry import Point
from repro.datasets.hotels import GRAND_VICTORIA

VENUE = Point(114.1722, 22.2975)
KEYWORDS = frozenset({"clean", "comfortable"})


@pytest.fixture(scope="module")
def initial_query(hotels_engine):
    return hotels_engine.make_query(VENUE, KEYWORDS, 3)


def test_e1_topk_query(benchmark, hotels_engine, initial_query):
    result = benchmark(hotels_engine.query, initial_query)
    assert len(result) == 3


def test_e1_explanation(benchmark, hotels_engine, initial_query):
    explanation = benchmark(
        hotels_engine.explain, initial_query, [GRAND_VICTORIA]
    )
    assert explanation.worst_rank > 3


def test_e1_preference_refinement(benchmark, hotels_engine, initial_query):
    refinement = benchmark(
        hotels_engine.refine_preference, initial_query, [GRAND_VICTORIA]
    )
    assert refinement.penalty <= 0.5


def test_e1_keyword_refinement(benchmark, hotels_engine, initial_query):
    refinement = benchmark(
        hotels_engine.refine_keywords, initial_query, [GRAND_VICTORIA]
    )
    assert refinement.penalty <= 0.5


def test_e1_full_whynot_interaction(benchmark, hotels_engine, initial_query):
    answer = benchmark(
        hotels_engine.why_not, initial_query, [GRAND_VICTORIA]
    )
    assert answer.best_model is not None


def test_e1_http_round_trip(benchmark, hotels_engine):
    """One complete HTTP session: query → explain → refine → log."""
    from repro.service.client import YaskClient
    from repro.service.server import YaskHTTPServer

    server = YaskHTTPServer(hotels_engine)
    server.start_background()
    client = YaskClient(server.endpoint)

    def interaction():
        session = client.query(VENUE.x, VENUE.y, sorted(KEYWORDS), 3)
        session_id = session["session_id"]
        client.explain(session_id, [GRAND_VICTORIA])
        client.refine_keywords(session_id, [GRAND_VICTORIA])
        client.query_log(session_id)
        client.close_session(session_id)

    try:
        benchmark.pedantic(interaction, rounds=5, iterations=1, warmup_rounds=1)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
