"""The browser-server round trip of Fig. 1 over real HTTP.

Starts the YASK HTTP server on an ephemeral local port, then drives it
with the Python client exactly as the demonstration GUI would: issue the
initial top-k query (getting a cached session), ask for the explanation,
request both refinements, read the query log and close the session.
Finishes with the serving-tier additions: a batched query request, a
batched why-not request (cached, deduplicated, reusing the top-k
cache) and both executors' cache statistics.

    python examples/yask_server.py
"""

from repro import YaskEngine
from repro.datasets import GRAND_VICTORIA, hong_kong_hotels
from repro.service.client import YaskClient
from repro.service.server import YaskHTTPServer


def main() -> None:
    server = YaskHTTPServer(YaskEngine(hong_kong_hotels()))
    server.start_background()
    print(f"server up at {server.endpoint}")

    client = YaskClient(server.endpoint)
    try:
        print("health:", client.health())

        # Initial query — the server caches it and returns a session id.
        response = client.query(
            x=114.1722, y=22.2975, keywords=["clean", "comfortable"], k=3
        )
        session_id = response["session_id"]
        print(f"\nsession {session_id}, "
              f"server time {response['response_ms']:.2f} ms")
        for entry in response["result"]["entries"]:
            obj = entry["object"]
            print(f"  #{entry['rank']} {obj['name']}  score={entry['score']:.4f}")

        # Why is the Grand Victoria missing?
        explanation = client.explain(session_id, [GRAND_VICTORIA])
        first = explanation["explanation"]["objects"][0]
        print(f"\nexplanation: rank #{first['rank']}, reason: {first['reason']}")

        # Both refinement models.
        pref = client.refine_preference(session_id, [GRAND_VICTORIA], lam=0.5)
        print("\npreference adjustment:")
        print(f"  refined ws={pref['refinement']['refined_query']['ws']:.4f}, "
              f"k={pref['refinement']['refined_query']['k']}, "
              f"penalty={pref['refinement']['penalty']:.4f}")

        keywords = client.refine_keywords(session_id, [GRAND_VICTORIA], lam=0.5)
        print("keyword adaption:")
        print(f"  added={keywords['refinement']['added']}, "
              f"k={keywords['refinement']['refined_query']['k']}, "
              f"penalty={keywords['refinement']['penalty']:.4f}")
        revived = [
            entry["object"]["name"]
            for entry in keywords["refined_result"]["entries"]
            if entry["object"]["name"] == GRAND_VICTORIA
        ]
        print(f"  revived in refined result: {bool(revived)}")

        # The query-log panel (Fig. 4, Panel 5).
        print("\nquery log:")
        for entry in client.query_log(session_id):
            penalty = (
                f" penalty={entry['penalty']:.4f}" if entry["penalty"] else ""
            )
            print(f"  [{entry['sequence']}] {entry['kind']}"
                  f"{penalty} time={entry['response_ms']:.2f}ms")

        print("\nclosing session:", client.close_session(session_id))

        # The batch endpoint: many queries per round trip, deduplicated
        # and cached by the server's QueryExecutor.  The first payload
        # repeats the initial query, so it comes back as a cache hit.
        batch = client.query_batch(
            [
                {"x": 114.1722, "y": 22.2975,
                 "keywords": ["clean", "comfortable"], "k": 3},
                {"x": 114.1722, "y": 22.2975, "keywords": ["harbour"], "k": 2},
                {"x": 114.1722, "y": 22.2975,
                 "keywords": ["clean", "comfortable"], "k": 3},
            ]
        )
        print(f"\nbatch of {batch['count']} queries "
              f"in {batch['total_ms']:.2f} ms:")
        for index, entry in enumerate(batch["results"]):
            top = entry["result"]["entries"][0]["object"]["name"]
            print(f"  [{index}] top-1 {top!r}  source={entry['source']}  "
                  f"time={entry['response_ms']:.2f} ms")

        stats = client.stats()
        print(f"executor cache: {stats['hits']} hits, {stats['misses']} misses, "
              f"hit rate {stats['hit_rate']:.0%}")

        # The why-not batch endpoint: independent questions in one round
        # trip.  The first asks the session's question again (cache hit —
        # the session flow already computed it), the second asks for the
        # preference model only, at a different λ.
        whynot = client.whynot_batch(
            [
                {"x": 114.1722, "y": 22.2975,
                 "keywords": ["clean", "comfortable"], "k": 3,
                 "missing": [GRAND_VICTORIA], "model": "explain"},
                {"x": 114.1722, "y": 22.2975,
                 "keywords": ["clean", "comfortable"], "k": 3,
                 "missing": [GRAND_VICTORIA], "model": "preference",
                 "lambda": 0.3},
            ]
        )
        print(f"\nwhy-not batch of {whynot['count']} questions "
              f"in {whynot['total_ms']:.2f} ms:")
        for index, entry in enumerate(whynot["results"]):
            print(f"  [{index}] model={entry['model']} source={entry['source']} "
                  f"topk_source={entry['topk_source']} "
                  f"time={entry['response_ms']:.2f} ms")

        wstats = client.whynot_stats()
        print(f"why-not cache: {wstats['hits']} hits, {wstats['misses']} misses, "
              f"hit rate {wstats['hit_rate']:.0%}")
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        print("server stopped")


if __name__ == "__main__":
    main()
