"""Live ingest and retirement over HTTP, with warm caches under writes.

Starts the YASK server on an ephemeral port, warms the top-k cache with
two neighbourhood queries, then mutates the database the way a live
service would — ingest a batch of new places, update one, retire one —
and shows the two properties the live-mutation tier promises:

* new objects are queryable the moment the batch returns (and answers
  match a fresh engine built from the new object set), and
* cache maintenance keeps cached results the batch provably cannot
  affect and drops the ones it can: the distant query is still served
  warm after the write.

    python examples/yask_live_updates.py
"""

from repro import YaskEngine
from repro.datasets import hong_kong_hotels
from repro.service.client import YaskClient
from repro.service.server import YaskHTTPServer


def main() -> None:
    server = YaskHTTPServer(YaskEngine(hong_kong_hotels()))
    server.start_background()
    print(f"server up at {server.endpoint}")

    client = YaskClient(server.endpoint)
    try:
        before = client.health()["objects"]
        print(f"objects at startup: {before}")

        # Warm two cached results in different neighbourhoods.
        kowloon = dict(x=114.1722, y=22.2975, keywords=["clean"], k=3)
        island = dict(x=114.1655, y=22.2800, keywords=["harbour"], k=3)
        client.query(**kowloon)
        client.query(**island)

        # --- Ingest: three new places near the Kowloon query ----------
        report = client.insert_objects([
            {"oid": 910001, "x": 114.1725, "y": 22.2970,
             "keywords": ["clean", "rooftop", "bar"], "name": "Skyline Hostel"},
            {"oid": 910002, "x": 114.1730, "y": 22.2965,
             "keywords": ["clean", "budget"], "name": "Harbour Bunk"},
            {"oid": 910003, "x": 114.1710, "y": 22.2985,
             "keywords": ["rooftop", "pool"], "name": "Pool Deck Inn"},
        ])
        tally = report["cache_maintenance"]
        print(f"\ningested 3 places (generation {report['generation']}, "
              f"{report['response_ms']:.1f} ms server-side)")
        print(f"cache maintenance: kept {tally['kept']} untouched cached "
              f"result(s), dropped {tally['dropped']} the batch could affect")

        # Immediately queryable …
        top = client.query(x=114.1722, y=22.2975, keywords=["rooftop"], k=2)
        names = [e["object"]["name"] for e in top["result"]["entries"]]
        print(f"top-2 'rooftop' right after ingest: {names}")

        # … and the distant cached query survived the write.
        warm = client.query(**island)
        print(f"distant 'harbour' query cached after the write: "
              f"{warm['cached']}")

        # --- Update and retire ----------------------------------------
        client.mutate([
            {"op": "update", "oid": 910001, "x": 114.1725, "y": 22.2970,
             "keywords": ["clean", "rooftop", "bar", "renovated"],
             "name": "Skyline Hostel"},
            {"op": "delete", "oid": 910002},
        ])
        renovated = client.get_object("Skyline Hostel")
        print(f"\nafter update: {renovated['keywords']}")
        stats = client.mutation_stats()
        print(f"mutation stats: generation {stats['generation']}, "
              f"+{stats['inserted']} / ~{stats['updated']} / "
              f"-{stats['deleted']}, kernel rows {stats['kernel']['rows']} "
              f"({stats['kernel']['tombstones']} tombstones)")

        after = client.health()["objects"]
        print(f"objects now: {after} (started with {before})")
        assert after == before + 2  # 3 inserted, 1 deleted
    finally:
        client.close()
        server.shutdown()
        server.server_close()

    print("\ndone.")


if __name__ == "__main__":
    main()
