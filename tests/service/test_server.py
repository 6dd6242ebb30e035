"""End-to-end HTTP tests: the browser-server round trip of Fig. 1.

A real YaskHTTPServer is started on an ephemeral localhost port and
driven through the YaskClient, covering every endpoint and the error
paths (bad JSON, unknown sessions, not-missing objects).
"""

from urllib import request

import pytest

from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError
from repro.service.server import YaskHTTPServer


@pytest.fixture(scope="module")
def server(small_db):
    from tests.service.conftest import running_server

    with running_server(YaskEngine(small_db)) as server:
        yield server


@pytest.fixture(scope="module")
def client(server):
    with YaskClient(server.endpoint) as client:
        yield client


@pytest.fixture(scope="module")
def scenario(small_db):
    from repro.core.scoring import Scorer
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        Scorer(small_db), count=1, k=5, missing_count=1, seed=170,
        rank_window=25,
    )[0]


def open_session(client, scenario):
    q = scenario.query
    return client.query(
        q.loc.x, q.loc.y, sorted(q.doc), q.k, ws=q.ws
    )


class TestBasicEndpoints:
    def test_health(self, client, small_db):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["objects"] == len(small_db)

    def test_objects_lists_all_markers(self, client, small_db):
        objects = client.objects()
        assert len(objects) == len(small_db)
        assert {"oid", "name", "x", "y", "keywords"} <= set(objects[0])

    def test_unknown_path_404(self, server):
        with YaskClient(server.endpoint) as client:
            with pytest.raises(YaskClientError) as exc:
                client._call("GET", "/api/nope")
        assert exc.value.status == 404


class TestQueryEndpoint:
    def test_query_returns_session_and_result(self, client, scenario):
        response = open_session(client, scenario)
        assert response["session_id"].startswith("s")
        assert len(response["result"]["entries"]) == scenario.query.k
        assert response["response_ms"] >= 0.0

    def test_result_entries_are_rank_ordered(self, client, scenario):
        response = open_session(client, scenario)
        ranks = [entry["rank"] for entry in response["result"]["entries"]]
        assert ranks == sorted(ranks)

    def test_malformed_body_is_400(self, server):
        req = request.Request(
            f"{server.endpoint}/api/query",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(Exception) as exc:
            request.urlopen(req)
        exc.value.close()
        assert exc.value.code == 400

    @pytest.mark.parametrize(
        "body",
        [
            b'{"x": NaN, "y": 0.5, "keywords": ["kw000"], "k": 3}',
            b'{"x": 0.5, "y": Infinity, "keywords": ["kw000"], "k": 3}',
            b'{"x": 0.5, "y": -Infinity, "keywords": ["kw000"], "k": 3}',
            # Valid JSON that parses to infinity: caught by the query.
            b'{"x": 1e999, "y": 0.5, "keywords": ["kw000"], "k": 3}',
            b'{"x": 0.5, "y": 0.5, "keywords": ["kw000"], "k": true}',
            b'{"x": 0.5, "y": 0.5, "keywords": ["kw000"], "k": 1e999}',
            b'{"x": 0.5, "y": 0.5, "keywords": ["caf\xe9"], "k": 3}',
            b'{"x": 0.5, "y": 0.5, "keywords": ["kw000"], "k": 1000000000}',
            b'{"x": 0.5, "y": 0.5, "keywords": [null, 3], "k": 3}',
            b'{"x": 0.5, "y": 0.5, "keywords": {"kw000": 1}, "k": 3}',
            b'{"x": 0.5, "y": 0.5, "keywords": ['
            # Hex keywords keep 100 000 of them under the 1 MiB body cap.
            + b",".join(b'"%x"' % index for index in range(100_000))
            + b'], "k": 3}',
        ],
        ids=[
            "nan", "inf", "neg-inf", "1e999", "bool-k", "inf-k", "latin-1",
            "huge-k", "non-string-keywords", "keywords-object", "huge-keywords",
        ],
    )
    def test_values_that_are_not_a_query_are_400(self, server, body):
        """Regression: NaN/Infinity answered 200 with a non-JSON body,
        ``"k": true`` ran as k=1, a non-UTF-8 body was a 500,
        ``k = 10⁹`` answered (and cached) every object, ``[null, 3]``
        searched for ``"None"`` and ``"3"``, a keyword object searched
        for its keys and a 100 000-keyword list was encoded whole."""
        from tests.service.conftest import post_raw

        status, reply = post_raw(server.endpoint, "/api/query", body)
        assert status == 400, reply
        assert reply["error"]

    def test_non_finite_query_location_refused_in_process(self):
        from repro.core.geometry import Point
        from repro.core.query import SpatialKeywordQuery

        with pytest.raises(ValueError, match="finite"):
            SpatialKeywordQuery(Point(float("nan"), 0.0), frozenset({"a"}), 1)

    def test_missing_fields_is_400(self, client):
        with pytest.raises(YaskClientError) as exc:
            client._call("POST", "/api/query", {"x": 0})
        assert exc.value.status == 400

    def test_empty_body_is_400(self, server):
        req = request.Request(f"{server.endpoint}/api/query", data=b"", method="POST")
        with pytest.raises(Exception) as exc:
            request.urlopen(req)
        exc.value.close()
        assert exc.value.code == 400


class TestWhyNotEndpoints:
    def test_explain_flow(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        response = client.explain(
            session_id, [m.oid for m in scenario.missing]
        )
        explanation = response["explanation"]
        assert explanation["worst_rank"] > scenario.query.k
        assert explanation["objects"][0]["rank"] == scenario.missing_ranks[0]

    def test_preference_flow_revives_missing(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        response = client.refine_preference(
            session_id, [m.oid for m in scenario.missing], lam=0.5
        )
        refined_ids = {
            entry["object"]["oid"]
            for entry in response["refined_result"]["entries"]
        }
        assert {m.oid for m in scenario.missing} <= refined_ids
        assert 0.0 <= response["refinement"]["penalty"] <= 1.0

    def test_keyword_flow_revives_missing(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        response = client.refine_keywords(
            session_id, [m.oid for m in scenario.missing], lam=0.5
        )
        refined_ids = {
            entry["object"]["oid"]
            for entry in response["refined_result"]["entries"]
        }
        assert {m.oid for m in scenario.missing} <= refined_ids

    def test_not_missing_object_is_422(self, client, scenario):
        response = open_session(client, scenario)
        session_id = response["session_id"]
        top_oid = response["result"]["entries"][0]["object"]["oid"]
        with pytest.raises(YaskClientError) as exc:
            client.explain(session_id, [top_oid])
        assert exc.value.status == 422

    def test_unknown_session_is_404(self, client):
        with pytest.raises(YaskClientError) as exc:
            client.explain("s999999", [1])
        assert exc.value.status == 404
        # The plain sentence, not str(KeyError)'s quoted repr of it.
        assert str(exc.value) == (
            "HTTP 404: unknown or expired session 's999999'"
        )

    def test_bad_lambda_is_400(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        with pytest.raises(YaskClientError) as exc:
            client._call(
                "POST",
                "/api/whynot/preference",
                {"session_id": session_id, "missing": [1], "lambda": 3.0},
            )
        assert exc.value.status == 400

    def test_empty_missing_is_400(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        with pytest.raises(YaskClientError) as exc:
            client._call(
                "POST",
                "/api/whynot/explain",
                {"session_id": session_id, "missing": []},
            )
        assert exc.value.status == 400


class TestBatchEndpoint:
    def make_payloads(self, scenario, count=3):
        q = scenario.query
        payloads = [
            {
                "x": q.loc.x + 0.001 * i,
                "y": q.loc.y,
                "keywords": sorted(q.doc),
                "k": q.k,
                "ws": q.ws,
            }
            for i in range(count)
        ]
        return payloads

    def test_batch_returns_per_query_results_in_order(self, client, scenario):
        payloads = self.make_payloads(scenario)
        response = client.query_batch(payloads)
        assert response["count"] == len(payloads)
        assert response["total_ms"] >= 0.0
        assert len(response["results"]) == len(payloads)
        for payload, entry in zip(payloads, response["results"]):
            assert entry["result"]["query"]["x"] == payload["x"]
            assert len(entry["result"]["entries"]) == payload["k"]
            assert entry["response_ms"] >= 0.0
            assert entry["source"] in ("engine", "cache", "inflight")

    def test_batch_duplicates_share_one_execution(self, client, scenario):
        payload = self.make_payloads(scenario, count=1)[0]
        payload["x"] += 7.0  # a location no other test queries
        response = client.query_batch([payload] * 4)
        cached = [entry["cached"] for entry in response["results"]]
        assert cached.count(False) == 1  # one engine execution, three reuses
        oids = [
            [e["object"]["oid"] for e in entry["result"]["entries"]]
            for entry in response["results"]
        ]
        assert all(o == oids[0] for o in oids)

    def test_repeat_single_query_is_cache_hit(self, client, scenario):
        payload = self.make_payloads(scenario, count=1)[0]
        payload["y"] += 5.0  # unique to this test
        first = client.query(
            payload["x"], payload["y"], payload["keywords"], payload["k"],
            ws=payload["ws"],
        )
        second = client.query(
            payload["x"], payload["y"], payload["keywords"], payload["k"],
            ws=payload["ws"],
        )
        assert first["cached"] is False
        assert second["cached"] is True
        log = client.query_log(second["session_id"])
        assert log[0]["cached"] is True

    def test_stats_endpoint_reports_counters(self, client, scenario):
        stats = client.stats()
        assert {"hits", "misses", "evictions", "size", "capacity"} <= set(stats)
        before = stats["hits"]
        payload = self.make_payloads(scenario, count=1)[0]
        payload["x"] += 11.0
        client.query_batch([payload])
        client.query_batch([payload])
        after = client.stats()
        assert after["hits"] >= before + 1

    def test_empty_batch_is_400(self, client):
        with pytest.raises(YaskClientError) as exc:
            client.query_batch([])
        assert exc.value.status == 400

    def test_malformed_batch_element_is_400_with_index(self, client):
        with pytest.raises(YaskClientError) as exc:
            client.query_batch([{"x": 1.0}])
        assert exc.value.status == 400
        assert "queries[0]" in str(exc.value)

    def test_oversized_batch_is_400(self, client, scenario):
        payload = self.make_payloads(scenario, count=1)[0]
        with pytest.raises(YaskClientError) as exc:
            client.query_batch([payload] * 300)
        assert exc.value.status == 400


class TestSessionLifecycle:
    def test_query_log_records_interactions(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        client.explain(session_id, [m.oid for m in scenario.missing])
        client.refine_preference(session_id, [m.oid for m in scenario.missing])
        log = client.query_log(session_id)
        kinds = [entry["kind"] for entry in log]
        assert kinds[0] == "top-k query"
        assert "why-not explanation" in kinds
        assert "preference adjustment" in kinds
        refinement_entries = [e for e in log if e["kind"] == "preference adjustment"]
        assert refinement_entries[0]["penalty"] is not None

    def test_close_session(self, client, scenario):
        session_id = open_session(client, scenario)["session_id"]
        assert client.close_session(session_id)
        with pytest.raises(YaskClientError) as exc:
            client.explain(session_id, [1])
        assert exc.value.status == 404

    def test_sessions_are_isolated(self, client, scenario):
        first = open_session(client, scenario)["session_id"]
        second = open_session(client, scenario)["session_id"]
        assert first != second
        client.explain(first, [m.oid for m in scenario.missing])
        assert all(
            entry["kind"] != "why-not explanation"
            for entry in client.query_log(second)
        )


class TestWhyNotBatchEndpoint:
    def make_question_payload(self, scenario, **overrides):
        q = scenario.query
        payload = {
            "x": q.loc.x,
            "y": q.loc.y,
            "keywords": sorted(q.doc),
            "k": q.k,
            "ws": q.ws,
            "missing": [m.oid for m in scenario.missing],
        }
        payload.update(overrides)
        return payload

    def test_batch_answers_in_order_with_models(self, client, scenario):
        payloads = [
            self.make_question_payload(scenario),
            self.make_question_payload(scenario, model="explain"),
            self.make_question_payload(scenario, model="preference"),
        ]
        response = client.whynot_batch(payloads)
        assert response["count"] == 3
        full, explain, preference = response["results"]
        assert full["model"] == "full"
        assert full["answer"]["best_model"] in (
            "preference adjustment", "keyword adaption"
        )
        assert explain["model"] == "explain"
        assert explain["answer"]["worst_rank"] > scenario.query.k
        assert preference["model"] == "preference"
        assert 0.0 <= preference["answer"]["penalty"] <= 1.0
        for entry in response["results"]:
            assert entry["source"] in ("engine", "cache", "inflight")
            assert entry["response_ms"] >= 0.0

    def test_repeated_question_is_served_from_cache(self, client, scenario):
        payload = self.make_question_payload(scenario, model="keywords")
        first = client.whynot_batch([payload])["results"][0]
        second = client.whynot_batch([payload])["results"][0]
        assert second["cached"] is True
        assert second["answer"] == first["answer"]

    def test_batch_reuses_cached_topk_result(self, client, scenario):
        # Prime the top-k cache through the ordinary query endpoint,
        # then ask why-not about the same query: the fresh computation
        # must report its initial result came from the top-k cache.
        q = scenario.query
        x = q.loc.x + 0.0005  # a query no other test asks about
        client.query(x, q.loc.y, sorted(q.doc), q.k, ws=q.ws)
        payload = self.make_question_payload(scenario, model="explain", x=x)
        entry = client.whynot_batch([payload])["results"][0]
        assert entry["source"] == "engine"
        assert entry["topk_source"] == "cache"

    def test_explain_lambda_does_not_fragment_the_cache(self, client, scenario):
        # λ does not influence an explanation; two explain questions
        # differing only in λ must share one cache entry.
        payload = self.make_question_payload(
            scenario, model="explain", y=scenario.query.loc.y + 0.0007
        )
        client.query(
            payload["x"], payload["y"], payload["keywords"], payload["k"],
            ws=payload["ws"],
        )
        first = client.whynot_batch([dict(payload, **{"lambda": 0.2})])
        second = client.whynot_batch([dict(payload, **{"lambda": 0.8})])
        assert first["results"][0]["source"] == "engine"
        assert second["results"][0]["source"] == "cache"

    def test_ill_posed_member_does_not_fail_the_batch(self, client, scenario):
        response = client.whynot_batch(
            [
                self.make_question_payload(scenario),
                self.make_question_payload(scenario, missing=["No Such Hotel"]),
            ]
        )
        good, bad = response["results"]
        assert good["answer"] is not None
        assert bad["answer"] is None
        assert bad["source"] == "error"
        assert "No Such Hotel" in bad["error"]

    def test_timeout_ms_is_one_budget_for_the_batch(self, small_db, scenario):
        """A hopeless budget degrades every member; headroom changes nothing.

        Rank scans poll the deadline only on the sharded path, hence
        the two-shard engine.
        """
        from tests.service.conftest import running_server

        payloads = [
            self.make_question_payload(scenario, model="explain"),
            self.make_question_payload(scenario, model="preference"),
        ]
        with running_server(
            YaskEngine(small_db, shards=2)
        ) as sharded, YaskClient(sharded.endpoint) as batch_client:
            starved = batch_client.whynot_batch(payloads, timeout_ms=0.001)
            roomy = batch_client.whynot_batch(payloads, timeout_ms=600000.0)
            unbounded = batch_client.whynot_batch(payloads)
        for entry in starved["results"]:
            assert entry["source"] == "degraded" and entry["answer"] is None
            assert entry["degraded"]["budget_ms"] == 0.001
        for entry, exact in zip(roomy["results"], unbounded["results"]):
            assert entry["source"] == "engine" and "degraded" not in entry
            assert entry["answer"] == exact["answer"]

    def test_stats_report_both_caches(self, client):
        full = client._call("GET", "/api/stats")
        assert {"cache", "whynot_cache", "kernel"} <= set(full)
        whynot = client.whynot_stats()
        assert {"hits", "misses", "evictions", "size", "capacity"} <= set(whynot)

    def test_stats_report_kernel_counters(self, client, scenario):
        """The compute tier under the caches surfaces its work counters."""
        payload = self.make_question_payload(scenario, model="preference")
        client.whynot_batch([payload])
        kernel = client._call("GET", "/api/stats")["kernel"]
        assert kernel is not None
        assert {
            "full_passes", "score_passes", "point_scores", "dual_views",
            "scan_calls", "scan_rows_scored", "scan_columns_visited",
        } <= set(kernel)
        assert kernel["dual_views"] >= 1  # the preference sweep ran columnar
        # The question's top-k ran an indexed scan, which walks a column.
        assert kernel["scan_columns_visited"] >= kernel["scan_calls"] >= 1

    def test_malformed_member_is_400_with_index(self, client, scenario):
        with pytest.raises(YaskClientError) as exc:
            client.whynot_batch(
                [self.make_question_payload(scenario), {"x": 1.0}]
            )
        assert exc.value.status == 400
        assert "questions[1]" in str(exc.value)

    def test_unknown_model_is_400(self, client, scenario):
        with pytest.raises(YaskClientError) as exc:
            client.whynot_batch(
                [self.make_question_payload(scenario, model="telepathy")]
            )
        assert exc.value.status == 400

    def test_oversized_batch_is_400(self, client, scenario):
        payload = self.make_question_payload(scenario)
        with pytest.raises(YaskClientError) as exc:
            client.whynot_batch([payload] * 100)
        assert exc.value.status == 400

    def test_empty_batch_is_400(self, client):
        with pytest.raises(YaskClientError) as exc:
            client.whynot_batch([])
        assert exc.value.status == 400


class TestSessionWhyNotCaching:
    def test_repeated_session_question_is_cached_and_logged(
        self, client, scenario
    ):
        session_id = open_session(client, scenario)["session_id"]
        missing = [m.oid for m in scenario.missing]
        first = client.refine_combined(session_id, missing, lam=0.125)
        second = client.refine_combined(session_id, missing, lam=0.125)
        assert second["cached"] is True
        assert second["refinement"] == first["refinement"]
        log = client.query_log(session_id)
        combined = [e for e in log if e["kind"] == "combined refinement"]
        assert [entry["cached"] for entry in combined] == [False, True]

    def test_cache_is_shared_across_sessions(self, client, scenario):
        # Two users asking the same why-not question: the second answer
        # comes from the shared cache, exactly like top-k queries.
        missing = [m.oid for m in scenario.missing]
        first_session = open_session(client, scenario)["session_id"]
        second_session = open_session(client, scenario)["session_id"]
        client.explain(first_session, missing)
        response = client.explain(second_session, missing)
        assert response["cached"] is True


class TestDurabilityOverHTTP:
    def test_stats_report_durability_disabled_by_default(self, client):
        assert client.durability_stats() == {"enabled": False}

    def test_min_generation_on_a_primary(self, client, scenario):
        q = scenario.query
        # The current generation is always satisfiable...
        response = client.query(
            q.loc.x, q.loc.y, sorted(q.doc), q.k, min_generation=0
        )
        assert "result" in response
        # ...a future one is a structured 503, not stale data.
        with pytest.raises(YaskClientError) as exc:
            client.query(
                q.loc.x, q.loc.y, sorted(q.doc), q.k, min_generation=10**6
            )
        assert exc.value.status == 503
        assert "retry" in str(exc.value)

    def test_invalid_token_is_400(self, client, scenario):
        q = scenario.query
        payload = {
            "x": q.loc.x,
            "y": q.loc.y,
            "keywords": sorted(q.doc),
            "k": q.k,
            "min_generation": -3,
        }
        with pytest.raises(YaskClientError) as exc:
            client._call("POST", "/api/query", payload)
        assert exc.value.status == 400

    def test_durable_server_snapshots_on_cadence(self, tmp_path, small_db):
        from repro.core.objects import SpatialDatabase
        from repro.service.wal import WriteAheadLog

        engine = YaskEngine(
            SpatialDatabase(small_db.objects, dataspace=small_db.dataspace),
            wal=WriteAheadLog(tmp_path, fsync="never"),
        )
        from tests.service.conftest import running_server

        with running_server(engine, snapshot_every=2) as server, YaskClient(
            server.endpoint
        ) as durable:
            first = durable.mutate([{"op": "delete", "oid": 0}])
            assert "snapshot" not in first  # cadence of 2 not yet due
            second = durable.mutate([{"op": "delete", "oid": 1}])
            assert second["snapshot"]["generation"] == 2
            stats = durable.durability_stats()
            assert stats["role"] == "primary"
            assert stats["last_generation"] == 2
            assert stats["snapshot_generation"] == 2
            assert stats["snapshots_written"] == 1

    def test_snapshot_every_requires_a_wal(self, small_db):
        from repro.core.objects import SpatialDatabase

        engine = YaskEngine(
            SpatialDatabase(small_db.objects, dataspace=small_db.dataspace)
        )
        with pytest.raises(ValueError, match="snapshot_every"):
            YaskHTTPServer(engine, snapshot_every=2)
        engine.close()


class TestServeLoop:
    def test_idle_loop_sleeps_and_shutdown_wakes_it(self, small_db, monkeypatch):
        """The serve loop blocks with no timeout: an idle server never
        wakes (socketserver's loop polled every 0.5 s), and shutdown
        wakes it at once instead of waiting out a poll."""
        import time

        from tests.service.conftest import running_server

        wakes = []
        monkeypatch.setattr(
            YaskHTTPServer, "service_actions", lambda self: wakes.append(1)
        )
        with running_server(YaskEngine(small_db)) as server:
            with YaskClient(server.endpoint) as client:
                assert client.health()["status"] == "ok"
            settled = len(wakes)
            time.sleep(0.6)
            assert len(wakes) == settled  # no poll while idle
            started = time.perf_counter()
            server.shutdown()
            assert time.perf_counter() - started < 0.25
