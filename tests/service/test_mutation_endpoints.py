"""HTTP surface of the live-mutation tier + the 404 mapping regression."""

from __future__ import annotations

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.service.api import YaskEngine
from repro.service.client import YaskClient, YaskClientError
from repro.service.protocol import MAX_OBJECT_KEYWORDS
from repro.service.server import YaskHTTPServer
from tests.conftest import make_tiny_db


@pytest.fixture()
def served():
    from tests.service.conftest import running_server

    with running_server(
        YaskEngine(make_tiny_db()), port=0
    ) as server, YaskClient(server.endpoint) as client:
        yield server, client


class TestObjectLookup:
    def test_get_object_by_id_and_name(self, served):
        _, client = served
        assert client.get_object(0)["name"] == "o1"
        assert client.get_object("o4")["oid"] == 3

    def test_unknown_oid_is_structured_404_not_500(self, served):
        """Regression: SpatialDatabase.get's KeyError must map to a 404."""
        _, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.get_object(999)
        assert excinfo.value.status == 404
        assert "no object with id 999" in str(excinfo.value)

    def test_unknown_name_is_structured_404_not_500(self, served):
        _, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.get_object("no-such-place")
        assert excinfo.value.status == 404
        assert "no object named" in str(excinfo.value)


class TestInsertRoute:
    def test_insert_single_object(self, served):
        server, client = served
        report = client.insert_objects(
            [{"oid": 10, "x": 0.5, "y": 0.5, "keywords": ["thai"], "name": "t"}]
        )
        assert report["inserted"] == 1
        assert report["generation"] == 1
        assert report["objects"] == 6
        assert client.get_object(10)["keywords"] == ["thai"]
        assert len(server.engine.database) == 6

    def test_bare_object_payload_accepted(self, served):
        _, client = served
        report = client.mutate(
            [{"op": "insert", "oid": 11, "x": 0.1, "y": 0.9, "keywords": ["k"]}]
        )
        assert report["inserted"] == 1

    def test_duplicate_insert_is_409(self, served):
        _, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.insert_objects([{"oid": 0, "x": 0, "y": 0, "keywords": ["x"]}])
        assert excinfo.value.status == 409

    def test_malformed_object_is_400(self, served):
        _, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.insert_objects([{"oid": 12, "x": 0.5, "keywords": ["x"]}])
        assert excinfo.value.status == 400

    def test_insert_route_enforces_batch_cap(self, served):
        """The write lock guard: /api/objects caps like /api/mutations."""
        _, client = served
        oversized = [
            {"oid": 100_000 + index, "x": 0.5, "y": 0.5, "keywords": ["x"]}
            for index in range(257)
        ]
        with pytest.raises(YaskClientError) as excinfo:
            client.insert_objects(oversized)
        assert excinfo.value.status == 400
        assert "batch too large" in str(excinfo.value)

    def test_non_decimal_digit_reference_is_404_not_crash(self, served):
        """'²' passes str.isdigit() but not int(); must still 404 cleanly."""
        _, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.get_object("²")
        assert excinfo.value.status == 404

    def test_numeric_name_reachable_when_oid_free(self, served):
        """An object *named* '7100' must resolve when no oid 7100 exists."""
        server, client = served
        client.insert_objects(
            [{"oid": 70, "x": 0.5, "y": 0.5, "keywords": ["x"],
              "name": "7100"}]
        )
        assert client.get_object("7100")["oid"] == 70
        report = client.delete_object("7100")
        assert report["deleted"] == 1
        assert server.engine.database.find_by_name("7100") is None


class TestDeleteRoute:
    def test_delete_by_id_then_404_on_lookup(self, served):
        _, client = served
        report = client.delete_object(2)
        assert report["deleted"] == 1
        with pytest.raises(YaskClientError) as excinfo:
            client.get_object(2)
        assert excinfo.value.status == 404

    def test_delete_by_name(self, served):
        server, client = served
        report = client.delete_object("o5")
        assert report["deleted"] == 1
        assert server.engine.database.find_by_name("o5") is None

    def test_delete_unknown_is_404(self, served):
        _, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.delete_object(999)
        assert excinfo.value.status == 404


class TestMutationBatchRoute:
    def test_mixed_batch_applies_atomically(self, served):
        server, client = served
        report = client.mutate(
            [
                {"op": "insert", "oid": 20, "x": 0.4, "y": 0.4,
                 "keywords": ["restaurant", "thai"]},
                {"op": "update", "oid": 0, "x": 0.12, "y": 0.12,
                 "keywords": ["chinese"], "name": "o1"},
                {"op": "delete", "oid": 4},
            ]
        )
        assert (report["inserted"], report["updated"], report["deleted"]) == (
            1, 1, 1,
        )
        db = server.engine.database
        assert len(db) == 5
        assert db.get(0).doc == frozenset({"chinese"})

    def test_failed_batch_changes_nothing(self, served):
        server, client = served
        with pytest.raises(YaskClientError) as excinfo:
            client.mutate(
                [
                    {"op": "insert", "oid": 21, "x": 0.4, "y": 0.4,
                     "keywords": ["x"]},
                    {"op": "delete", "oid": 999},
                ]
            )
        assert excinfo.value.status == 404
        assert len(server.engine.database) == 5
        assert client.mutation_stats()["generation"] == 0

    def test_queries_see_mutations_immediately(self, served):
        _, client = served
        before = client.query(0.5, 0.5, ["sushi"], 1)
        assert before["result"]["entries"][0]["tsim"] == 0.0
        client.insert_objects(
            [{"oid": 30, "x": 0.5, "y": 0.5, "keywords": ["sushi"]}]
        )
        after = client.query(0.5, 0.5, ["sushi"], 1)
        entry = after["result"]["entries"][0]
        assert entry["object"]["oid"] == 30 and entry["tsim"] == 1.0


class TestAnswerMaintenance:
    def test_a_local_insert_drops_only_the_entry_it_reaches(self, served):
        server, client = served
        # Warm two cached results: one near the batch, one far away with
        # disjoint keywords.
        far = client.query(0.05, 0.05, ["chinese"], 2)
        near = client.query(0.9, 0.9, ["spanish"], 2)
        assert not far["cached"] and not near["cached"]
        report = client.insert_objects(
            [{"oid": 40, "x": 0.92, "y": 0.88, "keywords": ["spanish"]}]
        )
        assert report["cache_maintenance"] == {
            "kept": 1,
            "dropped": 1,
            "linked_dropped": 0,
        }
        # The distant, keyword-disjoint query is still served warm...
        assert client.query(0.05, 0.05, ["chinese"], 2)["cached"]
        # ...and the nearby one was dropped: its recompute sees object 40.
        refreshed = client.query(0.9, 0.9, ["spanish"], 2)
        assert not refreshed["cached"]
        assert 40 in [
            e["object"]["oid"] for e in refreshed["result"]["entries"]
        ]
        stats = client.stats()
        assert stats["maintenance_passes"] == 1
        assert stats["maintained_dropped"] == 1

    def test_mutations_stats_section(self, served):
        _, client = served
        client.insert_objects(
            [{"oid": 50, "x": 0.3, "y": 0.3, "keywords": ["k"]}]
        )
        stats = client.mutation_stats()
        assert "supported" not in stats  # every engine mutates
        assert stats["generation"] == 1
        assert stats["inserted"] == 1
        assert stats["kernel"]["live_rows"] == 6


class TestMutateCli:
    def test_mutate_command_applies_and_reports(self, tmp_path, capsys):
        import json

        from repro.service.cli import main

        ops = tmp_path / "ops.json"
        ops.write_text(
            json.dumps(
                [
                    {"op": "insert", "oid": 9001, "x": 0.1, "y": 0.2,
                     "keywords": ["espresso"], "name": "New Cafe"},
                    {"op": "delete", "oid": 1},
                ]
            )
        )
        assert main(["mutate", "--dataset", "coffee", "--file", str(ops)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["batches"][0]["inserted"] == 1
        assert payload["batches"][0]["deleted"] == 1
        assert payload["stats"]["generation"] == 1
        assert "applied 2 mutation(s)" in captured.err

    def test_mutate_command_batched(self, tmp_path, capsys):
        import json

        from repro.service.cli import main

        ops = tmp_path / "ops.json"
        ops.write_text(
            json.dumps(
                [
                    {"op": "insert", "oid": 9100 + index, "x": 0.1,
                     "y": 0.2, "keywords": ["espresso"]}
                    for index in range(4)
                ]
            )
        )
        assert (
            main(
                ["mutate", "--dataset", "coffee", "--file", str(ops),
                 "--batch-size", "2"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["batches"]) == 2
        assert payload["stats"]["generation"] == 2

    def test_mutate_command_rejects_bad_batch(self, tmp_path, capsys):
        import json

        from repro.service.cli import main

        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps([{"op": "delete", "oid": 424242}]))
        assert main(["mutate", "--dataset", "coffee", "--file", str(ops)]) == 2
        assert "mutation error" in capsys.readouterr().err

    def test_mutate_command_rejects_non_list_payload(self, tmp_path, capsys):
        """{"mutations": 5} must exit with the structured message, not a
        TypeError traceback."""
        import json

        from repro.service.cli import main

        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"mutations": 5}))
        with pytest.raises(SystemExit, match="bad mutation payload"):
            main(["mutate", "--dataset", "coffee", "--file", str(ops)])


#: Bodies whose object cannot be built over: sent byte-for-byte because
#: ``1e999`` is valid JSON that parses to infinity, an id the kernel's
#: signed 64-bit column (or its tombstone sentinel) cannot hold, and a
#: keyword list that is not a bounded list of strings.
_UNBUILDABLE_OBJECTS = {
    "keywords-not-strings": b'{"oid": 60, "x": 0.5, "y": 0.5, "keywords": [null, 3]}',
    "keywords-an-object": b'{"oid": 60, "x": 0.5, "y": 0.5, "keywords": {"x": 1}}',
    "keywords-over-cap": b'{"oid": 60, "x": 0.5, "y": 0.5, "keywords": ['
    + b", ".join(b'"kw%d"' % index for index in range(MAX_OBJECT_KEYWORDS + 1))
    + b"]}",
    "nan-literal": b'{"oid": 60, "x": NaN, "y": 0.5, "keywords": ["x"]}',
    "infinity-literal": b'{"oid": 60, "x": 0.5, "y": -Infinity, "keywords": ["x"]}',
    "overflowing-float": b'{"oid": 60, "x": 1e999, "y": 0.5, "keywords": ["x"]}',
    "oid-past-int64": b'{"oid": 9223372036854775808, "x": 0.5, "y": 0.5, "keywords": ["x"]}',
    "oid-is-the-tombstone": b'{"oid": 4611686018427387904, "x": 0.5, "y": 0.5, "keywords": ["x"]}',
    "oid-overflows-int": b'{"oid": 1e999, "x": 0.5, "y": 0.5, "keywords": ["x"]}',
}


class TestRejectedBeforeAnythingMoves:
    """Regression: these answered 500 *after* the database (and the WAL)
    had committed the batch, leaving the kernel a batch behind
    and a log record no recovery could build over."""

    @staticmethod
    def _state(engine):
        return (
            len(engine.database),
            engine.generation,
            engine.kernel.live_count,
            engine.wal.last_generation,
        )

    @pytest.mark.parametrize("route", ["/api/objects", "/api/mutations"])
    @pytest.mark.parametrize("case", sorted(_UNBUILDABLE_OBJECTS))
    def test_unbuildable_object_is_400_and_nothing_moves(
        self, tmp_path, case, route
    ):
        from repro.service.wal import WriteAheadLog, recover_engine
        from tests.service.conftest import post_raw, running_server

        body = _UNBUILDABLE_OBJECTS[case]
        if route == "/api/mutations":
            body = b'{"mutations": [{"op": "insert", ' + body[1:] + b"]}"
        engine = YaskEngine(
            make_tiny_db(),
            wal=WriteAheadLog(tmp_path, fsync="never"),
        )
        with running_server(engine, port=0) as server:
            with YaskClient(server.endpoint) as client:
                client.insert_objects(
                    [{"oid": 50, "x": 0.3, "y": 0.3, "keywords": ["k"]}]
                )
                before = self._state(engine)
                status, reply = post_raw(server.endpoint, route, body)
                assert status == 400, reply
                assert self._state(engine) == before
                # ...and the server still serves whole-generation answers.
                client.insert_objects(
                    [{"oid": 51, "x": 0.4, "y": 0.4, "keywords": ["k"]}]
                )
                assert self._state(engine) == (7, 2, 7, 2)
        recovered, report = recover_engine(
            tmp_path, database=make_tiny_db(), fsync="never"
        )
        try:
            assert report.generation == 2
            assert sorted(o.oid for o in recovered.database) == sorted(
                o.oid for o in engine.database
            )
        finally:
            recovered.close()

    def test_object_bounds_are_enforced_at_construction(self):
        from repro.core.kernel import _DEAD_OID
        from repro.core.objects import OID_LIMIT

        assert _DEAD_OID == OID_LIMIT == 2**62
        SpatialObject(oid=OID_LIMIT - 1, loc=Point(0.0, 0.0), doc=frozenset())
        for oid in (-1, OID_LIMIT, 2**63):
            with pytest.raises(ValueError, match="object id"):
                SpatialObject(oid=oid, loc=Point(0.0, 0.0), doc=frozenset())
        for x, y in ((float("nan"), 0.0), (0.0, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                SpatialObject(oid=1, loc=Point(x, y), doc=frozenset())
