"""Service-tier tests for the sharded engine (`YaskEngine(shards=N)`).

Covers the wiring the property suite does not: the engine facade,
the executor tier's "no extra search" guarantee on cached why-not
questions (scatter counters stand in for ``SearchStats``), the
``GET /api/stats`` ``shards`` section and the CLI ``--shards`` flag.
"""

import inspect
import json

import pytest

from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.datasets.hotels import hong_kong_hotels
from repro.service.api import YaskEngine
from repro.service.cli import main
from repro.service.client import YaskClient
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion
from repro.service.server import YaskHTTPServer
from repro.service.sharded import ShardedEngine
from repro.text.similarity import CosineTfIdfSimilarity


@pytest.fixture(scope="module")
def hotels():
    return hong_kong_hotels()


@pytest.fixture(scope="module")
def sharded_hotels_engine(hotels):
    return YaskEngine(hotels, shards=4)


@pytest.fixture(scope="module")
def plain_hotels_engine(hotels):
    return YaskEngine(hotels)


@pytest.fixture(scope="module")
def set_path_oracle(hotels):
    """Top-k without a kernel: an unsharded engine scans too."""
    return Scorer(hotels, use_kernel=False)


class TestEngineFacade:
    def test_hotels_topk_parity(
        self, sharded_hotels_engine, plain_hotels_engine, set_path_oracle
    ):
        for keywords, k in [({"clean", "comfortable"}, 3), ({"harbour"}, 5)]:
            query = plain_hotels_engine.make_query(
                hong_kong_hotels().objects[7].loc, keywords, k
            )
            expected = [tuple(e) for e in set_path_oracle.top_k(query)]
            for engine in (sharded_hotels_engine, plain_hotels_engine):
                assert [tuple(e) for e in engine.query(query)] == expected

    def test_shard_router_exposed(self, sharded_hotels_engine):
        router = sharded_hotels_engine.shard_router
        assert router is not None
        assert len(router) == 4
        assert sum(router.shard_sizes()) == 539

    def test_unsharded_engine_has_no_router(self, plain_hotels_engine):
        assert plain_hotels_engine.shard_router is None

    def test_whynot_parity(self, sharded_hotels_engine, plain_hotels_engine):
        query = plain_hotels_engine.make_query(
            hong_kong_hotels().objects[7].loc, {"clean", "comfortable"}, 3
        )
        missing = ["Grand Victoria Harbour Hotel"]
        expected = plain_hotels_engine.why_not(query, missing)
        actual = sharded_hotels_engine.why_not(query, missing)
        assert actual.preference == expected.preference
        assert actual.keyword == expected.keyword
        assert actual.best_model == expected.best_model

    def test_audit_passes_on_sharded_results(self, sharded_hotels_engine):
        result = sharded_hotels_engine.top_k(
            hong_kong_hotels().objects[0].loc, {"clean"}, 4
        )
        assert sharded_hotels_engine.audit(result).ok

    def test_kernel_free_model_rejected(self, hotels):
        cosine = CosineTfIdfSimilarity(
            hotels.keyword_document_frequencies(), len(hotels)
        )
        with pytest.raises(ValueError, match="columnar kernel"):
            YaskEngine(hotels, text_model=cosine, shards=2)

    def test_scatter_has_no_options(self, hotels):
        """One scan backend: nothing to select and nothing to shut down."""
        assert list(inspect.signature(ShardedEngine).parameters) == [
            "router", "scorer",
        ]
        engine = YaskEngine(hotels, shards=2)
        engine.close()
        engine.close()  # idempotent
        YaskEngine(hotels).close()

    def test_round_robin_partitioner(self, hotels, set_path_oracle):
        engine = YaskEngine(hotels, shards=3, partitioner="round-robin")
        query = engine.make_query(hotels.objects[3].loc, {"harbour"}, 4)
        assert [tuple(e) for e in engine.query(query)] == [
            tuple(e) for e in set_path_oracle.top_k(query)
        ]


class TestCachedWhyNotRunsNoScatter:
    """PR 2's "no extra search" contract, restated for the scatter tier.

    A why-not question whose underlying query is already cached must
    charge zero scatter-gather searches — the scatter counters are the
    sharded engine's ``SearchStats``.
    """

    def test_cached_query_charges_no_scatter(self, hotels):
        engine = YaskEngine(hotels, shards=4)
        topk = QueryExecutor(engine, max_workers=1)
        whynot = WhyNotExecutor(engine, topk, max_workers=1)
        query = engine.make_query(hotels.objects[7].loc, {"clean"}, 3)
        topk.execute(query)
        router = engine.shard_router
        searches_before = router.stats.to_dict()["topk_searches"]

        ranking = engine.scorer.rank_all(query)
        missing = (ranking[query.k].obj.oid,)
        execution = whynot.execute(
            WhyNotQuestion(query=query, missing=missing, model="explain")
        )
        assert execution.topk_source == "cache"
        assert (
            router.stats.to_dict()["topk_searches"] == searches_before
        ), "a cached query's why-not must not re-run the scatter"

        # And a repeated question is a pure cache hit: no scatter, no
        # why-not computation.
        repeat = whynot.execute(
            WhyNotQuestion(query=query, missing=missing, model="explain")
        )
        assert repeat.source == "cache"
        assert router.stats.to_dict()["topk_searches"] == searches_before
        whynot.close()
        topk.close()


class TestStatsEndpoint:
    @pytest.fixture()
    def server(self, hotels):
        from tests.service.conftest import running_server

        with running_server(YaskEngine(hotels, shards=4), port=0) as server:
            yield server

    def test_shards_section(self, server):
        client = YaskClient(server.endpoint)
        client.query(x=114.17, y=22.29, keywords=["clean"], k=3)
        stats = client._call("GET", "/api/stats")
        shards = stats["shards"]
        assert shards["count"] == 4
        assert shards["partitioner"] == "grid"
        assert sum(shards["objects"]) == 539
        assert shards["topk_searches"] >= 1
        assert (
            shards["topk_shards_scanned"] + shards["topk_shards_skipped"]
            >= shards["topk_searches"]
        )
        assert shards["topk_scatter_ms"] >= 0.0

    def test_deletes_leave_tombstones_and_sizes_count_live_rows(self):
        """A sharded server compacts by the kernel's threshold, not per
        batch: ``shards.objects`` counts live members either way."""
        from tests.service.conftest import running_server

        engine = YaskEngine(hong_kong_hotels(), shards=4)  # mutated: own copy
        with running_server(engine, port=0) as server:
            client = YaskClient(server.endpoint)
            for oid in (3, 140, 141, 500):
                client.delete_object(oid)
            stats = client._call("GET", "/api/stats")
        kernel = stats["mutations"]["kernel"]
        assert kernel["tombstones"] == 4 and kernel["compactions"] == 0
        assert kernel["live_rows"] == 535
        assert sum(stats["shards"]["objects"]) == kernel["live_rows"]

    def test_unsharded_server_reports_null(self, hotels):
        from tests.service.conftest import running_server

        with running_server(YaskEngine(hotels), port=0) as server:
            client = YaskClient(server.endpoint)
            stats = client._call("GET", "/api/stats")
            assert stats["shards"] is None


#: One subcommand of each kind that takes the shard flags.
SHARD_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["serve", "--port", "0"],
        ["follow", "--wal-dir", "unused", "--port", "0"],
        ["query", "--x", "0", "--y", "0", "--keywords", "coffee"],
    ],
    ids=["serve", "follow", "query"],
)


class TestCli:
    @pytest.fixture()
    def never_serves(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.cli.serve_forever",
            lambda *args, **kwargs: pytest.fail("served a refused configuration"),
        )

    def test_shards_flag_parity(self, capsys):
        argv = [
            "query", "--dataset", "coffee", "--x", "114.158", "--y", "22.282",
            "--keywords", "coffee", "--k", "3",
        ]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(argv + ["--shards", "3"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded == plain

    def test_partitioner_choices_validated(self):
        with pytest.raises(SystemExit):
            main(
                ["query", "--dataset", "coffee", "--x", "0", "--y", "0",
                 "--keywords", "coffee", "--shards", "2",
                 "--partitioner", "hash"]
            )

    @SHARD_COMMANDS
    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "0"],
            ["--shards", "-3"],
            ["--shards", "x"],
            # The deleted scan backends' flag is refused, not ignored.
            ["--shards", "2", "--shard-workers", "proc"],
        ],
        ids=["zero", "negative", "not-a-number", "shard-workers"],
    )
    def test_bad_shard_flags_are_usage_errors(
        self, command, flags, never_serves, capsys
    ):
        """Regression: ``--shards 0`` was a ``ValueError`` traceback out
        of ``core/sharding.py``."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--dataset", "coffee"] + flags)
        assert excinfo.value.code == 2
        assert "usage: yask" in capsys.readouterr().err

    @SHARD_COMMANDS
    def test_partitioner_without_shards_exits_non_zero(
        self, command, never_serves
    ):
        """Regression: this quietly ran unsharded."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--dataset", "coffee", "--partitioner", "round-robin"])
        assert excinfo.value.code not in (0, None)
        assert "--shards" in str(excinfo.value.code)
