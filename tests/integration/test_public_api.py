"""The public API surface: everything advertised must import and work."""

import importlib
import inspect

import pytest

import repro
from repro.core.kernel import ScoringKernel
from repro.core.mutations import BatchSummary, MutableDatabase
from repro.core.scoring import Scorer
from repro.core.sharding import ShardRouter
from repro.index.setrtree import SetRTree
from repro.service.cli import main as cli_main
from repro.service.executor import QueryExecutor
from repro.service.server import YaskHTTPServer, serve_forever
from repro.text.similarity import JACCARD
from repro.whynot.context import WhyNotContext
from repro.whynot.explanation import ExplanationGenerator
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.preference import PreferenceAdjuster


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackages_import(self):
        for module in (
            "repro.core", "repro.text", "repro.index", "repro.whynot",
            "repro.service", "repro.datasets", "repro.bench", "repro.paper",
        ):
            importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.core", "repro.text", "repro.index", "repro.whynot",
            "repro.service", "repro.datasets", "repro.bench", "repro.paper",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name} missing"


class TestDocumentation:
    def test_every_public_module_has_docstring(self):
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_public_classes_documented(self):
        for name in repro.__all__:
            member = getattr(repro, name)
            if inspect.isclass(member):
                assert member.__doc__, f"repro.{name} lacks a docstring"

    def test_quickstart_snippet_from_readme_runs(self):
        # The README's quickstart, verbatim in spirit.
        from repro import Point, YaskEngine
        from repro.datasets import hong_kong_hotels

        engine = YaskEngine(hong_kong_hotels())
        result = engine.top_k(
            Point(114.1722, 22.2975), {"clean", "comfortable"}, k=3
        )
        answer = engine.why_not(result.query, ["Grand Victoria Harbour Hotel"])
        assert answer.explanation.narrative()
        refined = engine.query(answer.keyword.refined_query)
        assert refined.contains(
            engine.database.resolve("Grand Victoria Harbour Hotel")
        )


class TestFacadeOptionsArePinned:
    """The serving facade's options are a deliberate, documented list.

    Adding a constructor option means editing the expected names here
    *and* giving it a row in docs/OPERATIONS.md, "Supported
    configurations" — each option multiplies what every tier must
    support.
    """

    ENGINE_OPTIONS = (
        "default_weights", "shards", "partitioner", "wal", "base_generation",
        "batch_tokens",
    )
    WHYNOT_OPTIONS = ()

    @staticmethod
    def _names(callable_, kind):
        return tuple(
            name
            for name, parameter in inspect.signature(callable_).parameters.items()
            if parameter.kind is kind
        )

    def test_constructor_signatures(self):
        from repro.service.api import YaskEngine
        from repro.whynot.engine import WhyNotEngine

        positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
        keyword = inspect.Parameter.KEYWORD_ONLY
        assert self._names(YaskEngine.__init__, positional) == ("self", "database")
        assert self._names(YaskEngine.__init__, keyword) == self.ENGINE_OPTIONS
        assert self._names(WhyNotEngine.__init__, positional) == ("self", "scorer")
        assert self._names(WhyNotEngine.__init__, keyword) == self.WHYNOT_OPTIONS

    @pytest.mark.parametrize(
        "options",
        [
            {"max_entries": 32},
            {"index_rebuild_slack": 1},
            {"text_model": JACCARD},
            {"text_model": JACCARD, "shards": 2},
        ],
    )
    def test_removed_engine_options_are_refused(self, small_db, options):
        from repro.service.api import YaskEngine

        with pytest.raises(TypeError, match=next(iter(options))):
            YaskEngine(small_db, **options)

    @pytest.mark.parametrize(
        "build, option",
        [
            (lambda db: ShardRouter(db, shards=2, text_model=JACCARD), "text_model"),
            (lambda db: ScoringKernel(db, text_model=JACCARD), "text_model"),
            (lambda db: SetRTree(database=db, text_model=JACCARD), "text_model"),
            (lambda db: SetRTree.build(db, text_model=JACCARD), "text_model"),
            (lambda db: MutableDatabase(db, model_code="jaccard"), "model_code"),
        ],
        ids=["ShardRouter", "ScoringKernel", "SetRTree", "SetRTree.build",
             "MutableDatabase"],
    )
    def test_text_model_options_are_gone_below_the_facade(
        self, small_db, build, option
    ):
        """Jaccard is the one served text model: no layer the engine
        builds takes a model, so none can disagree with another."""
        with pytest.raises(TypeError, match=option):
            build(small_db)

    @pytest.mark.parametrize(
        "call, option",
        [
            (lambda: QueryExecutor(None, skyband_delta=8), "skyband_delta"),
            (lambda: YaskHTTPServer(None, cache_skyband=8), "cache_skyband"),
            (lambda: serve_forever(None, cache_skyband=8), "cache_skyband"),
            (lambda: BatchSummary(added_rows=()), "added_rows"),
            (lambda: cli_main(["serve", "--cache-skyband", "8"]), "--cache-skyband"),
        ],
        ids=["QueryExecutor", "YaskHTTPServer", "serve_forever", "BatchSummary",
             "yask serve"],
    )
    def test_skyband_options_are_refused(self, capsys, call, option):
        """The top-k cache is drop-on-write: no layer takes a skyband
        width or carries its row payload, and the CLI flag is a usage
        error."""
        with pytest.raises((TypeError, SystemExit)) as excinfo:
            call()
        if excinfo.type is SystemExit:
            assert excinfo.value.code == 2
            message = capsys.readouterr().err
        else:
            message = str(excinfo.value)
        assert option in message

    def test_removed_whynot_option_is_refused(self, small_db, small_scorer):
        from repro.index.kcrtree import KcRTree
        from repro.whynot.engine import WhyNotEngine

        with pytest.raises(TypeError, match="kcr_tree"):
            WhyNotEngine(small_scorer, kcr_tree=KcRTree.build(small_db))

    def test_every_option_has_a_row_in_the_operations_table(self):
        from pathlib import Path

        text = (
            Path(__file__).resolve().parents[2] / "docs" / "OPERATIONS.md"
        ).read_text(encoding="utf-8")
        start = text.index("## Supported configurations")
        section = text[start : text.index("\n## ", start + 1)]
        for name in self.ENGINE_OPTIONS + self.WHYNOT_OPTIONS + ("scorer",):
            assert f"`{name}`" in section, f"{name} is not documented"


class TestServedWhyNotClassesCarryOneArm:
    """Each served why-not class answers its question one way, over the
    scorer's kernel; the paper's other arms are :mod:`repro.paper`'s
    classes, and what neither runs is gone."""

    @pytest.fixture()
    def question(self, small_scorer):
        from repro.bench.workloads import generate_whynot_scenarios

        return generate_whynot_scenarios(
            small_scorer, count=1, k=5, missing_count=1, rank_window=20, seed=3
        )[0]

    @pytest.mark.parametrize(
        "build, option",
        [
            (lambda s, q: KeywordAdapter(s, use_bounds=False), "use_bounds"),
            (lambda s, q: KeywordAdapter(s, index=None), "index"),
            (lambda s, q: PreferenceAdjuster(s, use_dual_index=False), "use_dual_index"),
            (lambda s, q: WhyNotContext(s, q.query, q.missing, indexed=False), "indexed"),
            (lambda s, q: Scorer(s.database, text_model=JACCARD), "text_model"),
        ],
        ids=["use_bounds", "index", "use_dual_index", "indexed", "text_model"],
    )
    def test_removed_options_are_refused(self, small_scorer, question, build, option):
        with pytest.raises(TypeError, match=option):
            build(small_scorer, question)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.index", "IRTree"),
            ("repro.index", "IRSummary"),
            ("repro.text", "CosineTfIdfSimilarity"),
            ("repro.text.similarity", "TextSimilarityModel"),
            ("repro.core", "BestFirstTopK"),
            ("repro.whynot", "SamplingPreferenceAdjuster"),
        ],
    )
    def test_removed_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize(
        "module", ["repro.whynot.baselines", "repro.index.irtree", "repro.index.stats"]
    )
    def test_removed_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_stats_max_entries_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["stats", "--max-entries", "8"])
        assert excinfo.value.code == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_served_classes_refuse_a_kernel_less_scorer_and_a_foreign_object(
        self, small_db, question
    ):
        from repro.core.objects import SpatialObject

        set_path = Scorer(small_db, use_kernel=False)
        for build, reference in (
            (lambda: KeywordAdapter(set_path), "repro.paper.ExhaustiveKeywordAdapter"),
            (lambda: PreferenceAdjuster(set_path), "repro.paper.DualIndexPreferenceAdjuster"),
            (lambda: ExplanationGenerator(set_path), "repro.paper.ScanExplanationGenerator"),
            (
                lambda: WhyNotContext(set_path, question.query, question.missing),
                "repro.paper.ViewlessContext",
            ),
        ):
            with pytest.raises(ValueError, match=reference):
                build()
        served = Scorer(small_db)
        (missing,) = question.missing
        copy = SpatialObject(oid=missing.oid, loc=missing.loc, doc=missing.doc)
        with pytest.raises(ValueError, match="repro.paper.ViewlessContext"):
            PreferenceAdjuster(served).refine(question.query, [copy])
        with pytest.raises(ValueError, match="repro.paper.ViewlessContext"):
            KeywordAdapter(served).refine(question.query, [copy])

    def test_explain_without_a_result_is_a_type_error(self, small_scorer, question):
        from repro.whynot.engine import WhyNotEngine

        query, missing = question.query, list(question.missing)
        with pytest.raises(TypeError, match="result"):
            ExplanationGenerator(small_scorer).explain(query, missing)
        engine = WhyNotEngine(small_scorer)
        with pytest.raises(TypeError, match="initial_result"):
            engine.explain(query, missing)
        with pytest.raises(TypeError, match="initial_result"):
            engine.refine_both(query, missing)
        explanation = engine.explain(
            query, missing, initial_result=small_scorer.top_k(query)
        )
        assert explanation.worst_rank == question.worst_rank


class TestServedEngineBuildsNoTree:
    """The R-tree family (SetR-tree, KcR-tree) is a library
    reference: nothing served constructs, imports or maintains one."""

    @pytest.mark.parametrize("shards", [None, 4])
    def test_engine_runs_with_the_class_unconstructible(self, monkeypatch, shards):
        from repro.core.mutations import Mutation
        from repro.datasets.generators import SyntheticDatasetBuilder
        from repro.index.rtree import RTree
        from repro.service.api import YaskEngine
        from repro.service.executor import WhyNotQuestion

        def refuse(self, *args, **kwargs):
            raise AssertionError("the served engine built a tree")

        monkeypatch.setattr(RTree, "__init__", refuse)
        database = SyntheticDatasetBuilder(seed=3).build(
            600, vocabulary_size=30, doc_length=(2, 5)
        )
        engine = YaskEngine(database, shards=shards)
        query = engine.make_query(database.objects[0].loc, {"kw000", "kw001"}, 3)
        result = engine.query(query)
        assert len(result) == 3
        missing = (engine.scorer.rank_all(query)[6].obj.oid,)
        for model in ("explain", "preference", "keywords", "combined"):
            question = WhyNotQuestion(query=query, missing=missing, model=model)
            assert engine.answer_whynot(question, initial_result=result) is not None
        # A removing batch (it compacts the kernels) and the answers after.
        report = engine.apply_mutations(
            [Mutation.delete(obj.oid) for obj in database.objects[:590]]
        )
        assert report.to_dict()["deleted"] == 590
        assert "indexes_rebuilt" not in report.to_dict()
        assert len(engine.query(query)) == 3
        question = WhyNotQuestion(
            query=query, missing=(engine.scorer.rank_all(query)[6].obj.oid,),
            model="keywords",
        )
        assert engine.answer_whynot(question).method == "scan-index-bound-prune"
        engine.close()

    def test_served_modules_do_not_mention_it(self):
        from pathlib import Path

        package = Path(repro.__file__).resolve().parent
        served = [
            package / "service" / name
            for name in ("api.py", "sharded.py", "server.py", "executor.py")
        ]
        for path in served + [package / "whynot" / "engine.py"]:
            assert "kcrtree" not in path.read_text(encoding="utf-8").lower(), path
        for path in served + sorted((package / "whynot").glob("*.py")):
            assert "setrtree" not in path.read_text(encoding="utf-8").lower(), path
