"""The public API surface: everything advertised must import and work."""

import importlib
import inspect

import pytest

import repro


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
            "repro.service", "repro.datasets", "repro.bench",
        ):
            importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.core", "repro.text", "repro.index", "repro.whynot",
            "repro.service", "repro.datasets", "repro.bench",
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
        "text_model", "default_weights", "shards", "partitioner", "wal",
        "base_generation", "batch_tokens",
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
        "options", [{"max_entries": 32}, {"index_rebuild_slack": 1}]
    )
    def test_removed_engine_options_are_refused(self, small_db, options):
        from repro.service.api import YaskEngine

        with pytest.raises(TypeError, match=next(iter(options))):
            YaskEngine(small_db, **options)

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


class TestServedEngineBuildsNoTree:
    """The R-tree family (SetR-tree, KcR-tree, IR-tree) is a library
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
