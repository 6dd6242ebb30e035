"""Tests for the result audit (:mod:`repro.service.audit`)."""

import pytest

from repro.core.query import QueryResult, RankedObject
from repro.core.topk import BruteForceTopK
from repro.service.api import YaskEngine
from repro.service.audit import audit_result

from tests.conftest import random_queries


@pytest.fixture(scope="module")
def engine(small_db):
    return YaskEngine(small_db)


class TestCleanAudits:
    def test_index_results_pass_audit(self, small_db, engine):
        for q in random_queries(small_db, 8, seed=250, k=5):
            report = engine.audit(engine.query(q))
            assert report.ok, report.describe()
            assert report.findings == ()

    def test_brute_force_results_pass_audit(self, small_db, engine):
        brute = BruteForceTopK(engine.scorer)
        for q in random_queries(small_db, 4, seed=251, k=7):
            assert engine.audit(brute.search(q)).ok

    def test_describe_mentions_ok(self, small_db, engine):
        q = random_queries(small_db, 1, seed=252, k=3)[0]
        text = engine.audit(engine.query(q)).describe()
        assert "audit ok" in text


class TestCorruptionDetection:
    def _tamper(self, result, *, drop_first=False, swap_score=False):
        entries = list(result.entries)
        if drop_first:
            entries = entries[1:]
            entries = [
                RankedObject(
                    obj=e.obj, score=e.score, sdist=e.sdist, tsim=e.tsim,
                    rank=i,
                )
                for i, e in enumerate(entries, start=1)
            ]
        if swap_score:
            first = entries[0]
            entries[0] = RankedObject(
                obj=first.obj, score=first.score + 0.125, sdist=first.sdist,
                tsim=first.tsim, rank=1,
            )
        return QueryResult(result.query, entries)

    def test_detects_missing_entry(self, small_db, engine):
        q = random_queries(small_db, 1, seed=253, k=5)[0]
        tampered = self._tamper(engine.query(q), drop_first=True)
        report = engine.audit(tampered)
        assert not report.ok
        kinds = {finding.kind for finding in report.findings}
        assert "size-mismatch" in kinds or "wrong-object" in kinds

    def test_detects_score_drift(self, small_db, engine):
        q = random_queries(small_db, 1, seed=254, k=5)[0]
        tampered = self._tamper(engine.query(q), swap_score=True)
        report = engine.audit(tampered)
        assert not report.ok
        assert any(f.kind == "score-drift" for f in report.findings)
        assert "audit FAILED" in report.describe()

    def test_detects_wrong_object_order(self, small_db, engine):
        q = random_queries(small_db, 1, seed=255, k=5)[0]
        result = engine.query(q)
        entries = list(result.entries)
        # Swap positions 1 and 2 (re-ranked to stay structurally valid).
        swapped = [
            RankedObject(obj=entries[1].obj, score=entries[1].score,
                         sdist=entries[1].sdist, tsim=entries[1].tsim, rank=1),
            RankedObject(obj=entries[0].obj, score=entries[0].score,
                         sdist=entries[0].sdist, tsim=entries[0].tsim, rank=2),
            *entries[2:],
        ]
        report = engine.audit(QueryResult(q, swapped))
        if entries[0].obj.oid != entries[1].obj.oid:
            assert not report.ok
            assert any(f.kind == "wrong-object" for f in report.findings)

    def test_stale_index_detected(self, small_db, tmp_path):
        # Persist an index, rebuild the database with a permuted object
        # (simulating drift between disk index and database), and audit.
        from repro.core.geometry import Point
        from repro.core.objects import SpatialDatabase, SpatialObject
        from repro.core.scoring import Scorer
        from repro.core.topk import BestFirstTopK
        from repro.index.persistence import save_index, load_index
        from repro.index.setrtree import SetRTree

        tree = SetRTree.build(small_db, max_entries=8)
        path = tmp_path / "stale.json"
        save_index(tree, path)

        # New database: object 0 moved far away but same id.
        moved = [
            SpatialObject(
                obj.oid,
                Point(obj.loc.x + 0.9, obj.loc.y) if obj.oid == 0 else obj.loc,
                obj.doc,
                obj.name,
            )
            for obj in small_db
        ]
        drifted_db = SpatialDatabase(moved, dataspace=small_db.dataspace)
        # The loaded index recomputes summaries from the *new* database,
        # so structure is stale but bounds are honest: results may be
        # suboptimal in node visit order yet must still audit clean.
        loaded = load_index(path, drifted_db)
        scorer = Scorer(drifted_db)
        q = random_queries(drifted_db, 1, seed=256, k=5)[0]
        served = BestFirstTopK(loaded, scorer).search(q)
        report = audit_result(scorer, served)
        # Bounds recomputed on load keep correctness: audit passes.
        assert report.ok
