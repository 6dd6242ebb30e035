"""Tests for dataset persistence (:mod:`repro.datasets.loaders`)."""

import pytest

from repro.core.codec import database_from_doc, database_to_doc
from repro.datasets.loaders import load_csv, load_json, save_csv, save_json


class TestJsonRoundTrip:
    def test_round_trip_exact(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        save_json(small_db, path)
        loaded = load_json(path)
        assert len(loaded) == len(small_db)
        assert loaded.dataspace == small_db.dataspace
        for original, restored in zip(small_db, loaded):
            assert restored.oid == original.oid
            assert restored.loc == original.loc
            assert restored.doc == original.doc
            assert restored.name == original.name

    def test_round_trip_preserves_scores(self, small_db, tmp_path):
        from repro.core.scoring import Scorer
        from tests.conftest import random_queries

        path = tmp_path / "db.json"
        save_json(small_db, path)
        loaded = load_json(path)
        q = random_queries(small_db, 1, seed=180, k=5)[0]
        assert [e.obj.oid for e in Scorer(loaded).top_k(q)] == [
            e.obj.oid for e in Scorer(small_db).top_k(q)
        ]

    def test_dict_round_trip(self, hotels_db):
        restored = database_from_doc(database_to_doc(hotels_db))
        assert len(restored) == len(hotels_db)
        assert restored.resolve("Grand Victoria Harbour Hotel").doc == (
            hotels_db.resolve("Grand Victoria Harbour Hotel").doc
        )

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            database_from_doc({"nope": []})
        with pytest.raises(ValueError):
            database_from_doc([1, 2, 3])


class TestCsvRoundTrip:
    def test_round_trip_objects(self, small_db, tmp_path):
        path = tmp_path / "db.csv"
        save_csv(small_db, path)
        loaded = load_csv(path)
        assert len(loaded) == len(small_db)
        for original, restored in zip(small_db, loaded):
            assert restored.oid == original.oid
            assert restored.loc == original.loc  # repr() round-trips floats
            assert restored.doc == original.doc

    def test_names_preserved(self, hotels_db, tmp_path):
        path = tmp_path / "hotels.csv"
        save_csv(hotels_db, path)
        loaded = load_csv(path)
        assert loaded.find_by_name("Grand Victoria Harbour Hotel") is not None

    def test_nameless_objects_round_trip_as_none(self, small_db, tmp_path):
        path = tmp_path / "db.csv"
        save_csv(small_db, path)
        loaded = load_csv(path)
        assert all(o.name is None for o in loaded)

    def test_csv_dataspace_is_recomputed_mbr(self, small_db, tmp_path):
        path = tmp_path / "db.csv"
        save_csv(small_db, path)
        loaded = load_csv(path)
        from repro.core.geometry import Rect

        expected = Rect.from_points(o.loc for o in small_db)
        assert loaded.dataspace == expected
