"""The object and database document codec (:mod:`repro.core.codec`)."""

from __future__ import annotations

import json

import pytest

from repro.core.codec import (
    DocumentError,
    database_from_doc,
    database_to_doc,
    object_from_doc,
    object_to_doc,
)
from repro.core.geometry import Point
from repro.core.mutations import MutableDatabase, Mutation
from repro.core.objects import SpatialObject
from tests.conftest import make_tiny_db


def _doc(**changes):
    doc = {"oid": 1, "x": 0.5, "y": 0.25, "keywords": ["cafe"], "name": None}
    doc.update(changes)
    return doc


class TestObjectDocuments:
    def test_round_trip(self):
        obj = SpatialObject(7, Point(0.1, 0.3), frozenset({"b", "a"}), "Café")
        doc = object_to_doc(obj)
        assert list(doc) == ["oid", "x", "y", "keywords", "name"]
        assert doc["keywords"] == ["a", "b"]
        assert object_from_doc(json.loads(json.dumps(doc))) == obj

    def test_name_may_be_absent_or_null(self):
        without = _doc()
        del without["name"]
        assert object_from_doc(without).name is None
        assert object_from_doc(_doc(name=None)).name is None

    @pytest.mark.parametrize(
        "keywords", ["cafe", [3, None], {"cafe": 1}, None, [["cafe"]]]
    )
    def test_keywords_are_never_coerced(self, keywords):
        with pytest.raises(DocumentError, match="'keywords' must be a list of strings"):
            object_from_doc(_doc(keywords=keywords))

    def test_keywords_are_required(self):
        doc = _doc()
        del doc["keywords"]
        with pytest.raises(DocumentError, match="missing required field 'keywords'"):
            object_from_doc(doc)

    def test_name_must_be_a_string(self):
        with pytest.raises(DocumentError, match="'name' must be a string"):
            object_from_doc(_doc(name=5))

    def test_keyword_cap(self):
        doc = _doc(keywords=["a", "b", "c"])
        assert len(object_from_doc(doc, max_keywords=3).doc) == 3
        with pytest.raises(DocumentError, match="holds 3 entries; the cap is 2"):
            object_from_doc(doc, max_keywords=2)

    @pytest.mark.parametrize(
        "changes", [{"oid": -1}, {"x": "east"}, {"y": float("inf")}]
    )
    def test_bad_ids_and_coordinates(self, changes):
        with pytest.raises(DocumentError, match="malformed object payload"):
            object_from_doc(_doc(**changes))


class TestDatabaseDocuments:
    def test_round_trip_keeps_order_dataspace_and_names(self):
        database = make_tiny_db()
        doc = database_to_doc(database)
        assert list(doc) == ["dataspace", "objects"]  # not interned yet
        restored = database_from_doc(json.loads(json.dumps(doc)))
        assert restored.objects == database.objects
        assert restored.dataspace == database.dataspace
        assert not restored.interned

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"dataspace": None}, "'dataspace' must be four finite numbers"),
            ({"dataspace": [0, 0, 1]}, "'dataspace' must be"),
            ({"dataspace": [0, 0, True, 1]}, "'dataspace' must be"),
            ({"dataspace": [1, 0, 0, 1]}, "degenerate rectangle"),
            ({"objects": []}, "'objects' must be a non-empty list"),
            ({"objects": "abc"}, "'objects' must be a non-empty list"),
            ({"vocabulary": "cafe"}, "'vocabulary' must be a list of keywords"),
            ({"vocabulary": ["cafe", "cafe"]}, "duplicate keywords"),
            ({"vocabulary": []}, "missing corpus keyword 'cafe'"),
        ],
    )
    def test_malformed_databases(self, changes, reason):
        doc = {"dataspace": [0, 0, 1, 1], "objects": [_doc()], **changes}
        with pytest.raises(DocumentError, match=reason):
            database_from_doc(doc)

    def test_a_bad_object_names_its_index(self):
        doc = {"dataspace": [0, 0, 1, 1], "objects": [_doc(), _doc(oid=2, name=5)]}
        with pytest.raises(DocumentError, match=r"objects\[1\]: 'name' must be"):
            database_from_doc(doc)

    def test_duplicate_ids_are_refused(self):
        doc = {"dataspace": [0, 0, 1, 1], "objects": [_doc(), _doc()]}
        with pytest.raises(DocumentError, match="duplicate object id 1"):
            database_from_doc(doc)

    def test_not_a_mapping(self):
        with pytest.raises(DocumentError, match="must be a JSON object"):
            database_from_doc([1, 2, 3])


class TestVocabularyOrder:
    """An interned database's bit positions survive the document."""

    def test_append_only_order_survives_a_round_trip_after_mutations(self):
        database = make_tiny_db()
        _ = database.doc_masks  # intern in sorted order
        MutableDatabase(database).apply(
            [
                Mutation.insert(
                    SpatialObject(
                        10, Point(0.5, 0.5), frozenset({"aardvark", "spanish"})
                    )
                ),
                Mutation.delete(2),
            ]
        )
        # The appended keyword sits after the originally sorted corpus:
        # a plain sorted re-intern would move it to position 0.
        assert database.vocabulary_index.keywords[-1] == "aardvark"
        doc = json.loads(json.dumps(database_to_doc(database)))
        assert doc["vocabulary"] == list(database.vocabulary_index.keywords)
        restored = database_from_doc(doc)
        assert restored.vocabulary_index.keywords == (
            database.vocabulary_index.keywords
        )
        assert restored.doc_masks == database.doc_masks

    def test_an_interned_database_refuses_a_different_order(self):
        database = make_tiny_db()
        _ = database.doc_masks  # a kernel could now hold these masks
        same_order = list(database.vocabulary_index.keywords)
        database.adopt_vocabulary(same_order)  # identical order: a no-op
        with pytest.raises(ValueError, match="already interned"):
            database.adopt_vocabulary(list(reversed(same_order)))
        assert list(database.vocabulary_index.keywords) == same_order


class TestLogRecordShape:
    """Log records keep their bytes: ``"op"`` first, no null name."""

    def test_op_first_and_no_null_name(self):
        from repro.service.protocol import mutation_to_dict

        nameless = SpatialObject(3, Point(0.1, 0.9), frozenset({"b", "a"}))
        assert list(mutation_to_dict(Mutation.update(nameless))) == [
            "op", "oid", "x", "y", "keywords",
        ]
        named = SpatialObject(3, Point(0.1, 0.9), frozenset({"a"}), "n")
        assert mutation_to_dict(Mutation.insert(named)) == {
            "op": "insert", "oid": 3, "x": 0.1, "y": 0.9,
            "keywords": ["a"], "name": "n",
        }
