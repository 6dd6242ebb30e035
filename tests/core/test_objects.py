"""Unit tests for :mod:`repro.core.objects`."""

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject


def obj(oid, x=0.0, y=0.0, doc=("a",), name=None):
    return SpatialObject(oid=oid, loc=Point(x, y), doc=frozenset(doc), name=name)


class TestSpatialObject:
    def test_negative_oid_rejected(self):
        with pytest.raises(ValueError):
            obj(-1)

    def test_doc_coerced_to_frozenset(self):
        o = SpatialObject(oid=0, loc=Point(0, 0), doc={"a", "b"})
        assert isinstance(o.doc, frozenset)
        assert o.doc == frozenset({"a", "b"})

    def test_label_uses_name_when_present(self):
        assert obj(3, name="Cafe").label == "Cafe"
        assert obj(3).label == "object-3"

    def test_describe_mentions_keywords_sorted(self):
        text = obj(1, doc=("b", "a")).describe()
        assert "[a, b]" in text


class TestDatabaseConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpatialDatabase([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SpatialDatabase([obj(1), obj(1, x=1.0)])

    def test_dataspace_defaults_to_mbr(self):
        db = SpatialDatabase([obj(0, 0, 0), obj(1, 4, 3)])
        assert db.dataspace.as_tuple() == (0, 0, 4, 3)

    def test_margin_expands_default_dataspace(self):
        db = SpatialDatabase([obj(0, 0, 0), obj(1, 1, 1)], margin=0.5)
        assert db.dataspace.as_tuple() == (-0.5, -0.5, 1.5, 1.5)

    def test_explicit_dataspace_wins(self):
        space = Rect(-10, -10, 10, 10)
        db = SpatialDatabase([obj(0)], dataspace=space)
        assert db.dataspace == space


class TestDatabaseLookup:
    @pytest.fixture()
    def db(self):
        return SpatialDatabase([
            obj(0, 0, 0, ("a",), "Alpha"),
            obj(7, 1, 1, ("b",), "Beta"),
            obj(3, 2, 2, ("c",)),
        ])

    def test_len_iter_contains(self, db):
        assert len(db) == 3
        assert {o.oid for o in db} == {0, 7, 3}
        assert 7 in db
        assert 99 not in db
        assert db.get(7) in db

    def test_get_unknown_raises_keyerror(self, db):
        with pytest.raises(KeyError):
            db.get(99)

    def test_find_by_name(self, db):
        assert db.find_by_name("Beta").oid == 7
        assert db.find_by_name("Nope") is None

    def test_resolve_by_id_name_and_object(self, db):
        assert db.resolve(0).name == "Alpha"
        assert db.resolve("Beta").oid == 7
        assert db.resolve(db.get(3)).oid == 3

    def test_resolve_unknown_name_raises(self, db):
        with pytest.raises(KeyError):
            db.resolve("Missing Hotel")


class TestDistanceNormalisation:
    def test_normalised_distance_in_unit_range(self):
        db = SpatialDatabase([obj(0, 0, 0), obj(1, 3, 4)])
        assert db.distance_normaliser == 5.0
        assert db.normalized_distance(Point(0, 0), Point(3, 4)) == 1.0
        assert db.normalized_distance(Point(0, 0), Point(0, 0)) == 0.0

    def test_distance_clamped_at_one_outside_dataspace(self):
        db = SpatialDatabase([obj(0, 0, 0), obj(1, 1, 0)])
        assert db.normalized_distance(Point(0, 0), Point(100, 0)) == 1.0

    def test_single_point_dataspace_normalises_to_zero(self):
        db = SpatialDatabase([obj(0, 5, 5)])
        assert db.normalized_distance(Point(5, 5), Point(5, 5)) == 0.0


class TestCorpusStatistics:
    def test_vocabulary_union(self):
        db = SpatialDatabase([obj(0, doc=("a", "b")), obj(1, x=1, doc=("b", "c"))])
        assert db.vocabulary() == frozenset({"a", "b", "c"})

    def test_document_frequencies(self):
        db = SpatialDatabase([obj(0, doc=("a", "b")), obj(1, x=1, doc=("b",))])
        assert db.keyword_document_frequencies() == {"a": 1, "b": 2}

    def test_doc_masks_are_keyword_postings(self, small_db):
        """Bit ``id_of(t)`` of a row's mask is set exactly when the
        object's doc holds ``t``: the columns the scoring kernel reads."""
        vocabulary = small_db.vocabulary_index
        assert set(vocabulary.keywords) == small_db.vocabulary()
        masks = small_db.doc_masks
        for keyword in sorted(small_db.vocabulary()):
            bit = 1 << vocabulary.id_of(keyword)
            posted = {obj.oid for obj, mask in zip(small_db, masks) if mask & bit}
            assert posted == {obj.oid for obj in small_db if keyword in obj.doc}

    def test_document_frequencies_count_mask_bits(self, small_db):
        vocabulary = small_db.vocabulary_index
        masks = small_db.doc_masks
        assert small_db.keyword_document_frequencies() == {
            keyword: sum(1 for mask in masks if mask >> vocabulary.id_of(keyword) & 1)
            for keyword in vocabulary.keywords
        }

    def test_summary_fields(self):
        db = SpatialDatabase([obj(0, doc=("a",)), obj(1, x=2, y=1, doc=("a", "b", "c"))])
        summary = db.summary()
        assert summary["objects"] == 2
        assert summary["vocabulary"] == 3
        assert summary["min_doc_len"] == 1
        assert summary["max_doc_len"] == 3
        assert summary["avg_doc_len"] == 2.0


class TestFilter:
    def test_filter_keeps_dataspace(self):
        db = SpatialDatabase([obj(0, 0, 0), obj(1, 4, 3, doc=("b",))])
        filtered = db.filter(lambda o: "b" in o.doc)
        assert len(filtered) == 1
        assert filtered.dataspace == db.dataspace
        assert filtered.distance_normaliser == db.distance_normaliser

    def test_filter_to_empty_raises(self):
        db = SpatialDatabase([obj(0)])
        with pytest.raises(ValueError):
            db.filter(lambda o: False)
