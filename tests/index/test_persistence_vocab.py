"""Vocabulary round-trip through index persistence (format v2).

Before this format, a loaded index silently re-interned the database's
vocabulary in sorted order; after live mutation the vocabulary is
append-extended (no longer globally sorted), so a reload could assign
different bit positions and decode saved doc masks into the wrong
keyword sets.  Format v2 persists the keyword order and adopts it on
load.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point
from repro.core.mutations import MutableDatabase, Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.index.persistence import (
    IndexPersistenceError,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)
from repro.index.setrtree import SetRTree
from tests.conftest import make_tiny_db


def test_saved_payload_carries_vocabulary_when_interned():
    database = make_tiny_db()
    _ = database.doc_masks  # intern
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    assert payload["format"] == 2
    assert payload["vocabulary"] == list(database.vocabulary_index.keywords)


def test_uninterned_database_saves_without_vocabulary():
    database = make_tiny_db()
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    assert "vocabulary" not in payload
    # And still loads (the lazy-interning v1 behaviour).
    loaded = index_from_dict(payload, make_tiny_db())
    assert len(loaded) == len(tree)


def test_format_v1_payloads_still_load():
    database = make_tiny_db()
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    payload.pop("vocabulary", None)
    payload["format"] = 1
    loaded = index_from_dict(payload, make_tiny_db())
    assert len(loaded) == len(tree)


def test_save_mutate_save_load_mask_parity(tmp_path):
    """The satellite's scenario: bit positions survive mutate + reload."""
    database = make_tiny_db()
    _ = database.doc_masks
    tree = SetRTree.build(database, max_entries=4)
    first = tmp_path / "first.json"
    save_index(tree, first)

    # Mutate: new keywords append bit positions beyond the sorted corpus.
    mutable = MutableDatabase(database)
    mutable.apply(
        [
            Mutation.insert(
                SpatialObject(
                    10, Point(0.5, 0.5), frozenset({"aardvark", "spanish"})
                )
            ),
            Mutation.delete(2),
        ]
    )
    tree = SetRTree.build(database, max_entries=4)
    second = tmp_path / "second.json"
    save_index(tree, second)
    # The appended keyword sits *after* the originally sorted corpus —
    # a plain sorted re-intern would move it to position 0.
    assert database.vocabulary_index.keywords[-1] == "aardvark"

    # Reload over a fresh database holding the same final objects.
    fresh = SpatialDatabase(database.objects, dataspace=database.dataspace)
    loaded = load_index(second, fresh)
    assert fresh.vocabulary_index.keywords == database.vocabulary_index.keywords
    assert fresh.doc_masks == database.doc_masks
    assert len(loaded) == len(tree)
    # And the first (pre-mutation) save still loads over its own objects.
    original = make_tiny_db()
    load_index(first, original)
    assert original.doc_masks == make_tiny_db().doc_masks


def test_adopted_vocabulary_must_cover_corpus():
    database = make_tiny_db()
    _ = database.doc_masks
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    payload["vocabulary"] = ["chinese"]  # missing most corpus keywords
    with pytest.raises(IndexPersistenceError, match="missing corpus keyword"):
        index_from_dict(payload, make_tiny_db())


def test_failed_load_leaves_database_vocabulary_untouched():
    """A payload that fails after the vocabulary section must not adopt it.

    Re-interning is a visible database mutation; a half-failed load that
    reordered bit positions would silently corrupt any kernel built over
    the database.
    """
    database = make_tiny_db()
    _ = database.doc_masks
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    reordered = list(reversed(payload["vocabulary"]))
    payload["vocabulary"] = reordered
    payload["root"] = {"leaf": True, "oids": [999]}  # fails _rebuild_node
    target = make_tiny_db()
    before_keywords = target.vocabulary_index.keywords
    before_masks = target.doc_masks
    with pytest.raises(IndexPersistenceError, match="missing from the database"):
        index_from_dict(payload, target)
    assert target.vocabulary_index.keywords == before_keywords
    assert target.doc_masks == before_masks


def test_adopting_a_reordered_vocabulary_over_interned_db_is_refused():
    """A live kernel snapshots doc masks in the current bit positions;
    silently re-interning an already-interned database to a different
    order would corrupt every mask comparison.  Identical orders are a
    no-op; different orders are an error."""
    database = make_tiny_db()
    _ = database.doc_masks  # intern (a kernel could now hold these masks)
    same_order = list(database.vocabulary_index.keywords)
    database.adopt_vocabulary(same_order)  # no-op, allowed
    with pytest.raises(ValueError, match="already interned"):
        database.adopt_vocabulary(list(reversed(same_order)))


def test_loading_reordered_vocab_over_interned_database_errors():
    database = make_tiny_db()
    _ = database.doc_masks
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    payload["vocabulary"] = list(reversed(payload["vocabulary"]))
    target = make_tiny_db()
    _ = target.doc_masks  # interned before the load
    with pytest.raises(IndexPersistenceError, match="already interned"):
        index_from_dict(payload, target)


def test_malformed_vocabulary_rejected():
    database = make_tiny_db()
    _ = database.doc_masks
    tree = SetRTree.build(database, max_entries=4)
    payload = index_to_dict(tree)
    payload["vocabulary"] = "restaurant"
    with pytest.raises(IndexPersistenceError, match="list of keywords"):
        index_from_dict(payload, make_tiny_db())
