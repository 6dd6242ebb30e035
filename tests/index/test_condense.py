"""Deletes that dissolve nodes: deferred summaries, same tree.

``RTree._condense`` re-inserts the members of dissolved nodes with
MBR-only maintenance and one bottom-up summary pass over the touched
paths.  These tests pin what that may and may not change: the tree is
node-for-node (structure, MBRs, summaries) the one Guttman's per-item
re-insertion builds, and every touched node is summarised exactly once.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Rect
from repro.core.objects import SpatialObject
from repro.index.kcrtree import KcRTree
from repro.index.rtree import RTree
from repro.index.setrtree import SetRTree

TREE_KINDS = ("rtree", "setrtree", "kcrtree")


def build(kind, database, max_entries):
    if kind == "rtree":
        return RTree.bulk_load(
            database.objects, key=lambda obj: obj.loc, max_entries=max_entries
        )
    if kind == "setrtree":
        return SetRTree.build(database, max_entries=max_entries)
    return KcRTree.build(database, max_entries=max_entries)


def reference_delete(tree, item, loc):
    """Guttman's CondenseTree with per-item re-insertion (the oracle).

    Every orphan goes through the full insert path: MBR *and* summary
    refreshed to the root each time.
    """
    rect = Rect.from_point(loc)
    leaf = tree._find_leaf(tree._root, rect, item)
    assert leaf is not None
    leaf.entries.remove(
        next(e for e in leaf.entries if e.item == item and e.rect == rect)
    )
    tree._size -= 1
    orphans = []
    node = leaf
    while node.parent is not None:
        parent = node.parent
        if len(node) < tree.min_entries:
            parent.children.remove(node)
            orphans.extend(tree._collect_entries(node))
        else:
            tree._refresh(node)
        node = parent
    tree._refresh(node)
    while not tree._root.is_leaf and len(tree._root.children) == 1:
        tree._root = tree._root.children[0]
        tree._root.parent = None
    for entry in orphans:
        tree._insert_entry(entry)


def nodes_of(tree):
    return [node for level in tree.iter_levels() for node in level]


def members_of(node):
    return node.entries if node.is_leaf else node.children


def shape_of(node):
    """Structure, MBRs and summaries of a subtree, as comparable data."""
    if node.is_leaf:
        members = tuple((e.rect, e.item) for e in node.entries)
    else:
        members = tuple(shape_of(child) for child in node.children)
    return (node.is_leaf, node.rect, node.summary, members)


def count_summaries(tree):
    """Record the member list each summary hook call was handed."""
    calls = []
    for name in ("_summarise_leaf", "_summarise_inner"):
        hook = getattr(tree, name)

        def counting(members, hook=hook):
            calls.append(id(members))
            return hook(members)

        setattr(tree, name, counting)
    return calls


def delete_and_check(subject, reference, victim):
    """Delete ``victim`` both ways; compare trees and summary work."""
    assert shape_of(subject.root) == shape_of(reference.root)
    before = {
        id(node): (node, tuple(map(id, members_of(node))))
        for node in nodes_of(subject)
    }
    subject_calls = count_summaries(subject)
    reference_calls = count_summaries(reference)

    assert subject.delete(victim.item, victim.item.loc)
    reference_delete(reference, victim.item, victim.item.loc)

    subject.check_invariants()
    assert len(subject) == len(reference)
    assert shape_of(subject.root) == shape_of(reference.root)

    # Exactly the nodes whose membership changed (or that are new), and
    # their ancestors, were summarised — each once.
    expected = set()
    for node in nodes_of(subject):
        seen = before.get(id(node))
        if seen is None or seen[1] != tuple(map(id, members_of(node))):
            while node is not None and id(node) not in expected:
                expected.add(id(node))
                node = node.parent
    by_members = {id(members_of(node)): id(node) for node in nodes_of(subject)}
    assert len(subject_calls) == len(set(subject_calls))
    assert {by_members[call] for call in subject_calls} == expected
    assert len(subject_calls) == len(expected)
    assert len(subject_calls) < len(reference_calls)


def leaf_at_min_fill(tree):
    return next(
        (
            node
            for node in nodes_of(tree)
            if node.is_leaf
            and node.parent is not None
            and len(node) == tree.min_entries
        ),
        None,
    )


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_dissolved_leaf_after_str_split(kind, medium_db):
    """Default fanout: an insert splits a packed leaf 16/17, then a
    delete from the 16-entry half dissolves it."""

    def prepared():
        tree = build(kind, medium_db, 32)
        anchor = nodes_of(tree)[-1].entries[0].item
        extra = 0
        while leaf_at_min_fill(tree) is None:
            assert extra < 8, "the anchored leaf never split"
            tree.insert(
                SpatialObject(10_000_000 + extra, anchor.loc, anchor.doc),
                anchor.loc,
            )
            extra += 1
        return tree

    subject, reference = prepared(), prepared()
    leaf = leaf_at_min_fill(subject)
    assert len(leaf) == 16 and len(leaf.parent) > subject.min_entries
    delete_and_check(subject, reference, leaf.entries[0])


def inner_dissolve_victim(tree):
    """An entry whose delete dissolves its leaf *and* the leaf's parent."""
    low = tree.min_entries
    for node in nodes_of(tree):
        if (
            not node.is_leaf
            and node.parent is not None
            and len(node) == low
            and node.children[0].is_leaf
        ):
            for child in node.children:
                if len(child) == low:
                    return child.entries[0]
    return None


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_dissolved_inner_node(kind, small_db):
    """Fanout 4: thin one leaf-parent to min fill, then delete below it."""

    def prepared():
        tree = build(kind, small_db, 4)
        assert tree.height() >= 3
        for _ in range(40):
            if inner_dissolve_victim(tree) is not None:
                return tree
            parent = next(
                node
                for node in nodes_of(tree)
                if not node.is_leaf
                and node.parent is not None
                and node.children[0].is_leaf
            )
            leaf = max(parent.children, key=len)
            entry = leaf.entries[0]
            assert tree.delete(entry.item, entry.item.loc)
        raise AssertionError("no leaf-parent reached min fill")

    subject, reference = prepared(), prepared()
    victim = inner_dissolve_victim(subject)
    leaf = subject._find_leaf(subject.root, victim.rect, victim.item)
    assert len(leaf) == len(leaf.parent) == subject.min_entries
    assert leaf.parent.parent is not None
    delete_and_check(subject, reference, victim)
