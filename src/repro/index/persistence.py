"""Index persistence: save/load tree structure to disk (Fig. 1).

The architecture diagram places the "R-tree Based Index" on the hard
disk beneath the query processor; the demonstration server loads it at
startup rather than rebuilding.  This module persists the *structure* of
any of the library's tree indexes — which objects sit in which leaf, and
how leaves group upward — as JSON keyed by object ids.  On load the
structure is reattached to a database and every node's MBR and summary
(keyword sets / count maps / impact lists) is recomputed bottom-up, so a
loaded index is bit-for-bit equivalent to the saved one for every query.

Persisting structure (not derived payloads) keeps files small, makes the
format independent of summary-representation changes, and guarantees the
loaded tree can never carry stale summaries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.index.irtree import IRTree
from repro.index.kcrtree import KcRTree
from repro.index.rtree import RTree, RTreeEntry, RTreeNode
from repro.index.setrtree import SetRTree
from repro.text.similarity import CosineTfIdfSimilarity

__all__ = [
    "IndexPersistenceError",
    "save_index",
    "load_index",
    "index_to_dict",
    "index_from_dict",
    "database_to_dict",
    "database_from_dict",
]

#: Format version: bump on breaking layout changes.  Version 2 adds the
#: optional ``vocabulary`` section — the interned keyword order of the
#: database the index was saved over.  Version-1 files (no vocabulary)
#: still load; the database then interns lazily as before.
_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)

_TREE_TYPES = {
    "SetRTree": SetRTree,
    "KcRTree": KcRTree,
    "IRTree": IRTree,
}


class IndexPersistenceError(ValueError):
    """A malformed or inconsistent persisted index."""


def _node_to_dict(node: RTreeNode[SpatialObject]) -> dict[str, Any]:
    if node.is_leaf:
        return {"leaf": True, "oids": [entry.item.oid for entry in node.entries]}
    return {
        "leaf": False,
        "children": [_node_to_dict(child) for child in node.children],
    }


def index_to_dict(tree: RTree[SpatialObject]) -> dict[str, Any]:
    """Serialise a tree's structure (not its derived summaries)."""
    type_name = type(tree).__name__
    if type_name not in _TREE_TYPES:
        raise IndexPersistenceError(
            f"unsupported index type {type_name!r}; "
            f"supported: {sorted(_TREE_TYPES)}"
        )
    payload: dict[str, Any] = {
        "format": _FORMAT_VERSION,
        "type": type_name,
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "size": len(tree),
        "root": _node_to_dict(tree.root),
    }
    database = getattr(tree, "database", None)
    if database is not None and database.interned:
        # Round-trip the interned keyword order: under live mutation the
        # vocabulary grows append-only (no longer globally sorted), and
        # a loaded database must re-intern to the *same* bit positions
        # or saved doc masks decode into different keyword sets.
        payload["vocabulary"] = list(database.vocabulary_index.keywords)
    return payload


def _rebuild_node(
    payload: dict[str, Any],
    database: SpatialDatabase,
    tree: RTree[SpatialObject],
    seen: set[int],
) -> RTreeNode[SpatialObject]:
    if payload.get("leaf"):
        node = RTreeNode[SpatialObject](is_leaf=True)
        for oid in payload.get("oids", []):
            try:
                obj = database.get(int(oid))
            except KeyError:
                raise IndexPersistenceError(
                    f"persisted index references object {oid} "
                    "missing from the database"
                ) from None
            if obj.oid in seen:
                raise IndexPersistenceError(
                    f"object {obj.oid} appears in multiple leaves"
                )
            seen.add(obj.oid)
            node.entries.append(
                RTreeEntry(rect=Rect.from_point(obj.loc), item=obj)
            )
        if not node.entries:
            raise IndexPersistenceError("persisted leaf node is empty")
    else:
        node = RTreeNode[SpatialObject](is_leaf=False)
        children = payload.get("children", [])
        if not children:
            raise IndexPersistenceError("persisted inner node has no children")
        for child_payload in children:
            child = _rebuild_node(child_payload, database, tree, seen)
            child.parent = node
            node.children.append(child)
    # Recompute the MBR and summary from the (now complete) members.
    tree._refresh(node)
    return node


def index_from_dict(
    payload: dict[str, Any],
    database: SpatialDatabase,
    *,
    text_model: Any | None = None,
) -> RTree[SpatialObject]:
    """Rebuild a persisted index over ``database``.

    ``text_model`` applies to IR-trees (a :class:`CosineTfIdfSimilarity`;
    corpus default); the other trees take none.
    """
    if not isinstance(payload, dict) or "type" not in payload:
        raise IndexPersistenceError("payload is not a persisted index")
    if payload.get("format") not in _SUPPORTED_FORMATS:
        raise IndexPersistenceError(
            f"unsupported format version {payload.get('format')!r}"
        )
    vocabulary = payload.get("vocabulary")
    if vocabulary is not None and (
        not isinstance(vocabulary, list)
        or not all(isinstance(keyword, str) for keyword in vocabulary)
    ):
        raise IndexPersistenceError(
            "persisted vocabulary must be a list of keywords"
        )
    type_name = payload["type"]
    if type_name not in _TREE_TYPES:
        raise IndexPersistenceError(f"unknown index type {type_name!r}")

    max_entries = int(payload.get("max_entries", 32))
    min_entries = int(payload.get("min_entries", max_entries // 2))
    if type_name != "IRTree" and text_model is not None:
        raise IndexPersistenceError(f"{type_name} takes no text model")
    if type_name == "SetRTree":
        tree: RTree[SpatialObject] = SetRTree(
            database=database, max_entries=max_entries, min_entries=min_entries
        )
    elif type_name == "KcRTree":
        tree = KcRTree(
            database=database, max_entries=max_entries, min_entries=min_entries
        )
    else:  # IRTree
        if text_model is not None and not isinstance(
            text_model, CosineTfIdfSimilarity
        ):
            raise IndexPersistenceError("IRTree requires a cosine text model")
        tree = IRTree(
            database=database,
            text_model=text_model,
            max_entries=max_entries,
            min_entries=min_entries,
        )

    seen: set[int] = set()
    root = _rebuild_node(payload["root"], database, tree, seen)
    root.parent = None
    expected = int(payload.get("size", len(seen)))
    if len(seen) != expected:
        raise IndexPersistenceError(
            f"persisted index claims {expected} objects but holds {len(seen)}"
        )
    tree._root = root
    tree._size = len(seen)
    # Adopt the persisted keyword order only once the whole payload has
    # validated: re-interning is a visible database mutation, and a load
    # that fails halfway must leave the database exactly as it was.
    if vocabulary is not None:
        try:
            database.adopt_vocabulary(vocabulary)
        except ValueError as exc:
            raise IndexPersistenceError(str(exc)) from None
    return tree


def save_index(tree: RTree[SpatialObject], path: str | Path) -> None:
    """Write a tree's structure to a JSON file."""
    Path(path).write_text(json.dumps(index_to_dict(tree)), encoding="utf-8")


def load_index(
    path: str | Path,
    database: SpatialDatabase,
    *,
    text_model: Any | None = None,
) -> RTree[SpatialObject]:
    """Read a tree written by :func:`save_index` and attach it to ``database``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IndexPersistenceError(f"not a persisted index: {exc}") from None
    return index_from_dict(payload, database, text_model=text_model)


# ----------------------------------------------------------------------
# Database snapshots (the WAL's durable checkpoint payload)
# ----------------------------------------------------------------------
#: Database snapshot layout version, independent of the index format.
_DATABASE_FORMAT_VERSION = 1


def database_to_dict(database: SpatialDatabase) -> dict[str, Any]:
    """Serialise a database's full logical state for a snapshot.

    Captures everything a bit-for-bit rebuild needs: the objects *in
    database order* (the order rule every incrementally-maintained
    kernel shares), the pinned dataspace (score floats depend on its
    diagonal) and — when interned — the vocabulary's bit-position order
    (append-only growth means it is no longer globally sorted, and a
    rebuilt kernel must intern identically).  Indexes are deliberately
    excluded: bulk-loading from the objects is as fast as reattaching a
    persisted structure and cannot desynchronise.
    """
    space = database.dataspace
    payload: dict[str, Any] = {
        "format": _DATABASE_FORMAT_VERSION,
        "dataspace": [space.min_x, space.min_y, space.max_x, space.max_y],
        "objects": [
            {
                "oid": obj.oid,
                "x": obj.loc.x,
                "y": obj.loc.y,
                "keywords": sorted(obj.doc),
                "name": obj.name,
            }
            for obj in database.objects
        ],
    }
    if database.interned:
        payload["vocabulary"] = list(database.vocabulary_index.keywords)
    return payload


def database_from_dict(payload: dict[str, Any]) -> SpatialDatabase:
    """Rebuild a database saved by :func:`database_to_dict`."""
    if not isinstance(payload, dict) or "objects" not in payload:
        raise IndexPersistenceError("payload is not a persisted database")
    if payload.get("format") != _DATABASE_FORMAT_VERSION:
        raise IndexPersistenceError(
            f"unsupported database format version {payload.get('format')!r}"
        )
    space = payload.get("dataspace")
    if (
        not isinstance(space, list)
        or len(space) != 4
        or not all(isinstance(value, (int, float)) for value in space)
    ):
        raise IndexPersistenceError(
            "persisted dataspace must be [min_x, min_y, max_x, max_y]"
        )
    raw_objects = payload["objects"]
    if not isinstance(raw_objects, list) or not raw_objects:
        raise IndexPersistenceError(
            "persisted database must hold at least one object"
        )
    objects: list[SpatialObject] = []
    try:
        for item in raw_objects:
            name = item.get("name")
            if name is not None and not isinstance(name, str):
                raise IndexPersistenceError("object names must be strings")
            objects.append(
                SpatialObject(
                    oid=int(item["oid"]),
                    loc=Point(float(item["x"]), float(item["y"])),
                    doc=frozenset(
                        str(keyword) for keyword in item["keywords"]
                    ),
                    name=name,
                )
            )
    except IndexPersistenceError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IndexPersistenceError(
            f"malformed persisted object: {exc}"
        ) from None
    try:
        database = SpatialDatabase(
            objects,
            dataspace=Rect(
                float(space[0]), float(space[1]), float(space[2]), float(space[3])
            ),
        )
    except ValueError as exc:
        raise IndexPersistenceError(str(exc)) from None
    vocabulary = payload.get("vocabulary")
    if vocabulary is not None:
        if not isinstance(vocabulary, list) or not all(
            isinstance(keyword, str) for keyword in vocabulary
        ):
            raise IndexPersistenceError(
                "persisted vocabulary must be a list of keywords"
            )
        try:
            database.adopt_vocabulary(vocabulary)
        except ValueError as exc:
            raise IndexPersistenceError(str(exc)) from None
    return database
