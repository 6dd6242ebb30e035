"""One JSON codec for an object and a database.

Section 2.1 of the paper defines an object once, as ``o = (o.loc,
o.doc)``, and this module writes it once: dataset files, WAL snapshots
and log records, and the wire all encode and decode through it, each
carrier only wrapping the document (docs/API.md, "The object and
database documents").  Decoding is strict: ``keywords`` must be a JSON
list of strings and is never coerced (``"cafe"`` is not ``{"a", "c",
"e", "f"}``), and ``name`` must be a string or ``null``.  Floats
survive a JSON round trip bit for bit, which keeps every recovered
score float identical.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any, Mapping

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject

__all__ = [
    "DocumentError",
    "database_from_doc",
    "database_to_doc",
    "keywords_from_doc",
    "object_from_doc",
    "object_to_doc",
]


class DocumentError(ValueError):
    """A malformed object or database document."""


def keywords_from_doc(doc: Mapping[str, Any], cap: int | None) -> frozenset[str]:
    """The ``keywords`` field: a JSON list of at most ``cap`` strings.

    Items are not coerced: ``null`` or ``3`` is refused rather than
    searched for as ``"None"`` or ``"3"``, and a JSON object is refused
    rather than contributing its keys.  ``cap=None`` lifts the length
    cap.
    """
    try:
        keywords = doc["keywords"]
    except KeyError:
        raise DocumentError("missing required field 'keywords'") from None
    if not isinstance(keywords, list):
        raise DocumentError("'keywords' must be a list of strings")
    if cap is not None and len(keywords) > cap:
        raise DocumentError(
            f"'keywords' holds {len(keywords)} entries; the cap is {cap}"
        )
    if not all(map(isinstance, keywords, repeat(str))):
        raise DocumentError("'keywords' must be a list of strings")
    return frozenset(keywords)


def object_to_doc(obj: SpatialObject) -> dict[str, Any]:
    """An object's document; keywords sorted, ``name`` always present."""
    return {
        "oid": obj.oid,
        "x": obj.loc.x,
        "y": obj.loc.y,
        "keywords": sorted(obj.doc),
        "name": obj.name,
    }


def object_from_doc(
    doc: Mapping[str, Any], *, max_keywords: int | None = None
) -> SpatialObject:
    """Decode an object document; ``name`` may be absent.

    The keyword list may be empty (an object can carry no text), but it
    must be present: a loader silently defaulting documents would mask
    a writer's bug.  ``max_keywords`` caps the list (the wire's cap);
    ``None`` takes any length.
    """
    try:
        oid = int(doc["oid"])
        loc = Point(float(doc["x"]), float(doc["y"]))
        keywords = keywords_from_doc(doc, max_keywords)
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise DocumentError("'name' must be a string when present")
        return SpatialObject(oid, loc, keywords, name)
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError(f"missing required field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed object payload: {exc}") from None


def database_to_doc(database: SpatialDatabase) -> dict[str, Any]:
    """A database's full logical state.

    The objects in database order (the order every incrementally
    maintained kernel shares), the pinned dataspace (every score float
    depends on its diagonal) and, once the database has interned, the
    vocabulary's bit-position order: append-only growth leaves it
    unsorted, and a rebuilt kernel must intern identically.
    """
    space = database.dataspace
    doc: dict[str, Any] = {
        "dataspace": [space.min_x, space.min_y, space.max_x, space.max_y],
        "objects": [object_to_doc(obj) for obj in database.objects],
    }
    if database.interned:
        doc["vocabulary"] = list(database.vocabulary_index.keywords)
    return doc


def database_from_doc(doc: Mapping[str, Any]) -> SpatialDatabase:
    """Decode a database document into a fresh database.

    ``dataspace`` is required: a loader that recomputed it from the
    objects would silently move every score float.  The vocabulary, when
    present, is adopted only once every object has decoded and the
    database is built, so a refused document changes nothing.
    """
    if not isinstance(doc, Mapping):
        raise DocumentError("a database document must be a JSON object")
    space = doc.get("dataspace")
    if not (
        isinstance(space, list)
        and len(space) == 4
        and all(type(v) in (int, float) and math.isfinite(v) for v in space)
    ):
        raise DocumentError("'dataspace' must be four finite numbers")
    raw = doc.get("objects")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("'objects' must be a non-empty list of objects")
    objects: list[SpatialObject] = []
    for index, item in enumerate(raw):
        try:
            objects.append(object_from_doc(item))
        except DocumentError as exc:
            raise DocumentError(f"objects[{index}]: {exc}") from None
    vocabulary = doc.get("vocabulary")
    if vocabulary is not None and not (
        isinstance(vocabulary, list)
        and all(isinstance(keyword, str) for keyword in vocabulary)
    ):
        raise DocumentError("'vocabulary' must be a list of keywords")
    try:
        database = SpatialDatabase(
            objects, dataspace=Rect(*(float(value) for value in space))
        )
        if vocabulary is not None:
            database.adopt_vocabulary(vocabulary)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return database
