"""Dataset persistence: JSON and CSV round-tripping.

The demonstration server loads its hotel crawl from disk (Fig. 1 shows
the R-tree index sitting on top of the hard disk); these loaders are the
equivalent ingestion path.  JSON preserves the full object model; CSV is
provided for interoperability with spreadsheet-style POI exports
(keywords joined by ``|`` in a single column).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.core.codec import database_from_doc, database_to_doc, object_from_doc
from repro.core.objects import SpatialDatabase

__all__ = ["save_json", "load_json", "save_csv", "load_csv"]


def save_json(database: SpatialDatabase, path: str | Path) -> None:
    """Write a database document (:mod:`repro.core.codec`) to a JSON file."""
    Path(path).write_text(
        json.dumps(database_to_doc(database), indent=2), encoding="utf-8"
    )


def load_json(path: str | Path) -> SpatialDatabase:
    """Read a database from a JSON file written by :func:`save_json`.

    Raises ``ValueError`` (a :class:`~repro.core.codec.DocumentError` or
    a ``json.JSONDecodeError``) on a malformed file.
    """
    return database_from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


_CSV_FIELDS = ("oid", "x", "y", "keywords", "name")


def save_csv(database: SpatialDatabase, path: str | Path) -> None:
    """Write a database to CSV (keywords ``|``-joined; no dataspace).

    Loading a CSV therefore recomputes the dataspace as the MBR of the
    points — acceptable for interchange, lossy for exact score
    reproduction when the original dataspace was larger.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for obj in database:
            writer.writerow(
                {
                    "oid": obj.oid,
                    "x": repr(obj.loc.x),
                    "y": repr(obj.loc.y),
                    "keywords": "|".join(sorted(obj.doc)),
                    "name": obj.name or "",
                }
            )


def load_csv(path: str | Path) -> SpatialDatabase:
    """Read a database from a CSV file written by :func:`save_csv`."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        objects = [
            object_from_doc(
                {
                    "oid": row["oid"],
                    "x": row["x"],
                    "y": row["y"],
                    "keywords": [kw for kw in row["keywords"].split("|") if kw],
                    "name": row["name"] or None,
                }
            )
            for row in csv.DictReader(handle)
        ]
    return SpatialDatabase(objects)
