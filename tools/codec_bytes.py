"""Byte fingerprints of every file the object and database documents reach.

``write WORKDIR`` writes, under ``WORKDIR``:

* ``dataset.json`` — E16's 2 000-object corpus through ``save_json``,
  and ``resaved.json`` — that file through ``load_json`` → ``save_json``;
* ``hotels.json`` / ``hotels-resaved.json`` — the named hotel corpus,
  saved and resaved the same way;
* ``wal/`` — 60 of E16's ``mixed_rw`` mutation batches and one batch
  inserting and renaming a named object, logged over the E16 corpus,
  with a snapshot after batch 30;

and prints one JSON document: the SHA-256 of every file written and of
the database recovered from ``wal/``.  Two
trees that write alike print the same document.  ``recover WORKDIR``
recovers a copy of ``WORKDIR/wal`` (which another tree may have
written) over ``WORKDIR/dataset.json`` and prints the same recovered
hash, so a change can show that a parent's log still recovers.

Run::

    PYTHONPATH=src python -m tools.codec_bytes write WORKDIR
    PYTHONPATH=src python -m tools.codec_bytes recover WORKDIR
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.datasets import hong_kong_hotels
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.datasets.loaders import load_json, save_json
from repro.service.api import YaskEngine
from repro.service.protocol import mutations_from_dict
from repro.service.wal import WriteAheadLog, recover_engine
from tools.ledger import _batches, cat

BATCHES = 60
SNAPSHOT_AFTER = 30
NAMED = [
    {"op": "insert", "oid": 10**9, "x": 0.5, "y": 0.5,
     "keywords": ["espresso"], "name": "Café Ñ"},
    {"op": "update", "oid": 10**9, "x": 0.25, "y": 0.75,
     "keywords": ["espresso", "tea"], "name": "Renamed"},
]


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _recovered(workdir: Path) -> str:
    """SHA-256 of the recovered database: objects in order, dataspace
    and vocabulary bit positions (floats as ``repr``)."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "wal"
        shutil.copytree(workdir / "wal", copy)
        engine, _ = recover_engine(
            copy, database=load_json(workdir / "dataset.json"), attach=False
        )
        database = engine.database
        state = [
            [[o.oid, o.loc.x, o.loc.y, sorted(o.doc), o.name] for o in database],
            list(database.dataspace.as_tuple()),
            list(database.vocabulary_index.keywords),
        ]
        engine.close()
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def write(workdir: Path) -> dict[str, str]:
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = SyntheticDatasetBuilder(seed=cat.DATASET_SEED).build(
        2000, **cat.DATASET_KWARGS
    )
    save_json(corpus, workdir / "dataset.json")
    save_json(load_json(workdir / "dataset.json"), workdir / "resaved.json")
    save_json(hong_kong_hotels(), workdir / "hotels.json")
    save_json(
        load_json(workdir / "hotels.json"), workdir / "hotels-resaved.json"
    )
    engine = YaskEngine(load_json(workdir / "dataset.json"))
    engine.attach_wal(WriteAheadLog(workdir / "wal", fsync="never"))
    bodies = _batches(engine.database, BATCHES) + [{"mutations": NAMED}]
    for index, body in enumerate(bodies, start=1):
        engine.apply_mutations(mutations_from_dict(body))
        if index == SNAPSHOT_AFTER:
            engine.snapshot()
    engine.close()
    digests = {
        str(path.relative_to(workdir)): _sha(path)
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    digests["recovered"] = _recovered(workdir)
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("write", "recover"):
        print(__doc__, file=sys.stderr)
        return 2
    workdir = Path(argv[1])
    if argv[0] == "write":
        payload = write(workdir)
    else:
        payload = {"recovered": _recovered(workdir)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
