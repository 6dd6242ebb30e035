"""One rejection table for every carrier of an object document.

Dataset files (``load_json``), WAL snapshots (``recover_engine``) and
the wire (``POST /api/objects``) all decode through
:mod:`repro.core.codec`, so each refuses the same malformed documents.
The wire carries objects only: the database-level cases (dataspace,
vocabulary) have no field to arrive in there.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.loaders import load_json
from repro.service.api import YaskEngine
from repro.service.wal import WalCorruptionError, WriteAheadLog, recover_engine
from tests.conftest import make_tiny_db
from tests.service.conftest import post_raw, running_server


def _valid() -> dict:
    return {
        "dataspace": [0.0, 0.0, 1.0, 1.0],
        "objects": [
            {"oid": 100, "x": 0.5, "y": 0.5, "keywords": ["cafe"], "name": "c"},
            {"oid": 101, "x": 0.2, "y": 0.7, "keywords": ["tea"], "name": None},
        ],
    }


def _first_object(change):
    def apply(doc):
        change(doc["objects"][0])

    return apply


#: case -> (how it breaks a valid document, whether the wire carries it)
CASES = {
    "keywords given as a string": (
        _first_object(lambda obj: obj.update(keywords="cafe")), True
    ),
    "a non-string keyword": (
        _first_object(lambda obj: obj.update(keywords=["cafe", 3])), True
    ),
    "a non-string name": (_first_object(lambda obj: obj.update(name=5)), True),
    "no keywords key": (_first_object(lambda obj: obj.pop("keywords")), True),
    "no dataspace": (lambda doc: doc.pop("dataspace"), False),
    "an empty objects list": (lambda doc: doc.update(objects=[]), True),
    "a vocabulary missing a corpus keyword": (
        lambda doc: doc.update(vocabulary=["cafe"]), False
    ),
    "a duplicate vocabulary keyword": (
        lambda doc: doc.update(vocabulary=["cafe", "tea", "cafe"]), False
    ),
}


def _malformed(case: str) -> dict:
    doc = _valid()
    CASES[case][0](doc)
    return doc


def test_the_valid_document_passes_every_carrier(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps(_valid()))
    assert len(load_json(path)) == 2
    log = WriteAheadLog(tmp_path / "wal", fsync="never")
    log.write_snapshot(0, _valid())
    log.close()
    engine, report = recover_engine(tmp_path / "wal", attach=False)
    assert report.objects == 2
    engine.close()


@pytest.mark.parametrize(
    "carrier, case",
    [("file", case) for case in CASES]
    + [("snapshot", case) for case in CASES]
    + [("wire", case) for case, (_, on_wire) in CASES.items() if on_wire],
)
def test_every_carrier_refuses(carrier, case, tmp_path):
    doc = _malformed(case)
    if carrier == "file":
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_json(path)
    elif carrier == "snapshot":
        log = WriteAheadLog(tmp_path, fsync="never")
        log.write_snapshot(0, doc)
        log.close()
        with pytest.raises(WalCorruptionError, match="snapshot is malformed"):
            recover_engine(tmp_path)
    else:
        engine = YaskEngine(make_tiny_db())
        with running_server(engine, port=0) as server:
            body = json.dumps({"objects": doc["objects"]}).encode()
            status, reply = post_raw(server.endpoint, "/api/objects", body)
        assert status == 400, reply
        assert engine.generation == 0 and len(engine.database) == 5
