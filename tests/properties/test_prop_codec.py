"""The database document round trip, after any mutation history.

``database_from_doc(json.loads(json.dumps(database_to_doc(db))))`` must
equal ``db`` object for object, in order, with bit-identical floats
(negative zero and subnormals included), the same names and keyword
sets, the same dataspace and, when ``db`` has interned, the same
vocabulary bit positions: snapshots rest on it, and a recovered
kernel's score floats and doc masks with them.

Budget: ``YASK_RECOVERY_EXAMPLES`` (default 8; ``make test-recovery``
raises it) times 5 examples.
"""

from __future__ import annotations

import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import database_from_doc, database_to_doc
from repro.core.geometry import Point, Rect
from repro.core.mutations import MutableDatabase, Mutation
from repro.core.objects import OID_LIMIT, SpatialDatabase, SpatialObject

MAX_EXAMPLES = 5 * int(os.environ.get("YASK_RECOVERY_EXAMPLES", "8"))

finite = st.floats(allow_nan=False, allow_infinity=False)
keyword_sets = st.frozensets(st.text(max_size=4), max_size=5)
names = st.one_of(st.none(), st.text(max_size=6))
oids = st.integers(min_value=0, max_value=OID_LIMIT - 1)


def _object(draw, oid: int) -> SpatialObject:
    return SpatialObject(
        oid, Point(draw(finite), draw(finite)), draw(keyword_sets), draw(names)
    )


@st.composite
def mutated_databases(draw) -> SpatialDatabase:
    start = draw(st.lists(oids, min_size=1, max_size=8, unique=True))
    xs = sorted([draw(finite), draw(finite)])
    ys = sorted([draw(finite), draw(finite)])
    database = SpatialDatabase(
        [_object(draw, oid) for oid in start],
        dataspace=Rect(xs[0], ys[0], xs[1], ys[1]),
    )
    if draw(st.booleans()):
        _ = database.doc_masks  # intern: later keywords append positions
    mutable = MutableDatabase(database)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        live = sorted(obj.oid for obj in database.objects)
        batch: list[Mutation] = []
        touched: set[int] = set()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            kind = draw(st.sampled_from(["insert", "update", "delete"]))
            targets = [oid for oid in live if oid not in touched]
            if kind == "insert" or len(targets) < 2:
                oid = draw(oids.filter(lambda o: o not in live and o not in touched))
                batch.append(Mutation.insert(_object(draw, oid)))
            else:
                oid = draw(st.sampled_from(targets))
                if kind == "update":
                    batch.append(Mutation.update(_object(draw, oid)))
                else:
                    batch.append(Mutation.delete(oid))
                    live.remove(oid)
            touched.add(oid)
        mutable.apply(batch)
    return database


def _state(database: SpatialDatabase) -> list:
    space = database.dataspace
    return [
        [
            (obj.oid, obj.loc.x.hex(), obj.loc.y.hex(), obj.doc, obj.name)
            for obj in database.objects
        ],
        [value.hex() for value in space.as_tuple()],
    ]


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(mutated_databases())
def test_database_document_round_trips_bit_for_bit(database):
    doc = json.loads(json.dumps(database_to_doc(database)))
    restored = database_from_doc(doc)
    assert _state(restored) == _state(database)
    assert restored.interned == database.interned
    if database.interned:
        assert restored.vocabulary_index.keywords == (
            database.vocabulary_index.keywords
        )
        assert restored.doc_masks == database.doc_masks
