"""Property suite: the indexed ``scan_top_k`` ≡ the full scan it replaced.

``ScoringKernel.scan_top_k`` answers from a bit-sliced scan index
(``repro.core.scanindex``) that scores only the rows whose score bound
still reaches the running k-th score.  The reference it must equal,
pair for pair and bit for bit, is the full scan spelt out below:
``nsmallest(k, zip(map(neg, scalar_scores(…)), oids))`` over the live
rows, cut at the inclusive ``floor`` when one is given.

The strategies aim at what a pruning index gets wrong first: points on
a coarse lattice (duplicates, equal x across a column boundary, equal
y), a dataspace far from the origin, weights at and next to 0
(``ws = 0``: no bucket is reachable once θ is positive; ``wt = 0``:
every bucket's text term is 0), ``k`` from 1 past n, unknown and empty
query keywords, (shared keywords, doc length) buckets of equal TSim
that merge, floors below / at / above the k-th score, and mutation
histories that tombstone, compact, outgrow the index's tail and insert
doc lengths no built row has.  The index's column height is shrunk so
a 40-row database spans many columns; one deterministic case runs at
the shipped height.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import nsmallest
from operator import neg
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import scanindex
from repro.core.geometry import Point, Rect
from repro.core.kernel import ScoringKernel
from repro.core.mutations import MutableDatabase, Mutation
from repro.core.objects import OID_LIMIT, SpatialDatabase, SpatialObject
from repro.text.similarity import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapSimilarity,
)
from tests.properties.strategies import ALPHABET

MODELS = [JaccardSimilarity(), DiceSimilarity(), OverlapSimilarity()]

#: A 5 x 5 lattice mixed with free floats: collinear and duplicate
#: points are the rule, not the exception.
lattice = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
coordinate = st.one_of(lattice, st.floats(min_value=0.0, max_value=1.0))
points = st.builds(Point, coordinate, coordinate)
#: Query locations also fall outside the dataspace.
query_coordinate = st.one_of(lattice, st.floats(min_value=-0.5, max_value=1.5))

#: The two-keyword query whose buckets merge: sharing 1 of its keywords
#: at doc length 1 and both at doc length 4 is TSim ½ under Jaccard (2/3
#: under Dice, 1 under Overlap) either way.
PAIR = frozenset(ALPHABET[:2])
merging_docs = st.sampled_from(
    [
        frozenset(ALPHABET[:1]),
        frozenset(ALPHABET[1:2]),
        PAIR | frozenset(ALPHABET[4:6]),
        PAIR | frozenset(ALPHABET[6:8]),
    ]
)
docs = st.one_of(
    st.sets(st.sampled_from(ALPHABET), min_size=0, max_size=6).map(frozenset),
    merging_docs,
)
#: Longer than any built doc: an insert of one brings a doc length the
#: index has no bitmap for yet.
long_docs = st.sets(st.sampled_from(ALPHABET), min_size=7, max_size=9).map(frozenset)
query_docs = st.one_of(
    st.sets(
        st.sampled_from(ALPHABET + ["zz-unseen", "zz-rare"]), min_size=0, max_size=5
    ).map(frozenset),
    st.just(PAIR),
)

#: (ws, wt): the convex weights a query carries, both ends, both
#: near-ends, and the degenerate pairs the raw scalar interface admits.
weights = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(lambda ws: (ws, 1.0 - ws)),
    st.sampled_from(
        [(0.0, 1.0), (1.0, 0.0), (1e-9, 1.0 - 1e-9), (1.0 - 1e-9, 1e-9), (0.0, 0.0)]
    ),
)


@st.composite
def object_lists(draw, min_size: int = 1, max_size: int = 40):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return [
        SpatialObject(oid=oid, loc=draw(points), doc=draw(docs))
        for oid in range(size)
    ]


@contextmanager
def column_rows(rows: int):
    """Run with the index's column height set to ``rows``."""
    shipped = scanindex._COLUMN_ROWS
    scanindex._COLUMN_ROWS = rows
    try:
        yield
    finally:
        scanindex._COLUMN_ROWS = shipped


def build(objects, model, offset: float = 0.0) -> ScoringKernel:
    """A kernel over ``objects`` translated by ``offset`` on both axes."""
    if offset:
        objects = [
            SpatialObject(
                obj.oid, Point(obj.loc.x + offset, obj.loc.y + offset), obj.doc
            )
            for obj in objects
        ]
    return ScoringKernel(
        SpatialDatabase(
            objects, dataspace=Rect(offset, offset, offset + 1.0, offset + 1.0)
        ),
        model,
    )


def full_scan(kernel, k, scalars, floor=None):
    """The reference: score every row, keep the live top ``k``, cut at floor."""
    scores = kernel.scalar_scores(*scalars)
    live = set(kernel.live_row_list())
    pairs = nsmallest(
        k,
        (
            pair
            for row, pair in enumerate(zip(map(neg, scores), kernel.oids))
            if row in live
        ),
    )
    if floor is not None:
        pairs = [pair for pair in pairs if -pair[0] >= floor]
    return pairs


def assert_scan_parity(kernel, k, scalars):
    """Indexed ≡ full scan at every floor the scatter can hand down."""
    expected = full_scan(kernel, k, scalars)
    assert kernel.scan_top_k(k, *scalars) == expected
    assert all(oid != OID_LIMIT for _, oid in expected)
    if not expected:
        return
    kth, top = -expected[-1][0], -expected[0][0]
    for floor in (kth - 0.125, kth, (kth + top) / 2.0, top, top + 0.125):
        assert kernel.scan_top_k(k, *scalars, floor) == full_scan(
            kernel, k, scalars, floor
        ), floor


def scalars_for(kernel, x, y, doc, ws, wt):
    qmask, _unknown = kernel.vocabulary.encode_query(doc)
    return (x, y, qmask, len(doc), ws, wt)


@settings(max_examples=120, deadline=None)
@given(
    objects=object_lists(),
    model=st.sampled_from(MODELS),
    x=query_coordinate,
    y=query_coordinate,
    doc=query_docs,
    weight=weights,
    k_past=st.integers(min_value=-3, max_value=3),
    height=st.sampled_from([1, 2, 3, 5]),
    offset=st.sampled_from([0.0, 0.0, 4.0e6]),
    data=st.data(),
)
def test_indexed_scan_equals_full_scan(
    objects, model, x, y, doc, weight, k_past, height, offset, data
):
    # A dataspace far from the origin (projected metres): the index's
    # y-interval is cut in absolute coordinates, where rounding is
    # relative to the offset, not to the distances scored.
    kernel = build(objects, model, offset)
    scalars = scalars_for(kernel, x + offset, y + offset, doc, *weight)
    with column_rows(height):
        for k in {1, max(1, len(objects) + k_past), data.draw(
            st.integers(min_value=1, max_value=len(objects) + 1)
        )}:
            assert_scan_parity(kernel, k, scalars)


@st.composite
def mutation_batch(draw, live: set[int], next_oid: int):
    """1-6 valid mutations against ``live`` (mutated in place)."""
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["insert", "insert", "update", "delete"]))
        if kind == "insert" or len(live) <= 1:
            oid = next_oid + len(batch)
            live.add(oid)
            doc = draw(st.one_of(docs, long_docs))
            batch.append(Mutation.insert(SpatialObject(oid, draw(points), doc)))
        elif kind == "update":
            oid = draw(st.sampled_from(sorted(live)))
            batch.append(
                Mutation.update(SpatialObject(oid, draw(points), draw(docs)))
            )
        else:
            oid = draw(st.sampled_from(sorted(live)))
            live.discard(oid)
            batch.append(Mutation.delete(oid))
    return batch


def check_through_history(objects, model, batches_max, data):
    """Parity after every batch of a random history on one live kernel."""
    kernel = build(objects, model)
    mutable = MutableDatabase(kernel.database, model_code=kernel.model_code)
    mutable.register_listener(kernel)
    live = {obj.oid for obj in objects}
    next_oid = len(objects)
    draw = data.draw
    for _ in range(draw(st.integers(min_value=1, max_value=batches_max))):
        scalars = scalars_for(
            kernel,
            draw(query_coordinate),
            draw(query_coordinate),
            draw(query_docs),
            *draw(weights),
        )
        k = draw(st.integers(min_value=1, max_value=len(live) + 2))
        assert_scan_parity(kernel, k, scalars)
        batch = draw(mutation_batch(live, next_oid))
        next_oid += len(batch)
        mutable.apply(batch)
        assert_scan_parity(kernel, k, scalars)
    return kernel


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    objects=object_lists(min_size=2, max_size=16),
    model=st.sampled_from(MODELS),
    data=st.data(),
)
def test_indexed_scan_follows_mutations(objects, model, data):
    with column_rows(2):
        check_through_history(objects, model, 6, data)


@pytest.mark.slow
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    objects=object_lists(min_size=2, max_size=40),
    model=st.sampled_from(MODELS),
    height=st.sampled_from([1, 2, 3, 5]),
    data=st.data(),
)
def test_indexed_scan_follows_mutations_deep(objects, model, height, data):
    with column_rows(height):
        check_through_history(objects, model, 20, data)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_history_crosses_compaction_and_tail_rebuild(model):
    """One seeded history that provably compacts and outgrows the tail.

    The index must survive the compaction (positions re-keyed, not
    rebuilt) and be rebuilt exactly when the tail outgrows its share.
    """
    lattice_points = [Point(x / 4.0, y / 4.0) for x in range(5) for y in range(5)]
    objects = [
        SpatialObject(
            oid,
            lattice_points[oid % 25],
            frozenset(ALPHABET[oid % 5 : oid % 5 + 3]),
        )
        for oid in range(24)
    ]
    with column_rows(4):
        kernel = build(objects, model)
        mutable = MutableDatabase(kernel.database, model_code=kernel.model_code)
        mutable.register_listener(kernel)
        scalars = scalars_for(
            kernel, 0.5, 0.5, frozenset(ALPHABET[1:4]), 0.5, 0.5
        )
        assert_scan_parity(kernel, 5, scalars)
        assert kernel.stats.to_dict()["scan_index_builds"] == 1
        # Deletes past the 25 % threshold: tombstones, then a compaction
        # the index survives without a rebuild.
        for oid in range(0, 14, 2):
            mutable.apply([Mutation.delete(oid)])
            assert_scan_parity(kernel, 5, scalars)
        assert kernel.compactions >= 1
        assert kernel.stats.to_dict()["scan_index_builds"] == 1
        # Inserts into the tail until it outgrows max(4, built // 8).
        for oid in range(100, 106):
            mutable.apply(
                [
                    Mutation.insert(
                        SpatialObject(
                            oid, lattice_points[oid % 25], frozenset(ALPHABET[2:5])
                        )
                    )
                ]
            )
            assert_scan_parity(kernel, 5, scalars)
        assert kernel.stats.to_dict()["scan_index_builds"] == 2
        # Updates (delete + append of one oid) keep parity too.
        moved = SpatialObject(101, Point(0.5, 0.5), frozenset(ALPHABET[1:4]))
        mutable.apply([Mutation.update(moved)])
        assert_scan_parity(kernel, 5, scalars)
        assert kernel.scan_top_k(1, *scalars)[0][1] == 101


def test_shipped_column_height_spans_columns():
    """At the shipped 256-row columns: 700 lattice rows, three columns,
    equal x on both sides of each boundary."""
    objects = [
        SpatialObject(
            oid,
            Point((oid % 7) / 6.0, (oid % 11) / 10.0),
            frozenset(ALPHABET[oid % 9 : oid % 9 + 1 + oid % 3]),
        )
        for oid in range(700)
    ]
    kernel = build(objects, JaccardSimilarity())
    for x, y, ws in [
        (0.5, 0.5, 0.5), (1 / 6.0, 0.3, 0.9), (-0.2, 1.4, 0.1), (1.0, 0.0, 0.0)
    ]:
        scalars = scalars_for(
            kernel, x, y, frozenset(ALPHABET[2:5]), ws, 1.0 - ws
        )
        for k in (1, 10, 300, 701):
            assert_scan_parity(kernel, k, scalars)
    assert kernel.stats.to_dict()["scan_index_builds"] == 1
    assert kernel.stats.to_dict()["scan_rows_scored"] > 0


def test_tombstoned_kernel_never_emits_the_dead_sentinel():
    """Regression: ``scan_top_k(k > live rows)`` used to end with the
    tombstone's ``(-0.0, OID_LIMIT)`` pair."""
    objects = [
        SpatialObject(oid, Point(oid / 8.0, 0.5), frozenset(ALPHABET[:2]))
        for oid in range(8)
    ]
    kernel = build(objects, JaccardSimilarity())
    kernel.apply_mutations(SimpleNamespace(removed_oids=[0], appended=()))
    assert kernel.has_tombstones
    scalars = scalars_for(kernel, 0.5, 0.5, frozenset(ALPHABET[:1]), 0.5, 0.5)
    pairs = kernel.scan_top_k(8, *scalars)
    assert sorted(oid for _, oid in pairs) == list(range(1, 8))
    # ... whether the index was built before or after the delete.
    kernel.apply_mutations(SimpleNamespace(removed_oids=[1], appended=()))
    assert sorted(oid for _, oid in kernel.scan_top_k(8, *scalars)) == list(
        range(2, 8)
    )


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_equal_tsim_buckets_merge_and_new_lengths_get_a_bitmap(model):
    """(1 shared, length 1) and (2 shared, length 4) are one TSim at
    |q| = 2 under every model: one bucket.  An insert longer than every
    built doc gets its own length bitmap, and parity holds throughout."""
    objects = [
        SpatialObject(0, Point(0.1, 0.1), frozenset(ALPHABET[:1])),
        SpatialObject(1, Point(0.9, 0.9), PAIR | frozenset(ALPHABET[4:6])),
        SpatialObject(2, Point(0.5, 0.5), frozenset(ALPHABET[8:9])),
    ]
    kernel = build(objects, model)
    mutable = MutableDatabase(kernel.database, model_code=kernel.model_code)
    mutable.register_listener(kernel)
    scalars = scalars_for(kernel, 0.5, 0.5, PAIR, 0.5, 0.5)
    assert_scan_parity(kernel, 2, scalars)
    index = kernel._scan_index
    buckets = index._buckets(scalars[2], 2)
    assert sorted(bucket.bit_count() for bucket in buckets.values()) == [1, 2]
    assert 9 not in index._length_bitmaps
    mutable.apply(
        [Mutation.insert(SpatialObject(3, Point(0.5, 0.6), frozenset(ALPHABET[:9])))]
    )
    assert kernel._scan_index is index and 9 in index._length_bitmaps
    for k in (1, 2, 4):
        assert_scan_parity(kernel, k, scalars)
