"""Unit tests for the Jaccard arithmetic of :mod:`repro.core.scanindex`.

The served engine scores one text model, the paper's Jaccard (Eqn. 2).
Its per-row, per-bucket and bound expressions are module-level
functions here; each must agree bit for bit with the set-path reference
(:meth:`JaccardSimilarity.similarity`, ``Scorer.breakdown``) or, for the
bound, dominate it exactly: no tolerance anywhere.
"""

import pytest

from repro.core.geometry import Point
from repro.core.kernel import ScoringKernel
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scanindex import score_delta_rows, tsim_from_counts, tsim_upper_bound
from repro.core.scoring import Scorer
from repro.text.similarity import JACCARD
from tests.conftest import make_tiny_db

QUERY_LENGTHS = range(6)


def keyword_sets(shared: int, doc_len: int, qlen: int):
    """A ``doc_len``-keyword doc sharing ``shared`` of a ``qlen``-keyword
    query's keywords."""
    query = frozenset(f"q{i}" for i in range(qlen))
    doc = frozenset(f"q{i}" for i in range(shared)) | frozenset(
        f"d{i}" for i in range(doc_len - shared)
    )
    return doc, query


@pytest.mark.parametrize("qlen", QUERY_LENGTHS)
def test_tsim_from_counts_is_jaccard_similarity(qlen):
    for doc_len in range(9):
        for shared in range(min(doc_len, qlen) + 1):
            doc, query = keyword_sets(shared, doc_len, qlen)
            assert tsim_from_counts(shared, doc_len, qlen) == JACCARD.similarity(
                doc, query
            )


@pytest.mark.parametrize("qlen", QUERY_LENGTHS)
def test_tsim_upper_bound_is_the_attained_maximum(qlen):
    """Over docs no shorter than the floor sharing at most ``shared``
    keywords, the bound is the largest TSim, to the bit."""
    for min_doc_len in range(7):
        for shared in range(qlen + 1):
            best = max(
                tsim_from_counts(s, doc_len, qlen)
                for doc_len in range(min_doc_len, min_doc_len + 8)
                for s in range(min(shared, doc_len) + 1)
            )
            assert tsim_upper_bound(shared, qlen, min_doc_len) == best


def test_tsim_upper_bound_is_monotone_in_shared_and_in_the_floor():
    for qlen in range(1, 8):
        for min_doc_len in range(8):
            bounds = [
                tsim_upper_bound(shared, qlen, min_doc_len)
                for shared in range(qlen + 1)
            ]
            assert bounds == sorted(bounds)
            assert bounds[0] == 0.0 and bounds[-1] <= 1.0
            # A floor below the truth only loosens the bound.
            for shared in range(qlen + 1):
                assert tsim_upper_bound(shared, qlen, min_doc_len) <= (
                    tsim_upper_bound(shared, qlen, max(min_doc_len - 1, 0))
                )


def test_tsim_upper_bound_of_an_empty_query_is_zero():
    for min_doc_len in range(4):
        assert tsim_upper_bound(0, 0, min_doc_len) == 0.0


def delta_scores(database, query):
    """``score_delta_rows`` over every object of ``database``."""
    qmask, _unknown = database.vocabulary_index.encode_query(query.doc)
    rows = ScoringKernel.encode_rows(database.objects, database.vocabulary_index)
    return score_delta_rows(
        rows,
        query.loc.x,
        query.loc.y,
        qmask,
        len(query.doc),
        query.ws,
        query.wt,
        normaliser=database.distance_normaliser,
    )


@pytest.mark.parametrize("ws", [0.1, 0.5, 0.9])
@pytest.mark.parametrize(
    "keywords",
    [("restaurant",), ("chinese", "restaurant"), ("spanish", "tapas")],
    ids=["one-keyword", "two-keywords", "unknown-keyword"],
)
def test_score_delta_rows_is_the_set_path_breakdown(keywords, ws):
    database = make_tiny_db()
    query = SpatialKeywordQuery(
        Point(0.3, 0.4), frozenset(keywords), 3, Weights.from_spatial(ws)
    )
    reference = Scorer(database, use_kernel=False)
    parts = delta_scores(database, query)
    assert [oid for oid, *_ in parts] == [obj.oid for obj in database]
    for (_oid, score, sdist, tsim), obj in zip(parts, database):
        expected = reference.breakdown(obj, query)
        assert (score, sdist, tsim) == (expected.score, expected.sdist, expected.tsim)


def test_score_delta_rows_clamps_sdist_at_one():
    """A query far outside the dataspace: every SDist clamps at 1, as
    the set path's ``normalized_distance`` does, so proximity adds 0."""
    database = make_tiny_db()
    query = SpatialKeywordQuery(
        Point(40.0, -40.0), frozenset({"restaurant"}), 3, Weights.from_spatial(0.5)
    )
    reference = Scorer(database, use_kernel=False)
    for (_oid, score, sdist, tsim), obj in zip(delta_scores(database, query), database):
        assert sdist == 1.0
        assert score == query.wt * tsim == reference.score(obj, query)
