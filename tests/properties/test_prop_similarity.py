"""Property-based tests for the Jaccard similarity model (Eqn. 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import JaccardSimilarity

from tests.properties.strategies import ALPHABET

keyword_sets = st.sets(st.sampled_from(ALPHABET), max_size=8).map(frozenset)
nonempty_sets = st.sets(st.sampled_from(ALPHABET), min_size=1, max_size=8).map(frozenset)

MODEL = JaccardSimilarity()


@settings(max_examples=100, deadline=None)
@given(keyword_sets, keyword_sets)
def test_similarity_in_unit_range_and_symmetric(a, b):
    value = MODEL.similarity(a, b)
    assert 0.0 <= value <= 1.0
    assert value == MODEL.similarity(b, a)


@settings(max_examples=100, deadline=None)
@given(nonempty_sets)
def test_identity_scores_one(doc):
    assert MODEL.similarity(doc, doc) == 1.0


@settings(max_examples=100, deadline=None)
@given(keyword_sets, keyword_sets)
def test_disjoint_scores_zero(a, b):
    if not (a & b):
        assert MODEL.similarity(a, b) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(nonempty_sets, min_size=1, max_size=6),
    keyword_sets,
)
def test_interval_bounds_bracket_members(docs, query):
    """The SetR-tree contract: for any group of docs, Jaccard's bounds
    computed from (∩, ∪) bracket every member's exact similarity."""
    intersection = frozenset(docs[0])
    union = frozenset()
    for doc in docs:
        intersection &= doc
        union |= doc
    upper = MODEL.upper_bound(intersection, union, query)
    lower = MODEL.lower_bound(intersection, union, query)
    assert lower <= upper + 1e-12
    for doc in docs:
        value = MODEL.similarity(doc, query)
        assert lower - 1e-9 <= value <= upper + 1e-9


@settings(max_examples=100, deadline=None)
@given(nonempty_sets, nonempty_sets, nonempty_sets)
def test_jaccard_triangle_like_monotonicity(a, b, c):
    """Jaccard distance (1 − sim) satisfies the triangle inequality."""
    d_ab = 1.0 - MODEL.similarity(a, b)
    d_bc = 1.0 - MODEL.similarity(b, c)
    d_ac = 1.0 - MODEL.similarity(a, c)
    assert d_ac <= d_ab + d_bc + 1e-9
