"""Property-based fuzzing of the JSON wire protocol.

The server must never crash on malformed payloads — every parse failure
must surface as :class:`ProtocolError` (HTTP 400), and every valid query
must round-trip through the wire format.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.query import SpatialKeywordQuery, Weights
from repro.service.protocol import (
    MAX_QUERY_KEYWORDS,
    ProtocolError,
    query_from_dict,
    query_to_dict,
)

from tests.properties.strategies import ALPHABET

import pytest

pytestmark = pytest.mark.slow

# Arbitrary JSON-shaped values to throw at the parser.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)
fuzzy_payloads = st.dictionaries(
    st.sampled_from(["x", "y", "keywords", "k", "ws", "wt", "junk"]),
    json_values,
    max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(fuzzy_payloads)
def test_parser_never_crashes(payload):
    """Any dict either parses to a valid query or raises ProtocolError."""
    try:
        query = query_from_dict(payload)
    except ProtocolError:
        return
    assert isinstance(query, SpatialKeywordQuery)
    assert query.k >= 1
    assert query.doc
    assert 0.0 < query.ws < 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-180, max_value=180, allow_nan=False),
    st.floats(min_value=-90, max_value=90, allow_nan=False),
    st.sets(st.sampled_from(ALPHABET), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=100),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_valid_queries_round_trip(x, y, keywords, k, ws):
    query = SpatialKeywordQuery(
        Point(x, y), frozenset(keywords), k, Weights.from_spatial(ws)
    )
    wire = json.loads(json.dumps(query_to_dict(query)))
    parsed = query_from_dict(wire)
    assert parsed.loc == query.loc
    assert parsed.doc == query.doc
    assert parsed.k == query.k
    assert abs(parsed.ws - query.ws) < 1e-12


@settings(max_examples=100, deadline=None)
@given(fuzzy_payloads)
def test_parser_is_deterministic(payload):
    def attempt():
        try:
            return ("ok", query_to_dict(query_from_dict(payload)))
        except ProtocolError as exc:
            return ("err", str(exc))

    assert attempt() == attempt()


#: Keyword values around the cap as well as arbitrary JSON.
keyword_values = st.one_of(
    json_values,
    st.lists(
        st.text(max_size=3),
        min_size=MAX_QUERY_KEYWORDS - 2,
        max_size=MAX_QUERY_KEYWORDS + 2,
    ),
)


@settings(max_examples=200, deadline=None)
@given(keyword_values)
def test_keywords_parse_only_as_a_bounded_list_of_strings(keywords):
    """A keyword list is taken as sent or refused: no item is coerced
    with ``str`` and no JSON object contributes its keys."""
    payload = {"x": 0.5, "y": 0.5, "keywords": keywords, "k": 1}
    valid = (
        isinstance(keywords, list)
        and 0 < len(keywords) <= MAX_QUERY_KEYWORDS
        and all(isinstance(keyword, str) for keyword in keywords)
    )
    try:
        query = query_from_dict(payload)
    except ProtocolError:
        assert not valid
        return
    assert valid
    assert query.doc == frozenset(keywords)
