"""Keyword extraction for spatial object descriptions.

The demonstration dataset of the paper extracts each hotel's keyword set
"from the facilities and user comments relating to the hotel"
(Section 4).  This module provides the small text-normalisation pipeline
used to turn such free text into the keyword *sets* consumed by the
Jaccard model of Eqn. (2): lowercasing, punctuation stripping, stopword
removal and de-duplication.

The pipeline is deliberately simple — the paper's model operates on
keyword sets, not on term frequencies — but it is factored into small
composable functions so that alternative analyzers can be swapped in.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Iterable, Sequence

__all__ = [
    "DEFAULT_STOPWORDS",
    "normalize_keyword",
    "tokenize",
    "keyword_set",
    "vocabulary",
]

#: A compact English stopword list.  Extracted keyword sets describe
#: facilities ("wifi", "pool") and sentiment ("clean", "comfortable");
#: function words carry no ranking signal under the Jaccard model and
#: only inflate the union in the denominator of Eqn. (2).
DEFAULT_STOPWORDS: FrozenSet[str] = frozenset(
    """
    a an and are as at be but by for from has have if in into is it its
    no not of on or such that the their then there these they this to
    was were will with very really quite so too
    """.split()
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")


def normalize_keyword(raw: str) -> str:
    """Normalise a single keyword: lowercase and strip non-alphanumerics.

    Returns the empty string when nothing survives, which callers treat
    as "drop this token".
    """
    lowered = raw.strip().lower()
    match = _TOKEN_PATTERN.search(lowered)
    if match is None:
        return ""
    return match.group(0).replace("'", "")


def tokenize(text: str, *, stopwords: FrozenSet[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Split free text into normalised tokens, preserving order.

    Duplicates are preserved here; use :func:`keyword_set` when the
    Jaccard keyword-set view is wanted.
    """
    tokens: list[str] = []
    for match in _TOKEN_PATTERN.finditer(text.lower()):
        token = match.group(0).replace("'", "")
        if token and token not in stopwords:
            tokens.append(token)
    return tokens


def keyword_set(
    text_or_tokens: str | Iterable[str],
    *,
    stopwords: FrozenSet[str] = DEFAULT_STOPWORDS,
) -> frozenset[str]:
    """Return the normalised keyword set of a document.

    Accepts either raw text or an iterable of tokens; both are run
    through :func:`normalize_keyword` so that callers can mix sources
    (e.g. a facility list plus comment text) without worrying about
    case or punctuation.
    """
    if isinstance(text_or_tokens, str):
        return frozenset(tokenize(text_or_tokens, stopwords=stopwords))
    keywords = set()
    for raw in text_or_tokens:
        token = normalize_keyword(raw)
        if token and token not in stopwords:
            keywords.add(token)
    return frozenset(keywords)


def vocabulary(documents: Iterable[Iterable[str]]) -> frozenset[str]:
    """Return the union vocabulary over a corpus of keyword sets."""
    vocab: set[str] = set()
    for document in documents:
        vocab.update(document)
    return frozenset(vocab)


def document_frequencies(documents: Sequence[Iterable[str]]) -> dict[str, int]:
    """Return keyword → number of documents containing it.

    Needed by the query workloads' frequency-biased keyword draws and by
    the dataset generators to verify the Zipf shape of synthetic
    vocabularies.
    """
    frequencies: dict[str, int] = {}
    for document in documents:
        for token in set(document):
            frequencies[token] = frequencies.get(token, 0) + 1
    return frequencies
