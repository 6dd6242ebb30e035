"""Textual similarity models for spatial keyword ranking.

The paper adopts the Jaccard similarity model (Eqn. (2)) "without loss of
generality" and notes that "other textual similarity models can also be
supported" (Section 2.1, footnote 1).  This module implements:

* :class:`JaccardSimilarity` — the paper's model (Eqn. 2), the one the
  serving engine's columnar kernel scores,
* :class:`CosineTfIdfSimilarity` — the IR model used by the Cong et al.
  top-k algorithm [4] which YASK builds on; it requires corpus statistics
  and is served by the IR-tree rather than the SetR-tree.

Every model maps a (object keyword set, query keyword set) pair into
``[0, 1]`` so that Eqn. (1) stays a convex combination of two unit-range
components.

Jaccard additionally exposes *interval bounds* given only partial
knowledge of an object's keyword set — namely that it is sandwiched
between a node's intersection set and union set.  This is exactly the
information a SetR-tree node carries (Section 3.3: "each SetR-tree node
has pointers to the intersection set and the union set of the keyword
sets of all objects indexed by the node") and is what makes best-first
top-k search and why-not rank bounding possible without touching the
objects below a node.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import AbstractSet, Mapping

__all__ = [
    "TextSimilarityModel",
    "JaccardSimilarity",
    "CosineTfIdfSimilarity",
    "JACCARD",
]

Keywords = AbstractSet[str]


class TextSimilarityModel(ABC):
    """Interface of every textual relevance model.

    Implementations must be pure functions of their arguments (plus any
    frozen corpus statistics captured at construction) so engines may
    cache scores freely.
    """

    #: Short identifier used in benchmark output and the JSON protocol.
    name: str = "abstract"

    @abstractmethod
    def similarity(self, object_keywords: Keywords, query_keywords: Keywords) -> float:
        """Return the textual similarity ``TSim(o, q)`` in ``[0, 1]``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class JaccardSimilarity(TextSimilarityModel):
    """Jaccard similarity — Eqn. (2) of the paper.

    ``TSim(o, q) = |o.doc ∩ q.doc| / |o.doc ∪ q.doc|``

    The empty-by-empty corner case (both sets empty) is defined as 0,
    matching the intuition that an object with no description carries no
    textual relevance signal.

    For SetR-tree style indexing, given that ``intersection ⊆ o.doc ⊆
    union`` for every object ``o`` under a node, :meth:`upper_bound` /
    :meth:`lower_bound` bracket ``similarity(o.doc, q.doc)``.  The
    optional ``min_doc_len``/``max_doc_len`` bound ``|o.doc|`` over the
    group (the SetR-tree stores them alongside the two sets) and tighten
    the bounds; both stay valid when they are None.
    """

    name = "jaccard"

    def similarity(self, object_keywords: Keywords, query_keywords: Keywords) -> float:
        if not object_keywords and not query_keywords:
            return 0.0
        shared = len(object_keywords & query_keywords)
        if shared == 0:
            return 0.0
        return shared / (len(object_keywords) + len(query_keywords) - shared)

    def upper_bound(
        self,
        intersection: Keywords,
        union: Keywords,
        query_keywords: Keywords,
        *,
        min_doc_len: int | None = None,
        max_doc_len: int | None = None,
    ) -> float:
        """Maximise the numerator and minimise the denominator independently.

        For any ``o.doc`` with ``intersection ⊆ o.doc ⊆ union``:

        * ``|o.doc ∩ q.doc| ≤ x := |union ∩ q.doc|``
        * ``|o.doc ∪ q.doc| ≥ max(|intersection ∪ q.doc|, x)``, and with a
          document-length floor also
          ``|o.doc ∪ q.doc| = |o.doc| + |q.doc| − |o.doc ∩ q.doc|
          ≥ min_doc_len + |q.doc| − x`` (Jaccard is increasing in the
          overlap for a fixed document size, so the overlap maximiser
          ``x`` also minimises the denominator term).

        The bound is valid for every member and exact for singleton leaf
        groups (intersection == union).
        """
        numerator = len(union & query_keywords)
        if numerator == 0:
            return 0.0
        denominator = max(len(intersection | query_keywords), numerator)
        if min_doc_len is not None:
            denominator = max(
                denominator, min_doc_len + len(query_keywords) - numerator
            )
        return min(1.0, numerator / denominator)

    def lower_bound(
        self,
        intersection: Keywords,
        union: Keywords,
        query_keywords: Keywords,
        *,
        min_doc_len: int | None = None,
        max_doc_len: int | None = None,
    ) -> float:
        """Minimise the numerator and maximise the denominator independently.

        With a document-length ceiling the denominator is additionally
        capped by ``max_doc_len + |q.doc| − |intersection ∩ q.doc|``.
        """
        numerator = len(intersection & query_keywords)
        if numerator == 0:
            return 0.0
        denominator = len(union | query_keywords)
        if max_doc_len is not None:
            denominator = min(
                denominator, max_doc_len + len(query_keywords) - numerator
            )
        return numerator / max(denominator, numerator)


class CosineTfIdfSimilarity(TextSimilarityModel):
    """Cosine similarity over idf-weighted keyword vectors.

    This is the IR model of the Cong et al. algorithm [4] that YASK's
    top-k engine descends from.  Because the paper's objects are keyword
    *sets*, term frequency is binary and the model reduces to idf-weighted
    set cosine:

    ``TSim(o, q) = Σ_{t ∈ o∩q} idf(t)² / (‖o‖ ‖q‖)``

    with ``idf(t) = ln(1 + N / df(t))`` and ``‖d‖ = sqrt(Σ_{t∈d} idf(t)²)``.

    Corpus statistics (document frequencies and corpus size) are frozen at
    construction; unseen keywords receive the maximum idf, i.e. they are
    treated as appearing in a single virtual document.
    """

    name = "cosine-tfidf"

    def __init__(self, document_frequencies: Mapping[str, int], corpus_size: int) -> None:
        if corpus_size <= 0:
            raise ValueError("corpus_size must be positive")
        for keyword, frequency in document_frequencies.items():
            if frequency <= 0:
                raise ValueError(f"non-positive document frequency for {keyword!r}")
        self._df = dict(document_frequencies)
        self._n = corpus_size

    def idf(self, keyword: str) -> float:
        """Return the inverse document frequency weight of ``keyword``."""
        frequency = self._df.get(keyword, 1)
        return math.log(1.0 + self._n / frequency)

    def _norm(self, keywords: Keywords) -> float:
        return math.sqrt(sum(self.idf(keyword) ** 2 for keyword in keywords))

    def similarity(self, object_keywords: Keywords, query_keywords: Keywords) -> float:
        shared = object_keywords & query_keywords
        if not shared:
            return 0.0
        dot = sum(self.idf(keyword) ** 2 for keyword in shared)
        norm_product = self._norm(object_keywords) * self._norm(query_keywords)
        if norm_product <= 0.0:
            return 0.0
        return min(1.0, dot / norm_product)

    def max_impact(self, keyword: str, min_doc_len: int = 1) -> float:
        """Upper bound of ``idf(t)·idf(t)/‖o‖`` contribution per keyword.

        Used by the IR-tree's per-node inverted lists: the contribution of
        keyword ``t`` to the (un-normalised by query) cosine score of any
        object containing it is at most ``idf(t)`` because
        ``‖o‖ ≥ idf(t)`` whenever ``t ∈ o``.
        """
        del min_doc_len  # binary tf: the bound is independent of length
        return self.idf(keyword)


#: Module-level singleton for the paper's default model.
JACCARD = JaccardSimilarity()
