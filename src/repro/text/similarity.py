"""Textual similarity for spatial keyword ranking.

The paper adopts the Jaccard similarity model (Eqn. (2)) "without loss of
generality" (Section 2.1, footnote 1), and so does this reproduction:
:class:`JaccardSimilarity` is the one model the set path and the serving
engine's columnar kernel score.  It maps a (object keyword set, query
keyword set) pair into ``[0, 1]`` so that Eqn. (1) stays a convex
combination of two unit-range components.

It additionally exposes *interval bounds* given only partial
knowledge of an object's keyword set — namely that it is sandwiched
between a node's intersection set and union set.  This is exactly the
information a SetR-tree node carries (Section 3.3: "each SetR-tree node
has pointers to the intersection set and the union set of the keyword
sets of all objects indexed by the node") and is what makes best-first
top-k search and why-not rank bounding possible without touching the
objects below a node.
"""

from __future__ import annotations

from typing import AbstractSet

__all__ = ["JaccardSimilarity", "JACCARD"]

Keywords = AbstractSet[str]


class JaccardSimilarity:
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


#: Module-level singleton of the paper's model.
JACCARD = JaccardSimilarity()
