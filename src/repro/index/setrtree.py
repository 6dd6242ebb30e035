"""The SetR-tree: an R-tree whose nodes carry keyword set summaries.

Section 3.3 of the paper: "Since the IR-tree indexing technique used in
that algorithm does not support Jaccard similarity, we employ instead an
indexing technique called the SetR-tree [6] ... This technique can
estimate the bound on the ranking score for all objects that are indexed
by a particular tree node.  Basically, each SetR-tree node has pointers
to the intersection set and the union set of the keyword sets of all
objects indexed by the node."

Given a node whose objects' keyword sets all lie between the node's
intersection set ``I`` and union set ``U`` (``I ⊆ o.doc ⊆ U``), the text
model's interval bounds (:class:`repro.text.SetSimilarityModel`) bracket
every object's ``TSim``; combined with MINDIST/MAXDIST on the node MBR
this brackets every object's Eqn. (1) score.  These bounds drive:

* best-first top-k search (:mod:`repro.core.topk`),
* the explanation generator's counting queries ("how many objects are
  closer / textually more similar than the missing object?"),
* the why-not modules' rank reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Sequence

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeEntry, RTreeNode
from repro.text.similarity import JACCARD, SetSimilarityModel

__all__ = ["SetSummary", "SetRTree"]


@dataclass(frozen=True, slots=True)
class SetSummary:
    """Per-node keyword summary of the SetR-tree.

    ``intersection`` and ``union`` are the paper's two per-node sets;
    ``count`` (number of objects below the node) and the doc-length range
    are cheap companions used by counting queries and by the why-not rank
    bounds.
    """

    intersection: frozenset[str]
    union: frozenset[str]
    count: int
    min_doc_len: int
    max_doc_len: int


def _summary_of_docs(docs: Sequence[frozenset[str]]) -> SetSummary:
    intersection = frozenset(docs[0])
    union: frozenset[str] = frozenset()
    for doc in docs:
        intersection &= doc
        union |= doc
    lengths = [len(doc) for doc in docs]
    return SetSummary(
        intersection=intersection,
        union=union,
        count=len(docs),
        min_doc_len=min(lengths),
        max_doc_len=max(lengths),
    )


def _merge_summaries(summaries: Sequence[SetSummary]) -> SetSummary:
    intersection = frozenset(summaries[0].intersection)
    union: frozenset[str] = frozenset()
    for summary in summaries:
        intersection &= summary.intersection
        union |= summary.union
    return SetSummary(
        intersection=intersection,
        union=union,
        count=sum(summary.count for summary in summaries),
        min_doc_len=min(summary.min_doc_len for summary in summaries),
        max_doc_len=max(summary.max_doc_len for summary in summaries),
    )


class SetRTree(RTree[SpatialObject]):
    """R-tree over spatial objects with intersection/union set summaries.

    Parameters
    ----------
    database:
        The database the indexed objects come from; provides the distance
        normaliser so node score bounds agree with Eqn. (1)'s normalised
        ``SDist``.
    text_model:
        A set-based similarity model (Jaccard by default, Eqn. 2).
    """

    def __init__(
        self,
        *,
        database: SpatialDatabase,
        text_model: SetSimilarityModel = JACCARD,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
    ) -> None:
        super().__init__(max_entries=max_entries, min_entries=min_entries)
        self._database = database
        self._text_model = text_model

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: SpatialDatabase,
        *,
        text_model: SetSimilarityModel = JACCARD,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
    ) -> "SetRTree":
        """Bulk-load a SetR-tree over every object of ``database``."""
        return cls.bulk_load(
            database.objects,
            key=lambda obj: obj.loc,
            max_entries=max_entries,
            min_entries=min_entries,
            database=database,
            text_model=text_model,
        )

    @property
    def database(self) -> SpatialDatabase:
        return self._database

    @property
    def text_model(self) -> SetSimilarityModel:
        return self._text_model

    # ------------------------------------------------------------------
    # Summary maintenance (RTree hooks)
    # ------------------------------------------------------------------
    def _summarise_leaf(
        self, entries: Sequence[RTreeEntry[SpatialObject]]
    ) -> SetSummary | None:
        if not entries:
            return None
        return _summary_of_docs([entry.item.doc for entry in entries])

    def _summarise_inner(
        self, children: Sequence[RTreeNode[SpatialObject]]
    ) -> SetSummary | None:
        summaries = [child.summary for child in children if child.summary is not None]
        if not summaries:
            return None
        return _merge_summaries(summaries)

    # ------------------------------------------------------------------
    # Score bounds (the SetR-tree's raison d'être)
    # ------------------------------------------------------------------
    def tsim_upper_bound(
        self, node: RTreeNode[SpatialObject], query_doc: AbstractSet[str]
    ) -> float:
        """Upper bound of ``TSim(o, q)`` over objects under ``node``."""
        summary: SetSummary = node.summary
        return self._text_model.upper_bound(
            summary.intersection,
            summary.union,
            query_doc,
            min_doc_len=summary.min_doc_len,
            max_doc_len=summary.max_doc_len,
        )

    def tsim_lower_bound(
        self, node: RTreeNode[SpatialObject], query_doc: AbstractSet[str]
    ) -> float:
        """Lower bound of ``TSim(o, q)`` over objects under ``node``."""
        summary: SetSummary = node.summary
        return self._text_model.lower_bound(
            summary.intersection,
            summary.union,
            query_doc,
            min_doc_len=summary.min_doc_len,
            max_doc_len=summary.max_doc_len,
        )

    def score_upper_bound(
        self, node: RTreeNode[SpatialObject], query: SpatialKeywordQuery
    ) -> float:
        """Upper bound of ``ST(o, q)`` over objects under ``node``.

        ``ws·(1 − minSDist) + wt·TSim_ub`` — the bound best-first top-k
        search orders its priority queue by (Section 3.3).
        """
        assert node.rect is not None
        min_sdist = min(
            node.rect.min_distance_to_point(query.loc)
            / self._database.distance_normaliser,
            1.0,
        )
        return query.ws * (1.0 - min_sdist) + query.wt * self.tsim_upper_bound(
            node, query.doc
        )

    def score_lower_bound(
        self, node: RTreeNode[SpatialObject], query: SpatialKeywordQuery
    ) -> float:
        """Lower bound of ``ST(o, q)`` over objects under ``node``."""
        assert node.rect is not None
        max_sdist = min(
            node.rect.max_distance_to_point(query.loc)
            / self._database.distance_normaliser,
            1.0,
        )
        return query.ws * (1.0 - max_sdist) + query.wt * self.tsim_lower_bound(
            node, query.doc
        )

    # ------------------------------------------------------------------
    # Counting queries (explanation generator substrate)
    # ------------------------------------------------------------------
    def count_within_distance(self, center: Point, radius: float) -> int:
        """Count objects whose *raw* distance to ``center`` is < radius.

        Used by the explanation generator: "the reason can be that the
        missing object is too far away from the query location" is
        quantified by how many objects are strictly closer.
        """
        if self._root.rect is None or radius <= 0.0:
            return 0
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            assert node.rect is not None
            if node.rect.min_distance_to_point(center) >= radius:
                continue
            if node.rect.max_distance_to_point(center) < radius:
                summary: SetSummary = node.summary
                count += summary.count
                continue
            if node.is_leaf:
                count += sum(
                    1
                    for entry in node.entries
                    if entry.item.loc.distance_to(center) < radius
                )
            else:
                stack.extend(node.children)
        return count

    def count_more_similar(
        self, query_doc: AbstractSet[str], threshold: float
    ) -> int:
        """Count objects with ``TSim(o, q) > threshold``.

        Pure text counting query answered with the node set bounds: a
        node whose upper bound is ≤ threshold is skipped wholesale, one
        whose lower bound exceeds it is counted wholesale.
        """
        if self._root.rect is None:
            return 0
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            upper = self.tsim_upper_bound(node, query_doc)
            if upper <= threshold:
                continue
            lower = self.tsim_lower_bound(node, query_doc)
            summary: SetSummary = node.summary
            if lower > threshold:
                count += summary.count
                continue
            if node.is_leaf:
                count += sum(
                    1
                    for entry in node.entries
                    if self._text_model.similarity(entry.item.doc, query_doc)
                    > threshold
                )
            else:
                stack.extend(node.children)
        return count
