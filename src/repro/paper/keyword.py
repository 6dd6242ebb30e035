"""The keyword adaption's reference arms (Section 3.3 and [6]).

The served :class:`~repro.whynot.keyword.KeywordAdapter` ranks a capped
candidate with indexed scans of the kernel.  :class:`KcRTreeKeywordAdapter`
ranks it as the paper does: "traverse the KcR-tree starting from the
root ... we maintain its penalty upper and lower bounds according to the
ranking bounds derived from KcR-tree nodes", from Fig. 2's keyword-count
maps and the node MBRs.  :class:`ExhaustiveKeywordAdapter` scans the
whole database per candidate (the E5 baseline).  Both return the served
adapter's ranks, so its prunes and refined query.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable, Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import Scorer, outranks
from repro.index.kcrtree import KcRTree, KcSummary
from repro.index.rtree import RTreeNode
from repro.paper.context import ViewlessContext, set_path_scorer
from repro.whynot.context import WhyNotContext
from repro.whynot.keyword import AdaptionStats, KeywordAdapter

__all__ = ["ExhaustiveKeywordAdapter", "KcRTreeKeywordAdapter"]

#: Safety margin when comparing derived float bounds against exact scores.
_BOUND_MARGIN = 1e-9


class ExhaustiveKeywordAdapter(KeywordAdapter):
    """Keyword adaption with every candidate ranked by a full scan."""

    method = "exhaustive-scan"
    _checked = staticmethod(set_path_scorer)

    def _new_context(
        self, query: SpatialKeywordQuery, missing: Sequence[SpatialObject]
    ) -> WhyNotContext:
        return ViewlessContext(self._scorer, query, missing)

    def _ranker(  # type: ignore[override]
        self, query: SpatialKeywordQuery, context: WhyNotContext
    ) -> "_FullRanker":
        return _FullRanker(self._scorer, query)

    def _worst_rank_capped(  # type: ignore[override]
        self,
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        context: WhyNotContext,
        ranker: "_FullRanker",
        rank_cap: int | None,
        stats: AdaptionStats,
    ) -> int | None:
        """``R(M, q')`` for the candidate doc, or None when provably > cap."""
        ranker.set_candidate(candidate)
        worst = 0
        for obj in context.missing:
            rank = self._rank(query, candidate, obj, ranker, rank_cap, stats)
            if rank is None:
                return None
            worst = max(worst, rank)
        return worst

    def _rank(
        self,
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        missing_obj: SpatialObject,
        ranker: "_FullRanker",
        rank_cap: int | None,
        stats: AdaptionStats,
    ) -> int | None:
        """Exact rank of ``missing_obj`` by scoring the whole database."""
        return ranker.rank_by_scan(missing_obj, stats)


class KcRTreeKeywordAdapter(ExhaustiveKeywordAdapter):
    """Keyword adaption by the paper's KcR-tree bound and prune."""

    method = "kcr-bound-prune"

    def __init__(
        self,
        scorer: Scorer,
        index: KcRTree,
        *,
        max_edit_count: int | None = None,
        candidate_budget: int | None = None,
    ) -> None:
        """``index``: a :class:`KcRTree` over the scorer's database."""
        if index.database is not scorer.database:
            raise ValueError("index and scorer must share the same database")
        super().__init__(
            scorer, max_edit_count=max_edit_count, candidate_budget=candidate_budget
        )
        self._index = index

    @property
    def index(self) -> KcRTree:
        return self._index

    def _rank(
        self,
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        missing_obj: SpatialObject,
        ranker: "_FullRanker",
        rank_cap: int | None,
        stats: AdaptionStats,
    ) -> int | None:
        """Exact rank via KcR-tree descent, or None once provably ≥ cap.

        Nodes whose beater bounds coincide are credited without descent;
        leaves in the uncertain band are scored exactly, a leaf at a
        time.  ``beaters`` is a monotone lower bound of the final count
        throughout, so the cap check is sound at every step.
        """
        theta = ranker.score(missing_obj)
        beaters = 0
        stack: list[RTreeNode[SpatialObject]] = [self._index.root]
        while stack:
            node = stack.pop()
            if node.rect is None:
                continue
            lower, upper = self._node_beater_bounds(
                node, query, candidate, theta, ranker
            )
            if upper == 0:
                stats.nodes_resolved_by_bounds += 1
                continue
            if lower == upper:
                stats.nodes_resolved_by_bounds += 1
                beaters += lower
            elif node.is_leaf:
                scored, beating = ranker.leaf_beaters(node, theta, missing_obj)
                stats.objects_scored += scored
                beaters += beating
            else:
                stats.nodes_expanded += 1
                stack.extend(node.children)
            if rank_cap is not None and beaters + 1 > rank_cap:
                return None
        return beaters + 1

    def _node_beater_bounds(
        self,
        node: RTreeNode[SpatialObject],
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        theta: float,
        ranker: "_FullRanker",
    ) -> tuple[int, int]:
        """Bounds on how many objects under ``node`` outrank the missing object.

        Upper bound: an object can reach score ``θ`` only with
        ``TSim ≥ τ = (θ − ws·proxmax)/wt``; under Jaccard
        ``TSim(o) ≤ |o.doc ∩ S| / max(min_len, |S|)``, so a beater needs
        at least ``c = ⌈τ·max(min_len, |S|)⌉`` of the candidate keywords,
        and the keyword-count map caps how many objects can hold ``c``
        incidences (Fig. 2's payload at work).

        Lower bound: the ``Σ KC[t] − (|S|−1)·cnt`` objects guaranteed to
        contain *all* candidate keywords have ``TSim ≥ |S|/max_len``;
        when even the node's worst proximity pushes them past ``θ`` they
        all outrank the missing object.
        """
        summary: KcSummary = node.summary
        prox_min, prox_max = ranker.node_proximity_bounds(self._index, node)
        ws, wt = query.ws, query.wt

        # ---------------- upper bound ----------------
        best_overlap = summary.max_possible_overlap(candidate)
        candidate_len = len(candidate)
        # |o.doc ∪ S| ≥ max(min_len, |S|, |o.doc ∩ S|, min_len + |S| − |o.doc ∩ S|)
        # — the last term from |o∪S| = |o| + |S| − |o∩S| with |o| ≥ min_len.
        denom_floor = max(
            summary.min_doc_len,
            candidate_len,
            best_overlap,
            summary.min_doc_len + candidate_len - best_overlap,
        )
        tsim_node_ub = best_overlap / denom_floor if denom_floor else 0.0
        if ws * prox_max + wt * tsim_node_ub < theta - _BOUND_MARGIN:
            return (0, 0)
        tau = (theta - ws * prox_max) / wt if wt > 0.0 else 0.0
        if tau <= 0.0:
            upper = summary.cnt
        else:
            # Two valid necessary overlap conditions for TSim(o, S) ≥ τ;
            # take the stronger:
            #   x ≥ τ·max(min_len, |S|)          (from |o∪S| ≥ max(min_len,|S|))
            #   x ≥ τ·(min_len + |S|)/(1 + τ)    (from |o∪S| = |o|+|S|−x)
            required = math.ceil(
                max(
                    tau * max(summary.min_doc_len, candidate_len),
                    tau * (summary.min_doc_len + candidate_len) / (1.0 + tau),
                )
                - _BOUND_MARGIN
            )
            if required > best_overlap:
                upper = 0
            else:
                upper = summary.count_with_overlap_at_least(
                    candidate, max(required, 1)
                )
        if upper == 0:
            return (0, 0)

        # ---------------- lower bound ----------------
        lower = 0
        full = summary.count_containing_all(candidate)
        if full > 0 and summary.max_doc_len > 0:
            guaranteed_tsim = len(candidate) / max(
                summary.max_doc_len, len(candidate)
            )
            if ws * prox_min + wt * guaranteed_tsim > theta + _BOUND_MARGIN:
                lower = full
        return (min(lower, upper), upper)


class _FullRanker:
    """Candidate-set scoring for the tree descent and the full scan.

    With a columnar kernel on the scorer, the query's proximities are
    read once per refine run into a row-indexed column and each
    candidate is encoded to a bitmask ``DocContext``: ``TSim`` per
    object is then bit arithmetic, and a whole leaf or the whole
    database is counted in one kernel call.  On the set path Eqn. (1)
    is evaluated per object.  Both paths produce identical floats.
    """

    __slots__ = (
        "_scorer", "_query", "_ws", "_wt", "_loc", "_kernel", "_prox",
        "_candidate", "_ctx", "_leaf_rows", "_node_bounds",
    )

    def __init__(self, scorer: Scorer, query: SpatialKeywordQuery) -> None:
        self._scorer = scorer
        self._query = query
        self._ws = query.ws
        self._wt = query.wt
        self._loc = query.loc
        self._kernel = scorer.kernel
        self._prox = None if self._kernel is None else self._kernel.proximities(query)
        #: The query under the bound candidate keyword set.
        self._candidate = query
        self._ctx = None
        #: Per-refinement memos keyed by ``id(node)``: a leaf's kernel
        #: rows, a node's (min, max) proximity.
        self._leaf_rows: dict[int, list[int]] = {}
        self._node_bounds: dict[int, tuple[float, float]] = {}

    def set_candidate(self, candidate: AbstractSet[str]) -> None:
        """Bind the candidate keyword set subsequent scores are under."""
        self._candidate = self._query.with_doc(candidate)
        if self._kernel is not None:
            self._ctx = self._kernel.doc_context(candidate)

    def score(self, obj: SpatialObject) -> float:
        """``ST(o, q')`` under the bound candidate keyword set."""
        if self._ctx is not None:
            row = self._kernel.row_of(obj.oid)
            return self._ws * self._prox[row] + self._wt * self._ctx.tsim_row(row)
        return self._scorer.score(obj, self._candidate)

    def node_proximity_bounds(
        self, index: KcRTree, node: RTreeNode[SpatialObject]
    ) -> tuple[float, float]:
        """``index.proximity_bounds(node, q.loc)``, shared by every
        candidate and missing object of the refinement."""
        bounds = self._node_bounds.get(id(node))
        if bounds is None:
            bounds = self._node_bounds[id(node)] = index.proximity_bounds(
                node, self._loc
            )
        return bounds

    def leaf_beaters(
        self,
        leaf: RTreeNode[SpatialObject],
        theta: float,
        missing_obj: SpatialObject,
    ) -> tuple[int, int]:
        """``(objects scored, beaters of (theta, missing_obj))`` in ``leaf``."""
        if self._ctx is None:
            others = [
                entry.item
                for entry in leaf.entries
                if entry.item.oid != missing_obj.oid
            ]
            return len(others), self._count_beaters(others, theta, missing_obj.oid)
        rows = self._leaf_rows.get(id(leaf))
        if rows is None:
            row_of = self._kernel.row_of
            rows = self._leaf_rows[id(leaf)] = [
                row_of(entry.item.oid) for entry in leaf.entries
            ]
        return (
            len(rows) - rows.count(self._kernel.row_of(missing_obj.oid)),
            self._ctx.count_beaters(
                rows, self._ws, self._wt, self._prox, theta, missing_obj.oid
            ),
        )

    def rank_by_scan(
        self, missing_obj: SpatialObject, stats: AdaptionStats
    ) -> int:
        """Exact rank of ``missing_obj`` by scoring the whole database."""
        stats.objects_scored += len(self._scorer.database) - 1
        if self._ctx is not None:
            return self._ctx.rank_scan(
                self._ws, self._wt, self._prox, missing_obj.oid
            )
        return 1 + self._count_beaters(
            self._scorer.database, self.score(missing_obj), missing_obj.oid
        )

    def _count_beaters(
        self, objects: Iterable[SpatialObject], theta: float, missing_oid: int
    ) -> int:
        """The set path's (score desc, oid asc) beater count."""
        beaters = 0
        for other in objects:
            if other.oid == missing_oid:
                continue
            if outranks(self.score(other), other.oid, theta, missing_oid):
                beaters += 1
        return beaters
