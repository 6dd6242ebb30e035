"""Spatial keyword top-k query engines (Definition 1).

Section 3.3 of the paper: "To process a spatial keyword top-k query, we
maintain a priority queue Q that is initialized with the SetR-tree root
node.  In each iteration of query processing, we pop up the first
element in Q and report it as a result if it is an object; otherwise, we
unfold it and put its children into Q.  The process continues until k
objects are retrieved."

:class:`BestFirstTopK` implements exactly that loop against any index
exposing ``root`` / node structure and a ``score_upper_bound(node, q)``
method (the SetR-tree for Jaccard, the IR-tree for cosine).
:class:`BruteForceTopK` is the O(n log n) reference oracle.  Both are
library references; what :class:`~repro.service.api.YaskEngine` serves
is :class:`KernelTopK`, one indexed scan of the scorer's columnar
kernel (the scan the sharded scatter runs per shard).

All three produce the same deterministic total order — score
descending, then object id ascending — which the priority queue enforces
by expanding nodes *before* emitting equal-priority objects: an object
leaves the queue only when no unexpanded node could still contain a
better-or-tied-with-smaller-id competitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Protocol, runtime_checkable

from repro.core.objects import SpatialObject
from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.index.rtree import RTreeNode

__all__ = [
    "SpatioTextualIndex",
    "TopKEngine",
    "BruteForceTopK",
    "BestFirstTopK",
    "KernelTopK",
    "SearchStats",
]


@runtime_checkable
class SpatioTextualIndex(Protocol):
    """What an index must provide to drive best-first top-k search."""

    @property
    def root(self) -> RTreeNode[SpatialObject]: ...

    def score_upper_bound(
        self, node: RTreeNode[SpatialObject], query: SpatialKeywordQuery
    ) -> float: ...

    def __len__(self) -> int: ...


@runtime_checkable
class TopKEngine(Protocol):
    """Common engine interface used by the service layer and benchmarks."""

    def search(self, query: SpatialKeywordQuery) -> QueryResult: ...


@dataclass(slots=True)
class SearchStats:
    """Work counters of the most recent best-first search.

    ``nodes_expanded`` against ``len(index)`` is the pruning-power metric
    the E3/E8 benchmarks report.
    """

    nodes_expanded: int = 0
    objects_scored: int = 0
    heap_pushes: int = 0

    def reset(self) -> None:
        self.nodes_expanded = 0
        self.objects_scored = 0
        self.heap_pushes = 0


class BruteForceTopK:
    """Reference engine: score every object, sort, take k (Definition 1)."""

    def __init__(self, scorer: Scorer) -> None:
        self._scorer = scorer

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    def search(self, query: SpatialKeywordQuery) -> QueryResult:
        return self._scorer.top_k(query)


class KernelTopK:
    """Top-k by one indexed scan of the scorer's kernel.

    :meth:`ScoringKernel.scan_top_k` scores only the rows that can
    still reach the running k-th score; the winners get their score
    decompositions from the set path (identical floats, per the kernel
    parity contract).
    """

    def __init__(self, scorer: Scorer) -> None:
        kernel = scorer.kernel
        if kernel is None:
            raise ValueError("KernelTopK needs a scorer with a columnar kernel")
        self._scorer = scorer
        self._kernel = kernel

    def search(self, query: SpatialKeywordQuery) -> QueryResult:
        kernel = self._kernel
        pairs = kernel.scan_top_k(query.k, *kernel._query_scalars(query))
        return self._scorer.result_from_pairs(query, pairs)


class BestFirstTopK:
    """Priority-queue search over a spatio-textual index (Section 3.3).

    Heap entries are ordered by ``(-bound, kind, tie)`` where ``kind`` is
    0 for nodes and 1 for objects: at equal priority a node is expanded
    before an object is reported, guaranteeing the emitted object order
    equals the brute-force (score desc, oid asc) total order.
    """

    def __init__(self, index: SpatioTextualIndex, scorer: Scorer) -> None:
        self._index = index
        self._scorer = scorer
        self.stats = SearchStats()

    @property
    def index(self) -> SpatioTextualIndex:
        return self._index

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    def search(self, query: SpatialKeywordQuery) -> QueryResult:
        self.stats.reset()
        root = self._index.root
        selected: list[SpatialObject] = []
        if root.rect is None:
            return self._scorer.result_from_objects(query, selected)

        # Leaf entries are scored one object at a time; a prepared
        # kernel query turns each into bitmask arithmetic (identical
        # floats, see repro.core.kernel) instead of frozenset ops.  The
        # kernel columns describe the scorer's database, so an index
        # entry is only scored columnar when it *is* that database's
        # object (identity, not just a shared oid).
        kernel = self._scorer.kernel
        prepared = kernel.prepare(query) if kernel is not None else None
        database = self._scorer.database

        counter = 0
        heap: list[tuple[float, int, int, object]] = []
        heappush(
            heap,
            (-self._index.score_upper_bound(root, query), 0, counter, root),
        )
        self.stats.heap_pushes += 1

        while heap and len(selected) < query.k:
            _, kind, _, payload = heappop(heap)
            if kind == 1:
                selected.append(payload)  # type: ignore[arg-type]
                continue
            node: RTreeNode[SpatialObject] = payload  # type: ignore[assignment]
            self.stats.nodes_expanded += 1
            if node.is_leaf:
                for entry in node.entries:
                    obj = entry.item
                    score = (
                        prepared.score_oid(obj.oid)
                        if prepared is not None and obj in database
                        else self._scorer.score(obj, query)
                    )
                    self.stats.objects_scored += 1
                    heappush(heap, (-score, 1, obj.oid, obj))
                    self.stats.heap_pushes += 1
            else:
                for child in node.children:
                    bound = self._index.score_upper_bound(child, query)
                    counter += 1
                    heappush(heap, (-bound, 0, counter, child))
                    self.stats.heap_pushes += 1

        if prepared is not None:
            prepared.flush_stats()
        return self._scorer.result_from_objects(query, selected)
