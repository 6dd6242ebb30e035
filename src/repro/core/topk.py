"""Spatial keyword top-k query engines (Definition 1).

:class:`BruteForceTopK` is the O(n log n) reference oracle; what
:class:`~repro.service.api.YaskEngine` serves is :class:`KernelTopK`,
one indexed scan of the scorer's columnar kernel (the scan the sharded
scatter runs per shard).  The paper's best-first search over the
SetR-tree (Section 3.3) is :class:`repro.paper.BestFirstTopK`.

All produce the same deterministic total order — score descending,
then object id ascending.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import Scorer

__all__ = ["TopKEngine", "BruteForceTopK", "KernelTopK"]


@runtime_checkable
class TopKEngine(Protocol):
    """Common engine interface used by the service layer and benchmarks."""

    def search(self, query: SpatialKeywordQuery) -> QueryResult: ...


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
    still reach the running k-th score, and returns the winners' score
    decompositions with them (identical floats to the set path, per the
    kernel parity contract).
    """

    def __init__(self, scorer: Scorer) -> None:
        kernel = scorer.kernel
        if kernel is None:
            raise ValueError("KernelTopK needs a scorer with a columnar kernel")
        self._scorer = scorer
        self._kernel = kernel

    def search(self, query: SpatialKeywordQuery) -> QueryResult:
        kernel = self._kernel
        rows = kernel.scan_top_k(query.k, *kernel._query_scalars(query))
        return self._scorer.result_from_scan(query, rows)
