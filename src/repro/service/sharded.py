"""Scatter-gather top-k over spatially partitioned shards.

:class:`ShardedEngine` implements the :class:`~repro.core.topk.TopKEngine`
protocol (``search(query) -> QueryResult``) over a
:class:`~repro.core.sharding.ShardRouter`, so it slots under the
executor tier exactly where ``KernelTopK`` does — the caches,
sessions and transports are unchanged.

The gather is *bound-ordered and threshold-adaptive*:

1. Every shard's static score upper bound is computed (MBR MINDIST +
   keyword-union text bound, see :mod:`repro.core.sharding`), and
   shards are visited in descending bound order — the most promising
   shard first.
2. Each visited shard answers from its kernel's scan index
   (:meth:`ScoringKernel.scan_top_k`), which scores only the rows that
   can still win; its candidates merge into the running global top-k
   under the oracle's ``(score desc, oid asc)`` order.
3. Once ``k`` candidates are held, the current k-th score travels with
   every later scan as its inclusive ``floor`` (a row tying it still
   competes on oid), so a far shard costs a few bisects and returns
   nothing; and any remaining shard whose upper bound is strictly
   below it (minus the module's defensive ``hypot`` margin) is
   **skipped entirely** — it provably cannot place an object in the
   result, even by tie-break, which requires score equality.

The shards are scanned *inline*, one after another on the calling
thread, and that is the design, not a fallback: every scan tightens
the floor for the next one, which no fan-out can, and an indexed scan
is sub-millisecond, about what handing it to another thread or
process costs (measured: docs/BENCHMARKS.md, "Default scatter width"
and "Inline vs one worker process per shard").

Bit-for-bit parity with the unsharded oracle — same entries, same
scores/components, same tie order — is asserted by
``tests/properties/test_prop_sharding.py`` and the E12 benchmark.
"""

from __future__ import annotations

import time
from heapq import nsmallest
from itertools import chain

from repro import faults
from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.core.scanindex import SKIP_MARGIN
from repro.core.sharding import Shard, ShardRouter

__all__ = ["ShardedEngine"]


class ShardedEngine:
    """Scatter-gather spatial keyword top-k over a shard router.

    Parameters
    ----------
    router:
        The shard router (owns the shards and the scatter statistics).
    scorer:
        The engine's scorer — used to materialise the winning entries'
        score decompositions (identical floats to the scan, per the
        kernel parity contract).
    """

    def __init__(self, router: ShardRouter, scorer: Scorer) -> None:
        if scorer.database is not router.database:
            raise ValueError("router and scorer must share the same database")
        self._router = router
        self._scorer = scorer

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    @property
    def stats(self):
        """The router's :class:`~repro.core.sharding.ShardStats`."""
        return self._router.stats

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @staticmethod
    def _scan_shard(
        shard: Shard,
        query: SpatialKeywordQuery,
        k: int,
        floor: float | None = None,
    ) -> list[tuple[float, int]]:
        """The shard's best ``k`` candidates scoring at least ``floor``,
        as ``(−score, oid)`` pairs.

        ``(−score, oid)`` ascending is exactly the oracle's
        ``(score desc, oid asc)`` order, so candidate lists from
        different shards merge with plain heap selection.
        """
        kernel = shard.kernel
        return kernel.scan_top_k(k, *kernel._query_scalars(query), floor)

    def search(self, query: SpatialKeywordQuery) -> QueryResult:
        """Exact top-k by scatter-gather with shard-bound skipping.

        One loop over the shards in descending bound order: scan, merge,
        raise the floor.  Bounds descend and the floor only rises, so
        the first shard the floor prunes ends the loop — every later
        one is pruned with it.

        Under an absorbing deadline scope
        (:func:`repro.faults.deadline_scope`) the gather degrades
        instead of hanging: shards past the deadline are skipped and
        failing shards are absorbed, each recorded on the scope's
        :class:`~repro.faults.Deadline` ledger so the serving tier can
        attach an honest ``degraded`` envelope to the partial result.
        Bound-pruned shards provably cannot contribute and count as
        answered, before the deadline or after it — pruning is
        exactness, not degradation.
        """
        router = self._router
        stats = router.stats
        stats.bump("topk_searches")
        started = time.perf_counter()
        k = query.k

        bounds = router.score_upper_bounds(query)
        shards = router.shards
        order = sorted(range(len(shards)), key=bounds.__getitem__, reverse=True)
        best: list[tuple[float, int]] = []
        # The running k-th score: what a later shard must reach.
        floor: float | None = None
        scanned = 0
        skipped = 0

        scope = faults.current_scope()
        deadline = scope[0] if scope is not None and not scope[1] else None
        for position, index in enumerate(order):
            if floor is not None and bounds[index] < floor - SKIP_MARGIN:
                skipped = len(order) - position
                if deadline is not None:
                    deadline.note_answered(skipped)
                break
            if deadline is not None and deadline.expired():
                # Could still have contributed; keep walking so the
                # pruned tail is told apart from it.
                deadline.note_skipped(1, "deadline")
                continue
            shard = shards[index]
            try:
                faults.trip(f"shard.scan.{shard.shard_id}")
                best = nsmallest(
                    k, chain(best, self._scan_shard(shard, query, k, floor))
                )
            except Exception as exc:
                if deadline is None:
                    raise
                deadline.note_failed(f"shard {shard.shard_id}: {exc}")
                continue
            scanned += 1
            if deadline is not None:
                deadline.note_answered()
            if len(best) == k:
                floor = -best[k - 1][0]

        scatter_done = time.perf_counter()
        result = self._scorer.result_from_pairs(query, best)
        finished = time.perf_counter()
        stats.bump("topk_shards_scanned", scanned)
        stats.bump("topk_shards_skipped", skipped)
        stats.bump("topk_scatter_ms", (scatter_done - started) * 1000.0)
        stats.bump("topk_merge_ms", (finished - scatter_done) * 1000.0)
        return result
