"""Scatter-gather top-k over spatially partitioned shards.

:class:`ShardedEngine` implements the :class:`~repro.core.topk.TopKEngine`
protocol (``search(query) -> QueryResult``) over a
:class:`~repro.core.sharding.ShardRouter`, so it slots under the
executor tier exactly where ``BestFirstTopK`` does — the caches,
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

One loop issues the scans in *waves* against whichever scan backend
is configured.  Inline scans (the default) go one shard per wave, so
every scan tightens the floor for the next: with sub-millisecond
indexed scans that work elimination beats handing the same scans to a
thread pool (measured: ROADMAP item 3).  A thread pool or a process
worker pool, when asked for, instead scans the best-bound shard first
to establish the threshold and then fans every survivor out in one
wave; the prune test and the merge are the same code either way, and
every configuration is parity-tested.

Bit-for-bit parity with the unsharded oracle — same entries, same
scores/components, same tie order — is asserted by
``tests/properties/test_prop_sharding.py`` and the E12 benchmark.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from heapq import nsmallest
from itertools import chain
from typing import Sequence

from repro import faults
from repro.core.query import QueryResult, RankedObject, SpatialKeywordQuery
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
    max_workers:
        Scatter pool width.  ``None`` (default) and ``1`` select the
        inline, threshold-adaptive gather; a larger integer fans each
        wave over that many threads.  Results are identical either way
        — only the wall-clock/pruning trade-off differs.
    worker_pool:
        A :class:`~repro.service.procpool.ShardWorkerPool`.  When set,
        shard scans dispatch to its worker *processes* instead of the
        thread pool — same scatter shape (best-bound first, prune,
        fan survivors), same results bit for bit, but the kernel loops
        run outside the parent's GIL.  The thread path stays available
        as the parity oracle.
    """

    def __init__(
        self,
        router: ShardRouter,
        scorer: Scorer,
        *,
        max_workers: int | None = None,
        worker_pool=None,
    ) -> None:
        if scorer.database is not router.database:
            raise ValueError("router and scorer must share the same database")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._router = router
        self._scorer = scorer
        self._worker_pool = worker_pool
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="yask-shard"
            )
            if max_workers is not None
            and max_workers > 1
            and worker_pool is None
            else None
        )
        # The scan backend, ``scan(shards, query, k, floor) -> pieces``,
        # and whether it runs a wave's scans concurrently.
        self._fans = worker_pool is not None or self._pool is not None
        self._scan = (
            self._scan_workers
            if worker_pool is not None
            else self._scan_threads
            if self._pool is not None
            else self._scan_inline
        )

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

    @property
    def worker_pool(self):
        """The process worker pool, or ``None`` on the thread path."""
        return self._worker_pool

    def close(self) -> None:
        """Shut down the scatter pools (idempotent; the shards survive)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self._worker_pool is not None:
            self._worker_pool.close()

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

    def _scan_inline(self, shards, query, k, floor):
        return [self._scan_shard(shard, query, k, floor) for shard in shards]

    def _scan_threads(self, shards, query, k, floor):
        if len(shards) == 1:  # nothing to fan: stay on the calling thread
            return self._scan_inline(shards, query, k, floor)
        return self._pool.map(
            lambda shard: self._scan_shard(shard, query, k, floor), shards
        )

    def _scan_workers(self, shards, query, k, floor):
        """The worker processes run the same ``scan_top_k`` on query
        scalars the parent prepared against each shard's vocabulary."""
        return self._worker_pool.scan_many(
            [
                (shard, k, shard.kernel._query_scalars(query), floor)
                for shard in shards
            ]
        ).values()

    def search(self, query: SpatialKeywordQuery) -> QueryResult:
        """Exact top-k by scatter-gather with shard-bound skipping.

        Shards go out in *waves*, in descending bound order.  A wave is
        one shard when scans run inline or a deadline is in scope (each
        scan tightens the threshold for the next); otherwise the
        best-bound shard alone sets the threshold and every survivor of
        the prune goes out at once.

        Under an absorbing deadline scope
        (:func:`repro.faults.deadline_scope`) the gather degrades
        instead of hanging: shards past the deadline are skipped and
        failing shards are absorbed, each recorded on the scope's
        :class:`~repro.faults.Deadline` ledger so the serving tier can
        attach an honest ``degraded`` envelope to the partial result.
        Bound-pruned shards provably cannot contribute and count as
        answered — pruning is exactness, not degradation.
        """
        router = self._router
        stats = router.stats
        stats.bump("topk_searches")
        started = time.perf_counter()
        k = query.k

        bounds = router.score_upper_bounds(query)
        shards = router.shards
        pending = sorted(
            range(len(router)), key=bounds.__getitem__, reverse=True
        )
        best: list[tuple[float, int]] = []
        scanned = 0
        skipped = 0

        scope = faults.current_scope()
        deadline = scope[0] if scope is not None and not scope[1] else None
        fans = self._fans and deadline is None
        while pending:
            take = len(pending) if fans and scanned else 1
            # The running k-th score: what a later shard must reach.
            floor = -best[k - 1][0] if len(best) == k else None
            wave = []
            for index in pending[:take]:
                if floor is not None and bounds[index] < floor - SKIP_MARGIN:
                    skipped += 1
                    if deadline is not None:
                        deadline.note_answered()
                else:
                    wave.append(shards[index])
            del pending[:take]
            if not wave:
                continue
            if deadline is not None and deadline.expired():
                deadline.note_skipped(len(wave) + len(pending), "deadline")
                break
            try:
                # The fault sites trip in the *parent*, in visit order,
                # whichever tier scans: seeded plans and deadline
                # bookkeeping are process-transparent.
                for shard in wave:
                    faults.trip(f"shard.scan.{shard.shard_id}")
                best = nsmallest(
                    k, chain(best, *self._scan(wave, query, k, floor))
                )
            except Exception as exc:
                if deadline is None:
                    raise
                # Under a deadline a wave is exactly one shard.
                deadline.note_failed(f"shard {wave[0].shard_id}: {exc}")
                continue
            scanned += len(wave)
            if deadline is not None:
                deadline.note_answered(len(wave))

        scatter_done = time.perf_counter()
        entries = self._materialise(query, best)
        finished = time.perf_counter()
        stats.bump("topk_shards_scanned", scanned)
        stats.bump("topk_shards_skipped", skipped)
        stats.bump("topk_scatter_ms", (scatter_done - started) * 1000.0)
        stats.bump("topk_merge_ms", (finished - scatter_done) * 1000.0)
        return QueryResult(query, entries)

    def _materialise(
        self,
        query: SpatialKeywordQuery,
        merged: Sequence[tuple[float, int]],
    ) -> list[RankedObject]:
        """Attach score decompositions to the merged winners.

        ``Scorer.breakdown`` is the set-path oracle; its floats equal
        the kernel scan's by the PR-3 parity contract, so the assembled
        entries are bit-identical to the unsharded engine's.
        """
        database = self._scorer.database
        entries: list[RankedObject] = []
        for position, (_negscore, oid) in enumerate(merged, start=1):
            obj = database.get(oid)
            breakdown = self._scorer.breakdown(obj, query)
            entries.append(
                RankedObject(
                    obj=obj,
                    score=breakdown.score,
                    sdist=breakdown.sdist,
                    tsim=breakdown.tsim,
                    rank=position,
                )
            )
        return entries
