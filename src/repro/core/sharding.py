"""Spatially partitioned databases: shards, routing and shard bounds.

The ROADMAP's "sharding" direction: the scatter-gather top-k of
:class:`repro.service.sharded.ShardedEngine` runs one indexed scan per
shard and skips every shard whose score upper bound cannot reach the
running k-th score.  The why-not modules never scatter: they rank in
dual space on the engine's one global
:class:`~repro.core.kernel.ScoringKernel`, so shards exist for top-k
alone.

This module provides

* :func:`grid_partition` / :func:`round_robin_partition` — disjoint
  covers of a database.  The grid partitioner splits the data into
  quantile tiles (near-equal populations, spatially coherent — the
  QDR-Tree-style locality clustering of PAPERS.md); round-robin is the
  spatially incoherent ablation.
* :class:`Shard` — one partition: a
  :class:`~repro.core.kernel.ScoringKernel` over its members' rows of
  the parent database (same dataspace and vocabulary, so every float
  and bit is the unsharded engine's) and the summaries the pruning
  bounds need (objects MBR, keyword-union bitmask, doc-length range).
* :class:`ShardRouter` — builds and owns the shards, routes mutation
  batches to them, computes per-query shard score upper bounds, and
  counts scatter/skip work in :class:`ShardStats` (surfaced through
  ``GET /api/stats``).

Why pruning, not parallelism
----------------------------

:class:`repro.service.sharded.ShardedEngine` scans its shards inline,
one after another; nothing here runs in parallel.  What shards buy is
*work elimination*: with spatially coherent shards, a query's winners
concentrate in the shards near it, and a shard whose score upper bound
falls below the current threshold contributes zero scanned rows.  A
single-shard router degenerates to exactly the unsharded pass, which
is what the E12 baseline measures.

Exactness contract
------------------

Skipping is an optimisation, never a semantics change.  A shard is
skipped only when its *score upper bound* is strictly below the target
score, so no object in it can rank above the target — not even via the
``(score desc, oid asc)`` tie-break, which needs score equality.  The
bounds are static (:meth:`Shard.proximity_upper_bound` +
:meth:`Shard.tsim_upper_bound`): MBR MINDIST for the spatial term and a
keyword-union/doc-length bound for the text term.  The text bound is a
single correctly-rounded integer division, hence exactly monotone; the
MINDIST arithmetic is monotone too, but ``math.hypot`` is only
guaranteed faithful, so skips retain a defensive ``1e-12`` margin
(:data:`repro.core.scanindex.SKIP_MARGIN`).

``tests/properties/test_prop_sharding.py`` asserts bit-for-bit parity
of the scatter-gather top-k — and of whole why-not answers — against
the unsharded oracle across random databases, partitioners and shard
counts.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from dataclasses import dataclass

from repro import concurrency
from repro.core.geometry import Rect
from repro.core.kernel import ScoringKernel
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scanindex import tsim_upper_bound

__all__ = [
    "PARTITIONERS",
    "Shard",
    "ShardRouter",
    "ShardStats",
    "grid_partition",
    "round_robin_partition",
]


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
def grid_partition(database: SpatialDatabase, shards: int) -> list[list[int]]:
    """Quantile-tile partition: ``cols × rows`` tiles of near-equal counts.

    The shard count is factored as ``cols · rows`` with ``cols`` the
    largest divisor not exceeding ``√shards`` (4 → 2×2, 6 → 2×3, a prime
    count → 1×N stripes).  Objects are split into ``cols`` x-quantile
    slices, each slice into ``rows`` y-quantile tiles — population-
    balanced regardless of the spatial distribution, and spatially
    coherent (each tile's MBR hugs its objects), which is what gives
    the pruning bounds their power.

    Returns per-shard lists of database row indices, ascending within
    each shard; every row appears in exactly one shard.
    """
    n = len(database)
    shards = _validated_shard_count(shards, n)
    cols = 1
    for divisor in range(1, int(math.isqrt(shards)) + 1):
        if shards % divisor == 0:
            cols = divisor
    rows = shards // cols
    objects = database.objects
    by_x = sorted(
        range(n), key=lambda row: (objects[row].loc.x, objects[row].loc.y, row)
    )
    assignments: list[list[int]] = []
    for slice_rows in _even_chunks(by_x, cols):
        by_y = sorted(
            slice_rows,
            key=lambda row: (objects[row].loc.y, objects[row].loc.x, row),
        )
        for tile in _even_chunks(by_y, rows):
            assignments.append(sorted(tile))
    return assignments


def round_robin_partition(
    database: SpatialDatabase, shards: int
) -> list[list[int]]:
    """Deal rows ``0, 1, 2, …`` across shards in turn.

    The spatially *incoherent* ablation: every shard's MBR spans the
    whole data extent, so the pruning bounds never fire and
    scatter-gather degenerates to a full scan split N ways — the
    benchmark uses it to show the speedup comes from spatial locality,
    not from partitioning per se.
    """
    n = len(database)
    shards = _validated_shard_count(shards, n)
    return [list(range(start, n, shards)) for start in range(shards)]


def _validated_shard_count(shards: int, n: int) -> int:
    if shards < 1:
        raise ValueError(f"shard count must be at least 1, got {shards}")
    # Never more shards than objects (each shard owns at least one
    # row); callers asking for more get the maximum.
    return min(shards, n)


def _even_chunks(items: Sequence[int], parts: int) -> Iterable[Sequence[int]]:
    """Split ``items`` into ``parts`` contiguous chunks, sizes within 1."""
    base, extra = divmod(len(items), parts)
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        yield items[start : start + size]
        start += size


#: Named partition strategies (the CLI/engine ``partitioner=`` values).
PARTITIONERS: dict[str, Callable[[SpatialDatabase, int], list[list[int]]]] = {
    "grid": grid_partition,
    "round-robin": round_robin_partition,
}


# ----------------------------------------------------------------------
# Shard-level statistics
# ----------------------------------------------------------------------
class ShardStats:
    """Scatter/skip/merge work counters of one router.

    Mirrors :class:`~repro.core.kernel.KernelStats`' locking discipline:
    one router is shared by every executor worker thread, so updates go
    through :meth:`bump` under a lock.  The ``*_ms`` fields accumulate
    wall-clock milliseconds (scatter = per-shard scans, merge = the
    gather/materialise step); the ``topk_shards_*`` pair records how
    many shard scans the pruning bounds eliminated.
    """

    _FIELDS = (
        "topk_searches",
        "topk_shards_scanned",
        "topk_shards_skipped",
        "topk_scatter_ms",
        "topk_merge_ms",
    )

    __slots__ = ("_lock",) + _FIELDS

    def __init__(self) -> None:
        self._lock = concurrency.ordered_lock("shards.stats", concurrency.LEVEL_LEAF)
        for field in self._FIELDS:
            setattr(self, field, 0.0 if field.endswith("_ms") else 0)

    def bump(self, field: str, amount: float | int = 1) -> None:
        """Atomically add ``amount`` to one counter."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def reset(self) -> None:
        with self._lock:
            for field in self._FIELDS:
                setattr(self, field, 0.0 if field.endswith("_ms") else 0)

    def to_dict(self) -> dict[str, float | int]:
        with self._lock:
            return {field: getattr(self, field) for field in self._FIELDS}


# ----------------------------------------------------------------------
# Shards and the router
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _ShardChange:
    """A shard-local slice of an applied batch (kernel duck type)."""

    removed_oids: frozenset[int]
    appended: tuple[SpatialObject, ...]


class Shard:
    """One disjoint partition of the database, self-sufficient for scans.

    Owns a :class:`ScoringKernel` over its members' rows of the parent
    database — the parent dataspace, so the normalisation constant and
    therefore every ``SDist``/score float is identical to the unsharded
    database, and the parent's vocabulary bit space — plus the
    summaries the pruning bounds read off that kernel's live rows.

    ``vocab_mask`` is the union of the shard's doc bitmasks, so query
    masks encoded once against the parent database can be intersected
    with every shard.

    ``shard_id`` is the shard's index at partition time and survives
    its neighbours being dropped: the fault sites ``shard.scan.<id>``
    are named by it.
    """

    __slots__ = (
        "shard_id",
        "kernel",
        "mbr",
        "vocab_mask",
        "min_doc_len",
        "max_doc_len",
    )

    def __init__(
        self,
        shard_id: int,
        parent: SpatialDatabase,
        rows: Sequence[int],
    ) -> None:
        if not rows:
            raise ValueError(f"shard {shard_id} would be empty")
        self.shard_id = shard_id
        self.kernel = ScoringKernel(parent, rows=rows)
        self._recompute_summaries()

    def _recompute_summaries(self) -> None:
        """Exact MBR / keyword-union / doc-length summaries from scratch.

        Read off the kernel's live rows (a tombstone's mask is 0 and
        its object ``None``).  Shared by construction and
        :meth:`apply_mutations`' removal of a boundary holder — a
        shrunken summary must never drift from the build-time
        definition or the pruning bounds over- or under-prune.
        """
        kernel = self.kernel
        self.mbr = Rect.from_points(
            obj.loc for obj in kernel.row_objects if obj is not None
        )
        union_mask = 0
        for mask in kernel._masks:
            union_mask |= mask
        lengths = [
            length for length, alive in zip(kernel._lens, kernel._alive) if alive
        ]
        self.vocab_mask = union_mask
        self.min_doc_len = min(lengths)
        self.max_doc_len = max(lengths)

    def __len__(self) -> int:
        """Live members (the kernel's physical rows include tombstones)."""
        return self.kernel.live_count

    # ------------------------------------------------------------------
    # Incremental maintenance (repro.core.mutations)
    # ------------------------------------------------------------------
    def apply_mutations(
        self,
        removed: Sequence[SpatialObject],
        appended: Sequence[SpatialObject],
    ) -> None:
        """Apply this shard's slice of a batch and refresh its summaries.

        The kernel follows the global order rule (survivors keep order,
        appends at the end) and tombstones and compacts at its own
        threshold.

        Summaries stay exact.  Appended objects *widen* them — the MBR
        unions the new points, the vocab mask ORs the new masks, the
        doc-length range stretches.  A removal can only tighten a
        summary the removed object was holding up
        (:meth:`_held_boundary`); only then are they rebuilt from the
        surviving rows.
        """
        kernel = self.kernel
        kernel.apply_mutations(
            _ShardChange(frozenset(obj.oid for obj in removed), tuple(appended))
        )
        if removed and self._held_boundary(removed):
            self._recompute_summaries()
        elif appended:
            self.mbr = self.mbr.union(
                Rect.from_points(obj.loc for obj in appended)
            )
            for mask in kernel._masks[-len(appended) :]:  # the appended rows
                self.vocab_mask |= mask
            lengths = [len(obj.doc) for obj in appended]
            self.min_doc_len = min(self.min_doc_len, *lengths)
            self.max_doc_len = max(self.max_doc_len, *lengths)

    def _held_boundary(self, removed: Sequence[SpatialObject]) -> bool:
        """Whether losing ``removed`` can tighten a summary.

        Probes the kernel's post-batch columns, each with an early
        exit: a coordinate on an MBR edge, a doc length at an extreme
        no live row still has, or a keyword no live row still holds.
        Tombstones hold nothing: their mask is 0 and the length probe
        reads ``_alive``.
        """
        mbr = self.mbr
        kernel = self.kernel
        encode = kernel.vocabulary.encode
        orphans = 0
        lengths: set[int] = set()
        for obj in removed:
            x, y = obj.loc.x, obj.loc.y
            if x in (mbr.min_x, mbr.max_x) or y in (mbr.min_y, mbr.max_y):
                return True
            orphans |= encode(obj.doc)
            lengths.add(len(obj.doc))
        for extreme in lengths & {self.min_doc_len, self.max_doc_len}:
            if not any(
                alive
                for length, alive in zip(kernel._lens, kernel._alive)
                if length == extreme
            ):
                return True
        for mask in kernel._masks:
            if mask & orphans:
                orphans &= ~mask
                if not orphans:
                    return False
        return bool(orphans)

    # ------------------------------------------------------------------
    # Static pruning bounds
    # ------------------------------------------------------------------
    def proximity_upper_bound(
        self, qx: float, qy: float, normaliser: float
    ) -> float:
        """``max_o (1 − SDist(o, q))`` bound from the objects MBR.

        MINDIST over the normaliser with the same clamp the kernel
        applies; monotone in each operation, so it dominates every
        shard object's proximity (see the module margin note for the
        ``hypot`` caveat).
        """
        mbr = self.mbr
        dx = max(mbr.min_x - qx, 0.0, qx - mbr.max_x)
        dy = max(mbr.min_y - qy, 0.0, qy - mbr.max_y)
        sdist = math.hypot(dx, dy) / normaliser
        if sdist > 1.0:
            sdist = 1.0
        return 1.0 - sdist

    def tsim_upper_bound(self, qmask: int, qlen: int) -> float:
        """``max_o TSim(o, q)`` bound from keyword union + doc lengths.

        No shard object can share more than
        ``|q.doc ∩ shard vocabulary|`` keywords with the query, nor be
        shorter than ``min_doc_len``:
        :func:`repro.core.scanindex.tsim_upper_bound` of those two.
        """
        return tsim_upper_bound(
            (self.vocab_mask & qmask).bit_count(),
            qlen,
            self.min_doc_len,
        )


class ShardRouter:
    """Partitions a database into shards and prices per-query bounds.

    Parameters
    ----------
    database:
        The parent :class:`SpatialDatabase` (shared with the engine).
    shards:
        Requested shard count (clamped to the object count).
    partitioner:
        A name from :data:`PARTITIONERS` (``"grid"`` default,
        ``"round-robin"`` ablation) or a callable
        ``(database, shards) -> list[list[int]]``.
    """

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        shards: int,
        partitioner: str | Callable[[SpatialDatabase, int], list[list[int]]] = "grid",
    ) -> None:
        if callable(partitioner):
            partition = partitioner
            self.partitioner_name = getattr(partitioner, "__name__", "custom")
        else:
            try:
                partition = PARTITIONERS[partitioner]
            except KeyError:
                raise ValueError(
                    f"unknown partitioner {partitioner!r}; "
                    f"expected one of {sorted(PARTITIONERS)}"
                ) from None
            self.partitioner_name = partitioner
        assignments = partition(database, shards)
        self._validate_partition(assignments, len(database))
        self._database = database
        self._shards = tuple(
            Shard(shard_id, database, rows)
            for shard_id, rows in enumerate(assignments)
        )
        self.stats = ShardStats()

    @staticmethod
    def _validate_partition(assignments: list[list[int]], n: int) -> None:
        seen: set[int] = set()
        total = 0
        for rows in assignments:
            if not rows:
                raise ValueError("partitioner produced an empty shard")
            total += len(rows)
            seen.update(rows)
        if total != n or seen != set(range(n)):
            raise ValueError(
                "partitioner must produce a disjoint cover of all rows"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def database(self) -> SpatialDatabase:
        return self._database

    @property
    def shards(self) -> tuple[Shard, ...]:
        return self._shards

    def __len__(self) -> int:
        return len(self._shards)

    def shard_sizes(self) -> list[int]:
        return [len(shard) for shard in self._shards]

    def to_dict(self) -> dict[str, object]:
        """The ``GET /api/stats`` ``shards`` payload."""
        return {
            "count": len(self._shards),
            "partitioner": self.partitioner_name,
            "objects": self.shard_sizes(),
            **self.stats.to_dict(),
        }

    # ------------------------------------------------------------------
    # Incremental maintenance (repro.core.mutations)
    # ------------------------------------------------------------------
    def _choose_shard(self, obj: SpatialObject) -> int:
        """Route an inserted object to the shard its location enlarges least.

        Ties break by current population (fewest objects first), then
        shard index — deterministic, and biased toward keeping shard
        sizes balanced when several shards already cover the point.
        """
        best_index = 0
        best_key: tuple[float, int, int] | None = None
        rect = Rect.from_point(obj.loc)
        for index, shard in enumerate(self._shards):
            key = (shard.mbr.enlargement(rect), len(shard), index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    def apply_mutations(self, change) -> None:
        """Route an applied batch to its owning shards.

        ``change`` is an :class:`repro.core.mutations.AppliedBatch`; the
        parent database has already applied it.  Removals go to the
        shard whose kernel holds each object (membership is stored
        there alone); insertions to the least-enlarged shard.  A shard
        left empty is dropped.
        """
        per_shard_removed: dict[int, list[SpatialObject]] = {}
        for obj in change.removed:
            index = next(
                index
                for index, shard in enumerate(self._shards)
                if obj.oid in shard.kernel._row_of
            )
            per_shard_removed.setdefault(index, []).append(obj)
        per_shard_appended: dict[int, list[SpatialObject]] = {}
        for obj in change.appended:
            per_shard_appended.setdefault(self._choose_shard(obj), []).append(obj)
        survivors: list[Shard] = []
        for index, shard in enumerate(self._shards):
            removed = per_shard_removed.get(index, [])
            appended = per_shard_appended.get(index, [])
            if len(removed) == len(shard) and not appended:
                continue  # emptied: drop the shard
            if removed or appended:
                shard.apply_mutations(removed, appended)
            survivors.append(shard)
        self._shards = tuple(survivors)

    # ------------------------------------------------------------------
    # Per-query shard bounds
    # ------------------------------------------------------------------
    def score_upper_bounds(self, query: SpatialKeywordQuery) -> list[float]:
        """Static score upper bound of every shard under ``query``.

        ``ws · proximity_ub + wt · tsim_ub`` — float-monotone above every
        shard object's true score (modulo the documented ``hypot``
        margin, which skip decisions apply).
        """
        qmask, _unknown = self._database.vocabulary_index.encode_query(query.doc)
        qlen = len(query.doc)
        qx, qy = query.loc.x, query.loc.y
        normaliser = self._database.distance_normaliser
        ws, wt = query.ws, query.wt
        return [
            ws * shard.proximity_upper_bound(qx, qy, normaliser)
            + wt * shard.tsim_upper_bound(qmask, qlen)
            for shard in self._shards
        ]
