"""Spatially partitioned databases: shards, routing and pruned scans.

The ROADMAP's "sharding" direction, grounded in the paper's rank
arithmetic: every quantity the why-not pipeline computes — ranks,
beater counts — is a *count of objects* satisfying a per-object
predicate, so it decomposes exactly over any disjoint partition of
``D``:

``rank_of(m, q) = 1 + Σ_shard count_better(shard, m, q)``

This module provides

* :func:`grid_partition` / :func:`round_robin_partition` — disjoint
  covers of a database.  The grid partitioner splits the data into
  quantile tiles (near-equal populations, spatially coherent — the
  QDR-Tree-style locality clustering of PAPERS.md); round-robin is the
  spatially incoherent ablation.
* :class:`Shard` — one partition: its own :class:`SpatialDatabase`
  (inheriting the parent dataspace so distance normalisation — and
  therefore every float — is identical), its own
  :class:`~repro.core.kernel.ScoringKernel`, and the summaries the
  pruning bounds need (objects MBR, keyword-union bitmask, doc-length
  range).
* :class:`ShardRouter` — builds and owns the shards, computes per-query
  shard score upper bounds, and counts scatter/skip work in
  :class:`ShardStats` (surfaced through ``GET /api/stats``).
* :class:`ShardedKernel` — a drop-in :class:`ScoringKernel` whose
  whole-database rank primitives (``count_better``, ``rank_of_many``,
  ``doc_context`` rank scans) *skip entire shards* that provably cannot
  contain a better-ranked object.  Dual space is deliberately not among
  them: :class:`~repro.core.kernel.DualView` reads the global kernel's
  scan index, and two bisects per TSim level beat any per-shard skip.

Why pruning, not parallelism
----------------------------

:class:`repro.service.sharded.ShardedEngine` scans its shards inline,
one after another; nothing here runs in parallel.  What shards buy is
*work elimination*: with spatially coherent shards, a
query's beaters concentrate in the shards near it, and a shard whose
score upper bound falls below the current threshold contributes zero
scanned rows.  A single-shard router degenerates to exactly the
unsharded pass, which is what the E12 baseline measures.

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
guaranteed faithful, so static skips retain a defensive ``1e-12``
margin (:data:`repro.core.scanindex.SKIP_MARGIN`).  Candidate rank scans (:class:`ShardedDocContext`) use each
shard's exact proximity-column maximum instead and need none.

``tests/properties/test_prop_sharding.py`` asserts bit-for-bit parity
of every primitive — and of whole why-not answers — against the
unsharded oracle across random databases, partitioners and shard
counts.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import AbstractSet, Callable, Iterable, Sequence

from dataclasses import dataclass

from repro import concurrency, faults
from repro.core.geometry import Rect
from repro.core.hotpath import hot_path
from repro.core.kernel import DocContext, DualView, ScoringKernel
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scanindex import SKIP_MARGIN, tsim_upper_bound
from repro.text.similarity import TextSimilarityModel

__all__ = [
    "PARTITIONERS",
    "Shard",
    "ShardRouter",
    "ShardStats",
    "ShardedDocContext",
    "ShardedKernel",
    "ShardedProximityColumn",
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
    # Never more shards than objects (each shard owns a non-empty
    # SpatialDatabase); callers asking for more get the maximum.
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
    gather/materialise step); the ``*_shards_*`` pairs record how many
    shard scans the pruning bounds eliminated.
    """

    _FIELDS = (
        "topk_searches",
        "topk_shards_scanned",
        "topk_shards_skipped",
        "topk_scatter_ms",
        "topk_merge_ms",
        "count_passes",
        "count_shards_scanned",
        "count_shards_skipped",
        "doc_rank_scans",
        "doc_shards_scanned",
        "doc_shards_skipped",
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

    Owns a sub-:class:`SpatialDatabase` built with the *parent
    dataspace* — the normalisation constant, and therefore every
    ``SDist``/score float, is identical to the unsharded database — and
    a :class:`ScoringKernel` over it.  The shard-local vocabulary
    assigns different bit positions than the global one, which is
    irrelevant: every similarity formula consumes bit *counts* only.

    ``vocab_mask`` is the union of the shard's doc bitmasks in the
    *global* vocabulary's bit space, so query masks encoded once against
    the parent database can be intersected with every shard.

    ``rows`` maps each *physical* row of the shard kernel to the
    object's physical row in the global kernel.  Both kernels keep
    tombstones, so a dead local row's entry is stale and never read:
    every reader walks live rows or arrives through ``row_of(oid)``.

    ``shard_id`` is the shard's index at partition time and survives
    its neighbours being dropped: the fault sites ``shard.scan.<id>``
    are named by it.
    """

    __slots__ = (
        "shard_id",
        "rows",
        "database",
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
        text_model: TextSimilarityModel,
    ) -> None:
        if not rows:
            raise ValueError(f"shard {shard_id} would be empty")
        objects = parent.objects
        parent_masks = parent.doc_masks
        self.shard_id = shard_id
        self.rows: list[int] = list(rows)
        self.database = SpatialDatabase(
            (objects[row] for row in rows), dataspace=parent.dataspace
        )
        kernel = ScoringKernel.maybe_build(self.database, text_model)
        if kernel is None:  # pragma: no cover - router validates the model
            raise ValueError(
                f"{type(text_model).__name__} has no columnar kernel; "
                "sharding requires one"
            )
        self.kernel = kernel
        self._recompute_summaries(parent_masks[row] for row in rows)

    def _recompute_summaries(self, masks) -> None:
        """Exact MBR / keyword-union / doc-length summaries from scratch.

        ``masks`` are the members' doc bitmasks in the *global*
        vocabulary's bit space, aligned with ``self.database.objects``.
        Shared by construction and :meth:`apply_mutations`' removal of
        a boundary holder — a shrunken summary must never drift from
        the build-time definition or the pruning bounds over- or
        under-prune.
        """
        members = self.database.objects
        self.mbr = Rect.from_points(obj.loc for obj in members)
        union_mask = 0
        min_len = max_len = len(members[0].doc)
        for obj, mask in zip(members, masks):
            union_mask |= mask
            length = len(obj.doc)
            if length < min_len:
                min_len = length
            if length > max_len:
                max_len = length
        self.vocab_mask = union_mask
        self.min_doc_len = min_len
        self.max_doc_len = max_len

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
        parent: SpatialDatabase,
    ) -> bool:
        """Apply this shard's slice of a batch and refresh its summaries.

        The sub-database and kernel follow the global order rule
        (survivors keep order, appends at the end); the kernel
        tombstones and compacts at its own threshold.  Returns whether
        it compacted, i.e. whether shard-local rows were renumbered.

        Summaries stay exact.  Appended objects *widen* them — the MBR
        unions the new points, the vocab mask ORs the new masks, the
        doc-length range stretches.  A removal can only tighten a
        summary the removed object was holding up
        (:meth:`_held_boundary`); only then are they rebuilt from the
        surviving members.
        """
        removed_oids = {obj.oid for obj in removed}
        self.database._apply_mutations(removed_oids, appended)
        compactions = self.kernel.compactions
        self.kernel.apply_mutations(
            _ShardChange(frozenset(removed_oids), tuple(appended))
        )
        encode = parent.vocabulary_index.encode
        if removed and self._held_boundary(removed):
            self._recompute_summaries(
                encode(obj.doc) for obj in self.database.objects
            )
        elif appended:
            self.mbr = self.mbr.union(
                Rect.from_points(obj.loc for obj in appended)
            )
            for obj in appended:
                self.vocab_mask |= encode(obj.doc)
                length = len(obj.doc)
                if length < self.min_doc_len:
                    self.min_doc_len = length
                if length > self.max_doc_len:
                    self.max_doc_len = length
        return self.kernel.compactions != compactions

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
        encode_local = kernel.vocabulary.encode
        orphans = 0
        lengths: set[int] = set()
        for obj in removed:
            x, y = obj.loc.x, obj.loc.y
            if x in (mbr.min_x, mbr.max_x) or y in (mbr.min_y, mbr.max_y):
                return True
            orphans |= encode_local(obj.doc)
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
            self.kernel.model_code,
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
    text_model:
        The engine's text model; must have a columnar kernel
        (Jaccard/Dice/Overlap by exact type) — sharded scans are built
        on the kernel's flat columns.
    """

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        shards: int,
        partitioner: str | Callable[[SpatialDatabase, int], list[list[int]]] = "grid",
        text_model: TextSimilarityModel,
    ) -> None:
        if not ScoringKernel.supports(text_model):
            raise ValueError(
                f"{type(text_model).__name__} has no columnar kernel; "
                "sharding supports the exact set models (Jaccard/Dice/Overlap)"
            )
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
            Shard(shard_id, database, rows, text_model)
            for shard_id, rows in enumerate(assignments)
        )
        self._shard_of_oid: dict[int, int] = {}
        for index, shard in enumerate(self._shards):
            for row in shard.rows:
                self._shard_of_oid[database.objects[row].oid] = index
        #: Global kernel rows the ``Shard.rows`` maps cover.
        self._rows = len(database)
        # The global kernel whose physical rows the maps index; a
        # ShardedKernel binds itself here at construction.
        self._kernel: ScoringKernel | None = None
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
        """Route an applied batch to its owning shards and patch the maps.

        ``change`` is an :class:`repro.core.mutations.AppliedBatch`; the
        parent database and the global kernel have already applied it.
        Removals go to the shard that owns each object; insertions to
        the least-enlarged shard.  A shard left empty is dropped.  The
        row maps (``Shard.rows``) gain the appended rows;
        they are rebuilt only by a batch that renumbered rows — the
        global kernel or a shard kernel compacted, or a shard was
        dropped.
        """
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError(
                "a ShardRouter is maintained beside the ShardedKernel "
                "built over it; this one has none"
            )
        # Nothing compacted ⇔ the global columns grew by the appends.
        renumbered = len(kernel) != self._rows + len(change.appended)
        per_shard_removed: dict[int, list[SpatialObject]] = {}
        for obj in change.removed:
            index = self._shard_of_oid.pop(obj.oid)
            per_shard_removed.setdefault(index, []).append(obj)
        per_shard_appended: dict[int, list[SpatialObject]] = {}
        for obj in change.appended:
            index = self._shard_of_oid[obj.oid] = self._choose_shard(obj)
            per_shard_appended.setdefault(index, []).append(obj)
        survivors: list[Shard] = []
        for index, shard in enumerate(self._shards):
            removed = per_shard_removed.get(index, [])
            appended = per_shard_appended.get(index, [])
            if len(removed) == len(shard) and not appended:
                renumbered = True  # emptied: drop the shard
                continue
            if (removed or appended) and shard.apply_mutations(
                removed, appended, self._database
            ):
                renumbered = True
            survivors.append(shard)
        if renumbered:
            self._shards = tuple(survivors)
            self._rebuild_row_maps(kernel)
            return
        # Appends land in batch order in the global kernel and in each
        # shard kernel alike, so every map grows at its end.
        for obj in change.appended:
            self._shards[self._shard_of_oid[obj.oid]].rows.append(
                kernel.row_of(obj.oid)
            )
        self._rows = len(kernel)

    def _rebuild_row_maps(self, kernel: ScoringKernel) -> None:
        """Recompute the shard-local → global row maps after a renumbering.

        Read off the kernels' own ``oid → physical row`` tables, so the
        maps cover live rows only; a tombstone's ``Shard.rows`` entry
        is ``-1``.
        """
        global_row = kernel._row_of
        shard_of_oid: dict[int, int] = {}
        for index, shard in enumerate(self._shards):
            rows = [-1] * len(shard.kernel)
            for oid, local in shard.kernel._row_of.items():
                rows[local] = global_row[oid]
                shard_of_oid[oid] = index
            shard.rows = rows
        self._shard_of_oid = shard_of_oid
        self._rows = len(kernel)

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


# ----------------------------------------------------------------------
# Sharded kernel substrate
# ----------------------------------------------------------------------
class ShardedProximityColumn(list):
    """Database-order proximity column annotated with per-shard views.

    A plain ``list`` (drop-in for consumers indexing by global row) that
    additionally carries per-shard slices and their exact maxima, which
    the sharded candidate rank scans use for skip decisions.
    """

    __slots__ = ("shard_slices", "shard_maxima")

    def __init__(
        self,
        values: Sequence[float],
        shard_slices: Sequence[Sequence[float]],
        shard_maxima: Sequence[float],
    ) -> None:
        super().__init__(values)
        self.shard_slices = shard_slices
        self.shard_maxima = shard_maxima


class ShardedDocContext(DocContext):
    """A candidate keyword set encoded for per-shard pruned rank scans.

    ``tsim_row`` stays the inherited global-column arithmetic; only the
    full-database :meth:`rank_scan` changes, skipping shards whose
    ``ws · prox_max + wt · tsim_ub`` cannot reach the target score and
    counting the others' beaters through a context on the shard's own
    kernel.  The proximity maxima are exact per-shard column maxima and
    the text bound is exactly monotone, so the skip needs no margin.
    """

    __slots__ = ("_doc", "_shard_contexts")

    def __init__(self, kernel: "ShardedKernel", doc: AbstractSet[str]) -> None:
        super().__init__(kernel, doc)
        self._doc = doc
        # Built lazily per scanned shard: most shards are skipped, and
        # encoding against their vocabularies would be wasted work.
        self._shard_contexts: dict[int, DocContext] = {}

    @hot_path
    def rank_scan(
        self,
        ws: float,
        wt: float,
        proximities: Sequence[float],
        target_oid: int,
    ) -> int:
        kernel: ShardedKernel = self._kernel  # type: ignore[assignment]
        if not isinstance(proximities, ShardedProximityColumn):
            # A caller-supplied plain column: no shard maxima to prune
            # with — fall back to the global scan (identical result).
            return super().rank_scan(ws, wt, proximities, target_oid)
        kernel.stats.bump("doc_rank_scans")
        router = kernel.router
        stats = router.stats
        stats.bump("doc_rank_scans")
        target_row = kernel.row_of(target_oid)
        theta = ws * proximities[target_row] + wt * self.tsim_row(target_row)
        beaters = 0
        scanned = 0
        skipped = 0
        for index, shard in enumerate(router.shards):
            faults.check_deadline()
            tsim_ub = shard.tsim_upper_bound(self.mask, self.length)
            if ws * proximities.shard_maxima[index] + wt * tsim_ub < theta:
                skipped += 1
                continue
            scanned += 1
            context = self._shard_contexts.get(index)
            if context is None:
                context = DocContext(shard.kernel, self._doc)
                self._shard_contexts[index] = context
            beaters += context.count_beaters(
                range(len(shard.kernel)), ws, wt,
                proximities.shard_slices[index], theta, target_oid,
            )
        stats.bump("doc_shards_scanned", scanned)
        stats.bump("doc_shards_skipped", skipped)
        return beaters + 1


class ShardedKernel(ScoringKernel):
    """A :class:`ScoringKernel` whose rank primitives scan shard-wise.

    Inherits the global flat columns — whole-database passes
    (``components_all``, ``score_all``, ``order_rows``, prepared
    queries) are the plain kernel's and stay bit-identical — and
    overrides the primitives where disjointness buys work elimination:

    * :meth:`count_better` / :meth:`rank_of_many` — per-shard counts
      behind the static score upper bounds;
    * :meth:`proximities` — a :class:`ShardedProximityColumn` carrying
      the per-shard maxima the candidate rank scans prune with;
    * :meth:`doc_context` — a :class:`ShardedDocContext`.

    Shard scans reuse each shard's own kernel columns (same formulas,
    same normaliser — the sub-databases inherit the parent dataspace),
    so every float is identical to the global pass.
    """

    __slots__ = ("router",)

    def __init__(
        self,
        database: SpatialDatabase,
        text_model: TextSimilarityModel,
        router: ShardRouter,
    ) -> None:
        if router.database is not database:
            raise ValueError("router and kernel must share the same database")
        super().__init__(database, text_model)
        self.router = router
        router._kernel = self

    @classmethod
    def maybe_build(  # type: ignore[override]
        cls,
        database: SpatialDatabase,
        text_model: TextSimilarityModel,
        router: ShardRouter | None = None,
    ) -> "ScoringKernel | None":
        """Build a sharded kernel, or fall back like the base builder."""
        if not cls.supports(text_model):
            return None
        if router is None:
            return ScoringKernel(database, text_model)
        return cls(database, text_model, router)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_mutations(self, change) -> None:
        """Maintain the global columns by the base rule — a named seam.

        Shard row maps (``Shard.rows``) index
        these columns by physical row, tombstones included; the router,
        the next listener, patches them for the appended rows and
        rebuilds them when this kernel compacted.
        """
        super().apply_mutations(change)

    # ------------------------------------------------------------------
    # Rank primitives (shard-pruned)
    # ------------------------------------------------------------------
    @hot_path
    def count_better(
        self, score: float, oid: int, query: SpatialKeywordQuery
    ) -> int:
        self.stats.bump("count_better_calls")
        router = self.router
        stats = router.stats
        stats.bump("count_passes")
        bounds = router.score_upper_bounds(query)
        threshold = score - SKIP_MARGIN
        better = 0
        scanned = 0
        skipped = 0
        for shard, bound in zip(router.shards, bounds):
            faults.check_deadline()
            if bound < threshold:
                skipped += 1
                continue
            scanned += 1
            better += shard.kernel.count_better(score, oid, query)
        stats.bump("count_shards_scanned", scanned)
        stats.bump("count_shards_skipped", skipped)
        return better

    @hot_path
    def rank_of_many(
        self, target_oids: Iterable[int], query: SpatialKeywordQuery
    ) -> dict[int, int]:
        self.stats.bump("rank_of_many_calls")
        router = self.router
        stats = router.stats
        stats.bump("count_passes")
        prepared = self.prepare(query)
        targets = [(oid, prepared.score_oid(oid)) for oid in target_oids]
        prepared.flush_stats()  # target scorings are real point scores
        bounds = router.score_upper_bounds(query)
        beaten = {oid: 0 for oid, _ in targets}
        scanned = 0
        skipped = 0
        for shard, bound in zip(router.shards, bounds):
            faults.check_deadline()
            live = [t for t in targets if bound >= t[1] - SKIP_MARGIN]
            if not live:
                skipped += 1
                continue
            scanned += 1
            scores = shard.kernel._score_list(query)
            for oid, target_score in live:
                beaten[oid] += shard.kernel._count_beating(scores, target_score, oid)
        stats.bump("count_shards_scanned", scanned)
        stats.bump("count_shards_skipped", skipped)
        return {oid: count + 1 for oid, count in beaten.items()}

    # ------------------------------------------------------------------
    # Dual-space and candidate substrates
    # ------------------------------------------------------------------
    def dual_view(
        self, query: SpatialKeywordQuery, targets: Sequence[int]
    ) -> DualView:
        """The global kernel's view — a named seam, not a scatter.

        A rank in a :class:`DualView` is two bisects per TSim level,
        less work than any per-shard skip test, so dual space is the
        one rank substrate shards do not prune.
        """
        return super().dual_view(query, targets)

    def proximities(self, query: SpatialKeywordQuery) -> ShardedProximityColumn:  # type: ignore[override]
        slices = [
            shard.kernel.proximities(query) for shard in self.router.shards
        ]
        # Dead rows, global or shard-local, read 0.0 — the base pass's
        # value for a tombstone; a dead local row's map entry is stale.
        values: list[float] = [0.0] * self._n
        for shard, piece in zip(self.router.shards, slices):
            live = compress(zip(shard.rows, piece), shard.kernel._alive)
            for row, value in live:
                values[row] = value
        return ShardedProximityColumn(
            values, slices, [max(piece) for piece in slices]
        )

    def doc_context(self, doc: AbstractSet[str]) -> ShardedDocContext:
        self.stats.bump("doc_contexts")
        return ShardedDocContext(self, doc)
