"""Live mutation of the object database ``D``: insert / update / delete.

The paper freezes ``D`` at construction; a *service* (Fig. 1) serving
millions of users must ingest and retire geo-textual objects while
answering queries — the evolving-corpus workload QDR-Tree-style dynamic
spatio-textual indexes target (PAPERS.md).  This module is the substrate
every layer builds on:

* :class:`Mutation` — one insert/update/delete, validated at creation.
* :class:`MutableDatabase` — owns a :class:`~repro.core.objects.SpatialDatabase`
  and applies mutation *batches* to it under a monotone generation
  counter.  A batch is normalised to its net effect (removed + appended
  object sets) with sequential semantics, then pushed through the
  database (incremental vocabulary interning: new keywords append bit
  positions, existing doc masks stay valid) and into every registered
  listener — kernels tombstone + append + compact, shard routers
  re-route, indexes insert/delete, executors invalidate scoped.
* :class:`BatchSummary` — the batch's spatial region, added-keyword
  union and id sets, with the same MINDIST + keyword-union score bounds
  the sharding tier prunes with.  The executor tier's maintenance pass
  asks it which cached top-k results it can reach at all
  (:meth:`BatchSummary.reach_keys`, dual to :func:`topk_reach_keys`)
  and whether a reached one could possibly be affected; entries that
  provably cannot change survive a write untouched.
* :class:`ReadWriteLock` — many concurrent readers (queries, why-not
  answering) against exclusive writers (mutation batches), so a search
  never observes a half-applied batch.

Correctness contract (property-tested in
``tests/properties/test_prop_mutations.py``): after any mutation
sequence, top-k results and all three why-not refinement paths are
bit-for-bit identical to a fresh engine built from the final object set
over the same dataspace.  The dataspace is pinned at construction — the
distance normaliser, and therefore every score float, never moves;
objects arriving outside it clamp to ``SDist = 1`` exactly like query
points outside it always have.

Order rule shared by the database and every incrementally-maintained
kernel: survivors keep their relative order, appended objects go to the
end, and an update *moves the object to the end* (remove + append).  A
compacted kernel's row order therefore always equals the database's
object order, and a fresh rebuild from ``database.objects`` reproduces
both.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

from repro import concurrency
from repro.core.geometry import Rect
from repro.core.kernel import ScoringKernel
from repro.core.scanindex import tsim_upper_bound
from repro.core.objects import SpatialDatabase, SpatialObject

__all__ = [
    "AppliedBatch",
    "BatchSummary",
    "MissingTargetError",
    "Mutation",
    "MutationError",
    "MutableDatabase",
    "MutationStats",
    "ReadWriteLock",
    "keyword_regions",
    "topk_reach_keys",
]

#: Margin mirroring the sharding tier's defensive skip margin: the
#: MINDIST arithmetic rides ``math.hypot``, which is faithful rather
#: than exactly monotone, so "provably cannot affect" requires the
#: bound to sit this far below the threshold.
_AFFECT_MARGIN = 1e-12

_KINDS = ("insert", "update", "delete")

#: The reach key of a cached result that an object sharing none of its
#: query keywords could be in or enter (a tuple: never a keyword).
_ANY_OBJECT = ("any object",)


class MutationError(ValueError):
    """An invalid mutation or batch (duplicate id, emptying batch, …)."""


class MissingTargetError(MutationError):
    """An update or delete referenced an object that does not exist.

    Separate from the generic :class:`MutationError` so the HTTP layer
    can map it to a 404 rather than a batch-conflict status.
    """


@dataclass(frozen=True, slots=True)
class Mutation:
    """One object-level change: ``insert``, ``update`` or ``delete``.

    ``obj`` carries the new object for inserts and updates; deletes
    carry only the ``oid``.  Use the three classmethods — they validate
    shape so a malformed mutation fails at creation, not mid-batch.
    """

    kind: str
    oid: int
    obj: SpatialObject | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MutationError(
                f"unknown mutation kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == "delete":
            if self.obj is not None:
                raise MutationError("a delete carries no object payload")
        elif self.obj is None:
            raise MutationError(f"an {self.kind} requires an object payload")
        elif self.obj.oid != self.oid:
            raise MutationError(
                f"mutation oid {self.oid} does not match object id {self.obj.oid}"
            )
        if self.oid < 0:
            raise MutationError("object ids are non-negative")

    @classmethod
    def insert(cls, obj: SpatialObject) -> "Mutation":
        return cls(kind="insert", oid=obj.oid, obj=obj)

    @classmethod
    def update(cls, obj: SpatialObject) -> "Mutation":
        return cls(kind="update", oid=obj.oid, obj=obj)

    @classmethod
    def delete(cls, oid: int) -> "Mutation":
        return cls(kind="delete", oid=oid)


class _SupportsQueryMeta(Protocol):
    """What :meth:`BatchSummary.affects_topk` reads off a cache entry."""

    loc: object  # Point
    doc: frozenset[str]
    ws: float
    wt: float
    kth_score: float
    result_oids: frozenset[int]
    full: bool


def topk_reach_keys(meta: _SupportsQueryMeta) -> list[Hashable]:
    """The keys a cached top-k result is filed under for maintenance.

    Its query keywords, and a catch-all when an object sharing none of
    them could be in or enter the result: it holds fewer than k
    members, or its k-th score is within ``ws``, all proximity alone
    can score.  Otherwise every member shares a query keyword (a member
    scores at least the k-th score, above ``ws``), so a removed member
    is found through its keywords too.  Dual to
    :meth:`BatchSummary.reach_keys`: a batch whose keys miss all of
    these provably leaves the result unchanged (``affects_topk`` is
    False), so a cache indexed by them visits only what a batch
    reaches.
    """
    keys: list[Hashable] = list(meta.doc)
    if not meta.full or meta.ws >= meta.kth_score - _AFFECT_MARGIN:
        keys.append(_ANY_OBJECT)
    return keys


def keyword_regions(objects: Iterable[SpatialObject]) -> dict[str, Rect]:
    """Each keyword of ``objects`` → the MBR of the objects carrying it.

    An added object sharing a query keyword lies in that keyword's
    region, so :meth:`BatchSummary.affects_topk` bounds its proximity
    as tightly as the keyword's own locations.
    """
    points: dict[str, list] = {}
    for obj in objects:
        for keyword in obj.doc:
            points.setdefault(keyword, []).append(obj.loc)
    return {keyword: Rect.from_points(locs) for keyword, locs in points.items()}


@dataclass(frozen=True, slots=True)
class BatchSummary:
    """What one applied batch touched, priced for impact tests.

    ``region`` is the MBR of the *added* (inserted/updated) locations,
    ``added_keywords`` their keyword union and ``min_added_doc_len``
    their shortest document — together they bound any added object's
    score under any query exactly like a shard's static bounds bound its
    objects' scores (:class:`repro.core.sharding.Shard`).
    ``removed_oids`` and ``added_oids`` drive the membership tests,
    ``removed_keywords`` (the removed objects' keyword union) finds the
    results a removal can reach.  ``model_code`` is the engine's kernel
    model
    (None disables the text bound and makes every impact test
    conservatively positive).

    ``added_rows`` are the added objects' ``(x, y, mask, doc_len, oid)``
    column rows, aligned with :attr:`AppliedBatch.appended`, which the
    top-k skyband merge scores against cached query scalars
    (:func:`repro.core.kernel.score_delta_rows`).  They are encoded
    under the engine's writer lock against the already-extended
    vocabulary, so maintenance never reads kernel columns.  Empty when
    the engine runs no columnar kernel.
    """

    generation: int
    removed_oids: frozenset[int]
    added_oids: frozenset[int]
    region: Rect | None
    added_keywords: frozenset[str]
    min_added_doc_len: int
    model_code: str | None
    normaliser: float
    added_rows: tuple[tuple[float, float, int, int, int], ...] = ()
    removed_keywords: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # Score bounds over the added objects (shard-bound arithmetic)
    # ------------------------------------------------------------------
    def proximity_upper_bound(self, loc, region: Rect | None = None) -> float:
        """``max (1 − SDist(o, q))`` over added objects, via region MINDIST.

        Over the objects in ``region`` when given (a keyword's region),
        else over all of them; 0.0 when the batch added nothing.
        """
        if region is None:
            region = self.region
        if region is None:
            return 0.0
        x, y = loc.x, loc.y
        dx = (
            region.min_x - x
            if x < region.min_x
            else x - region.max_x if x > region.max_x else 0.0
        )
        dy = (
            region.min_y - y
            if y < region.min_y
            else y - region.max_y if y > region.max_y else 0.0
        )
        sdist = math.hypot(dx, dy) / self.normaliser
        if sdist > 1.0:
            sdist = 1.0
        return 1.0 - sdist

    # ------------------------------------------------------------------
    # Impact tests (executor scoped invalidation)
    # ------------------------------------------------------------------
    def reach_keys(self) -> frozenset[Hashable] | None:
        """Every key of :func:`topk_reach_keys` this batch reaches.

        Its added and removed objects' keywords and the catch-all.
        None when no text bound applies (no kernel model) and every
        cached result must be tested.
        """
        if self.added_oids and self.model_code is None:
            return None
        return self.added_keywords | self.removed_keywords | {_ANY_OBJECT}

    def affects_topk(
        self,
        meta: _SupportsQueryMeta,
        regions: Mapping[str, Rect] | None = None,
    ) -> bool:
        """Could this batch change the cached top-k result ``meta`` describes?

        Exact-safe, never exact-tight: a False is a proof the cached
        result is still the fresh engine's answer —

        * a removed object outside the result cannot change anyone
          else's score or admit a new member, and
        * an added object whose score upper bound sits strictly below
          the cached k-th score (minus the ``hypot`` margin) cannot
          displace a member, not even by tie-break (which needs score
          equality).

        Every input is a value the entry computed once when it was
        cached; the tests run cheapest first, so an entry sharing no
        keyword with the batch and ranking its k-th object above what
        proximity alone can score (``ws``) is cleared by set and float
        comparisons, with no ``hypot``.  A maintenance pass asks this of
        every cached entry the batch could reach, with the added
        objects' :func:`keyword_regions` as ``regions`` (without them an
        object sharing a keyword is placed anywhere in the batch's
        region).
        """
        oids = meta.result_oids
        if not (
            self.removed_oids.isdisjoint(oids) and self.added_oids.isdisjoint(oids)
        ):
            return True
        if not self.added_oids:
            return False
        if not meta.full or self.model_code is None:
            # A result holding fewer than k objects admits any insertion.
            return True
        floor = meta.kth_score - _AFFECT_MARGIN
        ws, loc, doc = meta.ws, meta.loc, meta.doc
        added = self.added_keywords
        shared = [keyword for keyword in doc if keyword in added]
        if shared:
            # An added object sharing a query keyword lies in that
            # keyword's region, and its TSim is at most the bound for
            # sharing every shared keyword (the shard text bound).
            text = meta.wt * tsim_upper_bound(
                self.model_code, len(shared), len(doc), self.min_added_doc_len
            )
            for region in (
                [self.region]
                if regions is None
                else [regions[keyword] for keyword in shared]
            ):
                if ws * self.proximity_upper_bound(loc, region) + text >= floor:
                    return True
        # An added object sharing no query keyword scores
        # ``ws · (1 − SDist)``, at most ``ws``.
        return ws >= floor and ws * self.proximity_upper_bound(loc) >= floor


@dataclass(frozen=True, slots=True)
class AppliedBatch:
    """The net effect of one applied batch, for listeners.

    ``removed`` holds the *previous* object instances (indexes delete by
    object + location); ``appended`` the new instances in append order.
    An updated object appears in both.
    """

    generation: int
    removed: tuple[SpatialObject, ...]
    appended: tuple[SpatialObject, ...]
    inserted_count: int
    updated_count: int
    deleted_count: int
    summary: BatchSummary

    @property
    def removed_oids(self) -> frozenset[int]:
        return self.summary.removed_oids

    @property
    def is_noop(self) -> bool:
        """True when the batch normalised to no net change.

        ``insert(9); delete(9)`` is a valid batch whose net effect is
        empty: nothing moves, nothing is logged, and ``generation`` is
        the *unchanged* current generation — replaying a durable log
        therefore reconstructs the exact same generation sequence
        (replay idempotence).
        """
        return not self.removed and not self.appended


class MutationListener(Protocol):
    """A structure maintained incrementally under mutation."""

    def apply_mutations(self, change: AppliedBatch) -> None: ...


class MutationStats:
    """Cumulative mutation counters (``GET /api/stats`` mutations section)."""

    __slots__ = ("_lock", "batches", "inserted", "updated", "deleted")

    def __init__(self) -> None:
        self._lock = concurrency.ordered_lock(
            "mutations.stats", concurrency.LEVEL_LEAF
        )
        self.batches = 0
        self.inserted = 0
        self.updated = 0
        self.deleted = 0

    def record(self, change: AppliedBatch) -> None:
        with self._lock:
            self.batches += 1
            self.inserted += change.inserted_count
            self.updated += change.updated_count
            self.deleted += change.deleted_count

    def to_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "batches": self.batches,
                "inserted": self.inserted,
                "updated": self.updated,
                "deleted": self.deleted,
            }


class ReadWriteLock:
    """Readers-preference RW lock for the query/mutation tiers.

    Many readers share the lock; a writer is exclusive.  New readers are
    only blocked while a writer *holds* the lock (not while one waits),
    which makes nested read acquisition on one thread — the why-not path
    re-enters the engine for its initial top-k — deadlock-free by
    construction.  Mutation batches are rare relative to queries, so
    writer starvation is not a practical concern at this tier.

    ``name``/``level``/``fsync_safe`` place the lock in the documented
    hierarchy (:mod:`repro.concurrency`); under ``YASK_LOCKDEP=1`` the
    lock reports acquisitions to the runtime sanitizer through a
    :func:`repro.concurrency.lock_sanitizer` (it implements its own
    blocking protocol, so it cannot be wrapped like a plain mutex).
    Nested same-instance *reads* are reported as such and allowed;
    read-under-write or write-under-read on one thread is flagged.
    """

    __slots__ = ("_cond", "_readers", "_writing", "_sanitizer")

    def __init__(
        self,
        *,
        name: str = "rwlock",
        level: int | None = None,
        fsync_safe: bool = False,
    ) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._sanitizer = concurrency.lock_sanitizer(
            name, level=level, fsync_safe=fsync_safe
        )

    @contextmanager
    def read(self) -> Iterator[None]:
        san = self._sanitizer
        if san is not None:
            san.acquiring("read")
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        if san is not None:
            san.acquired("read")
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()
            if san is not None:
                san.released("read")

    @contextmanager
    def write(self) -> Iterator[None]:
        san = self._sanitizer
        if san is not None:
            san.acquiring("write")
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        if san is not None:
            san.acquired("write")
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()
            if san is not None:
                san.released("write")


class MutableDatabase:
    """Mutation coordinator over one :class:`SpatialDatabase`.

    Validates and normalises batches, applies them to the database
    (epoch/generation tracking, incremental vocabulary interning), then
    notifies registered listeners in registration order — kernels before
    routers before indexes, as the engine registers them.  All of this
    happens under the caller's write lock (the engine's
    :class:`ReadWriteLock`); this class itself adds no locking beyond
    its stats counters.
    """

    #: Bound on remembered idempotency tokens (oldest evicted first) —
    #: a retry storm cannot grow the map without limit, and a client
    #: that retries within the newest TOKEN_CAPACITY batches still
    #: dedups exactly.
    TOKEN_CAPACITY = 4096

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        model_code: str | None = None,
        start_generation: int = 0,
        tokens: Mapping[str, int] | None = None,
    ) -> None:
        if start_generation < 0:
            raise ValueError("start_generation must be non-negative")
        self._database = database
        self._generation = start_generation
        self._listeners: list[MutationListener] = []
        self._model_code = model_code
        # token -> the generation its batch became; insertion-ordered
        # for bounded LRU-ish eviction.  Seeded from WAL replay so a
        # client retry spanning a restart still dedups.
        self._tokens: dict[str, int] = dict(tokens) if tokens else {}
        self._evict_tokens()
        self.stats = MutationStats()

    @property
    def database(self) -> SpatialDatabase:
        return self._database

    @property
    def generation(self) -> int:
        """Number of effective batches applied so far (monotone).

        Starts at ``start_generation`` — a durable engine recovered from
        a snapshot resumes counting where the snapshot left off.
        Batches that normalise to a net no-op do not advance it.
        """
        return self._generation

    def register_listener(self, listener: MutationListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Idempotency tokens
    # ------------------------------------------------------------------
    def token_generation(self, token: str) -> int | None:
        """The generation ``token``'s batch became, or ``None`` if unknown."""
        return self._tokens.get(token)

    def known_tokens(self) -> dict[str, int]:
        """A copy of the token map (recovery seeds a rebuilt engine with it)."""
        return dict(self._tokens)

    def _remember_token(self, token: str, generation: int) -> None:
        self._tokens[token] = generation
        self._evict_tokens()

    def _evict_tokens(self) -> None:
        while len(self._tokens) > self.TOKEN_CAPACITY:
            self._tokens.pop(next(iter(self._tokens)))

    # ------------------------------------------------------------------
    # Batch normalisation
    # ------------------------------------------------------------------
    def _normalise(
        self, mutations: Sequence[Mutation]
    ) -> tuple[dict[int, SpatialObject], dict[int, SpatialObject], int, int, int]:
        """Sequential semantics → net (removed, appended) object maps.

        ``insert(5); delete(5)`` is a no-op; ``delete(5); insert(5)``
        nets to an update; repeated updates keep the last payload.
        """
        database = self._database
        removed: dict[int, SpatialObject] = {}
        appended: dict[int, SpatialObject] = {}
        inserted = updated = deleted = 0

        def present(oid: int) -> bool:
            if oid in appended:
                return True
            return oid in database and oid not in removed

        for mutation in mutations:
            oid = mutation.oid
            if mutation.kind == "insert":
                if present(oid):
                    raise MutationError(
                        f"cannot insert object {oid}: id already in use"
                    )
                appended[oid] = mutation.obj
                inserted += 1
            elif mutation.kind == "update":
                if not present(oid):
                    raise MissingTargetError(
                        f"cannot update object {oid}: no such object"
                    )
                if oid in appended:
                    appended[oid] = mutation.obj
                else:
                    removed[oid] = database.get(oid)
                    appended[oid] = mutation.obj
                updated += 1
            else:  # delete
                if not present(oid):
                    raise MissingTargetError(
                        f"cannot delete object {oid}: no such object"
                    )
                if oid in appended:
                    del appended[oid]
                else:
                    removed[oid] = database.get(oid)
                deleted += 1
        survivors = len(database) - len(removed) + len(appended)
        if survivors < 1:
            raise MutationError("a mutation batch must not empty the database")
        return removed, appended, inserted, updated, deleted

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(
        self,
        mutations: Sequence[Mutation],
        *,
        pre_commit: Callable[[int, Sequence[Mutation]], None] | None = None,
        token: str | None = None,
    ) -> AppliedBatch:
        """Validate, normalise and apply one batch; notify listeners.

        Returns the :class:`AppliedBatch` (with its
        :class:`BatchSummary`) so the serving tier can run scoped cache
        invalidation against exactly what changed.  Caller must hold the
        engine's write lock when readers may be concurrent.

        ``pre_commit`` is the write-ahead hook: it is called with the
        generation this batch is about to become and the validated
        mutations *after* normalisation succeeds but *before* any state
        moves.  If it raises, the batch is abandoned untouched — this is
        how the durable engine guarantees a batch is on stable storage
        before it is ever visible to a reader, and conversely that a
        batch that failed to log is never half-applied.

        ``token`` is the client's idempotency token: it is remembered
        (bounded) against the batch's resulting generation *only after*
        the batch fully commits, so the engine-level dedup check never
        acknowledges a batch that failed mid-way.  Dedup lookup itself
        happens in the engine, under its write lock, before this method
        runs.

        A batch whose net effect is empty (``insert(9); delete(9)``)
        returns an :class:`AppliedBatch` with ``is_noop`` set: the
        generation does not advance, listeners are not notified and
        ``pre_commit`` is not called, so a replayed log reconstructs the
        exact generation sequence of the original run.
        """
        if not mutations:
            raise MutationError("a mutation batch must not be empty")
        removed, appended, inserted, updated, deleted = self._normalise(
            mutations
        )
        appended_objects = tuple(appended.values())
        if not removed and not appended_objects:
            if token is not None:
                self._remember_token(token, self._generation)
            return AppliedBatch(
                generation=self._generation,
                removed=(),
                appended=(),
                inserted_count=inserted,
                updated_count=updated,
                deleted_count=deleted,
                summary=self._summarise({}, ()),
            )
        generation = self._generation + 1
        if pre_commit is not None:
            pre_commit(generation, mutations)
        self._database._apply_mutations(set(removed), appended_objects)
        self._generation = generation
        summary = self._summarise(removed, appended_objects)
        change = AppliedBatch(
            generation=self._generation,
            removed=tuple(removed.values()),
            appended=appended_objects,
            inserted_count=inserted,
            updated_count=updated,
            deleted_count=deleted,
            summary=summary,
        )
        for listener in self._listeners:
            listener.apply_mutations(change)
        if token is not None:
            self._remember_token(token, self._generation)
        self.stats.record(change)
        return change

    def _summarise(
        self,
        removed: dict[int, SpatialObject],
        appended: Sequence[SpatialObject],
    ) -> BatchSummary:
        keywords: set[str] = set()
        min_len = 0
        for obj in appended:
            keywords.update(obj.doc)
        if appended:
            min_len = min(len(obj.doc) for obj in appended)
        # The maintenance row payload: encoded here, after
        # ``_apply_mutations`` extended the vocabulary and while the
        # caller still holds the engine's writer lock — the one place
        # the added objects are visible against post-batch bit positions.
        added_rows: tuple[tuple[float, float, int, int, int], ...] = ()
        if self._model_code is not None and self._database.interned:
            added_rows = ScoringKernel.encode_rows(
                appended, self._database.vocabulary_index
            )
        removed_keywords: set[str] = set()
        for obj in removed.values():
            removed_keywords.update(obj.doc)
        return BatchSummary(
            generation=self._generation,
            removed_oids=frozenset(removed),
            added_oids=frozenset(obj.oid for obj in appended),
            region=(
                Rect.from_points(obj.loc for obj in appended)
                if appended
                else None
            ),
            added_keywords=frozenset(keywords),
            min_added_doc_len=min_len,
            model_code=self._model_code,
            normaliser=self._database.distance_normaliser,
            added_rows=added_rows,
            removed_keywords=frozenset(removed_keywords),
        )

    def to_dict(self) -> dict[str, int]:
        """The ``GET /api/stats`` mutations payload core."""
        return {"generation": self._generation, **self.stats.to_dict()}
