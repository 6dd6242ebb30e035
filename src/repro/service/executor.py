"""Shared query execution: request dedup, result caching and batching.

The paper's server caches only the per-session *initial* query
(Section 3.3): two users asking the same top-k question — or one user
asking it twice — pay the full index traversal every time, and the HTTP
layer moves exactly one query per request.  This module adds the serving
tier the ROADMAP's "heavy traffic from millions of users" north star
needs on top of the unchanged :class:`repro.service.api.YaskEngine`:

* :func:`query_fingerprint` — a canonical, order-insensitive key for a
  :class:`~repro.core.query.SpatialKeywordQuery`; two queries with the
  same location, keyword set, ``k`` and weights share one fingerprint.
* :class:`QueryExecutor` — a thread-safe front of the engine that
  (1) serves repeated queries from a bounded LRU result cache,
  (2) collapses identical *in-flight* queries so concurrent duplicates
  execute the index traversal once, and (3) fans query batches across a
  worker pool.  Hit/miss/eviction counters are exposed as
  :class:`CacheStats` and the cache can be invalidated explicitly when
  the dataset changes.
* :func:`whynot_fingerprint` / :class:`WhyNotQuestion` /
  :class:`WhyNotExecutor` — the same serving tier for the engine the
  paper is actually about.  A why-not question (explanation +
  refinement, Sections 3.2-3.3) costs far more than the top-k query it
  explains, so repeated and concurrent questions benefit even more from
  caching and dedup.  The why-not executor additionally *reuses* the
  top-k executor's cached result for the question's underlying query as
  the refinement pipeline's starting point instead of re-running the
  search, and shares one invalidation domain with it: invalidating
  either cache drops both (a dataset change staleness both).

Cacheability rests on the same immutability the session cache already
relies on: the database, the indexes, :class:`QueryResult` and every
why-not answer object are all frozen after construction, so a cached
result is exactly the result a fresh computation would produce until
:meth:`invalidate` declares otherwise.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace as dc_replace
from itertools import repeat
from typing import Any, Callable, Hashable, Iterable, Protocol, Sequence

from repro import concurrency, faults
from repro.core.mutations import keyword_regions, topk_reach_keys
from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.whynot.errors import WhyNotError

__all__ = [
    "BatchExecution",
    "CacheStats",
    "Execution",
    "QueryExecutor",
    "WHYNOT_MODELS",
    "WhyNotBatchExecution",
    "WhyNotExecution",
    "WhyNotExecutor",
    "WhyNotQuestion",
    "consistent_stats",
    "query_fingerprint",
    "whynot_fingerprint",
]


def query_fingerprint(query: SpatialKeywordQuery) -> str:
    """Canonical cache key: location, sorted keywords, ``k`` and weights.

    ``repr`` round-trips floats exactly and quotes each keyword, so
    queries only share a fingerprint when every parameter is
    bit-identical — the cache never conflates "nearby" queries, and
    keywords containing separator characters (HTTP payloads carry
    arbitrary unnormalised strings) cannot collide with a multi-keyword
    query.
    """
    return repr(
        (
            query.loc.x,
            query.loc.y,
            query.k,
            query.ws,
            query.wt,
            tuple(sorted(query.doc)),
        )
    )


#: The dispatchable why-not models.  ``"full"`` is the paper's complete
#: answer (explanation plus both refinements, Section 3.2's "users can
#: apply the two refinement functions simultaneously" view); the others
#: select one module.
WHYNOT_MODELS = ("full", "explain", "preference", "keywords", "combined")

#: Models whose computation consumes the initial top-k result (the
#: explanation generator's not-missing check and k-th-object comparison).
#: The preference/keyword/combined refiners rank in dual space and never
#: need the materialised result, so the executor skips fetching it.
_MODELS_USING_INITIAL = ("full", "explain")

#: Models whose answer does not depend on the penalty trade-off λ (the
#: explanation has no refinement to weigh).  Their fingerprints
#: canonicalise λ away so e.g. ``explain`` questions at λ=0.3 and λ=0.5
#: share one cache entry instead of recomputing the identical answer.
_MODELS_IGNORING_LAMBDA = ("explain",)


@dataclass(frozen=True, slots=True)
class WhyNotQuestion:
    """One why-not question: a query, its missing objects and a model.

    ``missing`` holds object ids or names exactly as the client sent
    them; the executor canonicalises them to sorted object ids when
    fingerprinting, so ``(1, 2)``, ``(2, 1, 2)`` and the objects' names
    all address the same cache entry.
    """

    query: SpatialKeywordQuery
    missing: tuple[int | str, ...]
    model: str = "full"
    lam: float = 0.5

    def __post_init__(self) -> None:
        if not self.missing:
            raise ValueError("a why-not question needs at least one missing object")
        if self.model not in WHYNOT_MODELS:
            raise ValueError(
                f"unknown why-not model {self.model!r}; expected one of {WHYNOT_MODELS}"
            )
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")


def whynot_fingerprint(
    query: SpatialKeywordQuery,
    missing_oids: Sequence[int],
    model: str,
    lam: float,
) -> str:
    """Canonical cache key of a why-not question.

    Composes the underlying query's fingerprint with the *resolved*
    missing-object ids (sorted, deduplicated — resolution happens in the
    executor so a name and its id share a key), the refinement model and
    the penalty trade-off ``λ``.  ``repr`` round-trips ``λ`` exactly.
    """
    return repr(
        (
            query_fingerprint(query),
            tuple(sorted(set(missing_oids))),
            model,
            lam,
        )
    )


class SupportsQuery(Protocol):
    """The slice of :class:`~repro.service.api.YaskEngine` the executor needs."""

    def query(self, query: SpatialKeywordQuery) -> QueryResult: ...


class SupportsWhyNot(Protocol):
    """What :class:`WhyNotExecutor` needs from an engine.

    :class:`~repro.service.api.YaskEngine` provides both methods; tests
    may substitute lighter stubs.
    """

    def resolve_missing_oids(
        self, references: Sequence[int | str]
    ) -> tuple[int, ...]: ...

    def answer_whynot(
        self, question: WhyNotQuestion, *, initial_result: QueryResult | None = None
    ) -> object: ...


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time snapshot of the executor's cache counters.

    ``maintained_*`` count the write side
    (:meth:`QueryExecutor.maintain`): per maintenance pass an entry is
    ``maintained_kept`` (provably unchanged — the counter that shows
    warm caches staying warm under write traffic) or
    ``maintained_dropped`` (no proof — evicted; the next fetch
    recomputes it).  ``maintained_visited`` counts the entries
    passes looked at one by one; an entry whose query shares no keyword
    with a batch's objects, and which no object can reach by proximity
    alone, is kept without being visited.  The why-not cache drops every entry on
    every pass: its counters that could only read 0 are None and left
    out of :meth:`to_dict`.
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    inflight_waits: int
    size: int
    capacity: int
    maintenance_passes: int = 0
    maintained_kept: int | None = 0
    maintained_dropped: int = 0
    maintained_visited: int | None = 0

    @property
    def requests(self) -> int:
        """Total queries handled, regardless of how they were served."""
        return self.hits + self.misses + self.inflight_waits

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without an engine execution."""
        if self.requests == 0:
            return 0.0
        return (self.hits + self.inflight_waits) / self.requests

    def to_dict(self) -> dict[str, object]:
        counters = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "inflight_waits": self.inflight_waits,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
            "maintenance_passes": self.maintenance_passes,
            "maintained_kept": self.maintained_kept,
            "maintained_dropped": self.maintained_dropped,
            "maintained_visited": self.maintained_visited,
        }
        return {key: value for key, value in counters.items() if value is not None}


@dataclass(frozen=True, slots=True)
class Execution:
    """One executed query with its provenance and server-side latency.

    ``source`` is ``"engine"`` (a fresh index traversal), ``"cache"``
    (served from the LRU cache) or ``"inflight"`` (piggy-backed on an
    identical concurrent execution).

    ``degraded`` is None for an exact answer; under a deadline that ran
    out it is the honest-envelope dict
    (:meth:`repro.faults.Deadline.to_dict`) and ``result`` holds the
    partial top-k assembled from the shards that did answer.  Degraded
    results are never cached.
    """

    query: SpatialKeywordQuery
    result: QueryResult
    response_ms: float
    source: str
    fingerprint: str
    degraded: dict | None = None

    @property
    def cached(self) -> bool:
        """True when no engine execution was charged to this request."""
        return self.source != "engine"


@dataclass(frozen=True, slots=True)
class BatchExecution:
    """The outcome of one batch: per-query executions plus wall time."""

    executions: tuple[Execution, ...]
    total_ms: float

    @property
    def results(self) -> tuple[QueryResult, ...]:
        return tuple(execution.result for execution in self.executions)

    def __len__(self) -> int:
        return len(self.executions)

    def __iter__(self):
        return iter(self.executions)


@dataclass(frozen=True, slots=True)
class WhyNotExecution:
    """One answered why-not question with provenance and latency.

    ``source`` follows :class:`Execution`'s vocabulary (``"engine"``,
    ``"cache"``, ``"inflight"``) plus ``"error"`` for a batch member the
    engine rejected (``answer`` is then None and ``error`` the message)
    and ``"degraded"`` for a question whose deadline expired mid-answer
    (``answer`` is None, ``degraded`` the envelope — the refinement
    arithmetic either completes exactly or reports degradation, never a
    silently-wrong partial count).
    ``topk_source`` records where the initial top-k result came from
    when the model consumed one — ``"cache"`` is the tier doing its job:
    the question's underlying query never re-ran the search.  It is None
    for models that rank without the materialised result and for
    responses served from the why-not cache (nothing was computed).
    """

    question: WhyNotQuestion
    answer: object | None
    response_ms: float
    source: str
    fingerprint: str
    topk_source: str | None = None
    error: str | None = None
    degraded: dict | None = None

    @property
    def cached(self) -> bool:
        """True when no why-not computation was charged to this request."""
        return self.source not in ("engine", "error", "degraded")

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True, slots=True)
class WhyNotBatchExecution:
    """The outcome of one why-not batch: per-question executions + wall time."""

    executions: tuple[WhyNotExecution, ...]
    total_ms: float

    @property
    def answers(self) -> tuple[object | None, ...]:
        return tuple(execution.answer for execution in self.executions)

    def __len__(self) -> int:
        return len(self.executions)

    def __iter__(self):
        return iter(self.executions)


#: The reach key of cache entries without a generation stamp: every
#: maintenance pass visits (and drops) them.
_EVERY_PASS = ("every pass",)


class _Inflight:
    """Rendezvous for threads waiting on one in-flight execution.

    ``generation`` records the cache generation the execution started
    under; a request arriving after an invalidation must not join a
    flight from the previous generation (its result may reflect the
    old dataset).
    """

    __slots__ = ("event", "result", "error", "generation")

    def __init__(self, generation: int) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.generation = generation


class _ResultCache:
    """Bounded LRU + in-flight dedup + generation counter, keyed by strings.

    The machinery both executors share.  ``fetch`` runs ``compute`` at
    most once per key across concurrent callers, caches the value (a
    result is assumed non-None) unless an invalidation raced the
    computation, and reports how each call was served.  The generation
    counter makes invalidation safe against every in-flight path —
    single executions and batch members alike reach the cache through
    this one method, so a post-invalidation request can neither read a
    pre-invalidation cache entry (the cache was cleared atomically) nor
    join a pre-invalidation flight (its generation no longer matches).
    """

    def __init__(
        self,
        capacity: int,
        *,
        name: str = "executor.cache",
        reach_keys: Callable[[Any], Iterable[Hashable]] | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        self.capacity = capacity
        # Leaf of the lock hierarchy: taken after the domain lock
        # during invalidation, never while acquiring anything else.
        self._lock = concurrency.ordered_lock(name, concurrency.LEVEL_LEAF)
        # key → (value, meta).  ``meta`` is the maintenance descriptor
        # ``compute`` returned with the value; None when it supplied
        # none — such entries never survive a mutation batch.
        self._cache: "OrderedDict[str, tuple[Any, Any]]" = OrderedDict()
        self.inflight: dict[str, _Inflight] = {}
        self._generation = 0
        # The last mutation batch a maintenance pass carried the cache
        # through: every entry is exact at ``max(stamp, _through)``
        # (its effective generation), so a pass restamps no entry it
        # leaves alone.  None before the first pass and after an
        # invalidation.
        self._through: int | None = None
        # Keys published while a maintenance pass decides outside the
        # lock (None when no pass runs): the pass checks their stamps.
        self._window: list[str] | None = None
        # The maintenance index, reach key → keys filed under it:
        # ``reach_keys(meta)`` names a stamped entry's keys, an
        # unstamped one is filed under _EVERY_PASS.  Without
        # ``reach_keys`` there is no index and a pass visits every
        # entry.
        self._reach_keys = reach_keys
        self._postings: dict[Hashable, set[str]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._inflight_waits = 0
        self._maintenance_passes = 0
        self._maintained_kept = 0
        self._maintained_dropped = 0
        self._maintained_visited = 0

    def fetch(
        self,
        key: str,
        compute: Callable[[], tuple[Any, Any, bool]],
        *,
        rendezvous: bool = True,
    ) -> tuple[Any, str]:
        """Return ``(value, source)``, computing at most once per key.

        ``compute`` returns ``(value, meta, cacheable)``: the value, the
        descriptor :meth:`maintain` hands back to decide what a mutation
        batch does to the entry, and whether the value may be cached at
        all (a partial result computed under an expired deadline may
        not).  With ``rendezvous`` off a miss neither joins nor leads an
        in-flight rendezvous — a caller on a budget must not wait on
        another request's open-ended computation, nor publish a value
        that may turn out partial to waiters who asked for an exact one.
        """
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._hits += 1
                    return cached[0], "cache"
                flight = self.inflight.get(key) if rendezvous else None
                leader = flight is None or flight.generation != self._generation
                if leader:
                    # No flight, or only one from before an invalidation —
                    # its result may reflect the old dataset, so this
                    # request starts a fresh computation (stale waiters
                    # keep their reference and still get the old flight's
                    # result, which was current when *they* asked).
                    flight = _Inflight(self._generation)
                    if rendezvous:
                        self.inflight[key] = flight

            if leader:
                return self._compute_as_leader(key, flight, compute), "engine"
            flight.event.wait()
            if flight.error is not None or flight.result is None:
                # The leader failed; this follower retries on its own
                # rather than reporting a failure it did not cause.
                continue
            with self._lock:
                self._inflight_waits += 1
            return flight.result, "inflight"

    def _compute_as_leader(
        self,
        key: str,
        flight: _Inflight,
        compute: Callable[[], tuple[Any, Any, bool]],
    ) -> Any:
        try:
            result, meta, cacheable = compute()
        except BaseException as exc:
            with self._lock:
                if self.inflight.get(key) is flight:
                    del self.inflight[key]
            flight.error = exc
            flight.event.set()
            raise
        with self._lock:
            self._misses += 1
            # Only cache when no invalidation raced this computation: a
            # result computed against the old dataset must not survive.
            if (
                cacheable
                and self.capacity > 0
                and flight.generation == self._generation
            ):
                self._store(key, result, meta)
                self._cache.move_to_end(key)
                if self._window is not None:
                    self._window.append(key)
                while len(self._cache) > self.capacity:
                    self._discard(next(iter(self._cache)))
                    self._evictions += 1
            # A post-invalidation request may have replaced this flight
            # with a fresh-generation one (and a no-rendezvous flight
            # was never registered); only deregister our own.
            if self.inflight.get(key) is flight:
                del self.inflight[key]
        flight.result = result
        flight.event.set()
        return result

    def _filing(self, meta: Any) -> Iterable[Hashable]:
        if getattr(meta, "generation", None) is None:
            return (_EVERY_PASS,)
        assert self._reach_keys is not None
        return self._reach_keys(meta)

    def _store(self, key: str, value: Any, meta: Any) -> None:
        """Set an entry and keep the index in step (leaf lock held)."""
        old = self._cache.get(key)
        self._cache[key] = (value, meta)
        if self._reach_keys is None:
            return
        if old is not None:
            self._unfile(key, old[1])
        for reach_key in self._filing(meta):
            self._postings.setdefault(reach_key, set()).add(key)

    def _discard(self, key: str) -> None:
        """Remove an entry and its index postings (leaf lock held)."""
        _, meta = self._cache.pop(key)
        if self._reach_keys is not None:
            self._unfile(key, meta)

    def _unfile(self, key: str, meta: Any) -> None:
        postings = self._postings
        for reach_key in self._filing(meta):
            keys = postings[reach_key]
            keys.discard(key)
            if not keys:
                del postings[reach_key]

    def invalidate(self) -> int:
        """Drop every cached value; returns how many were dropped.

        In-flight computations complete normally but are barred from
        (re)populating the cache.
        """
        with self._lock:
            dropped = len(self._cache)
            self._cache.clear()
            self._postings.clear()
            self._generation += 1
            self._invalidations += 1
            self._through = None
            return dropped

    def peek_entry(self, key: str) -> tuple[Any, Any] | None:
        """Introspective ``(value, meta)`` lookup: no counters, no LRU move.

        The why-not executor uses this to learn which engine generation
        a cached initial top-k result is exact at, without charging a
        second hit for the same request.  ``meta.generation`` is the
        entry's *effective* generation: the batches maintenance carried
        the cache through since the entry's stamp left it unchanged.
        """
        with self._lock:
            entry = self._cache.get(key)
            through = self._through
        if entry is None:
            return None
        value, meta = entry
        stamp = getattr(meta, "generation", None)
        if stamp is not None and through is not None and stamp < through:
            meta = dc_replace(meta, generation=through)
        return value, meta

    def maintain(
        self,
        affects: Callable[[Any], bool] | None,
        batch_generation: int,
        reach: Iterable[Hashable],
    ) -> dict[str, int]:
        """Carry the cache through one mutation batch; returns the tally.

        The protocol is keep-or-drop.  ``affects(meta)`` is the
        executor's pure per-entry test for an entry exact at the
        batch's predecessor: False when the batch provably cannot
        change it (the entry is kept as it is), True otherwise (the
        entry is dropped and the next fetch recomputes it).  With
        ``affects`` None no entry survives.  An entry without a
        generation stamp, or one that missed an earlier batch, drops;
        one already exact at this batch is left alone.

        ``reach`` is the batch's reach keys
        (:meth:`~repro.core.mutations.BatchSummary.reach_keys`): with
        an index, the pass visits only the entries filed under one of
        them.  Every entry is visited when the cache keeps no index, and
        when an entry may have missed a batch
        (no pass since the cache was created or invalidated, or the
        last one was older than the batch's predecessor).  An entry the
        pass does not visit, or visits and ``affects`` clears, keeps its
        value, its meta and its LRU slot, and becomes exact at this
        batch when the pass advances ``_through``.  The tally counts it
        ``kept``; ``maintained_visited`` counts the visited ones.

        The pass is two-phase: entries are snapshotted under the leaf
        lock, ``affects`` runs *outside* it, and the drops are applied
        atomically under the lock again.  A drop only applies when the
        entry still holds the snapshotted value (an eviction + fresh
        recompute in the window is judged by its own stamp instead).
        Entries published while the tests ran are kept only when their
        meta is stamped with ``batch_generation`` or later, which
        proves they were computed against the post-batch dataset;
        anything else in the window raced the mutation and is dropped.

        The cache generation advances even when every entry is kept: an
        in-flight computation may have read the pre-mutation dataset,
        and by the time it lands the batch it would need testing
        against is gone, so it must not populate the cache.
        """
        with self._lock:
            snapshot_generation = self._generation
            through = self._through
            cache = self._cache
            if (
                self._reach_keys is None
                or through is None
                or through < batch_generation - 1
            ):
                snapshot = tuple(cache.items())
            else:
                postings = self._postings
                reached = set().union(
                    *(postings.get(term, ()) for term in (*reach, _EVERY_PASS))
                )
                snapshot = tuple((key, cache[key]) for key in reached)
            self._window = []
        drops = []
        for key, (value, meta) in snapshot:
            stamp = getattr(meta, "generation", None)
            if stamp is not None and through is not None and stamp < through:
                stamp = through
            if stamp is not None and stamp >= batch_generation:
                continue
            if affects is None or stamp != batch_generation - 1 or affects(meta):
                drops.append((key, value))
        visited = len(snapshot)
        tally = {"kept": 0, "dropped": 0}
        with self._lock:
            window, self._window = self._window, None
            if self._generation != snapshot_generation:
                # A whole-domain invalidation raced the tests; it
                # already cleared everything they describe, so there is
                # nothing left to drop.
                return tally
            cache = self._cache
            # A present key published in the window holds its window
            # value; every other present key still holds its snapshot
            # value.
            fresh = {key for key in window if key in cache}
            untouched = len(cache) - len(fresh)
            for key in fresh:
                stamp = getattr(cache[key][1], "generation", None)
                if stamp is None or stamp < batch_generation:
                    self._discard(key)
                    tally["dropped"] += 1
            for key, value in drops:
                entry = cache.get(key)
                if entry is None or entry[0] is not value:
                    continue
                untouched -= 1
                self._discard(key)
                tally["dropped"] += 1
            tally["kept"] += untouched
            if through is None or through < batch_generation:
                self._through = batch_generation
            self._generation += 1
            self._maintenance_passes += 1
            self._maintained_kept += tally["kept"]
            self._maintained_dropped += tally["dropped"]
            self._maintained_visited += visited
            return tally

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                inflight_waits=self._inflight_waits,
                size=len(self._cache),
                capacity=self.capacity,
                maintenance_passes=self._maintenance_passes,
                maintained_kept=self._maintained_kept,
                maintained_dropped=self._maintained_dropped,
                maintained_visited=self._maintained_visited,
            )

    def keys(self) -> tuple[str, ...]:
        """Cached keys in eviction order (least recently used first)."""
        with self._lock:
            return tuple(self._cache)


@dataclass(frozen=True, slots=True)
class _QueryMeta:
    """Maintenance descriptor of one cached top-k result.

    Exactly what :meth:`repro.core.mutations.BatchSummary.affects_topk`
    needs to decide whether a mutation batch could change the result:
    the query's parameters, the member ids, the k-th (lowest) score and
    whether the result is full (``len(entries) == k``), all computed
    once when the result is cached.  ``generation`` stamps the engine
    generation the result was computed under (None when the engine
    exposes none); the cache lifts it past every batch that left the
    entry alone (:meth:`_ResultCache.peek_entry`).
    """

    loc: Any
    doc: frozenset[str]
    ws: float
    wt: float
    kth_score: float
    result_oids: frozenset[int]
    full: bool
    generation: int | None = None

    @classmethod
    def of(
        cls, result: QueryResult, generation: int | None = None
    ) -> "_QueryMeta | None":
        """Derive a descriptor, or None for non-result values.

        Test doubles (and any engine stub) may return arbitrary
        objects; entries without a descriptor are simply dropped by
        the next maintenance pass.
        """
        query = getattr(result, "query", None)
        entries = getattr(result, "entries", None)
        if query is None or entries is None:
            return None
        return cls(
            loc=query.loc,
            doc=query.doc,
            ws=query.ws,
            wt=query.wt,
            kth_score=entries[-1].score if entries else float("-inf"),
            result_oids=frozenset(entry.obj.oid for entry in entries),
            full=len(entries) >= query.k,
            generation=generation,
        )


def _armed(deadline: "faults.Deadline | None", scope: Callable[..., Any]) -> Any:
    """``scope(deadline)``, or a null context when there is no deadline."""
    return nullcontext() if deadline is None else scope(deadline)


class _Executor:
    """The shell both executors extend: cache, worker pool, batching.

    Subclasses define ``execute(item, *, deadline=None)`` and name their
    batch type in ``_batch_type``.
    """

    _batch_type: Callable[..., Any]

    def __init__(
        self, engine: Any, cache: _ResultCache, max_workers: int, thread_name: str
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._engine = engine
        self._cache = cache
        # One pool for the executor's lifetime (threads spawn lazily on
        # first use), not one per batch: a per-request pool would pay
        # thread startup/teardown on the serving hot path.
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix=thread_name
            )
            if max_workers > 1
            else None
        )

    @property
    def engine(self) -> Any:
        return self._engine

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    @property
    def _inflight(self) -> dict[str, _Inflight]:
        """The in-flight registry (exposed for tests and introspection)."""
        return self._cache.inflight

    def execute(
        self, item: Any, *, deadline: "faults.Deadline | None" = None
    ) -> Any:
        """Execute one item through the cache (each executor defines it)."""
        raise NotImplementedError

    def _execute_member(
        self, item: Any, deadline: "faults.Deadline | None"
    ) -> Any:
        return self.execute(item, deadline=deadline)

    def execute_batch(
        self,
        items: Sequence[Any],
        *,
        deadline: "faults.Deadline | None" = None,
    ) -> Any:
        """Fan a list of items across the worker pool, order-preserving.

        Duplicates inside a batch flow through the same cache and
        in-flight dedup as everything else, so a batch of one popular
        query repeated a hundred times costs one index traversal.  A
        ``deadline`` is one budget *shared* across the whole batch; the
        batch then runs sequentially (deterministic member order — the
        budget runs out at the same member every time).

        In a why-not batch, engine rejections (e.g. one question's
        object is not actually missing) are captured per member as
        ``source == "error"`` executions instead of failing the whole
        batch — a batch mixes unrelated users' questions, and one
        ill-posed question must not void the others' answers.
        """
        started = time.perf_counter()
        if not items:
            return self._batch_type(executions=(), total_ms=0.0)
        if deadline is not None or self._pool is None or len(items) == 1:
            executions = tuple(
                self._execute_member(item, deadline) for item in items
            )
        else:
            executions = tuple(
                self._pool.map(self._execute_member, items, repeat(None))
            )
        return self._batch_type(
            executions=executions,
            total_ms=(time.perf_counter() - started) * 1000.0,
        )

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the cache survives)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    def stats(self) -> CacheStats:
        return self._cache.stats()

    def cached_fingerprints(self) -> tuple[str, ...]:
        """Cached keys in eviction order (least recently used first)."""
        return self._cache.keys()


class QueryExecutor(_Executor):
    """Thread-safe caching/deduplicating/batching front of a query engine.

    Parameters
    ----------
    engine:
        Any object with a ``query(SpatialKeywordQuery) -> QueryResult``
        method — in the service, the :class:`YaskEngine`.
    cache_capacity:
        Maximum number of cached results; the least recently *used*
        entry is evicted first.  ``0`` disables caching (in-flight
        dedup still applies).
    max_workers:
        Worker-pool width for :meth:`execute_batch`.

    A mutation batch keeps each cached entry it provably cannot change
    and drops every other one it reaches (drop-on-write, :meth:`maintain`).
    """

    _batch_type = BatchExecution

    def __init__(
        self,
        engine: SupportsQuery,
        *,
        cache_capacity: int = 1024,
        max_workers: int = 8,
    ) -> None:
        super().__init__(
            engine,
            _ResultCache(cache_capacity, reach_keys=topk_reach_keys),
            max_workers,
            "yask-executor",
        )
        # The why-not executor over this one, once constructed: its
        # answers derive from the same dataset, so the two caches form
        # one invalidation domain and stale (or are maintained) together.
        self._whynot: "WhyNotExecutor | None" = None
        # Serialises a whole-domain invalidation against whole-domain
        # stats snapshots: holding it across both cache drops (and, in
        # consistent_stats, across both stats reads) means no reader
        # can observe this cache from one generation and the why-not
        # cache from another.  Per-cache locks are acquired inside it,
        # never the other way around, so there is no ordering hazard.
        self._domain_lock = concurrency.ordered_lock(
            "executor.domain", concurrency.LEVEL_DOMAIN
        )

    # ------------------------------------------------------------------
    # Single-query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: SpatialKeywordQuery,
        *,
        deadline: "faults.Deadline | None" = None,
    ) -> Execution:
        """Execute a query through the cache and in-flight dedup layers.

        With a ``deadline`` the engine call runs under an *absorbing*
        deadline scope (:func:`repro.faults.deadline_scope`): the
        sharded scatter skips shards past the budget and absorbs shard
        failures, and the execution carries the honest ``degraded``
        envelope when anything was skipped.  A cache hit is served as
        usual (exact, free); a degraded result is never cached and the
        in-flight rendezvous is bypassed — waiting on another request's
        open-ended computation would defeat the budget.
        """
        fingerprint = query_fingerprint(query)
        started = time.perf_counter()
        degraded: dict | None = None

        def compute() -> tuple[QueryResult, Any, bool]:
            nonlocal degraded
            view = getattr(self._engine, "read_view", nullcontext)
            with view(), _armed(deadline, faults.deadline_scope):
                generation = getattr(self._engine, "generation", None)
                result = self._engine.query(query)
            if deadline is not None and deadline.degraded:
                degraded = deadline.to_dict()
            return result, _QueryMeta.of(result, generation), degraded is None

        result, source = self._cache.fetch(
            fingerprint, compute, rendezvous=deadline is None
        )
        return Execution(
            query=query,
            result=result,
            response_ms=(time.perf_counter() - started) * 1000.0,
            source=source,
            fingerprint=fingerprint,
            degraded=degraded,
        )

    # ------------------------------------------------------------------
    # Cache management and introspection
    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every cached result (the dataset changed); returns count.

        Executions already in flight complete normally but are barred
        from (re)populating the cache.  The why-not executor's cache is
        dropped too; the returned count covers only this executor's own
        entries.  The domain lock makes the cascade atomic with respect
        to :func:`consistent_stats` snapshots.  This is the policy for a
        dataset change that comes without a batch summary (follower log
        replay); a batch applied here goes through :meth:`maintain`.
        """
        with self._domain_lock:
            dropped = self._cache.invalidate()
            if self._whynot is not None:
                self._whynot._cache.invalidate()
            return dropped

    # ------------------------------------------------------------------
    # Drop-on-write maintenance
    # ------------------------------------------------------------------
    def maintain(self, change) -> dict[str, int]:
        """Carry cached answers through a mutation batch (drop-on-write).

        ``change`` is the applied batch
        (:class:`~repro.core.mutations.AppliedBatch`).  The pass costs
        what the batch can reach: it looks only at the entries filed
        under one of the batch's reach keys
        (:meth:`~repro.core.mutations.BatchSummary.reach_keys`), keeps
        every entry the batch summary's bound clears
        (:meth:`~repro.core.mutations.BatchSummary.affects_topk`: no
        removed member, no added object able to score at its k-th
        score) as it is, and drops every other reached entry; the next
        fetch recomputes it.

        The why-not executor's cache is dropped whole in the same pass
        under the same domain lock (``linked_dropped``).  Returns the
        combined action tally.
        """
        summary = change.summary
        regions = keyword_regions(change.appended)
        with self._domain_lock:
            tally = self._cache.maintain(
                lambda meta: summary.affects_topk(meta, regions),
                summary.generation,
                summary.reach_keys(),
            )
            linked = (
                self._whynot.maintain(summary)["dropped"]
                if self._whynot is not None
                else 0
            )
            return {**tally, "linked_dropped": linked}

    def audit(self, query: SpatialKeywordQuery):
        """Execute (possibly from cache) and cross-check against the oracle.

        Extends :meth:`YaskEngine.audit`'s "are the returned objects
        really the best?" guarantee to the caching tier: a stale or
        corrupted cached result fails the audit exactly like a corrupted
        index would.  Returns the ``(execution, report)`` pair.
        """
        from repro.service.audit import audit_execution

        scorer = getattr(self._engine, "scorer", None)
        if scorer is None:
            raise TypeError(
                "executor.audit() requires an engine exposing a .scorer"
            )
        execution = self.execute(query)
        return execution, audit_execution(scorer, execution)


class WhyNotExecutor(_Executor):
    """Caching/deduplicating/batching front of the why-not engine.

    Sits beside the :class:`QueryExecutor` the transports already share
    and gives why-not answering the same serving-tier properties — with
    two extra wrinkles:

    * **Top-k reuse.** The explanation half of a why-not answer starts
      from the initial query's top-k result.  Instead of re-running the
      search, the executor fetches that result through the top-k
      executor, so a why-not question about an already-cached query
      charges zero index traversals for it (``topk_source == "cache"``).
      A cold question primes the top-k cache as a side effect.
    * **Shared invalidation.** Why-not answers are derived from the same
      dataset as top-k results; on construction this executor joins the
      top-k executor's invalidation domain, so invalidating either
      drops both caches, and :meth:`QueryExecutor.maintain` carries
      what it can of the top-k cache through a batch and drops this
      one.

    Parameters
    ----------
    engine:
        An object providing ``resolve_missing_oids`` and
        ``answer_whynot`` — in the service, the :class:`YaskEngine`.
    topk:
        The :class:`QueryExecutor` to source initial top-k results from
        and to share the invalidation domain with (it holds one why-not
        executor: the latest constructed over it).
    cache_capacity:
        Bound on cached why-not answers (LRU; 0 disables caching).
    max_workers:
        Worker-pool width for :meth:`execute_batch`.
    """

    _batch_type = WhyNotBatchExecution

    def __init__(
        self,
        engine: SupportsWhyNot,
        topk: QueryExecutor,
        *,
        cache_capacity: int = 256,
        max_workers: int = 8,
    ) -> None:
        super().__init__(
            engine,
            _ResultCache(cache_capacity, name="whynot.cache"),
            max_workers,
            "yask-whynot",
        )
        self._topk = topk
        topk._whynot = self

    @property
    def topk_executor(self) -> QueryExecutor:
        return self._topk

    # ------------------------------------------------------------------
    # Single-question execution
    # ------------------------------------------------------------------
    def fingerprint(self, question: WhyNotQuestion) -> str:
        """The question's canonical cache key (resolves missing refs).

        λ is canonicalised away for models whose answer does not depend
        on it.  Raises :class:`~repro.whynot.errors.UnknownObjectError`
        for references outside the database — before any cache state is
        touched, so malformed questions never occupy cache or flight
        slots.
        """
        oids = self._engine.resolve_missing_oids(question.missing)
        lam = (
            0.5 if question.model in _MODELS_IGNORING_LAMBDA else question.lam
        )
        return whynot_fingerprint(question.query, oids, question.model, lam)

    def execute(
        self,
        question: WhyNotQuestion,
        *,
        deadline: "faults.Deadline | None" = None,
    ) -> WhyNotExecution:
        """Answer a question through the cache and in-flight dedup layers.

        Engine rejections (:class:`~repro.whynot.errors.WhyNotError`,
        e.g. a "missing" object that is actually in the result)
        propagate to the caller and are never cached.

        With a ``deadline`` the answer computation runs under a
        *strict* deadline scope: why-not rank arithmetic is count-exact
        or worthless, so a budget that runs out mid-scan raises out of
        the engine and this method returns a ``source == "degraded"``
        execution (``answer`` None, ``degraded`` the envelope) instead
        of a silently-wrong partial count.  The initial top-k fetch
        stays outside the scope — it must be exact for the explanation
        to mean anything.  Degraded executions are never cached.
        """
        fingerprint = self.fingerprint(question)
        started = time.perf_counter()
        topk_source: str | None = None

        def compute() -> tuple[object, Any, bool]:
            nonlocal topk_source
            read_view = getattr(self._engine, "read_view", None)
            initial_result: QueryResult | None = None
            initial_generation: int | None = None
            if question.model in _MODELS_USING_INITIAL:
                initial = self._topk.execute(question.query)
                initial_result = initial.result
                initial_generation = self._topk_result_generation(
                    question.query, initial.result
                )
                topk_source = initial.source
            with (read_view or nullcontext)():
                generation = getattr(self._engine, "generation", None)
                if (
                    read_view is not None
                    and initial_result is not None
                    and initial_generation != generation
                ):
                    # The cached initial cannot be proven to match
                    # this read view (it predates a mutation, or
                    # carries no stamp): recompute it inside the
                    # same snapshot so explanation and initial
                    # describe one dataset.
                    query_fn = getattr(self._engine, "query", None)
                    if query_fn is not None:
                        initial_result = query_fn(question.query)
                        topk_source = "engine"
                with _armed(deadline, faults.strict_deadline_scope):
                    answer = self._engine.answer_whynot(
                        question, initial_result=initial_result
                    )
            return answer, None, True

        try:
            answer, source = self._cache.fetch(
                fingerprint, compute, rendezvous=deadline is None
            )
        except faults.DeadlineExceeded as exc:
            if deadline is None:
                raise
            deadline.note_failed("why-not refinement exceeded the deadline")
            return WhyNotExecution(
                question=question,
                answer=None,
                response_ms=(time.perf_counter() - started) * 1000.0,
                source="degraded",
                fingerprint=fingerprint,
                topk_source=topk_source,
                error=str(exc),
                degraded=deadline.to_dict(),
            )
        return WhyNotExecution(
            question=question,
            answer=answer,
            response_ms=(time.perf_counter() - started) * 1000.0,
            source=source,
            fingerprint=fingerprint,
            # topk_source is only meaningful when *this* call computed:
            # cache/inflight responses charged no top-k fetch at all.
            topk_source=topk_source if source == "engine" else None,
        )

    def _execute_member(
        self, question: WhyNotQuestion, deadline: "faults.Deadline | None"
    ) -> WhyNotExecution:
        started = time.perf_counter()
        try:
            return self.execute(question, deadline=deadline)
        except WhyNotError as exc:
            return WhyNotExecution(
                question=question,
                answer=None,
                response_ms=(time.perf_counter() - started) * 1000.0,
                source="error",
                fingerprint="",
                error=str(exc),
            )

    # ------------------------------------------------------------------
    # Cache management and introspection
    # ------------------------------------------------------------------
    def _topk_result_generation(
        self, query: SpatialKeywordQuery, result: QueryResult
    ) -> int | None:
        """The engine generation ``result`` was computed under, if known.

        Probes the top-k cache's entry for the query (no counters, no
        LRU move) and trusts its stamp only when the cached value *is*
        the result object in hand — a refresh racing in between must
        not lend its stamp to an older result.
        """
        probe = self._topk._cache.peek_entry(query_fingerprint(query))
        if probe is None or probe[0] is not result:
            return None
        return getattr(probe[1], "generation", None)

    def maintain(self, summary) -> dict[str, int]:
        """Drop every cached why-not answer through a mutation batch.

        Called by :meth:`QueryExecutor.maintain` under its domain lock:
        the why-not cache is drop-on-write.  It is still one
        maintenance pass rather than an invalidation, so the cache
        generation advances (a computation in flight across the batch
        cannot populate the cache) and ``maintenance_passes`` stays in
        step with the top-k cache's.
        """
        return self._cache.maintain(None, summary.generation, summary.reach_keys())

    def stats(self) -> CacheStats:
        """The cache counters, without those a drop-every-entry pass
        could only leave at 0."""
        return dc_replace(
            super().stats(),
            maintained_kept=None,
            maintained_visited=None,
        )

    def invalidate(self) -> int:
        """Invalidate the shared domain; returns why-not entries dropped.

        Delegates to the top-k executor, whose invalidation cascades
        back into this cache — the two caches always stale together.
        """
        dropped = self._cache.stats().size
        self._topk.invalidate()
        return dropped


def consistent_stats(
    topk: QueryExecutor,
    whynot: WhyNotExecutor,
) -> tuple[CacheStats, CacheStats]:
    """Snapshot both executors' stats from one cache generation.

    The two caches form a single invalidation domain, but an
    ``invalidate()`` drops them sequentially (top-k first, then the
    linked why-not cache), so two independent ``stats()`` reads racing
    an invalidation could observe a *mixed-generation* view — the
    top-k side already invalidated, the why-not side not yet.  Holding
    the domain lock across both reads excludes any concurrent
    invalidation cascade, so the pair always reflects one generation
    (their ``invalidations`` counters agree).  ``GET /api/stats``
    serves these snapshots.
    """
    with topk._domain_lock:
        return topk.stats(), whynot.stats()
