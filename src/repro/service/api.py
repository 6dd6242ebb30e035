"""The YASK query processor facade (Fig. 1's server-side "Query Processor").

:class:`YaskEngine` wires together everything the architecture diagram
shows on the server: the index built over the object database (a
columnar scoring kernel with its scan index), the spatial keyword top-k
query engine, and the why-not engine with its explanation generator and
two refinement modules.  The HTTP server (:mod:`repro.service.server`),
the CLI and the examples all drive this one class; embedding
applications can use it directly without any service plumbing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Sequence, cast

from repro import concurrency
from repro.core.codec import database_to_doc
from repro.core.geometry import Point
from repro.core.kernel import ScoringKernel
from repro.core.mutations import (
    AppliedBatch,
    MutableDatabase,
    Mutation,
    ReadWriteLock,
)
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import DEFAULT_WEIGHTS, QueryResult, SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.core.sharding import ShardRouter
from repro.core.topk import KernelTopK, TopKEngine
from repro.whynot.engine import WhyNotAnswer, WhyNotEngine

if TYPE_CHECKING:  # imported lazily: the executor fronts this module
    from repro.service.executor import WhyNotQuestion
    from repro.service.wal import WriteAheadLog
from repro.whynot.explanation import WhyNotExplanation
from repro.whynot.keyword import KeywordRefinement
from repro.whynot.preference import PreferenceRefinement

__all__ = ["MutationReport", "TimedResult", "YaskEngine"]


@dataclass(frozen=True, slots=True)
class TimedResult:
    """A value paired with its server-side response time (Fig. 4, Panel 5)."""

    value: object
    response_ms: float


@dataclass(frozen=True, slots=True)
class MutationReport:
    """What one :meth:`YaskEngine.apply_mutations` call did.

    ``change`` carries the applied batch (and its
    :class:`~repro.core.mutations.BatchSummary`) so the serving tier can
    run scoped cache invalidation against exactly what moved; the scalar
    fields are the wire-friendly view ``to_dict`` serialises.

    A *deduplicated* report (``deduplicated=True``, ``change=None``)
    means the batch token was already committed: nothing moved, and
    ``generation`` is the generation the original commit produced — the
    answer an idempotent retry needs.
    """

    change: AppliedBatch | None
    objects: int
    kernel: dict | None
    response_ms: float
    deduplicated: bool = False
    dedup_generation: int = 0

    @property
    def generation(self) -> int:
        if self.change is None:
            return self.dedup_generation
        return self.change.generation

    def to_dict(self) -> dict:
        if self.change is None:
            inserted = updated = deleted = 0
        else:
            inserted = self.change.inserted_count
            updated = self.change.updated_count
            deleted = self.change.deleted_count
        return {
            "generation": self.generation,
            "inserted": inserted,
            "updated": updated,
            "deleted": deleted,
            "objects": self.objects,
            "kernel": self.kernel,
            "response_ms": self.response_ms,
            "deduplicated": self.deduplicated,
        }


class YaskEngine:
    """The complete YASK server-side query processor.

    One shape, always — a columnar scoring kernel and a mutable
    database — so every engine queries, mutates, logs and
    recovers; anything outside docs/OPERATIONS.md's "Supported
    configurations" table is refused at construction, with the reason.
    The kernel scores the paper's Jaccard (Eqn. 2), the one text model
    the engine serves; other models are library reference paths
    (:class:`~repro.core.scoring.Scorer`).

    Parameters
    ----------
    database:
        The spatial object database ``D``.
    default_weights:
        The server-side preference parameter: "the system ... leaves the
        weighting vector ~w as a system parameter on the server.  In the
        default setting ... ⟨0.5, 0.5⟩" (Section 3.2).
    shards:
        ``None`` (default): top-k is one indexed scan of the global
        kernel (:class:`~repro.core.topk.KernelTopK`).  An integer
        partitions the database into that many disjoint spatial shards
        (:mod:`repro.core.sharding`): top-k runs the same scan per
        shard, scatter-gather with shard-bound skipping
        (:class:`~repro.service.sharded.ShardedEngine`), bit-for-bit
        identical to the unsharded engine.  Why-not questions rank on
        the one global kernel either way.  ``shards=1``
        exercises the sharded machinery with a single shard (the E12
        scatter baseline).
    partitioner:
        ``"grid"`` (spatial quantile tiles, default), ``"round-robin"``
        (the spatially incoherent ablation) or a callable; anything but
        the default requires ``shards``.
    wal:
        A :class:`~repro.service.wal.WriteAheadLog` to attach: every
        mutation batch is durably appended *before* it is applied, so a
        crash at any point reconstructs this engine exactly
        (:func:`repro.service.wal.recover_engine`).  The log's last
        generation must equal this engine's — recovery replays the log
        *before* attaching.
    base_generation:
        The generation this engine's state already embodies — the
        snapshot generation when recovering.  The mutation counter
        resumes from here so logged generations stay gap-free across
        restarts.
    batch_tokens:
        Seed map of idempotency token → committed generation, restored
        from the write-ahead log on recovery so client mutation retries
        stay deduplicated across restarts.
    """

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        default_weights: Weights = DEFAULT_WEIGHTS,
        shards: int | None = None,
        partitioner: str = "grid",
        wal: "WriteAheadLog | None" = None,
        base_generation: int = 0,
        batch_tokens: Mapping[str, int] | None = None,
    ) -> None:
        if shards is None and partitioner != "grid":
            raise ValueError(
                "partitioner configures the sharded engine and would be "
                "ignored without shards; pass shards=N (shards=1 keeps "
                "one shard) or drop it"
            )
        if base_generation < 0:
            raise ValueError("base_generation must be non-negative")
        self._database = database
        self._default_weights = default_weights

        self._shard_router: ShardRouter | None = None
        if shards is not None:
            self._shard_router = ShardRouter(
                database, shards=shards, partitioner=partitioner
            )
        self._scorer = Scorer(database)
        # Never None: the default Jaccard model always gets a kernel.
        self._kernel = cast(ScoringKernel, self._scorer.kernel)
        # The kernel serves top-k, the explanation generator's counting
        # queries and the keyword module's capped candidate ranks.
        self._whynot = WhyNotEngine(self._scorer)

        # ---- Live-mutation tier -------------------------------------
        # Readers (queries, why-not answering) share the lock; mutation
        # batches are exclusive, so a search never observes a
        # half-applied batch.  Level 20 in the documented hierarchy:
        # above the snapshot and follower locks, below the WAL lock
        # (apply_mutations holds the write side across wal.append —
        # fsync there is the write-ahead guarantee, hence fsync_safe).
        self._lock = ReadWriteLock(
            name="engine.rw", level=concurrency.LEVEL_ENGINE, fsync_safe=True
        )
        self._mutable = MutableDatabase(
            database,
            start_generation=base_generation,
            tokens=batch_tokens,
        )
        self._mutable.register_listener(self._kernel)
        # Ends the why-not contexts of the generation a batch replaces.
        self._mutable.register_listener(self._whynot)

        self._topk_engine: TopKEngine
        if self._shard_router is None:
            self._topk_engine = KernelTopK(self._scorer)
        else:
            from repro.service.sharded import ShardedEngine

            self._topk_engine = ShardedEngine(self._shard_router, self._scorer)
            # Listener order is delivery order, and the router comes
            # last: it reads only the parent database, which the batch
            # changed before any listener ran.
            self._mutable.register_listener(self._shard_router)
        self._wal: "WriteAheadLog | None" = None
        if wal is not None:
            self.attach_wal(wal)

    def close(self) -> None:
        """Flush and close any attached log (idempotent).

        The engine itself holds no threads; the HTTP server and the CLI
        batch paths call this alongside the executor pools' shutdown.
        """
        if self._wal is not None:
            self._wal.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def database(self) -> SpatialDatabase:
        return self._database

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    @property
    def kernel(self) -> ScoringKernel:
        """The scorer's columnar kernel.

        Its :class:`~repro.core.kernel.KernelStats` counters surface
        through ``GET /api/stats`` so operators can see how much work
        the compute tier under the result caches actually performs.
        """
        return self._kernel

    def kernel_stats(self) -> dict[str, int]:
        """The ``GET /api/stats`` ``kernel`` section.

        The global kernel's counters, with the shard kernels' top-k
        scan counters added in: a sharded engine's scans run on its
        shards' kernels, and every one of them is counted here.
        """
        stats = self._kernel.stats.to_dict()
        if self._shard_router is not None:
            for shard in self._shard_router.shards:
                scans = shard.kernel.stats.to_dict()
                for field in (
                    "scan_calls", "scan_rows_scored", "scan_columns_visited",
                    "scan_index_builds",
                ):
                    stats[field] += scans[field]
        return stats

    @property
    def shard_router(self) -> ShardRouter | None:
        """The shard router (None when the engine is unsharded).

        Its :class:`~repro.core.sharding.ShardStats` — scatter/merge
        timings and shard scan/skip counters — surface through
        ``GET /api/stats`` as the ``shards`` section.
        """
        return self._shard_router

    @property
    def default_weights(self) -> Weights:
        return self._default_weights

    @property
    def whynot(self) -> WhyNotEngine:
        return self._whynot

    # ------------------------------------------------------------------
    # Query construction
    # ------------------------------------------------------------------
    def make_query(
        self,
        loc: Point,
        keywords: Iterable[str] | AbstractSet[str],
        k: int,
        *,
        weights: Weights | None = None,
    ) -> SpatialKeywordQuery:
        """Build a query, defaulting the weights to the server parameter."""
        return SpatialKeywordQuery(
            loc=loc,
            doc=frozenset(keywords),
            k=k,
            weights=weights if weights is not None else self._default_weights,
        )

    # ------------------------------------------------------------------
    # Spatial keyword top-k querying
    # ------------------------------------------------------------------
    def query(self, query: SpatialKeywordQuery) -> QueryResult:
        """Execute a prepared spatial keyword top-k query."""
        with self._lock.read():
            return self._topk_engine.search(query)

    def read_view(self):
        """A shared-read context: no mutation batch applies inside it.

        Lets a caller pair several reads — e.g. the current generation
        and a query result — into one consistent snapshot.  Nested read
        acquisition (calling :meth:`query` inside the view) is
        deadlock-free by the readers-preference lock design.
        """
        return self._lock.read()

    def top_k(
        self,
        loc: Point,
        keywords: Iterable[str] | AbstractSet[str],
        k: int,
        *,
        weights: Weights | None = None,
    ) -> QueryResult:
        """Convenience: build and execute a top-k query in one step."""
        return self.query(self.make_query(loc, keywords, k, weights=weights))

    def timed_query(self, query: SpatialKeywordQuery) -> TimedResult:
        """Execute a query and report the response time (query log panel)."""
        started = time.perf_counter()
        result = self.query(query)
        return TimedResult(
            value=result, response_ms=(time.perf_counter() - started) * 1000.0
        )

    def audit(self, result: QueryResult):
        """Answer "are the returned objects really the best?" (Examples 1-2).

        Re-derives the result with the brute-force Definition-1 oracle
        and cross-checks objects, order and scores; returns an
        :class:`repro.service.audit.AuditReport`.
        """
        from repro.service.audit import audit_result

        with self._lock.read():
            return audit_result(self._scorer, result)

    # ------------------------------------------------------------------
    # Live mutation (insert / update / delete through every layer)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Mutation batches applied so far (0 for a fresh engine)."""
        return self._mutable.generation

    def apply_mutations(
        self,
        mutations: Sequence[Mutation],
        *,
        batch_token: str | None = None,
    ) -> MutationReport:
        """Apply one mutation batch through every layer, atomically.

        Under the exclusive write lock: the database (id/name tables
        patched, incremental vocabulary interning), the scoring kernel
        and its scan index (tombstone + append + threshold compaction —
        the global kernel and each shard's by the same rule) and the
        shard router (owning-shard routing, summaries widened or, when a
        boundary holder left, recomputed) are all
        updated in place, in O(batch).  After this returns, every
        query answer is bit-for-bit what a fresh engine built from the
        new object set would produce.  Serving-tier caches are *not*
        touched here — the caller holds them; pass ``report.change``
        to :meth:`repro.service.executor.QueryExecutor.maintain`
        (cached answers the batch provably cannot change are kept, the
        rest dropped).

        ``batch_token`` makes the call idempotent: a token already seen
        (committed, or a committed no-op) short-circuits under the same
        write lock into a ``deduplicated`` report carrying the original
        generation — a client retry after a lost response re-applies
        nothing.  The token rides the WAL record, so deduplication
        survives recovery and follower re-bootstrap.
        """
        started = time.perf_counter()
        pre_commit = None
        if self._wal is not None:
            from repro.service.protocol import mutation_to_dict

            wal = self._wal
            # The write-ahead step: once normalisation has validated the
            # batch (and proven it is not a net no-op), the raw batch is
            # made durable *before* any in-memory state moves.  A failed
            # append raises WalWriteError out of apply() with the engine
            # untouched — a batch is either logged and applied, or
            # neither.
            payload = [mutation_to_dict(mutation) for mutation in mutations]

            def pre_commit(generation: int, _mutations) -> None:
                wal.append(generation, payload, token=batch_token)

        with self._lock.write():
            if batch_token is not None:
                # Dedup lookup under the same exclusive lock that commits
                # tokens: two concurrent retries of one batch serialise
                # here, so exactly one applies.
                seen = self._mutable.token_generation(batch_token)
                if seen is not None:
                    return MutationReport(
                        change=None,
                        objects=len(self._database),
                        kernel=None,
                        response_ms=(time.perf_counter() - started) * 1000.0,
                        deduplicated=True,
                        dedup_generation=seen,
                    )
            change = self._mutable.apply(
                mutations, pre_commit=pre_commit, token=batch_token
            )
            # Still under the lock: the report describes this batch's
            # own generation, not whatever the next writer leaves.
            return MutationReport(
                change=change,
                objects=len(self._database),
                kernel=self._kernel.mutation_info(),
                response_ms=(time.perf_counter() - started) * 1000.0,
            )

    def mutation_stats(self) -> dict:
        """The ``GET /api/stats`` mutations section."""
        return {
            **self._mutable.to_dict(),
            "kernel": self._kernel.mutation_info(),
        }

    # ------------------------------------------------------------------
    # Durability (write-ahead log + snapshots)
    # ------------------------------------------------------------------
    @property
    def wal(self) -> "WriteAheadLog | None":
        """The attached write-ahead log (None for a memory-only engine)."""
        return self._wal

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Make every future mutation batch durable through ``wal``.

        The log's last generation must equal this engine's current
        generation: an engine behind the log would re-apply logged
        batches on recovery but skip them live, and an engine ahead
        would log a gap.  :func:`repro.service.wal.recover_engine`
        establishes the invariant by replaying before attaching.
        """
        if self._wal is not None:
            raise ValueError("a write-ahead log is already attached")
        if wal.last_generation != self.generation:
            from repro.service.wal import WalError

            raise WalError(
                f"cannot attach: log is at generation {wal.last_generation} "
                f"but the engine is at {self.generation}; recover the "
                "engine from the log (replay) before attaching"
            )
        self._wal = wal

    def snapshot(self) -> dict:
        """Checkpoint the current state into the attached log.

        Writes the full database document
        (:func:`repro.core.codec.database_to_doc`) as a
        snapshot covering the current generation, then compacts away
        fully covered segments.  Recovery after this point loads the
        snapshot and replays only the tail.  Returns the log's snapshot
        report (``snapshot``, ``generation``, ``segments_compacted``).
        """
        if self._wal is None:
            from repro.service.wal import WalError

            raise WalError(
                "no write-ahead log attached; snapshots checkpoint a log"
            )
        with self._lock.read():
            generation = self.generation
            doc = database_to_doc(self._database)
        return self._wal.write_snapshot(generation, doc)

    def durability_stats(self) -> dict:
        """The ``GET /api/stats`` durability section (primary side)."""
        if self._wal is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "role": "primary",
            "generation": self.generation,
            **self._wal.to_dict(),
        }

    # ------------------------------------------------------------------
    # Why-not question answering
    # ------------------------------------------------------------------
    def explain(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        initial_result: QueryResult | None = None,
    ) -> WhyNotExplanation:
        """Explain why the referenced objects are missing from the result.

        Pass ``initial_result`` (the query's cached top-k result) to
        spare the engine's top-k; without one the engine runs its own
        (the served scan, under the same read lock), never a full pass.
        """
        with self._lock.read():
            if initial_result is None:
                initial_result = self._topk_engine.search(query)
            return self._whynot.explain(
                query, missing, initial_result=initial_result
            )

    def refine_preference(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
    ) -> PreferenceRefinement:
        """Preference-adjusted refinement (Definition 2)."""
        with self._lock.read():
            return self._whynot.refine_preference(query, missing, lam=lam)

    def refine_keywords(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
    ) -> KeywordRefinement:
        """Keyword-adapted refinement (Definition 3)."""
        with self._lock.read():
            return self._whynot.refine_keywords(query, missing, lam=lam)

    def refine_combined(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
    ):
        """Both refinement functions applied together (Section 3.2:
        "users can apply the two refinement functions simultaneously")."""
        with self._lock.read():
            return self._whynot.refine_combined(query, missing, lam=lam)

    def why_not(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
        initial_result: QueryResult | None = None,
    ) -> WhyNotAnswer:
        """Full why-not answer: explanation plus both refinement models.

        Pass ``initial_result`` (the query's cached top-k result) to
        spare the engine's top-k, which runs otherwise (as in
        :meth:`explain`).
        """
        with self._lock.read():
            if initial_result is None:
                initial_result = self._topk_engine.search(query)
            return self._whynot.refine_both(
                query, missing, lam=lam, initial_result=initial_result
            )

    # ------------------------------------------------------------------
    # Why-not dispatch (executor/service substrate)
    # ------------------------------------------------------------------
    def resolve_missing_oids(
        self, references: Sequence[int | str]
    ) -> tuple[int, ...]:
        """Resolve missing-object references to sorted, deduplicated ids.

        The canonical form behind why-not fingerprints: a question
        naming an object and one using its id address the same cache
        entry.  Raises :class:`~repro.whynot.errors.UnknownObjectError`
        for references outside the database.
        """
        with self._lock.read():
            resolved = self._whynot.resolve_missing(references)
        return tuple(sorted(obj.oid for obj in resolved))

    def answer_whynot(
        self,
        question: "WhyNotQuestion",
        *,
        initial_result: QueryResult | None = None,
    ):
        """Dispatch one :class:`WhyNotQuestion` to its module.

        ``initial_result`` (the cached top-k result for the question's
        query) feeds the explanation-bearing models ("full", "explain");
        the pure refiners rank in dual space and ignore it.
        """
        query, missing, lam = question.query, question.missing, question.lam
        if question.model == "full":
            return self.why_not(
                query, missing, lam=lam, initial_result=initial_result
            )
        if question.model == "explain":
            return self.explain(query, missing, initial_result=initial_result)
        if question.model == "preference":
            return self.refine_preference(query, missing, lam=lam)
        if question.model == "keywords":
            return self.refine_keywords(query, missing, lam=lam)
        if question.model == "combined":
            return self.refine_combined(query, missing, lam=lam)
        raise ValueError(f"unknown why-not model {question.model!r}")
