"""Process-parallel shard workers over shared-memory kernel columns.

The scatter-gather tier (PR 4) fans shard scans over a *thread* pool,
so the pure-Python kernel loops still serialize on the GIL and the
multicore speedup is capped far below the shard count.  This module
moves the scans into long-lived worker **processes**:

* Each shard's :class:`~repro.core.kernel.ScoringKernel` columns are
  exported once into a ``multiprocessing.shared_memory`` segment
  (:meth:`ScoringKernel.export_columns`), and the worker attaches
  zero-copy ``memoryview`` casts over the segment
  (:meth:`ScoringKernel.from_columns`) — startup cost is independent of
  shard size beyond the one ``memcpy`` into the segment.
* The parent talks to each worker over a :class:`multiprocessing.Pipe`
  with a framed, pickled request/response protocol.  Scan requests ship
  the *prepared* query scalars (``qx, qy, qmask, qlen, ws, wt`` — the
  output of the kernel's query preparation) and the scatter's running
  k-th score as the scan's inclusive ``floor``, so the worker runs
  exactly the same ``scan_top_k`` the threaded path runs and returns
  the same ``(−score, oid)`` pairs, bit for bit.
* Mutations and the WAL stay on the primary.  After a batch commits,
  the pool broadcasts each shard's slice as a **generation-stamped
  column delta** (removed oids + pre-encoded appended rows) while the
  engine's writer lock is held, so a worker is never asked to serve a
  generation it has not fully applied — every scan request carries the
  generation the parent expects and a mismatch is treated as a crash.
* A crashed worker (kill -9, OOM, bug) is detected on the next pipe
  interaction, restarted in place from the shard's *current* kernel
  columns, and surfaced as :class:`WorkerCrashedError` — the serving
  tier maps it onto the PR-8 structured-503 resilience envelope, and
  the very next query is answered exactly by the fresh worker.

Deadline and fault-injection sites (``shard.scan.<i>``) are tripped in
the *parent* before each dispatch, so seeded
:class:`~repro.faults.FaultPlan` replays and the virtual clock behave
identically whether shards are threads or processes.

The pool is deliberately conservative about locking: one pool-wide
scatter lock serializes every pipe interaction (scans, deltas,
restarts), keeping the per-worker protocol strictly request/response.
Cross-process parallelism comes from *fanning sends before receives*
inside a single locked scatter, not from concurrent scatters — the
engine's read/write lock already serializes scans against mutations.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Sequence

from repro import concurrency
from repro.core.kernel import ScoringKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sharding import Shard, ShardRouter

__all__ = ["ShardWorkerPool", "WorkerCrashedError"]

# Pipe-level failures that mean "the worker is gone", as one tuple so
# the parent's send/recv sites stay in lockstep.
_PIPE_ERRORS = (BrokenPipeError, ConnectionResetError, EOFError, OSError)

# Segment names carry a process-global sequence number so several pools
# in one parent (benchmarks, follower swaps) never collide.
_SEGMENT_SEQ = itertools.count(1)


class WorkerCrashedError(RuntimeError):
    """A shard worker process died (or desynced) mid-request.

    Raised *after* the pool has already restarted the worker in place,
    so the failure is transient by construction: the serving tier maps
    it to a structured 503 with ``Retry-After`` and the retried query
    is answered exactly.
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(
            f"shard worker {shard_id} crashed and was restarted ({detail})"
        )
        self.shard_id = shard_id
        self.detail = detail


def _attach_segment(name: str, own_tracker: bool) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption.

    Before 3.13 an attaching process registers the segment with its
    resource tracker, which then unlinks it when the *attacher* exits —
    yanking the memory out from under the parent and every sibling.
    3.13 added ``track=False``; earlier interpreters need the documented
    unregister workaround — but only when this process runs its **own**
    tracker (spawn/forkserver).  A forked child shares the parent's
    tracker, where the attach-time register is an idempotent no-op and
    an unregister here would erase the *parent's* registration.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        segment = shared_memory.SharedMemory(name=name)
        if own_tracker:
            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        return segment


def _worker_main(
    conn, shm_name: str, meta: dict, generation: int, own_tracker: bool
) -> None:
    """Worker process body: attach the columns, serve the pipe until EOF.

    Messages are pickled tuples over ``Connection.send_bytes`` /
    ``recv_bytes`` (the connection provides framing):

    * ``("scan", gen, k, floor, qx, qy, qmask, qlen, ws, wt)`` →
      ``("ok", gen, pairs)`` — the shard's ``(−score, oid)`` top-k
      scoring at least ``floor`` (``None``: no cut).
    * ``("delta", gen, removed_oids, rows)`` → ``("ok", gen, None)`` —
      a generation-stamped column delta; the kernel thaws its
      shared-segment columns into local arrays on the first one.
    * ``("ping",)`` → ``("ok", gen, pid)`` — liveness probe.
    * ``("sleep", seconds)`` → *no response* — test hook: stall inside
      request processing so chaos tests can kill the worker mid-request.
    * ``("exit",)`` — clean shutdown.

    A scan whose generation differs from the worker's own answers
    ``("err", ...)`` — the parent treats that as a crash and restarts
    the worker, so a torn generation is never served.
    """
    segment = _attach_segment(shm_name, own_tracker)
    kernel = ScoringKernel.from_columns(meta, segment.buf)
    attached = True
    parent_pid = os.getppid()
    try:
        while True:
            try:
                # Poll with a timeout instead of blocking forever: if
                # the primary is SIGKILLed, forked siblings still hold
                # this pipe's parent end (fd inheritance), so EOF never
                # arrives — re-parenting is the reliable death signal.
                if not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        break
                    continue
                message = pickle.loads(conn.recv_bytes())
            except _PIPE_ERRORS:
                break
            op = message[0]
            if op == "scan":
                expect, k, floor, *scalars = message[1:]
                if expect != generation:
                    conn.send_bytes(
                        pickle.dumps(
                            (
                                "err",
                                generation,
                                f"generation skew: worker at {generation}, "
                                f"parent expects {expect}",
                            )
                        )
                    )
                    continue
                pairs = kernel.scan_top_k(k, *scalars, floor)
                conn.send_bytes(pickle.dumps(("ok", generation, pairs)))
            elif op == "delta":
                new_generation, removed_oids, rows = message[1:]
                if kernel.thaw_columns() and attached:
                    # Columns are local copies now; release the segment
                    # (the parent owns create/unlink).
                    segment.close()
                    attached = False
                kernel.apply_raw(removed_oids, rows, force_compact=True)
                generation = new_generation
                conn.send_bytes(pickle.dumps(("ok", generation, None)))
            elif op == "ping":
                conn.send_bytes(pickle.dumps(("ok", generation, os.getpid())))
            elif op == "sleep":
                time.sleep(message[1])
            elif op == "exit":
                break
            else:
                conn.send_bytes(
                    pickle.dumps(("err", generation, f"unknown op {op!r}"))
                )
    finally:
        if attached:
            # Drop the kernel's memoryviews before closing the mapping,
            # or ``close`` raises ``BufferError: exported pointers``.
            del kernel
            segment.close()
        conn.close()


class _WorkerHandle:
    """Parent-side state for one shard worker."""

    __slots__ = ("shard_id", "process", "conn", "segment", "generation", "restarts")

    def __init__(self, shard_id, process, conn, segment) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.segment = segment
        self.generation = 0
        self.restarts = 0


class ShardWorkerPool:
    """Long-lived shard worker processes behind one scatter lock.

    Parameters
    ----------
    router:
        The engine's :class:`~repro.core.sharding.ShardRouter`.  One
        worker is spawned per shard, keyed by the stable
        ``Shard.shard_id`` (survives shard drops).
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (milliseconds to spawn; the child re-attaches the
        shared segment by name either way) and ``"spawn"`` elsewhere.
    """

    def __init__(
        self, router: "ShardRouter", *, start_method: str | None = None
    ) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self._context = multiprocessing.get_context(start_method)
        self._router = router
        self._lock = concurrency.ordered_lock(
            "procpool.scatter", concurrency.LEVEL_LEAF
        )
        self._handles: dict[int, _WorkerHandle] = {}
        self._closed = False
        self.restarts = 0
        self.scans = 0
        self.deltas = 0
        try:
            for shard in router.shards:
                self._handles[shard.shard_id] = self._spawn(shard)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard: "Shard") -> _WorkerHandle:
        """Export the shard's kernel columns and start its worker."""
        meta, blob = shard.kernel.export_columns()
        # Process-global sequence: several pools can coexist in one
        # parent (benchmarks, follower swaps) without name collisions.
        name = f"yask-{os.getpid()}-{shard.shard_id}-{next(_SEGMENT_SEQ)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, len(blob))
        )
        segment.buf[: len(blob)] = blob
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, name, meta, 0, self.start_method != "fork"),
            name=f"yask-shard-{shard.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(shard.shard_id, process, parent_conn, segment)

    def _retire(self, handle: _WorkerHandle) -> None:
        """Stop a worker and free its segment (best-effort, idempotent)."""
        try:
            handle.conn.send_bytes(pickle.dumps(("exit",)))
        except _PIPE_ERRORS:
            pass  # already gone; reap below
        handle.conn.close()
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=2.0)
        handle.segment.close()
        try:
            handle.segment.unlink()
        except FileNotFoundError:
            pass  # unlinked already (double retire)

    def _restart(self, handle: _WorkerHandle, detail: str) -> None:
        """Replace a dead worker in place from the shard's current columns.

        Called with the scatter lock held.  The shard's kernel is the
        post-batch source of truth (mutations run on the primary), so a
        worker respawned from it is at the latest generation by
        construction — ``generation`` restarts at zero along with it.
        """
        self._retire(handle)
        shard = None
        for candidate in self._router.shards:
            if candidate.shard_id == handle.shard_id:
                shard = candidate
                break
        if shard is None:
            # The shard was dropped while its worker was dead; nothing
            # to resurrect.
            self._handles.pop(handle.shard_id, None)
            return
        fresh = self._spawn(shard)
        fresh.restarts = handle.restarts + 1
        self._handles[handle.shard_id] = fresh
        self.restarts += 1

    def close(self) -> None:
        """Stop every worker and unlink every segment (idempotent)."""
        with self._lock:
            self._closed = True
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            self._retire(handle)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _scan_payload(
        self, handle: _WorkerHandle, k: int, scalars, floor: float | None
    ) -> bytes:
        return pickle.dumps(("scan", handle.generation, k, floor, *scalars))

    def _require(self, shard_id: int) -> _WorkerHandle:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        return self._handles[shard_id]

    def scan_many(
        self, requests: Sequence[tuple["Shard", int, Sequence, "float | None"]]
    ) -> dict[int, list[tuple[float, int]]]:
        """Fan ``(shard, k, scalars, floor)`` scans across the workers:
        all sends, then all receives.

        The workers compute concurrently between the send sweep and the
        receive sweep — this is where the multicore win lives.  Every
        pipe that received a request is drained even when another
        worker fails, so the request/response streams never desync; the
        first failure is raised as :class:`WorkerCrashedError` after
        all crashed workers have been restarted.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            crashed: list[tuple[_WorkerHandle, str]] = []
            pending: list[_WorkerHandle] = []
            results: dict[int, list[tuple[float, int]]] = {}
            for shard, k, scalars, floor in requests:
                handle = self._handles[shard.shard_id]
                try:
                    handle.conn.send_bytes(
                        self._scan_payload(handle, k, scalars, floor)
                    )
                except _PIPE_ERRORS as exc:
                    crashed.append((handle, repr(exc)))
                else:
                    pending.append(handle)
            for handle in pending:
                try:
                    status, _gen, result = pickle.loads(
                        handle.conn.recv_bytes()
                    )
                except _PIPE_ERRORS as exc:
                    crashed.append((handle, repr(exc)))
                    continue
                if status != "ok":
                    crashed.append((handle, str(result)))
                    continue
                results[handle.shard_id] = result
            for handle, detail in crashed:
                self._restart(handle, detail)
            if crashed:
                handle, detail = crashed[0]
                raise WorkerCrashedError(handle.shard_id, detail)
            self.scans += len(requests)
            return results

    # ------------------------------------------------------------------
    # Mutation listener (registered after the shard router)
    # ------------------------------------------------------------------
    def apply_mutations(self, change) -> None:
        """Broadcast the router's per-shard deltas, generation-stamped.

        Runs under the engine's exclusive writer lock as the listener
        registered *after* the shard router, so ``router.last_shard_deltas``
        describes exactly this batch and no scan can interleave: workers
        either serve the pre-batch generation (before this ran) or the
        post-batch one (after), never a torn middle.  Appended rows are
        pre-encoded against each shard kernel's (already extended)
        vocabulary — workers hold no vocabulary of their own.

        Every surviving shard gets a delta — an empty one when the batch
        did not touch it — so each batch doubles as a liveness sweep: a
        worker that fails its delta (or died since the last batch) is
        restarted from the shard's post-batch columns instead.  Same end
        state, one fresh process, and never a stale handle left to
        surprise the next scan.
        """
        if self._closed:
            return
        router = self._router
        with self._lock:
            for shard_id in router.last_dropped:
                handle = self._handles.pop(shard_id, None)
                if handle is not None:
                    self._retire(handle)
            for shard in router.shards:
                handle = self._handles.get(shard.shard_id)
                if handle is None:
                    # A shard born in this batch (split) has no worker yet.
                    self._handles[shard.shard_id] = self._spawn(shard)
                    continue
                removed_oids, appended = router.last_shard_deltas.get(
                    shard.shard_id, ((), ())
                )
                # The one definition of the column-delta wire format —
                # shared with the mutation summariser, so the rows a
                # proc worker applies are byte-identical to the rows
                # executor maintenance scores.
                rows = ScoringKernel.encode_rows(
                    appended, shard.kernel.vocabulary
                )
                new_generation = handle.generation + 1
                message = ("delta", new_generation, removed_oids, rows)
                try:
                    handle.conn.send_bytes(pickle.dumps(message))
                    status, generation, _ = pickle.loads(
                        handle.conn.recv_bytes()
                    )
                    applied = status == "ok" and generation == new_generation
                except _PIPE_ERRORS:
                    applied = False
                if applied:
                    handle.generation = new_generation
                    self.deltas += 1
                else:
                    self._restart(handle, "delta broadcast failed")

    # ------------------------------------------------------------------
    # Introspection and test hooks
    # ------------------------------------------------------------------
    def worker_pid(self, shard_id: int) -> int | None:
        """The worker's OS pid (chaos tests aim ``kill -9`` with this)."""
        with self._lock:
            handle = self._handles.get(shard_id)
            return None if handle is None else handle.process.pid

    def ping(self, shard_id: int) -> int:
        """Round-trip liveness probe; returns the worker's pid."""
        with self._lock:
            handle = self._require(shard_id)
            try:
                handle.conn.send_bytes(pickle.dumps(("ping",)))
                status, _gen, pid = pickle.loads(handle.conn.recv_bytes())
            except _PIPE_ERRORS as exc:
                detail = repr(exc)
                self._restart(handle, detail)
                raise WorkerCrashedError(handle.shard_id, detail) from exc
            if status != "ok":
                self._restart(handle, str(pid))
                raise WorkerCrashedError(handle.shard_id, str(pid))
            return pid

    def inject_stall(self, shard_id: int, seconds: float) -> None:
        """Test hook: stall the worker inside request processing.

        Sends a ``sleep`` op (which produces no response) and returns
        immediately — chaos tests follow up with ``kill -9`` to die
        mid-request, or let the stall elapse to simulate a slow worker.
        """
        with self._lock:
            handle = self._require(shard_id)
            handle.conn.send_bytes(pickle.dumps(("sleep", float(seconds))))

    def segment_names(self) -> list[str]:
        """The live shared-memory segment names (leak assertions)."""
        with self._lock:
            return [handle.segment.name for handle in self._handles.values()]

    def to_dict(self) -> dict[str, object]:
        """The ``GET /api/stats`` ``procpool`` payload."""
        with self._lock:
            return {
                "workers": len(self._handles),
                "start_method": self.start_method,
                "scans": self.scans,
                "deltas": self.deltas,
                "restarts": self.restarts,
                "generations": {
                    str(shard_id): handle.generation
                    for shard_id, handle in sorted(self._handles.items())
                },
            }
