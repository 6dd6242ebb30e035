"""The YASK HTTP server (the browser–server model of Fig. 1).

The paper's server side "is built on Apache Tomcat, and its query
engines are implemented in Java"; the reproduction substitutes Python's
threading ``http.server`` (DESIGN.md, substitution 2) with the same
request flow:

* ``POST /api/query`` — issue an initial spatial keyword top-k query;
  the server caches it in a session and returns a ``session_id`` for
  follow-up why-not questions.
* ``POST /api/query/batch`` — execute a list of top-k queries in one
  request through the shared :class:`QueryExecutor` (worker-pool
  fan-out, result cache, in-flight dedup); stateless, no sessions.
* ``POST /api/whynot/explain`` — the explanation generator.
* ``POST /api/whynot/preference|keywords|combined`` — a refinement
  model; the refined query is executed and its result returned alongside.
* ``POST /api/whynot/batch`` — answer a list of independent why-not
  questions in one request through the shared
  :class:`WhyNotExecutor`; stateless, each question carries its own
  query, missing objects, model and λ.
* ``POST /api/session/close`` — the user "gave up asking" (drops the cache).
* ``GET /api/objects`` — every object (the grey markers of Fig. 3).
* ``GET /api/objects/<oid-or-name>`` — one object; unknown references
  are a structured 404, never a 500.
* ``POST /api/objects`` — live-ingest one object or a list of objects.
* ``DELETE /api/objects/<oid-or-name>`` — retire one object.
* ``POST /api/mutations`` — a mixed insert/update/delete batch; applied
  atomically under the engine's write lock, followed by cache
  maintenance (cached answers the batch could affect are patched or
  dropped, the rest stay warm).
* ``GET /api/log?session_id=…`` — the query-log panel (Fig. 4, Panel 5).
* ``GET /api/stats`` — cache hit/miss/eviction counters for both
  executor tiers (top-k and why-not).
* ``GET /healthz`` — liveness probe (historical alias).
* ``GET /api/health/live`` — liveness: the process answers, nothing else.
* ``GET /api/health/ready`` — readiness: 503 + detail while the WAL
  circuit breaker holds the server in read-only degraded mode;
  otherwise 200 with breaker state, in-flight gauge and follower lag.

All top-k executions — single and batch — flow through one
:class:`repro.service.executor.QueryExecutor`, so a repeated query is a
cache hit regardless of which user or endpoint issued it first; the
query log marks such responses as cache hits.  Every why-not request —
session-bound or batched — likewise flows through one
:class:`repro.service.executor.WhyNotExecutor`, which caches full
answers, dedups identical concurrent questions and reuses the top-k
cache for each question's initial result instead of re-running the
search.

Every why-not response carries the fields the demonstration GUI shows:
the refined parameters, the penalty against the initial query and the
server-side response time.

Transport is HTTP/1.1 with persistent connections: a client asks its
top-k query and its why-not questions over one socket, served by one
handler thread for as long as the connection stays open (docs/API.md,
"Connections").
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, unquote, urlparse

from repro import concurrency, faults
from repro.core.mutations import MissingTargetError, Mutation, MutationError
from repro.service.api import YaskEngine
from repro.service.executor import (
    QueryExecutor,
    WhyNotExecutor,
    WhyNotQuestion,
    consistent_stats,
)
from repro.service.protocol import (
    MAX_BATCH_MUTATIONS,
    ProtocolError,
    batch_execution_to_dict,
    batch_queries_from_dict,
    batch_token_from_dict,
    batch_whynot_questions_from_dict,
    lambda_from_dict,
    missing_refs_from_dict,
    mutations_from_dict,
    object_to_dict,
    spatial_object_from_dict,
    query_from_dict,
    result_to_dict,
    timeout_ms_from_dict,
    whynot_batch_execution_to_dict,
    whynot_value_to_dict,
)
from repro.service.protocol import min_generation_from_dict
from repro.service.resilience import (
    CLOSED,
    CircuitBreaker,
    ConnectionTracker,
    InflightGauge,
)
from repro.service.session import SessionManager
from repro.service.wal import FollowerEngine, FollowerLagError, WalWriteError
from repro.whynot.errors import WhyNotError

__all__ = ["YaskHTTPServer", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20  # defensive cap on request bodies
# Socket timeout of every connection: how long an idle keep-alive peer,
# or one that stalls mid-request, may hold its handler thread.
_IDLE_TIMEOUT_S = 30.0


class _RequestError(Exception):
    """An error with an HTTP status code (and optional Retry-After)."""

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class _FollowerEngineProxy:
    """The executors' engine handle on a follower server.

    A follower's engine object can be *replaced* mid-flight: when log
    compaction outruns the tail position,
    :meth:`~repro.service.wal.FollowerEngine.poll` re-bootstraps from
    the newest snapshot and swaps in a fresh engine.  The executors
    must always talk to the current one, so they hold this proxy
    (re-reading ``follower.engine`` per call) instead of a direct
    reference that would silently pin the pre-rebootstrap state.
    """

    __slots__ = ("_follower",)

    def __init__(self, follower: FollowerEngine) -> None:
        self._follower = follower

    def query(self, query):
        return self._follower.engine.query(query)

    def resolve_missing_oids(self, references):
        return self._follower.engine.resolve_missing_oids(references)

    def answer_whynot(self, question, *, initial_result=None):
        return self._follower.engine.answer_whynot(
            question, initial_result=initial_result
        )

    @property
    def scorer(self):
        return self._follower.engine.scorer


# Session-bound why-not models, keyed by the last segment of
# ``/api/whynot/<model>``: the query-log label, the response key the
# answer goes under, and the refinement parameters the log records
# (None for the explanation, which refines nothing).
_WHYNOT_MODELS: Mapping[
    str, tuple[str, str, Callable[[Any], dict[str, Any]] | None]
] = {
    "explain": ("why-not explanation", "explanation", None),
    "preference": (
        "preference adjustment",
        "refinement",
        lambda refinement: {
            "refined_ws": refinement.refined_query.ws,
            "refined_k": refinement.refined_query.k,
        },
    ),
    "keywords": (
        "keyword adaption",
        "refinement",
        lambda refinement: {
            "added": ",".join(sorted(refinement.added)),
            "removed": ",".join(sorted(refinement.removed)),
            "refined_k": refinement.refined_query.k,
        },
    ),
    "combined": (
        "combined refinement",
        "refinement",
        lambda refinement: {
            "order": refinement.order,
            "refined_k": refinement.refined_query.k,
        },
    ),
}


def _reject_constant(literal: str) -> None:
    """``json.loads`` hook: NaN, Infinity and -Infinity are not JSON."""
    raise json.JSONDecodeError(f"{literal} is not valid JSON", literal, 0)


def _keyerror_message(exc: KeyError) -> str:
    """The human-readable message of a lookup ``KeyError``.

    The database and session lookups raise with a full sentence as the
    sole argument; ``str(KeyError)`` would wrap it in quotes.
    """
    return str(exc.args[0]) if exc.args else str(exc)


class YaskHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a YaskEngine and SessionManager."""

    daemon_threads = True

    def __init__(
        self,
        engine: YaskEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        session_capacity: int = 256,
        cache_capacity: int = 1024,
        whynot_cache_capacity: int = 256,
        cache_skyband: int = 8,
        batch_workers: int = 8,
        follower: FollowerEngine | None = None,
        snapshot_every: int | None = None,
        snapshot_interval_secs: float | None = None,
        max_inflight: int | None = None,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_ms: float = 1000.0,
    ) -> None:
        if follower is not None and follower.engine is not engine:
            raise ValueError(
                "the follower's engine must be the engine being served"
            )
        if snapshot_every is not None:
            if snapshot_every < 1:
                raise ValueError("snapshot_every must be positive")
            if engine.wal is None:
                raise ValueError(
                    "snapshot_every requires an engine with a write-ahead log"
                )
        if snapshot_interval_secs is not None:
            if snapshot_interval_secs <= 0:
                raise ValueError("snapshot_interval_secs must be positive")
            if engine.wal is None:
                raise ValueError(
                    "snapshot_interval_secs requires an engine with a "
                    "write-ahead log"
                )
        self._engine = engine
        # A follower server is read-only: reads poll the tailed log
        # before executing, writes are refused with a structured 403.
        self.follower = follower
        # Admission control: a bounded in-flight gauge sheds excess
        # POST/DELETE traffic with a structured 503 + Retry-After
        # instead of queueing it behind a saturated worker pool.  GETs
        # (health probes, stats) are always admitted — an overloaded
        # server must still answer "am I alive".
        self.inflight = InflightGauge(max_inflight)
        # The WAL circuit breaker: persistent WalWriteErrors flip the
        # primary into an advertised read-only degraded mode instead of
        # grinding through a failing append on every mutation.  Only a
        # primary with a log has one (a follower is read-only anyway).
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                cooldown_ms=breaker_cooldown_ms,
            )
            if engine.wal is not None and follower is None
            else None
        )
        self.snapshot_every = snapshot_every
        self.snapshot_interval_secs = snapshot_interval_secs
        # Root of the lock hierarchy: held across engine.snapshot(),
        # which takes the engine read lock and then the WAL lock (and
        # fsyncs — sanctioned, that is the snapshot's durability point).
        self._snapshot_lock = concurrency.ordered_lock(
            "server.snapshot", concurrency.LEVEL_SNAPSHOT, fsync_safe=True
        )
        self._snapshot_generation = (
            engine.wal.snapshot_generation if engine.wal is not None else 0
        )
        # Wall-clock cadence (ROADMAP item 2 follow-up): a batch burst
        # followed by a quiet hour must not leave the whole burst
        # un-checkpointed just because the *next* batch never arrives.
        # The timer thread snapshots whenever records accumulated since
        # the last checkpoint and the interval elapsed.
        self._snapshot_timer_stop = threading.Event()
        self._snapshot_timer: threading.Thread | None = None
        if snapshot_interval_secs is not None:
            self._snapshot_timer = threading.Thread(
                target=self._snapshot_on_interval,
                name="yask-snapshot-timer",
                daemon=True,
            )
        # On a follower the executors hold a proxy, not the engine
        # itself: a compaction-outrun poll may swap the follower's
        # engine (snapshot re-bootstrap), and the executors must follow.
        served_engine = (
            _FollowerEngineProxy(follower) if follower is not None else engine
        )
        self.executor = QueryExecutor(
            served_engine,
            cache_capacity=cache_capacity,
            max_workers=batch_workers,
            skyband_delta=cache_skyband,
        )
        # Shares the top-k executor's invalidation domain and reuses its
        # cached results as why-not starting points.
        self.whynot_executor = WhyNotExecutor(
            served_engine,
            self.executor,
            cache_capacity=whynot_cache_capacity,
            max_workers=batch_workers,
        )
        self.sessions = SessionManager(capacity=session_capacity)
        # Every accepted socket, from accept to shutdown_request, plus
        # the ``transport`` counters of ``GET /api/stats``.
        self.connections = ConnectionTracker()
        super().__init__((host, port), _YaskRequestHandler)
        # serve_forever's wake-up line, written by shutdown().
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stop_requested = False
        self._stopped = threading.Event()
        if self._snapshot_timer is not None:
            self._snapshot_timer.start()

    @property
    def engine(self) -> YaskEngine:
        """The engine currently being served.

        On a follower this re-reads ``follower.engine`` every time: a
        compaction-outrun poll re-bootstraps the follower from the
        newest snapshot and swaps in a fresh engine, and every handler
        must see the swap immediately.
        """
        if self.follower is not None:
            return self.follower.engine
        return self._engine

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def resilience_stats(self) -> dict[str, Any]:
        """The ``resilience`` section of ``GET /api/stats``."""
        breaker = self.breaker
        return {
            "inflight": self.inflight.to_dict(),
            "breaker": breaker.to_dict() if breaker is not None else None,
            "read_only": (
                self.follower is not None
                or (breaker is not None and breaker.state != CLOSED)
            ),
        }

    def process_request(self, request, client_address) -> None:
        self.connections.opened(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.connections.closed(request)

    def maybe_snapshot(self) -> dict | None:
        """Checkpoint the log when the configured cadence is due.

        Called after every applied batch; serialised so concurrent
        mutation threads cannot race two snapshots (one would regress
        the other's manifest generation).
        """
        if self.snapshot_every is None:
            return None
        with self._snapshot_lock:
            due = (
                self.engine.generation - self._snapshot_generation
                >= self.snapshot_every
            )
            if not due:
                return None
            info = self.engine.snapshot()
            self._snapshot_generation = info["generation"]
            return info

    def _snapshot_if_dirty(self) -> dict | None:
        """Checkpoint if any records landed since the last snapshot.

        The wall-clock cadence path: unlike :meth:`maybe_snapshot` it
        has no record-count threshold — one un-checkpointed batch that
        sat for a full interval is reason enough.
        """
        with self._snapshot_lock:
            if self.engine.generation == self._snapshot_generation:
                return None
            info = self.engine.snapshot()
            self._snapshot_generation = info["generation"]
            return info

    def _snapshot_on_interval(self) -> None:
        """Body of the ``yask-snapshot-timer`` daemon thread."""
        interval = self.snapshot_interval_secs
        assert interval is not None
        while not self._snapshot_timer_stop.wait(interval):
            try:
                self._snapshot_if_dirty()
            except Exception as exc:  # pragma: no cover - WAL fault path
                # A failing snapshot must not kill the cadence thread;
                # the same fault will surface loudly on the write path.
                print(
                    f"yask: interval snapshot failed: {exc}", file=sys.stderr
                )

    def sync_follower(self) -> int:
        """Tail the log before a read; drop caches if anything applied."""
        if self.follower is None:
            return 0
        try:
            applied = self.follower.poll()
        except OSError as exc:
            # The replica could not reach the primary's log (shared
            # volume hiccup, injected fault).  The replica itself is
            # healthy, merely unable to advance right now: a retryable
            # 503, not an internal error.
            raise _RequestError(
                503,
                f"replica tailing failed: {exc}; retry shortly",
                retry_after=1.0,
            ) from exc
        if applied:
            # The replica advanced: cached results may predate the new
            # records.  No batch summary survives replay here, so drop
            # wholesale (cascades into the why-not cache).
            self.executor.invalidate()
        return applied

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """socketserver's loop, but :meth:`shutdown` wakes it through a
        socket pair: no 0.5 s poll of a stop flag, so a shutdown returns
        at once and an idle server (no ``poll_interval``) never wakes."""
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stop_requested:
                    for key, _ in selector.select(poll_interval):
                        if key.fileobj is self._wake_reader:
                            self._wake_reader.recv(64)
                        elif not self._stop_requested:
                            self._handle_request_noblock()  # type: ignore[attr-defined]
                    self.service_actions()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stop_requested = True
        self._wake_writer.send(b"\0")
        self._stopped.wait()

    def start_background(self) -> threading.Thread:
        """Serve requests on a daemon thread (tests and examples)."""
        thread = threading.Thread(
            target=self.serve_forever, name="yask-serve", daemon=True
        )
        thread.start()
        return thread

    def server_close(self) -> None:
        if self._snapshot_timer is not None:
            self._snapshot_timer_stop.set()
            self._snapshot_timer.join(timeout=5.0)
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()
        # A handler thread lives as long as its connection: end the open
        # ones before closing what their handlers use.
        self.connections.drain(timeout_s=5.0)
        self.executor.close()
        self.whynot_executor.close()
        self.engine.close()


class _YaskRequestHandler(BaseHTTPRequestHandler):
    server: YaskHTTPServer  # narrowed type

    # Persistent connections: one handler (and thread) per connection,
    # serving requests until either side closes or the timeout expires.
    protocol_version = "HTTP/1.1"
    timeout = _IDLE_TIMEOUT_S
    # A reply leaves as one segment: headers and body are buffered and
    # flushed together, never held back by Nagle's algorithm waiting for
    # the peer's delayed ACK of the previous reply (43 ms each, measured).
    wbufsize = -1
    disable_nagle_algorithm = True

    _POST_ROUTES: Mapping[str, str] = {
        "/api/query": "_handle_query",
        "/api/query/batch": "_handle_query_batch",
        "/api/objects": "_handle_insert_objects",
        "/api/mutations": "_handle_mutations",
        "/api/whynot/explain": "_handle_whynot",
        "/api/whynot/preference": "_handle_whynot",
        "/api/whynot/keywords": "_handle_whynot",
        "/api/whynot/combined": "_handle_whynot",
        "/api/whynot/batch": "_handle_whynot_batch",
        "/api/session/close": "_handle_close",
    }

    # Silence per-request stderr logging; the query log panel is the
    # user-visible log.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def log_error(self, format: str, *args: Any) -> None:  # noqa: A002
        # The only place the stdlib reports that the socket timeout ran
        # out while it waited for a request line or headers.
        if args and isinstance(args[0], TimeoutError):
            self.server.connections.count("idle_timeouts")

    def parse_request(self) -> bool:
        self._body_read = False  # per request: set once _read_json has it
        return super().parse_request()

    def handle_expect_100(self) -> bool:
        proceed = super().handle_expect_100()
        self.wfile.flush()  # the client sends no body before it sees this
        return proceed

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/healthz":
                self._send_json(200, {"status": "ok", "objects": len(self.server.engine.database)})
            elif parsed.path == "/api/health/live":
                # Liveness: the process accepts connections and can
                # serialise a response.  Never consults engine state —
                # a degraded server is still alive.
                self._send_json(200, {"status": "ok"})
            elif parsed.path == "/api/health/ready":
                status, body = self._readiness()
                self._send_json(status, body)
            elif parsed.path.startswith("/api/objects/"):
                obj = self._resolve_object(parsed.path)
                self._send_json(200, {"object": object_to_dict(obj)})
            elif parsed.path == "/api/objects":
                engine = self.server.engine
                # Under the read lock: a batch clears the cache this fills.
                with engine.read_view():
                    objects = [object_to_dict(obj) for obj in engine.database]
                self._send_json(200, {"objects": objects})
            elif parsed.path == "/api/log":
                params = parse_qs(parsed.query)
                session_id = params.get("session_id", [""])[0]
                session = self._get_session(session_id)
                entries = [
                    {
                        "sequence": entry.sequence,
                        "kind": entry.kind,
                        "params": dict(entry.params),
                        "penalty": entry.penalty,
                        "response_ms": entry.response_ms,
                        "cached": entry.cached,
                    }
                    for entry in session.log.entries
                ]
                self._send_json(200, {"session_id": session_id, "entries": entries})
            elif parsed.path == "/api/stats":
                engine = self.server.engine
                router = engine.shard_router
                # Both executor snapshots come from one cache
                # generation: a stats read racing invalidate() must
                # never show the top-k side invalidated and the linked
                # why-not side not (or vice versa).
                cache_stats, whynot_stats = consistent_stats(
                    self.server.executor, self.server.whynot_executor
                )
                self._send_json(
                    200,
                    {
                        "cache": cache_stats.to_dict(),
                        "whynot_cache": whynot_stats.to_dict(),
                        # Live-mutation tier: generation, batch/op
                        # tallies, kernel column occupancy and index
                        # rebuilds.
                        "mutations": engine.mutation_stats(),
                        # Columnar-kernel hit counters: how many batch
                        # passes / point scorings the compute tier under
                        # the caches actually ran (shard kernels'
                        # top-k scan counters included).
                        "kernel": engine.kernel_stats(),
                        # Scatter-gather counters (None when the engine
                        # is unsharded): per-shard object counts plus
                        # scatter/merge timings and shard scan/skip
                        # tallies for top-k and the why-not primitives.
                        "shards": (
                            router.to_dict() if router is not None else None
                        ),
                        # Durability tier: {"enabled": False} for a
                        # memory-only engine; otherwise the WAL's
                        # generation/segment/sync counters (primary) or
                        # the tailing replica's poll counters
                        # (follower).
                        "durability": (
                            self.server.follower.to_dict()
                            if self.server.follower is not None
                            else engine.durability_stats()
                        ),
                        # Graceful-degradation tier: in-flight gauge,
                        # WAL circuit breaker and the advertised
                        # read-only flag.
                        "resilience": self.server.resilience_stats(),
                        # Connections accepted/open and requests served:
                        # requests_served / connections_accepted is the
                        # keep-alive reuse factor.
                        "transport": self.server.connections.to_dict(),
                    },
                )
            else:
                self._send_json(404, {"error": f"unknown path {parsed.path}"})
        except _RequestError as exc:
            self._send_json(
                exc.status, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_json(500, {"error": f"internal error: {exc}"})

    def do_POST(self) -> None:  # noqa: N802
        path = urlparse(self.path).path
        name = self._POST_ROUTES.get(path)
        if name is None:
            self._send_json(404, {"error": f"unknown path {path}"})
            return
        handler = getattr(self, name)
        self._admitted(lambda: handler(self._read_json()))

    def do_DELETE(self) -> None:  # noqa: N802
        path = urlparse(self.path).path
        if not path.startswith("/api/objects/"):
            self._send_json(404, {"error": f"unknown path {path}"})
            return

        def retire() -> tuple[int, dict]:
            obj = self._resolve_object(path)
            return 200, self._apply_and_invalidate([Mutation.delete(obj.oid)])

        self._admitted(retire)

    def _admitted(self, action: Callable[[], tuple[int, dict]]) -> None:
        """Run a POST/DELETE under admission control and answer it."""
        if not self.server.inflight.try_enter():
            # Load-shedding: beyond the in-flight bound the request is
            # refused *before* any body is read or lock is touched, so
            # an overloaded server answers in microseconds.
            self._send_json(
                503,
                {
                    "error": "server overloaded: too many requests in "
                    "flight; retry after the advertised delay",
                    "shed": True,
                },
                retry_after=1.0,
            )
            return
        try:
            status, body = action()
            self._send_json(status, body)
        except _RequestError as exc:
            self._send_json(
                exc.status, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except (FollowerLagError, WalWriteError) as exc:
            # Durability failures are 503s: the write was NOT applied
            # (WalWriteError) or the replica is healthy but behind the
            # client's consistency token (FollowerLagError); retry.
            self._send_json(503, {"error": str(exc)}, retry_after=1.0)
        except MissingTargetError as exc:
            # An update/delete addressed an object that does not exist:
            # the mutation analogue of a 404, not an internal error.
            self._send_json(404, {"error": str(exc)})
        except MutationError as exc:
            self._send_json(409, {"error": str(exc)})
        except WhyNotError as exc:
            self._send_json(422, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_json(500, {"error": f"internal error: {exc}"})
        finally:
            self.server.inflight.exit()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _sync_read_state(self, payload: Mapping[str, Any]) -> None:
        """Enforce the ``min_generation`` consistency token on a read.

        A follower tails the log first, so a token the primary just
        acknowledged is normally satisfiable within one poll; a replica
        still behind (and a primary asked for a future generation)
        answers a structured 503 rather than stale data.
        """
        server = self.server
        min_generation = min_generation_from_dict(payload)
        server.sync_follower()
        if min_generation is None:
            return
        generation = server.engine.generation
        if generation < min_generation:
            raise _RequestError(
                503,
                f"serving generation {generation}, but the request requires "
                f"at least {min_generation}; retry shortly",
            )

    @staticmethod
    def _deadline_of(payload: Mapping[str, Any]) -> "faults.Deadline | None":
        """Build the request's deadline from an optional ``timeout_ms``."""
        budget = timeout_ms_from_dict(payload)
        return faults.Deadline(budget) if budget is not None else None

    def _handle_query(self, payload: Mapping[str, Any]) -> tuple[int, dict]:
        engine = self.server.engine
        self._sync_read_state(payload)
        query = query_from_dict(payload, default_weights=engine.default_weights)
        deadline = self._deadline_of(payload)
        execution = self.server.executor.execute(query, deadline=deadline)
        session = self.server.sessions.create(query, execution.result)
        session.log.record(
            "top-k query",
            {"k": query.k, "keywords": ",".join(sorted(query.doc))},
            execution.response_ms,
            cached=execution.cached,
        )
        body = {
            "session_id": session.session_id,
            "response_ms": execution.response_ms,
            "cached": execution.cached,
            "result": result_to_dict(execution.result),
        }
        if execution.degraded is not None:
            # Partial results, honestly labelled: the shards that
            # answered are exact, the envelope says what was skipped.
            body["degraded"] = execution.degraded
        return 200, body

    def _handle_query_batch(self, payload: Mapping[str, Any]) -> tuple[int, dict]:
        engine = self.server.engine
        self._sync_read_state(payload)
        queries = batch_queries_from_dict(
            payload, default_weights=engine.default_weights
        )
        batch = self.server.executor.execute_batch(
            queries, deadline=self._deadline_of(payload)
        )
        return 200, batch_execution_to_dict(batch)

    # ------------------------------------------------------------------
    # Mutation handlers (live insert / update / delete)
    # ------------------------------------------------------------------
    def _apply_and_invalidate(
        self, mutations, *, batch_token: str | None = None
    ) -> dict:
        """Apply a batch through the engine, then maintain the caches.

        Cached top-k results are carried through the batch by
        :meth:`QueryExecutor.maintain`: kept when the batch summary
        proves them unaffected, patched from the skyband when it can,
        dropped otherwise.  Every cached why-not answer is dropped
        (``linked_dropped``).  The response reports both the
        engine-side report and the cache tally.

        The WAL circuit breaker fronts the whole path: while OPEN the
        server is in advertised read-only degraded mode and mutations
        are refused fast with a ``Retry-After`` of the remaining
        cooldown; a half-open probe that succeeds closes it again.  A
        ``batch_token`` retry of an already-committed batch returns the
        original generation with ``deduplicated: true`` and touches
        neither the WAL, the indexes nor the caches.
        """
        engine = self.server.engine
        if self.server.follower is not None:
            raise _RequestError(
                403,
                "this server is a read-only follower; send mutations to "
                "the primary that owns the write-ahead log",
            )
        breaker = self.server.breaker
        if breaker is not None:
            admitted, retry_after = breaker.allow()
            if not admitted:
                raise _RequestError(
                    503,
                    "read-only degraded mode: the write-ahead log is "
                    "failing and the circuit breaker is open; reads are "
                    "served, mutations are refused until a probe "
                    "succeeds",
                    retry_after=retry_after,
                )
        try:
            report = engine.apply_mutations(
                mutations, batch_token=batch_token
            )
        except WalWriteError:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        if report.deduplicated:
            # Nothing moved: the token's original commit already did
            # the invalidation and (maybe) the snapshot.
            return report.to_dict()
        maintenance = self.server.executor.maintain(report.change)
        snapshot = self.server.maybe_snapshot()
        response = {**report.to_dict(), "cache_maintenance": maintenance}
        if snapshot is not None:
            response["snapshot"] = snapshot
        return response

    def _handle_insert_objects(self, payload: Mapping[str, Any]) -> tuple[int, dict]:
        """``POST /api/objects``: insert one object or a list of objects."""
        if "objects" in payload:
            raw = payload["objects"]
            if not isinstance(raw, list) or not raw:
                raise ProtocolError(
                    "'objects' must be a non-empty list of object payloads"
                )
            if len(raw) > MAX_BATCH_MUTATIONS:
                # Same cap (and same reason) as /api/mutations: a batch
                # holds the engine's exclusive write lock while it
                # applies, so one request must not stall the read path.
                raise ProtocolError(
                    f"batch too large: {len(raw)} objects exceeds the cap "
                    f"of {MAX_BATCH_MUTATIONS}"
                )
            objects = []
            for index, item in enumerate(raw):
                if not isinstance(item, Mapping):
                    raise ProtocolError(f"objects[{index}] must be a JSON object")
                try:
                    objects.append(spatial_object_from_dict(item))
                except ProtocolError as exc:
                    raise ProtocolError(f"objects[{index}]: {exc}") from None
        else:
            objects = [spatial_object_from_dict(payload)]
        mutations = [Mutation.insert(obj) for obj in objects]
        return 200, self._apply_and_invalidate(
            mutations, batch_token=batch_token_from_dict(payload)
        )

    def _handle_mutations(self, payload: Mapping[str, Any]) -> tuple[int, dict]:
        """``POST /api/mutations``: a mixed insert/update/delete batch."""
        mutations = mutations_from_dict(payload)
        return 200, self._apply_and_invalidate(
            mutations, batch_token=batch_token_from_dict(payload)
        )

    def _handle_whynot(self, payload: Mapping[str, Any]) -> tuple[int, dict]:
        """``POST /api/whynot/<model>``: a session-bound why-not question.

        Repeated questions (same session query, missing set, model and
        λ — from this user or any other) are why-not cache hits and
        never recompute the refinement pipeline.
        """
        model = urlparse(self.path).path.rpartition("/")[2]
        label, answer_key, refinement_params = _WHYNOT_MODELS[model]
        session = self._get_session(str(payload.get("session_id", "")))
        question = WhyNotQuestion(
            query=session.initial_query,
            missing=tuple(missing_refs_from_dict(payload)),
            model=model,
            # /explain weighs no refinement: a "lambda" field is ignored.
            lam=0.5 if refinement_params is None else lambda_from_dict(payload),
        )
        execution = self.server.whynot_executor.execute(
            question, deadline=self._deadline_of(payload)
        )
        body = {
            "session_id": session.session_id,
            "response_ms": execution.response_ms,
            "cached": execution.cached,
        }
        if execution.degraded is not None:
            # Why-not arithmetic is count-exact or worthless, so there
            # is no partial answer to return — only the honest envelope.
            # The status stays 200: the request was handled as asked,
            # within the budget the client itself set.
            body.update(
                cached=False, degraded=execution.degraded, error=execution.error
            )
            return 200, body
        answer = execution.answer
        params: dict[str, Any] = {"missing": len(question.missing)}
        penalty = None
        if refinement_params is not None:
            params.update({"lambda": question.lam}, **refinement_params(answer))
            penalty = answer.penalty
        session.log.record(
            label,
            params,
            execution.response_ms,
            penalty=penalty,
            cached=execution.cached,
        )
        body[answer_key] = whynot_value_to_dict(model, answer)
        if refinement_params is not None:
            # The refined query runs through the shared top-k cache.
            body["refined_result"] = result_to_dict(
                self.server.executor.execute(answer.refined_query).result
            )
        return 200, body

    def _handle_whynot_batch(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict]:
        engine = self.server.engine
        self._sync_read_state(payload)
        questions = batch_whynot_questions_from_dict(
            payload, default_weights=engine.default_weights
        )
        batch = self.server.whynot_executor.execute_batch(
            questions, deadline=self._deadline_of(payload)
        )
        return 200, whynot_batch_execution_to_dict(batch)

    def _handle_close(self, payload: Mapping[str, Any]) -> tuple[int, dict]:
        session_id = str(payload.get("session_id", ""))
        dropped = self.server.sessions.drop(session_id)
        return 200, {"session_id": session_id, "dropped": dropped}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _resolve_object(self, path: str):
        """Resolve ``/api/objects/<oid-or-name>`` to a database object.

        Unknown ids and names become a structured 404 *here*, at the
        lookup site — the method dispatchers deliberately have no
        blanket ``KeyError`` handler, so an internal bug elsewhere still
        surfaces as a 500 rather than masquerading as a client error.
        """
        reference = unquote(path[len("/api/objects/") :])
        if not reference:
            raise _RequestError(400, "object id or name required")
        database = self.server.engine.database
        try:
            oid: int | None = int(reference)
        except ValueError:
            oid = None
        try:
            if oid is not None:
                # A numeric reference is an oid first — but names are
                # arbitrary strings, so an object *named* "7100" stays
                # reachable when no object carries that id.
                try:
                    return database.get(oid)
                except KeyError:
                    named = database.find_by_name(reference)
                    if named is not None:
                        return named
                    raise
            return database.resolve(reference)
        except KeyError as exc:
            raise _RequestError(404, _keyerror_message(exc)) from None

    def _read_json(self) -> Mapping[str, Any]:
        declared = self.headers.get("Content-Length", "0").strip() or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _RequestError(400, "Content-Length must be a byte count")
        length = int(declared)
        if length == 0:
            raise _RequestError(400, "request body required")
        if length > _MAX_BODY_BYTES:
            raise _RequestError(413, "request body too large")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.server.connections.count("idle_timeouts")
            raise _RequestError(408, "request body timed out") from None
        self._body_read = True
        try:
            payload = json.loads(raw, parse_constant=_reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _RequestError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _RequestError(400, "request body must be a JSON object")
        return payload

    def _get_session(self, session_id: str):
        if not session_id:
            raise _RequestError(400, "session_id required")
        try:
            return self.server.sessions.get(session_id)
        except KeyError as exc:
            raise _RequestError(404, _keyerror_message(exc)) from None

    def _readiness(self) -> tuple[int, dict]:
        """``GET /api/health/ready``: can this server serve *fully*?

        503 while the WAL circuit breaker is open (advertised read-only
        degraded mode — a load balancer should prefer healthy
        primaries); 200 otherwise, always with the full detail: breaker
        state, in-flight gauge and (on a follower) the replica's tail
        position, so operators see *why* readiness flipped.
        """
        server = self.server
        breaker = server.breaker
        degraded = breaker is not None and breaker.state != CLOSED
        body: dict[str, Any] = {
            "status": "degraded" if degraded else "ok",
            "role": "follower" if server.follower is not None else "primary",
            "generation": server.engine.generation,
            "resilience": server.resilience_stats(),
        }
        if server.follower is not None:
            body["follower"] = server.follower.to_dict()
        return (503 if degraded else 200), body

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        *,
        retry_after: float | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        if not (self._body_read or self.close_connection) and (
            self.command == "POST"
            or self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        ):
            # The request's body is still in the socket and would be
            # parsed as the next request line: this reply is the last.
            self.close_connection = True
            self.server.connections.count("closed_unread_body")
        self.server.connections.count("requests_served")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # An integral number of seconds, rounded up: "Retry-After: 0"
            # would invite an immediate hammer.
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()


def serve_forever(
    engine: YaskEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    follower: FollowerEngine | None = None,
    snapshot_every: int | None = None,
    snapshot_interval_secs: float | None = None,
    max_inflight: int | None = None,
    cache_skyband: int = 8,
) -> None:
    """Blocking entry point used by ``yask serve`` and ``yask follow``."""
    server = YaskHTTPServer(
        engine,
        host=host,
        port=port,
        follower=follower,
        snapshot_every=snapshot_every,
        snapshot_interval_secs=snapshot_interval_secs,
        max_inflight=max_inflight,
        cache_skyband=cache_skyband,
    )
    role = "follower" if follower is not None else "server"
    print(f"YASK {role} listening on {server.endpoint}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
