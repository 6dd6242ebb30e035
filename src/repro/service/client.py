"""A Python client for the YASK HTTP service.

Plays the role of the paper's browser front end (Section 3.2): it issues
the initial top-k query, keeps the returned ``session_id`` and sends the
follow-up why-not requests against it.  Transport is the standard
library's ``http.client`` so the client works wherever the server does,
and a client keeps its connection open between requests (the server
speaks HTTP/1.1 keep-alive): :meth:`YaskClient.close`, or using the
client as a context manager, releases it.

Resilience: every request carries a socket timeout, retriable failures
(load-shedding/degraded-mode 503s, and connection errors on idempotent
requests) are retried with jittered exponential backoff honouring the
server's ``Retry-After``, and mutations become safely retriable by
passing a ``batch_token`` — the server deduplicates a retry of an
already-committed batch through the WAL generation record and returns
the original generation instead of applying it twice.
"""

from __future__ import annotations

import http.client
import json
import random
import selectors
import time
from typing import Any, Callable, Iterable, Mapping, Sequence
from urllib.parse import quote, urlsplit

from repro import concurrency

__all__ = ["YaskClientError", "YaskClient"]


class YaskClientError(RuntimeError):
    """An error response from the YASK server.

    ``status`` is the HTTP status (0 for a connection failure) and
    ``retry_after`` the server's ``Retry-After`` advice in seconds,
    when it sent one.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


def _peer_closed(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle kept-alive connection can no longer be used.

    An idle socket has nothing to read; if it is readable the server
    closed it (its idle timeout, a restart) and the read is EOF.
    Checking before reuse keeps that from surfacing as a status-0
    failure of the *next* request, which for a mutation without a
    ``batch_token`` could not be retried.
    """
    with selectors.DefaultSelector() as selector:
        selector.register(connection.sock, selectors.EVENT_READ)
        return bool(selector.select(timeout=0))


class YaskClient:
    """Thin JSON-over-HTTP client mirroring the server's endpoints.

    Connections are kept alive and reused; threads sharing one client
    each get their own while their requests overlap.  ``close()`` (or
    leaving a ``with`` block) closes the idle ones; the client stays
    usable and reconnects on the next call.

    Parameters
    ----------
    base_url:
        The server endpoint, e.g. ``http://127.0.0.1:8080``.
    timeout:
        Socket timeout (seconds) for every request — a hung server
        surfaces as a connection error, never an indefinite block.
    retries:
        Extra attempts for retriable failures: a 503 (the server says
        the request was *not* applied — load shedding, breaker-open
        read-only mode, follower lag) is always retriable; a connection
        error is retried only for idempotent requests (reads, and
        mutations carrying a ``batch_token``).
    backoff_ms / max_backoff_ms:
        Jittered exponential backoff base and cap.  The server's
        ``Retry-After`` header, when present, overrides the computed
        delay.
    sleep / rng:
        Injectable for deterministic tests: ``sleep`` replaces
        :func:`time.sleep`, ``rng`` supplies the backoff jitter.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_ms: float = 100.0,
        max_backoff_ms: float = 5000.0,
        sleep: Callable[[float], None] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff_ms <= 0 or max_backoff_ms < backoff_ms:
            raise ValueError(
                "backoff_ms must be positive and at most max_backoff_ms"
            )
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"base_url must be http(s)://host[:port], got {base_url!r}"
            )
        self._connect = (
            http.client.HTTPSConnection
            if url.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host = url.hostname
        self._port = url.port
        self._prefix = url.path.rstrip("/")
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = concurrency.ordered_lock(
            "client.connections", concurrency.LEVEL_LEAF
        )
        self._timeout = timeout
        self._retries = retries
        self._backoff_ms = backoff_ms
        self._max_backoff_ms = max_backoff_ms
        self._sleep = sleep if sleep is not None else time.sleep
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the idle connections (a later call reconnects)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "YaskClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not _peer_closed(connection):
                return connection
            connection.close()
        return self._connect(self._host, self._port, timeout=self._timeout)

    def _call_once(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        accept_statuses: frozenset[int] = frozenset(),
    ) -> dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._checkout()
        try:
            connection.request(method, self._prefix + path, data, headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise YaskClientError(0, f"connection failed: {exc}") from None
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        if 200 <= response.status < 300 or response.status in accept_statuses:
            return json.loads(raw.decode("utf-8"))
        try:
            message = json.loads(raw.decode("utf-8")).get(
                "error", response.reason
            )
        except Exception:  # body not JSON
            message = str(response.reason)
        retry_after: float | None = None
        advised = response.getheader("Retry-After")
        if advised is not None:
            try:
                retry_after = float(advised)
            except ValueError:
                retry_after = None
        raise YaskClientError(
            response.status, message, retry_after=retry_after
        )

    def _backoff_seconds(self, attempt: int) -> float:
        """Full-jitter exponential backoff for retry ``attempt`` (0-based)."""
        ceiling = min(
            self._max_backoff_ms, self._backoff_ms * (2.0**attempt)
        )
        return (self._rng.uniform(ceiling / 2.0, ceiling)) / 1000.0

    def _call(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        *,
        idempotent: bool = True,
        accept_statuses: frozenset[int] = frozenset(),
    ) -> dict[str, Any]:
        """One logical request, with the retry policy applied.

        A 503 means the server did *not* apply the request (shed,
        breaker-open, follower lag) and is always retriable.  A
        connection failure leaves the outcome unknown, so it is retried
        only when ``idempotent`` — reads, and mutations whose
        ``batch_token`` makes a double-apply impossible.
        """
        attempt = 0
        while True:
            try:
                return self._call_once(method, path, payload, accept_statuses)
            except YaskClientError as exc:
                retriable = exc.status == 503 or (
                    exc.status == 0 and idempotent
                )
                if not retriable or attempt >= self._retries:
                    raise
                delay = (
                    exc.retry_after
                    if exc.retry_after is not None
                    else self._backoff_seconds(attempt)
                )
                self._sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def health_live(self) -> dict[str, Any]:
        """Liveness probe: answers ``{"status": "ok"}`` while the
        process serves HTTP at all, regardless of degraded state."""
        return self._call("GET", "/api/health/live")

    def health_ready(self) -> dict[str, Any]:
        """Readiness probe: the full readiness body, whether the server
        answered 200 (``status: "ok"``) or 503 (``status: "degraded"``,
        e.g. the WAL circuit breaker is open).  Never retried — a probe
        wants the current truth, not an eventual success."""
        return self._call_once(
            "GET", "/api/health/ready", accept_statuses=frozenset({503})
        )

    def resilience_stats(self) -> dict[str, Any]:
        """The resilience section of ``/api/stats`` — in-flight gauge,
        WAL circuit breaker, and the advertised read-only flag."""
        return self._call("GET", "/api/stats")["resilience"]

    def transport_stats(self) -> dict[str, Any]:
        """The transport section of ``/api/stats`` — connections
        accepted and open, requests served, idle timeouts.
        ``requests_served / connections_accepted`` is how many requests
        a connection carried on average."""
        return self._call("GET", "/api/stats")["transport"]

    def objects(self) -> list[dict[str, Any]]:
        """All objects — the grey markers of the map panel (Fig. 3)."""
        return self._call("GET", "/api/objects")["objects"]

    def get_object(self, reference: int | str) -> dict[str, Any]:
        """One object by id or name; :class:`YaskClientError` 404 if unknown."""
        return self._call("GET", f"/api/objects/{quote(str(reference))}")[
            "object"
        ]

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------
    def insert_objects(
        self,
        objects: Sequence[Mapping[str, Any]],
        *,
        batch_token: str | None = None,
    ) -> dict[str, Any]:
        """Ingest new objects: ``[{"oid", "x", "y", "keywords", "name"?}]``.

        Returns the mutation report: generation, per-op counts, kernel
        column occupancy and the answer-maintenance tally —
        ``cache_maintenance`` breaks the top-k side of the maintenance
        pass down into kept / dropped (``kept`` is the number of warm
        results that survived the write); ``linked_dropped`` counts the
        cached why-not answers the write dropped, which is all of them.  Passing a
        ``batch_token`` (any unique string) makes the request
        idempotent: a retry of an already-committed batch is
        deduplicated server-side and acknowledges the original
        generation with ``deduplicated: true`` — so connection failures
        become retriable.
        """
        payload: dict[str, Any] = {
            "objects": [dict(obj) for obj in objects]
        }
        if batch_token is not None:
            payload["batch_token"] = batch_token
        return self._call(
            "POST",
            "/api/objects",
            payload,
            idempotent=batch_token is not None,
        )

    def delete_object(self, reference: int | str) -> dict[str, Any]:
        """Retire one object by id or name; returns the mutation report.

        Naturally idempotent — deleting an absent object is a no-op —
        so connection failures are retried.
        """
        return self._call(
            "DELETE", f"/api/objects/{quote(str(reference))}"
        )

    def mutate(
        self,
        mutations: Sequence[Mapping[str, Any]],
        *,
        batch_token: str | None = None,
    ) -> dict[str, Any]:
        """Apply a mixed batch: ``[{"op": "insert"|"update"|"delete", ...}]``.

        Inserts/updates carry the object fields inline; deletes carry
        ``"oid"``.  The batch applies atomically — queries served
        concurrently see either all of it or none of it.  A
        ``batch_token`` makes the batch idempotent and hence safely
        retriable (see :meth:`insert_objects`).
        """
        payload: dict[str, Any] = {
            "mutations": [dict(mutation) for mutation in mutations]
        }
        if batch_token is not None:
            payload["batch_token"] = batch_token
        return self._call(
            "POST",
            "/api/mutations",
            payload,
            idempotent=batch_token is not None,
        )

    def mutation_stats(self) -> dict[str, Any]:
        """The live-mutation tier's counters (generation, ops, kernel)."""
        return self._call("GET", "/api/stats")["mutations"]

    def query(
        self,
        x: float,
        y: float,
        keywords: Iterable[str],
        k: int,
        *,
        ws: float | None = None,
        min_generation: int | None = None,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        """Issue an initial top-k query; response carries ``session_id``.

        ``min_generation`` is the read-your-writes consistency token:
        pass the ``generation`` a mutation response acknowledged and a
        follower that has not yet replayed that batch answers a
        structured 503 instead of stale data.  ``timeout_ms`` sets a
        server-side deadline: shards still unanswered when it expires
        are skipped and the response carries a ``degraded`` envelope
        describing exactly what was omitted.
        """
        payload: dict[str, Any] = {
            "x": x,
            "y": y,
            "keywords": sorted(set(keywords)),
            "k": k,
        }
        if ws is not None:
            payload["ws"] = ws
        if min_generation is not None:
            payload["min_generation"] = min_generation
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/query", payload)

    def query_batch(
        self,
        queries: Sequence[Mapping[str, Any]],
        *,
        min_generation: int | None = None,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        """Execute many top-k queries in one round trip (stateless).

        Each element is a single-query payload — ``{"x", "y",
        "keywords", "k"}`` plus optional ``"ws"`` — and the response
        carries one entry per query, in order, with ``cached`` marking
        results the server cache (or in-flight dedup) served without a
        fresh execution.  ``min_generation`` applies to the whole
        batch (see :meth:`query`); ``timeout_ms`` is a shared budget
        for the whole batch.
        """
        payload: dict[str, Any] = {
            "queries": [dict(q) for q in queries]
        }
        if min_generation is not None:
            payload["min_generation"] = min_generation
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/query/batch", payload)

    def stats(self) -> dict[str, Any]:
        """The top-k executor's cache counters (hits, misses, ...)."""
        return self._call("GET", "/api/stats")["cache"]

    def whynot_stats(self) -> dict[str, Any]:
        """The why-not executor's cache counters (hits, misses, ...)."""
        return self._call("GET", "/api/stats")["whynot_cache"]

    def durability_stats(self) -> dict[str, Any]:
        """The durability tier's state — WAL/snapshot on a primary
        (``role: "primary"``), replay cursor on a follower
        (``role: "follower"``), or ``{"enabled": False}`` when the
        server runs without a write-ahead log.
        """
        return self._call("GET", "/api/stats")["durability"]

    def whynot_batch(
        self,
        questions: Sequence[Mapping[str, Any]],
        *,
        min_generation: int | None = None,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        """Answer many why-not questions in one round trip (stateless).

        Each element carries its own query plus question parameters —
        ``{"x", "y", "keywords", "k", "missing"}`` with optional
        ``"ws"``, ``"model"`` (``full``/``explain``/``preference``/
        ``keywords``/``combined``, default ``full``) and ``"lambda"``.
        The response carries one entry per question, in order;
        ``cached`` marks answers the why-not cache (or in-flight dedup)
        served without recomputing, ``topk_source`` reports where a
        freshly computed answer's initial top-k result came from, and an
        ill-posed question yields ``{"error": ...}`` for its entry
        without failing the rest of the batch.  ``min_generation``
        applies to the whole batch (see :meth:`query`); ``timeout_ms``
        is a shared budget for the whole batch — a member it runs out
        on comes back ``degraded`` (see :meth:`explain`), never partial.
        """
        payload: dict[str, Any] = {
            "questions": [dict(question) for question in questions]
        }
        if min_generation is not None:
            payload["min_generation"] = min_generation
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/whynot/batch", payload)

    def explain(
        self,
        session_id: str,
        missing: Sequence[int | str],
        *,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        """Why-not explanation for ``missing`` against the session's
        query.  With ``timeout_ms``, an answer that cannot be computed
        exactly within the budget comes back as a ``degraded`` envelope
        instead of a partial (and possibly wrong) explanation.
        """
        payload: dict[str, Any] = {
            "session_id": session_id,
            "missing": list(missing),
        }
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/whynot/explain", payload)

    def refine_preference(
        self,
        session_id: str,
        missing: Sequence[int | str],
        *,
        lam: float = 0.5,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "session_id": session_id,
            "missing": list(missing),
            "lambda": lam,
        }
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/whynot/preference", payload)

    def refine_keywords(
        self,
        session_id: str,
        missing: Sequence[int | str],
        *,
        lam: float = 0.5,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "session_id": session_id,
            "missing": list(missing),
            "lambda": lam,
        }
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/whynot/keywords", payload)

    def refine_combined(
        self,
        session_id: str,
        missing: Sequence[int | str],
        *,
        lam: float = 0.5,
        timeout_ms: float | None = None,
    ) -> dict[str, Any]:
        """Both refinement functions applied together (Section 3.2)."""
        payload: dict[str, Any] = {
            "session_id": session_id,
            "missing": list(missing),
            "lambda": lam,
        }
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/api/whynot/combined", payload)

    def query_log(self, session_id: str) -> list[dict[str, Any]]:
        """The query-log panel of Fig. 4 (Panel 5)."""
        return self._call("GET", f"/api/log?session_id={session_id}")["entries"]

    def close_session(self, session_id: str) -> bool:
        response = self._call(
            "POST", "/api/session/close", {"session_id": session_id}
        )
        return bool(response.get("dropped"))
