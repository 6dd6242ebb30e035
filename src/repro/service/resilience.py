"""Server-side resilience primitives: admission, circuit breaking, connections.

Three small, independently testable state machines the HTTP server
wires in front of its handlers:

* :class:`InflightGauge` — a bounded concurrent-request counter.  When
  the bound is reached, further requests are *shed* with a structured
  ``503`` + ``Retry-After`` instead of queueing behind a saturated
  worker pool; the gauge (current / peak / shed counts) is surfaced in
  ``/api/health/ready`` and the ``resilience`` section of
  ``GET /api/stats``.
* :class:`CircuitBreaker` — the classic three-state breaker guarding
  the WAL append path.  Persistent ``WalWriteError``\\ s (a full disk, a
  dead device) trip it OPEN: mutations are rejected *fast* with a
  ``Retry-After`` and the engine keeps serving reads — an advertised
  read-only degraded mode instead of a grinding failure on every write.
  After a cooldown the breaker admits exactly one *probe* mutation
  (HALF_OPEN); the probe's success closes the breaker, its failure
  re-opens it for another cooldown.
* :class:`ConnectionTracker` — the open keep-alive connections (each
  one holds a handler thread) and the transport counters, so the
  server can end them at shutdown and ``GET /api/stats`` can report
  how many requests each connection carried.

The first two read time through :func:`repro.faults.now`, so chaos
tests drive cooldown expiry with a seeded virtual clock — no wall-clock
sleeps.
"""

from __future__ import annotations

import socket
import time

from repro import concurrency, faults

__all__ = ["CircuitBreaker", "ConnectionTracker", "InflightGauge"]


class InflightGauge:
    """Bounded in-flight request counter with shed accounting.

    ``limit=None`` means unbounded: :meth:`try_enter` always admits, but
    the gauge still tracks current/peak concurrency for observability.
    """

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"in-flight limit must be at least 1, got {limit}")
        self.limit = limit
        self._lock = concurrency.ordered_lock(
            "resilience.inflight", concurrency.LEVEL_LEAF
        )
        self._inflight = 0
        self._peak = 0
        self._admitted = 0
        self._shed = 0

    def try_enter(self) -> bool:
        """Admit one request, or record a shed and return ``False``."""
        with self._lock:
            if self.limit is not None and self._inflight >= self.limit:
                self._shed += 1
                return False
            self._inflight += 1
            self._admitted += 1
            if self._inflight > self._peak:
                self._peak = self._inflight
            return True

    def exit(self) -> None:
        """Release one admitted request (always pair with :meth:`try_enter`)."""
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("InflightGauge.exit() without a matching enter")
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def shed(self) -> int:
        with self._lock:
            return self._shed

    def to_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "limit": self.limit,
                "inflight": self._inflight,
                "peak": self._peak,
                "admitted": self._admitted,
                "shed": self._shed,
            }


class ConnectionTracker:
    """The server's open connections and its transport counters.

    The server speaks HTTP/1.1 keep-alive, so one handler thread serves
    one connection for as long as it stays open and the server, not the
    request, owns that lifetime: sockets are registered from accept to
    close, and :meth:`drain` ends the ones still open at shutdown.  The
    counters are the ``transport`` section of ``GET /api/stats``;
    ``requests_served / connections_accepted`` is the reuse factor.
    """

    COUNTERS = (
        "connections_accepted",
        "requests_served",
        "idle_timeouts",
        "closed_unread_body",
    )

    def __init__(self) -> None:
        self._lock = concurrency.ordered_lock(
            "server.connections", concurrency.LEVEL_LEAF
        )
        self._open: set[socket.socket] = set()
        self._counts = dict.fromkeys(self.COUNTERS, 0)

    def opened(self, connection: socket.socket) -> None:
        with self._lock:
            self._open.add(connection)
            self._counts["connections_accepted"] += 1

    def closed(self, connection: socket.socket) -> None:
        with self._lock:
            self._open.discard(connection)

    def count(self, counter: str) -> None:
        with self._lock:
            self._counts[counter] += 1

    def drain(self, timeout_s: float) -> None:
        """End every open connection; wait for their handlers to finish.

        ``SHUT_RD`` lets a reply in flight still go out: the handler's
        next read sees EOF, it returns, and the server closes the
        socket.  A handler still busy after ``timeout_s`` is left to its
        (daemon) thread.
        """
        with self._lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it since the snapshot above
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not self._open:
                    return
            time.sleep(0.001)

    def to_dict(self) -> dict[str, int]:
        with self._lock:
            return {**self._counts, "connections_open": len(self._open)}


#: Breaker states (string-valued for direct use in JSON payloads).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with probe-based half-open recovery.

    * CLOSED — operations flow; ``failure_threshold`` *consecutive*
      failures trip the breaker.
    * OPEN — operations are rejected instantly with a ``Retry-After`` of
      the remaining cooldown; after ``cooldown_ms`` the next
      :meth:`allow` transitions to HALF_OPEN.
    * HALF_OPEN — exactly one in-flight probe is admitted; its success
      closes the breaker, its failure re-opens it for a fresh cooldown.
      Concurrent requests during the probe are rejected like OPEN.

    Time comes from :func:`repro.faults.now`: under an armed
    :class:`~repro.faults.FaultPlan` the cooldown elapses on the plan's
    virtual clock, so recovery tests advance time explicitly.
    """

    def __init__(
        self, *, failure_threshold: int = 3, cooldown_ms: float = 1000.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be at least 1, got {failure_threshold}"
            )
        if cooldown_ms <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown_ms}")
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._lock = concurrency.ordered_lock(
            "resilience.breaker", concurrency.LEVEL_LEAF
        )
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._trips = 0
        self._rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> tuple[bool, float | None]:
        """``(admitted, retry_after_seconds)`` for one operation.

        Rejected operations carry the seconds a client should wait
        before retrying (never below 1s, so the HTTP header stays a
        meaningful integer).
        """
        with self._lock:
            if self._state == CLOSED:
                return True, None
            elapsed_ms = (faults.now() - self._opened_at) * 1000.0
            if self._state == OPEN and elapsed_ms >= self.cooldown_ms:
                self._state = HALF_OPEN
                self._probing = False
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True  # this caller is the probe
                return True, None
            self._rejections += 1
            remaining_s = max(0.0, self.cooldown_ms / 1000.0 - elapsed_ms / 1000.0)
            return False, max(1.0, remaining_s)

    def record_success(self) -> None:
        """An admitted operation completed; a probe's success closes."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        """An admitted operation failed; enough in a row trips OPEN."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = faults.now()
                self._probing = False
                self._trips += 1

    def to_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_ms": self.cooldown_ms,
                "trips": self._trips,
                "rejections": self._rejections,
            }
