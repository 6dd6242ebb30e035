"""The closed-loop load generator: N clients, one connection each.

Each client sends its stream's next request only after the previous
reply arrived (the paper's user waits for an answer before refining),
offers keep-alive, and reconnects only when the server closed the
connection, so a transport change shows in ``connections_per_req``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import catalogue as cat
from streams import Operation, Step

#: A reply slower than this is a failure, not a latency sample.
REQUEST_TIMEOUT_S = 30.0
REQUEST_ID_HEADER = "X-Bench-Request-Id"


@dataclass
class Sample:
    """One served request kept for the oracle."""

    step: Step
    #: The session's query body (why-not steps only carry a session id).
    query: dict
    reply: dict


@dataclass
class ClientLog:
    """What one client observed."""

    #: (latency class, path, round trip in ms, request id) per OK reply.
    latencies: list[tuple[str, str, float, int]] = field(default_factory=list)
    #: ``time.perf_counter()`` at which each of those replies had arrived.
    finished: list[float] = field(default_factory=list)
    sent: int = 0
    failures: list[str] = field(default_factory=list)
    connections: int = 0
    bytes_in: int = 0  # request bodies
    bytes_out: int = 0  # reply bodies
    operations: int = 0
    #: CPU seconds of the client's own thread (generator cost).
    cpu_s: float = 0.0
    #: Uniform reservoirs of served requests per latency class.
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    seen: dict[str, int] = field(default_factory=dict)
    #: Acknowledged mutation batches: (generation, mutations, reply).
    ledger: list[tuple[int, list, dict]] = field(default_factory=list)


class Client:
    """One closed-loop client.  Not thread-safe; one thread drives it."""

    def __init__(
        self,
        port: int,
        *,
        index: int = 0,
        seed: int = 0,
        reservoir: int = 0,
        on_request: Callable[[int], object] | None = None,
    ) -> None:
        self.log = ClientLog()
        self._port = port
        self._index = index
        self._rng = random.Random(seed)
        self._reservoir = reservoir
        self._connection: http.client.HTTPConnection | None = None
        #: Tracing hook: called with the request id, returns a context
        #: manager that spans the round trip.
        self._on_request = on_request

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def run(self, stream: Iterator[Operation], stop: Callable[[], bool]) -> None:
        """Issue whole operations until ``stop()`` says so."""
        cpu_started = time.thread_time()
        try:
            for operation in stream:
                if stop():
                    return
                self.issue(operation)
        finally:
            self.log.cpu_s += time.thread_time() - cpu_started
            self.close()

    def issue(self, operation: Operation) -> None:
        """One operation; a session stops at its first failed step."""
        self.log.operations += 1
        session: dict = {}
        query = operation.steps[0].body
        for step in operation.steps:
            reply = self._request(step, {**step.body, **session})
            if reply is None:
                return
            if "session_id" in reply:
                session = {"session_id": reply["session_id"]}
            self._keep(step, query, reply)

    def _request(self, step: Step, body: dict) -> dict | None:
        log = self.log
        log.sent += 1
        # Unique across clients, and never 0.
        request_id = log.sent * cat.CLIENTS + self._index
        payload = json.dumps(body).encode()
        headers = {
            "Content-Type": "application/json",
            "Connection": "keep-alive",
            REQUEST_ID_HEADER: str(request_id),
        }
        span = self._on_request(request_id) if self._on_request else nullcontext()
        started = time.perf_counter()
        try:
            with span:
                if self._connection is None:
                    self._connection = http.client.HTTPConnection(
                        "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S
                    )
                    log.connections += 1
                self._connection.request("POST", step.path, payload, headers)
                response = self._connection.getresponse()
                raw = response.read()
                status = response.status
                if response.will_close:
                    self.close()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            log.failures.append(f"{step.path}: {type(exc).__name__}: {exc}")
            return None
        finished = time.perf_counter()
        elapsed_ms = (finished - started) * 1000.0
        log.bytes_in += len(payload)
        log.bytes_out += len(raw)
        reply = json.loads(raw)
        if status != 200 or "degraded" in reply or reply.get("shed"):
            log.failures.append(f"{step.path}: HTTP {status}: {raw[:200]!r}")
            return None
        log.latencies.append((step.cls, step.path, elapsed_ms, request_id))
        log.finished.append(finished)
        if step.cls == cat.MUTATION:
            log.ledger.append((reply["generation"], body["mutations"], reply))
        return reply

    def _keep(self, step: Step, query: dict, reply: dict) -> None:
        """Reservoir-sample the reply for the oracle (Algorithm R)."""
        if not self._reservoir or step.cls == cat.MUTATION:
            return
        log = self.log
        seen = log.seen[step.cls] = log.seen.get(step.cls, 0) + 1
        kept = log.samples.setdefault(step.cls, [])
        if len(kept) < self._reservoir:
            kept.append(Sample(step, query, reply))
        else:
            slot = self._rng.randrange(seen)
            if slot < self._reservoir:
                kept[slot] = Sample(step, query, reply)


@dataclass
class Slice:
    """One stretch of the window: what completed in it, what it cost."""

    seconds: float
    #: Change of the caller's gauge (server CPU seconds) over the slice.
    gauge: float
    #: The ``ClientLog.latencies`` rows of the replies that arrived in it.
    rows: list[tuple[str, str, float, int]]


@dataclass
class LoadResult:
    logs: list[ClientLog]
    elapsed_s: float
    timed_out: bool = False
    #: (``time.perf_counter()``, gauge reading) at every slice boundary.
    marks: list[tuple[float, float]] = field(default_factory=list)

    def slices(self) -> list[Slice]:
        """The window cut at the marks; a request belongs to the slice
        its reply arrived in."""
        replies = sorted(
            (
                pair
                for log in self.logs
                for pair in zip(log.finished, log.latencies)
            ),
            key=lambda pair: pair[0],
        )
        arrived = [at for at, _ in replies]
        cut = [bisect_right(arrived, at) for at, _ in self.marks]
        return [
            Slice(at1 - at0, gauge1 - gauge0, [row for _, row in replies[n0:n1]])
            for (at0, gauge0), (at1, gauge1), n0, n1 in zip(
                self.marks, self.marks[1:], cut, cut[1:]
            )
        ]

    @property
    def cpu_share(self) -> float:
        """Generator CPU / wall; above 0.7 the run measured the generator."""
        return self.total("cpu_s") / self.elapsed_s

    @property
    def latencies(self) -> list[tuple[str, str, float, int]]:
        return [row for log in self.logs for row in log.latencies]

    @property
    def sent(self) -> int:
        return sum(log.sent for log in self.logs)

    @property
    def ok(self) -> int:
        return sum(len(log.latencies) for log in self.logs)

    @property
    def failures(self) -> list[str]:
        return [failure for log in self.logs for failure in log.failures]

    def total(self, attribute: str) -> int:
        return sum(getattr(log, attribute) for log in self.logs)

    def samples(self, cls: str) -> list[Sample]:
        return [s for log in self.logs for s in log.samples.get(cls, [])]

    def ledger(self) -> list[tuple[int, list, dict]]:
        return sorted(
            (entry for log in self.logs for entry in log.ledger),
            key=lambda entry: entry[0],
        )


def drive(
    clients: list[Client],
    streams: list[Iterator[Operation]],
    *,
    seconds: float | None,
    hard_timeout_s: float,
    on_timeout: Callable[[], None],
    gauge: Callable[[], float] | None = None,
) -> LoadResult:
    """Run every client on its own thread over its own stream.

    With ``seconds`` the window is time-bounded: no operation starts
    after it ends, the ones in flight finish and count.  Without, each
    stream is finite and runs out.  Either way a run still going after
    ``hard_timeout_s`` is failed (``on_timeout`` must unblock the
    clients, e.g. by killing the server) rather than left hanging.

    With ``gauge`` the calling thread reads it every ``cat.SLICE_SECONDS``
    of the window, which cuts the window into ``LoadResult.slices``.
    """
    started = time.perf_counter()
    ends = started + seconds if seconds is not None else float("inf")

    def stop() -> bool:
        return time.perf_counter() >= ends

    threads = [
        threading.Thread(
            target=client.run, args=(stream, stop), name=f"e16-client-{i}"
        )
        for i, (client, stream) in enumerate(zip(clients, streams))
    ]
    for thread in threads:
        thread.start()
    marks = []
    if gauge is not None and seconds is not None:
        marks.append((started, gauge()))
        slice_s = min(cat.SLICE_SECONDS, seconds)
        for boundary in range(1, int(seconds / slice_s) + 1):
            time.sleep(max(0.0, started + boundary * slice_s - time.perf_counter()))
            marks.append((time.perf_counter(), gauge()))
    timed_out = False
    for thread in threads:
        thread.join(max(0.0, started + hard_timeout_s - time.perf_counter()))
        if thread.is_alive():
            timed_out = True
    if timed_out:
        ends = 0.0
        on_timeout()
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S + 5.0)
    elapsed = time.perf_counter() - started
    return LoadResult(
        logs=[client.log for client in clients],
        elapsed_s=elapsed,
        timed_out=timed_out,
        marks=marks,
    )
