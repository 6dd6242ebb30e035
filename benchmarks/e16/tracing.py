"""Spans around each layer's entry points, installed from outside.

The benchmark wraps the functions below at run time (nothing under
``src/`` knows), replays a workload with one client against an
in-process server, and keeps spans in memory until the replay ends.
A span is ``(name, start_ns, end_ns, id, parent id, request id)``; the
request id travels in the ``X-Bench-Request-Id`` header, which the
``do_POST`` wrapper reads, so the handler thread's tree hangs under the
client's round-trip span.  A layer's self time is its span's duration
minus the part of it its child spans cover.

Targets are looked up by name and skipped when absent (``missing``
lists them): a later refactor that renames one loses that layer's
metric, not the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable, NamedTuple

from loadgen import REQUEST_ID_HEADER

CLIENT_SPAN = "client.request"


class Span(NamedTuple):
    name: str
    start: int
    end: int
    id: int
    parent: int | None
    request: int | None


#: (module, class, attribute, span name).  Same-named spans nested
#: directly inside each other collapse into the outer one, so wrapping
#: both an override and the base method it may call is safe.
TARGETS = (
    ("repro.service.server", "_YaskRequestHandler", "do_POST", "server.do_POST"),
    ("repro.service.server", "_YaskRequestHandler", "_read_json", "server.read_json"),
    ("repro.service.server", "_YaskRequestHandler", "_send_json", "server.send_json"),
    ("repro.service.session", "SessionManager", "create", "session.create"),
    ("repro.service.executor", "QueryExecutor", "execute", "executor.execute"),
    ("repro.service.executor", "WhyNotExecutor", "execute", "executor.execute_whynot"),
    ("repro.service.executor", "QueryExecutor", "maintain", "executor.maintain_topk"),
    ("repro.service.executor", "WhyNotExecutor", "maintain", "executor.maintain_whynot"),
    ("repro.service.api", "YaskEngine", "query", "api.query"),
    ("repro.service.api", "YaskEngine", "answer_whynot", "api.answer_whynot"),
    ("repro.service.api", "YaskEngine", "apply_mutations", "api.apply_mutations"),
    ("repro.service.sharded", "ShardedEngine", "search", "sharded.search"),
    # The thread tier's shard scan; scan_top_k is the same scan as the
    # process tier (and a later single-path refactor) would call it.
    ("repro.service.sharded", "ShardedEngine", "_scan_shard", "kernel.scan_top_k"),
    ("repro.core.kernel", "ScoringKernel", "scan_top_k", "kernel.scan_top_k"),
    ("repro.core.sharding", "ShardRouter", "score_upper_bounds", "sharding.score_upper_bounds"),
    ("repro.core.sharding", "ShardRouter", "apply_mutations", "sharding.apply_mutations"),
    ("repro.core.kernel", "ScoringKernel", "count_better", "kernel.count_better"),
    ("repro.core.sharding", "ShardedKernel", "count_better", "kernel.count_better"),
    ("repro.core.kernel", "ScoringKernel", "rank_of_many", "kernel.rank_of_many"),
    ("repro.core.sharding", "ShardedKernel", "rank_of_many", "kernel.rank_of_many"),
    ("repro.core.kernel", "ScoringKernel", "dual_view", "kernel.dual_view"),
    ("repro.core.sharding", "ShardedKernel", "dual_view", "kernel.dual_view"),
    ("repro.core.kernel", "ScoringKernel", "apply_mutations", "kernel.apply_mutations"),
    ("repro.core.sharding", "ShardedKernel", "apply_mutations", "kernel.apply_mutations"),
    ("repro.whynot.engine", "WhyNotEngine", "explain", "whynot.explain"),
    ("repro.whynot.engine", "WhyNotEngine", "refine_preference", "whynot.refine_preference"),
    ("repro.whynot.engine", "WhyNotEngine", "refine_keywords", "whynot.refine_keywords"),
    ("repro.whynot.engine", "WhyNotEngine", "refine_combined", "whynot.refine_combined"),
    ("repro.index.rtree", "RTree", "insert_batch", "index.insert_batch"),
    ("repro.index.rtree", "RTree", "delete", "index.delete"),
    ("repro.core.mutations", "MutableDatabase", "apply", "mutations.apply"),
    ("repro.service.wal", "WriteAheadLog", "append", "wal.append"),
)


class Tracer:
    """Collects spans; one per traced replay."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        #: Shard rows the scans visited (calls x that shard's rows).
        self.rows_scanned = 0
        #: Why-not executions that recomputed their initial top-k.
        self.whynot_topk_reruns = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: request id -> id of the client's round-trip span.
        self._client_spans: dict[int, int] = {}
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[int, str, int | None]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def reset(self) -> None:
        """Forget what was recorded so far (the untimed warm-up)."""
        self.spans.clear()
        self._client_spans.clear()
        self.rows_scanned = 0
        self.whynot_topk_reruns = 0

    def client_span(self, request_id: int) -> "_Open":
        """The round trip as the client sees it: root of the request."""
        return _Open(self, CLIENT_SPAN, request_id, None)

    def wrap(
        self,
        original: Callable,
        name: str,
        *,
        enter: Callable[..., tuple[int | None, int | None]] | None = None,
        leave: Callable[..., None] | None = None,
    ) -> Callable:
        """``original`` with a span around each call.

        ``enter(*args)`` may supply ``(request id, parent span id)`` for
        a span that starts a thread's tree; ``leave(result, *args)``
        observes the call's outcome.
        """
        spans = self.spans
        ids = self._ids
        get_stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = get_stack()
            if stack:
                parent, parent_name, request = stack[-1]
                if parent_name == name:
                    return original(*args, **kwargs)
            elif enter is not None:
                request, parent = enter(*args)
            else:
                request = parent = None
            span_id = next(ids)
            stack.append((span_id, name, request))
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(Span(name, start, end, span_id, parent, request))
            if leave is not None:
                leave(result, *args)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target.  Call before the server is built: bound
        methods captured at construction must capture the wrappers."""
        hooks = {
            "server.do_POST": {"enter": self._enter_request},
            "kernel.scan_top_k": {"leave": self._count_rows},
            "executor.execute_whynot": {"leave": self._count_rerun},
        }
        for module, owner, attribute, name in TARGETS:
            self._patch(module, owner, attribute, name, **hooks.get(name, {}))
        self._patch_lock("read")
        self._patch_lock("write")
        self._patch_protocol()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _resolve(self, module: str, owner: str | None, attribute: str):
        try:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            return target, vars(target)[attribute]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(".".join(filter(None, (module, owner, attribute))))
            return None, None

    def _patch(
        self, module: str, owner: str | None, attribute: str, name: str,
        **hooks: Any,
    ) -> None:
        target, raw = self._resolve(module, owner, attribute)
        if target is None:
            return
        static = isinstance(raw, staticmethod)
        traced = self.wrap(raw.__func__ if static else raw, name, **hooks)
        setattr(target, attribute, staticmethod(traced) if static else traced)
        self._undo.append(lambda: setattr(target, attribute, raw))

    def _patch_protocol(self) -> None:
        """The codec functions the server imported by name: wrapped in
        the server's namespace, where the handlers look them up."""
        module = "repro.service.server"
        try:
            names = vars(importlib.import_module(module))
        except ImportError:
            self.missing.append(module)
            return
        for attribute, value in list(names.items()):
            if getattr(value, "__module__", None) != "repro.service.protocol":
                continue
            if attribute.endswith("_from_dict"):
                self._patch(module, None, attribute, "protocol.decode")
            elif attribute.endswith("_to_dict"):
                self._patch(module, None, attribute, "protocol.encode")

    def _patch_lock(self, mode: str) -> None:
        """Span from calling ``ReadWriteLock.read()/write()`` to entering
        the body: the time a request waited for the engine lock."""
        target, raw = self._resolve("repro.core.mutations", "ReadWriteLock", mode)
        if target is None:
            return
        tracer, name = self, f"api.{mode}_lock_wait"

        def acquire(lock: Any) -> "_TimedEnter":
            return _TimedEnter(tracer, name, raw(lock))

        setattr(target, mode, acquire)
        self._undo.append(lambda: setattr(target, mode, raw))

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _enter_request(self, handler: Any) -> tuple[int | None, int | None]:
        raw = handler.headers.get(REQUEST_ID_HEADER)
        request = int(raw) if raw and raw.isdigit() else None
        return request, self._client_spans.get(request)

    def _count_rows(self, _result: Any, scanned: Any, *_: Any) -> None:
        # _scan_shard(shard, ...) or ScoringKernel.scan_top_k(kernel, ...)
        self.rows_scanned += len(getattr(scanned, "kernel", scanned).oids)

    def _count_rerun(self, execution: Any, *_: Any) -> None:
        if (
            getattr(execution, "source", None) == "engine"
            and getattr(execution, "topk_source", None) == "engine"
        ):
            self.whynot_topk_reruns += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


class _Open:
    """A span opened and closed explicitly (``with``), pushed on the
    calling thread's stack like a wrapped call."""

    __slots__ = ("_tracer", "_name", "_request", "_parent", "_id", "_start")

    def __init__(self, tracer: Tracer, name: str, request, parent) -> None:
        self._tracer = tracer
        self._name = name
        self._request = request
        self._parent = parent

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack()
        if stack and self._parent is None:
            self._parent, _, inherited = stack[-1]
            if self._request is None:
                self._request = inherited
        self._id = next(tracer._ids)
        if self._name == CLIENT_SPAN:
            tracer._client_spans[self._request] = self._id
        stack.append((self._id, self._name, self._request))
        self._start = perf_counter_ns()

    def __exit__(self, *_exc: Any) -> None:
        end = perf_counter_ns()
        tracer = self._tracer
        tracer._stack().pop()
        tracer.spans.append(
            Span(self._name, self._start, end, self._id, self._parent, self._request)
        )


class _TimedEnter:
    """A context manager whose ``__enter__`` is spanned (lock waits)."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __enter__(self) -> Any:
        with _Open(self._tracer, self._name, None, None):
            return self._inner.__enter__()

    def __exit__(self, *exc: Any) -> Any:
        return self._inner.__exit__(*exc)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the part its children cover (ns).

    A child is clipped to its parent's interval first: the handler
    thread may record the end of ``do_POST`` a moment after the client
    has read the reply, and that moment is no part of the round trip.
    """
    clipped: dict[int, tuple[int, int]] = {}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    # By start time a parent precedes its children.
    for span in sorted(spans, key=lambda span: span.start):
        start, end = span.start, span.end
        if span.parent in clipped:
            low, high = clipped[span.parent]
            start, end = max(start, low), max(min(end, high), max(start, low))
            children[span.parent].append((start, end))
        clipped[span.id] = (start, end)
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, (start, end) in clipped.items()
    }


class LayerTimes(NamedTuple):
    #: span name -> (calls, total self ms)
    by_name: dict[str, tuple[int, float]]
    #: request id -> sum of the self times of its tree (ms)
    by_request: dict[int, float]


def layer_times(spans: Iterable[Span]) -> LayerTimes:
    """Aggregate self time per span name and per request tree.

    Only spans whose ancestry reaches a client round trip enter
    ``by_request``; a span recorded on a pool thread has no parent and
    counts under its name alone (its wall time overlaps the request
    that is waiting for it).
    """
    spans = list(spans)
    own = self_times(spans)
    parents = {span.id: span.parent for span in spans}
    rooted = {span.id for span in spans if span.name == CLIENT_SPAN}
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    by_request: dict[int, float] = defaultdict(float)
    # Spans are appended when they end, so parents follow children;
    # walk from the back to see every parent before its children.
    for span in reversed(spans):
        calls[span.name] += 1
        total[span.name] += own[span.id] / 1e6
        if parents[span.id] in rooted:
            rooted.add(span.id)
        if span.id in rooted and span.request is not None:
            by_request[span.request] += own[span.id] / 1e6
    return LayerTimes(
        {name: (calls[name], total[name]) for name in calls}, dict(by_request)
    )
