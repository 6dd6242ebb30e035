"""Execute the documentation's fenced Python snippets against a live server.

``make docs-check`` runs this script so the quickstart code in
``README.md``, ``docs/API.md`` and ``docs/OPERATIONS.md`` cannot rot:
every fenced
```` ```python ```` block is executed in its own namespace, with a real
in-process :class:`~repro.service.server.YaskHTTPServer` (hotels
dataset, 4 spatial shards) listening on an ephemeral port.  Snippets
written against the documented default endpoint
``http://127.0.0.1:8080`` are rewritten to the live endpoint before
execution, so they run verbatim as a reader would paste them.

A block can opt out by placing ``<!-- docs-check: skip -->`` on any of
the three lines above its opening fence (for illustrative fragments
that are not self-contained).  Snippet stdout is captured and shown
only on failure.

Snippets that spawn threads (the batching and concurrency examples) are
checked for *thread* failures too: a ``threading.excepthook`` installed
around each execution records any exception escaping a snippet-spawned
thread, every thread the snippet started is joined before moving on,
and a recorded thread failure fails the run with the same ``file:line``
report as a synchronous raise — previously those died silently inside
the thread and the check passed.
"""

from __future__ import annotations

import io
import re
import sys
import threading
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOC_FILES = ("README.md", "docs/API.md", "docs/OPERATIONS.md")
SKIP_MARKER = "<!-- docs-check: skip -->"
DOCUMENTED_ENDPOINT = "http://127.0.0.1:8080"

_FENCE = re.compile(r"^```python\s*$")
_FENCE_END = re.compile(r"^```\s*$")


def extract_snippets(path: Path) -> list[tuple[int, str]]:
    """``(first line number, source)`` of every runnable python fence."""
    lines = path.read_text(encoding="utf-8").splitlines()
    snippets: list[tuple[int, str]] = []
    inside = False
    start = 0
    buffer: list[str] = []
    for number, line in enumerate(lines, start=1):
        if not inside and _FENCE.match(line):
            context = lines[max(0, number - 4) : number - 1]
            if any(SKIP_MARKER in previous for previous in context):
                continue
            inside = True
            start = number + 1
            buffer = []
        elif inside and _FENCE_END.match(line):
            inside = False
            snippets.append((start, "\n".join(buffer)))
        elif inside:
            buffer.append(line)
    return snippets


@dataclass
class SnippetFailure:
    """Why one snippet failed: where, its output, and the traceback(s)."""

    label: str  # "file.md:line"
    output: str
    traceback_text: str
    in_thread: bool

    def report(self, source: str) -> str:
        where = " (in a snippet-spawned thread)" if self.in_thread else ""
        return "\n".join(
            [
                f"docs-check: snippet at {self.label} FAILED{where}",
                "--- snippet ---",
                source,
                "--- output ---",
                self.output,
                "--- traceback ---",
                self.traceback_text,
            ]
        )


def execute_snippet(
    label: str, runnable: str, *, hang_up: Callable[[], None] | None = None
) -> SnippetFailure | None:
    """Run one snippet; ``None`` on success, a failure record otherwise.

    Failures *inside snippet-spawned threads* count: a thread-scoped
    ``threading.excepthook`` collects them, and every thread the
    snippet started is joined (bounded) before the verdict, so a
    slow-failing worker cannot outlive its snippet and be missed.

    ``hang_up`` runs once the snippet's code has: a reader's script
    would exit here and close its connections, so the live server's
    handler threads for those kept-alive connections (which appeared
    while the snippet ran, but are not its threads) are ended rather
    than waited on until their idle timeout.
    """
    namespace: dict[str, object] = {"__name__": "__docs_check__"}
    stdout = io.StringIO()
    thread_tracebacks: list[str] = []
    threads_before = set(threading.enumerate())
    previous_hook = threading.excepthook

    def record_thread_exception(args: "threading.ExceptHookArgs") -> None:
        thread_tracebacks.append(
            "".join(
                traceback.format_exception(
                    args.exc_type, args.exc_value, args.exc_traceback
                )
            )
        )

    threading.excepthook = record_thread_exception
    try:
        try:
            with redirect_stdout(stdout):
                exec(compile(runnable, label, "exec"), namespace)
        except Exception:
            return SnippetFailure(
                label=label,
                output=stdout.getvalue(),
                traceback_text=traceback.format_exc(),
                in_thread=False,
            )
        if hang_up is not None:
            hang_up()
        for thread in set(threading.enumerate()) - threads_before:
            thread.join(timeout=30.0)
    finally:
        threading.excepthook = previous_hook
    if thread_tracebacks:
        return SnippetFailure(
            label=label,
            output=stdout.getvalue(),
            traceback_text="\n".join(thread_tracebacks),
            in_thread=True,
        )
    return None


def main() -> int:
    from repro.datasets.hotels import hong_kong_hotels
    from repro.service.api import YaskEngine
    from repro.service.server import YaskHTTPServer

    server = YaskHTTPServer(
        YaskEngine(hong_kong_hotels(), shards=4), host="127.0.0.1", port=0
    )
    server.start_background()
    failures = 0
    executed = 0
    try:
        for name in DOC_FILES:
            path = REPO_ROOT / name
            for line, source in extract_snippets(path):
                executed += 1
                runnable = source.replace(DOCUMENTED_ENDPOINT, server.endpoint)
                failure = execute_snippet(
                    f"{name}:{line}",
                    runnable,
                    hang_up=lambda: server.connections.drain(timeout_s=5.0),
                )
                if failure is not None:
                    failures += 1
                    print(failure.report(source))
    finally:
        server.shutdown()
        server.server_close()
    if failures:
        print(f"docs-check: {failures} of {executed} doc snippet(s) failed")
        return 1
    print(
        f"docs-check ok: {executed} fenced Python snippet(s) from "
        f"{', '.join(DOC_FILES)} executed against a live server"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
