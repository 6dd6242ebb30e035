"""The E16 tracer must find every seam it wraps.

``benchmarks/e16/tracing.py`` installs its spans by name at run time
and *skips* a target it cannot resolve (an inherited ``execute``, a
renamed method), which silently drops that layer from the latency
budget.  This test turns such a refactor red instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.service.executor import QueryExecutor

E16 = Path(__file__).resolve().parents[2] / "benchmarks" / "e16"


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(E16))
    tracing = importlib.import_module("tracing")
    original = vars(QueryExecutor)["execute"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert vars(QueryExecutor)["execute"] is not original
    finally:
        tracer.uninstall()
    assert vars(QueryExecutor)["execute"] is original
