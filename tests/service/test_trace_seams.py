"""The E16 tracer must find every seam it wraps.

``benchmarks/e16/tracing.py`` installs its spans by name at run time
and *skips* a target it cannot resolve (an inherited ``execute``, a
renamed method), which silently drops that layer from the latency
budget.  This test turns such a refactor red instead.

The tracer's target list still names four overrides of the deleted
``ShardedKernel`` (a sharded engine now runs one plain kernel).  Those
four, and only those, may be unresolved, and only while every span
name they install stays covered by a ``ScoringKernel`` target.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.service.executor import QueryExecutor

E16 = Path(__file__).resolve().parents[2] / "benchmarks" / "e16"

#: Targets of the deleted ``repro.core.sharding.ShardedKernel``.
DELETED = {
    f"repro.core.sharding.ShardedKernel.{name}"
    for name in ("count_better", "rank_of_many", "dual_view", "apply_mutations")
}


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(E16))
    tracing = importlib.import_module("tracing")
    original = vars(QueryExecutor)["execute"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracer.missing) == DELETED
        resolved = {
            span
            for module, owner, attribute, span in tracing.TARGETS
            if ".".join(filter(None, (module, owner, attribute))) not in DELETED
        }
        assert resolved == {span for *_, span in tracing.TARGETS}
        assert vars(QueryExecutor)["execute"] is not original
    finally:
        tracer.uninstall()
    assert vars(QueryExecutor)["execute"] is original
