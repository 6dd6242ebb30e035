"""A deterministic work-and-parity ledger of the served engine under writes.

Builds the E16 corpus in process (``SyntheticDatasetBuilder`` with E16's
seed and shape, a 4-shard ``YaskEngine``), then replays E16's
``mixed_rw`` mutation streams (both clients' batches, alternating).
Before the first batch and after every ``every`` batches it asks the
same reads again: E16's first ``sessions`` seed-1 why-not sessions
(query, explain, one refinement) and its first ``cold`` seed-1 cold
top-k queries.  It prints one JSON document:

* per step, the ``KernelStats`` deltas of the sessions and of the cold
  queries (``YaskEngine.kernel_stats``: the global kernel plus the shard
  kernels' scan counters), the global scan index's tail before the
  step's reads (rows inserted since its build; ``null`` when no index
  is built: before the first read, or once a batch has dropped it for
  the next read to rebuild) and a SHA-256 of the step's answers;
* a SHA-256 over every step's answers.

There are no times in it: two runs of one tree print the same bytes
(``PYTHONHASHSEED=0``), and two trees that answer alike print the same
hashes, so a change's parity and its work are read off a diff of two
outputs.  The benchmark's own files are imported, not changed.

Run::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tools.ledger   # or: make ledger
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.service.protocol import (
    mutations_from_dict,
    query_from_dict,
    result_to_dict,
    whynot_value_to_dict,
)

_E16 = Path(__file__).resolve().parent.parent / "benchmarks" / "e16"
if str(_E16) not in sys.path:
    sys.path.append(str(_E16))

import catalogue as cat  # noqa: E402  (benchmarks/e16, on the path above)
import streams  # noqa: E402

#: The read streams' seed: E16's default run seed.
READ_SEED = 1


def _batches(database, count: int) -> list[dict]:
    """``count`` mutation bodies of E16's ``mixed_rw`` streams, the two
    clients' batches alternating."""
    sources = [
        streams._mutations(
            database,
            streams.derive_seed(cat.DATASET_SEED, "mixed_rw", client, "mutation"),
            client,
        )
        for client in range(cat.CLIENTS)
    ]
    bodies: list[dict] = []
    while len(bodies) < count:
        for source in sources:
            bodies.append(next(source).steps[0].body)
    return bodies[:count]


def _reads(engine: YaskEngine, workload: str, count: int) -> list[Any]:
    operations: Iterator[Any] = streams.client_stream(
        workload, READ_SEED, 0, engine.database, engine.query, ()
    )
    return list(islice(operations, count))


def _session(engine: YaskEngine, operation) -> list[dict]:
    """One query → explain → refinement session, its answers as dicts."""
    first, explain, refine = operation.steps
    query = query_from_dict(first.body)
    result = engine.query(query)
    missing = explain.body["missing"]
    model = refine.path.rsplit("/", 1)[1]
    answers = [
        result_to_dict(result),
        whynot_value_to_dict(
            "explain", engine.explain(query, missing, initial_result=result)
        ),
    ]
    refined = getattr(engine, f"refine_{model}")(query, missing)
    answers.append(whynot_value_to_dict(model, refined))
    return answers


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {
        name: after[name] - before[name]
        for name in sorted(after)
        if after[name] != before[name]
    }


def _digest(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def ledger(
    *,
    objects: int = cat.DATASET_OBJECTS,
    batches: int = 350,
    every: int = 50,
    sessions: int = 60,
    cold: int = 200,
) -> dict[str, Any]:
    """The ledger document (see the module docstring)."""
    database = SyntheticDatasetBuilder(seed=cat.DATASET_SEED).build(
        objects, **cat.DATASET_KWARGS
    )
    engine = YaskEngine(database, shards=cat.SHARDS)
    try:
        bodies = _batches(engine.database, batches)
        session_ops = _reads(engine, "whynot_session", sessions)
        cold_ops = _reads(engine, "cold_read", cold)
        steps = []
        whole = hashlib.sha256()
        applied = 0
        while True:
            index = engine.kernel._scan_index
            tail = None if index is None else len(index._xs) - index._built
            before = engine.kernel_stats()
            answers: list[Any] = [_session(engine, op) for op in session_ops]
            middle = engine.kernel_stats()
            for op in cold_ops:
                answers.append(result_to_dict(engine.query(query_from_dict(op.steps[0].body))))
            after = engine.kernel_stats()
            digest = _digest(answers)
            whole.update(digest.encode())
            session_work = _delta(middle, before)
            views = session_work.get("dual_views", 0)
            steps.append({
                "batches": applied,
                "global_tail": tail,
                "sessions": session_work,
                "dual_view_rows_per_view": (
                    round(session_work.get("dual_view_rows", 0) / views, 1)
                    if views else None
                ),
                "cold": _delta(after, middle),
                "answers_sha256": digest,
            })
            if applied >= batches:
                break
            for body in bodies[applied : applied + every]:
                engine.apply_mutations(
                    mutations_from_dict(body), batch_token=body["batch_token"]
                )
            applied = min(applied + every, batches)
        return {
            "corpus": {
                "objects": objects,
                "seed": cat.DATASET_SEED,
                "shards": cat.SHARDS,
            },
            "stream": {
                "batches": batches,
                "every": every,
                "sessions": sessions,
                "cold": cold,
                "read_seed": READ_SEED,
            },
            "steps": steps,
            "answers_sha256": whole.hexdigest(),
        }
    finally:
        engine.close()


def main() -> None:
    json.dump(ledger(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
