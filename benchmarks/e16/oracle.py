"""The correctness gate: served answers against independent oracles.

Every function returns a list of human-readable mismatches; an empty
list passes.  Each mismatch counts in ``error_rate`` and makes
``run.py`` exit non-zero.  The oracles share no code path with the
serving tier beyond the object model: top-k is the set-path scorer's
full ranking (no kernel, no shards, no cache), why-not is an unsharded
cache-less engine, and the post-mutation state is rebuilt from the
generator's ledger of acknowledged batches without the mutation tier.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from loadgen import Sample
from repro.core.geometry import Point
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.scoring import Scorer
from repro.datasets.loaders import load_json
from repro.service.api import YaskEngine
from repro.service.executor import WhyNotQuestion
from repro.service.protocol import query_from_dict, whynot_value_to_dict
from repro.service.wal import recover_engine

Ledger = Sequence[tuple[int, list, dict]]


def _ranking(entries: Sequence[dict]) -> list[tuple[int, float]]:
    return [(entry["object"]["oid"], entry["score"]) for entry in entries]


def check_topk(database: SpatialDatabase, samples: Sequence[Sample]) -> list[str]:
    """Replies must equal ``rank_all(query)[:k]``: oids, scores, order."""
    scorer = Scorer(database, use_kernel=False)
    mismatches = []
    for sample in samples:
        query = query_from_dict(sample.step.body)
        expected = [
            (entry.obj.oid, entry.score)
            for entry in scorer.rank_all(query)[: query.k]
        ]
        served = _ranking(sample.reply["result"]["entries"])
        if served != expected:
            mismatches.append(
                f"top-k {sample.step.body}: served {served}, oracle {expected}"
            )
    return mismatches


def check_whynot(database: SpatialDatabase, samples: Sequence[Sample]) -> list[str]:
    """Replies must equal an unsharded, cache-less ``answer_whynot``."""
    engine = YaskEngine(database)
    mismatches = []
    try:
        for sample in samples:
            model = sample.step.path.rsplit("/", 1)[1]
            question = WhyNotQuestion(
                query=query_from_dict(sample.query),
                missing=tuple(sample.step.body["missing"]),
                model=model,
            )
            # Through JSON, as the reply went: tuples become lists.
            expected = json.loads(
                json.dumps(
                    whynot_value_to_dict(model, engine.answer_whynot(question))
                )
            )
            key = "explanation" if model == "explain" else "refinement"
            if sample.reply.get(key) != expected:
                mismatches.append(
                    f"why-not {model} {sample.query} missing "
                    f"{question.missing}: served {sample.reply.get(key)}, "
                    f"oracle {expected}"
                )
    finally:
        engine.close()
    return mismatches


def replay_ledger(base: SpatialDatabase, ledger: Ledger) -> SpatialDatabase:
    """The object set after the acknowledged batches, in commit order."""
    objects = {obj.oid: obj for obj in base}
    for _, mutations, _ in ledger:
        for mutation in mutations:
            if mutation["op"] == "delete":
                del objects[mutation["oid"]]
            else:
                objects[mutation["oid"]] = SpatialObject(
                    oid=mutation["oid"],
                    loc=Point(mutation["x"], mutation["y"]),
                    doc=frozenset(mutation["keywords"]),
                )
    return SpatialDatabase(list(objects.values()), dataspace=base.dataspace)


def check_ledger(
    base: SpatialDatabase, ledger: Ledger, server_stats: dict
) -> tuple[list[str], SpatialDatabase]:
    """Generation and object count must match the acknowledged batches."""
    mismatches = []
    generations = [generation for generation, _, _ in ledger]
    if generations != list(range(1, len(ledger) + 1)):
        mismatches.append(
            f"acknowledged generations are not 1..{len(ledger)}: {generations}"
        )
    rebuilt = replay_ledger(base, ledger)
    served = server_stats["mutations"]
    if served["generation"] != len(ledger):
        mismatches.append(
            f"server generation {served['generation']}, ledger {len(ledger)}"
        )
    if served["kernel"]["live_rows"] != len(rebuilt):
        mismatches.append(
            f"server holds {served['kernel']['live_rows']} objects, "
            f"ledger {len(rebuilt)}"
        )
    return mismatches, rebuilt


def check_quiesced(rebuilt: SpatialDatabase, samples: Sequence[Sample]) -> list[str]:
    """Queries on the quiesced server against an engine built from the
    ledger's object set (built fresh: no mutation was applied to it)."""
    engine = YaskEngine(rebuilt)
    mismatches = []
    try:
        for sample in samples:
            query = query_from_dict(sample.step.body)
            expected = [(e.obj.oid, e.score) for e in engine.query(query).entries]
            served = _ranking(sample.reply["result"]["entries"])
            if served != expected:
                mismatches.append(
                    f"quiesced top-k {sample.step.body}: served {served}, "
                    f"rebuilt engine {expected}"
                )
    finally:
        engine.close()
    return mismatches


def check_recovery(
    dataset: Path, wal_dir: Path, ledger: Ledger, objects: int
) -> list[str]:
    """After SIGKILL, recovery must reach the acknowledged generation.

    A *logical* durability check: killing a process leaves the OS page
    cache intact, so this proves every acknowledged batch was framed
    and written, not that it reached the disk (``--fsync never``).
    """
    engine, report = recover_engine(
        wal_dir, database=load_json(dataset), attach=False
    )
    engine.close()
    mismatches = []
    if report.generation != len(ledger):
        mismatches.append(
            f"recovered generation {report.generation}, acknowledged "
            f"{len(ledger)}"
        )
    if report.objects != objects:
        mismatches.append(f"recovered {report.objects} objects, ledger {objects}")
    return mismatches
