"""Result auditing: "Are the returned hotels really the best?"

Both motivating examples of the paper have the user doubting the result
itself (Example 1: "Are there better options? Is something wrong with
the query so that other good options are also missing?"; Example 2:
"Are the returned hotels really the best?").  The why-not engine answers
the *missing-object* half of that doubt; this module answers the
*result-integrity* half: it re-derives the top-k with the brute-force
Definition-1 oracle and cross-checks the served result object by object,
score by score.

In production such an audit guards against index corruption (e.g. an
incrementally maintained kernel drifting from its database); in this
reproduction it doubles as a runtime assertion of the central
index-equals-oracle theorem the test suite establishes statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import Scorer

__all__ = [
    "AuditFinding",
    "AuditReport",
    "audit_execution",
    "audit_refinement",
    "audit_result",
]


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One discrepancy between the served result and the oracle."""

    position: int
    kind: str
    detail: str


@dataclass(frozen=True, slots=True)
class AuditReport:
    """The verdict of one audit."""

    query: SpatialKeywordQuery
    ok: bool
    findings: tuple[AuditFinding, ...]
    checked_entries: int

    def describe(self) -> str:
        if self.ok:
            return (
                f"audit ok: the served top-{self.query.k} is exactly the "
                f"Definition-1 result ({self.checked_entries} entries checked)"
            )
        lines = [f"audit FAILED with {len(self.findings)} finding(s):"]
        lines.extend(
            f"  [{finding.position}] {finding.kind}: {finding.detail}"
            for finding in self.findings
        )
        return "\n".join(lines)


def audit_result(scorer: Scorer, served: QueryResult) -> AuditReport:
    """Cross-check a served result against the brute-force oracle.

    Checks, in order: result size, object identity per rank position,
    served scores against recomputed scores, and the Definition-1
    dominance property (no outside object outranks a returned one under
    the deterministic total order).
    """
    query = served.query
    findings: list[AuditFinding] = []

    oracle = scorer.top_k(query)
    expected_size = min(query.k, len(scorer.database))
    if len(served) != expected_size:
        findings.append(
            AuditFinding(
                position=0,
                kind="size-mismatch",
                detail=f"served {len(served)} entries, expected {expected_size}",
            )
        )

    for position, (served_entry, oracle_entry) in enumerate(
        zip(served.entries, oracle.entries), start=1
    ):
        if served_entry.obj.oid != oracle_entry.obj.oid:
            findings.append(
                AuditFinding(
                    position=position,
                    kind="wrong-object",
                    detail=(
                        f"served {served_entry.obj.label} (oid "
                        f"{served_entry.obj.oid}), oracle expects "
                        f"{oracle_entry.obj.label} (oid {oracle_entry.obj.oid})"
                    ),
                )
            )
            continue
        recomputed = scorer.score(served_entry.obj, query)
        if served_entry.score != recomputed:  # yasklint: disable=YASK103 -- the audit's whole point is bit-for-bit parity with the kernel
            findings.append(
                AuditFinding(
                    position=position,
                    kind="score-drift",
                    detail=(
                        f"served score {served_entry.score!r} != recomputed "
                        f"{recomputed!r} for {served_entry.obj.label}"
                    ),
                )
            )

    return AuditReport(
        query=query,
        ok=not findings,
        findings=tuple(findings),
        checked_entries=len(served),
    )


def audit_refinement(
    scorer: Scorer, refinement, missing_oids: Sequence[int]
) -> AuditReport:
    """Cross-check a why-not refinement: does it revive the missing set?

    Definitions 2 and 3 require the refined query to contain *every*
    missing object in its top-k'; a cached refinement served after the
    dataset changed (or a bug in a refiner's bound reasoning) would
    break exactly this contract, so the check re-derives the refined
    result with the brute-force oracle.  The ``refinement`` is
    duck-typed: anything with a ``refined_query`` and a ``penalty``.
    """
    refined_query = refinement.refined_query
    findings: list[AuditFinding] = []
    oracle = scorer.top_k(refined_query)
    returned = {entry.obj.oid for entry in oracle.entries}
    for position, oid in enumerate(sorted(missing_oids), start=1):
        if oid not in returned:
            findings.append(
                AuditFinding(
                    position=position,
                    kind="not-revived",
                    detail=(
                        f"object {oid} is still outside the refined "
                        f"top-{refined_query.k}"
                    ),
                )
            )
    if not 0.0 <= refinement.penalty <= 1.0:
        findings.append(
            AuditFinding(
                position=0,
                kind="penalty-out-of-range",
                detail=f"penalty {refinement.penalty!r} outside [0, 1]",
            )
        )
    return AuditReport(
        query=refined_query,
        ok=not findings,
        findings=tuple(findings),
        checked_entries=len(missing_oids),
    )


def audit_execution(scorer: Scorer, execution) -> AuditReport:
    """Audit an executor :class:`~repro.service.executor.Execution`.

    The caching tier adds a new way for a served result to go stale — a
    cache entry outliving the dataset it was computed from — so the
    audit applies to cached responses exactly as to fresh ones.  The
    ``execution`` is duck-typed (anything with a ``.result``) to keep
    this module importable without the executor.
    """
    return audit_result(scorer, execution.result)
