"""JSON wire protocol of the YASK service.

Section 3.2: "All queries are sent to the server using the standard
HTTP post method."  This module defines the (de)serialisation between
the engine's value objects and the JSON payloads exchanged with the
client — one function pair per message type, kept dependency-free so
the protocol can be reused by non-HTTP transports (the CLI pipes the
same dicts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.geometry import Point
from repro.core.objects import SpatialObject
from repro.core.query import (
    DEFAULT_WEIGHTS,
    QueryResult,
    RankedObject,
    SpatialKeywordQuery,
    Weights,
)
from repro.whynot.combined import CombinedRefinement
from repro.whynot.explanation import ObjectExplanation, WhyNotExplanation
from repro.whynot.keyword import KeywordRefinement
from repro.whynot.preference import PreferenceRefinement

if TYPE_CHECKING:  # imported lazily to keep the protocol transport-free
    from repro.service.executor import (
        BatchExecution,
        Execution,
        WhyNotBatchExecution,
        WhyNotExecution,
        WhyNotQuestion,
    )
    from repro.whynot.engine import WhyNotAnswer

__all__ = [
    "MAX_BATCH_MUTATIONS",
    "MAX_BATCH_QUERIES",
    "MAX_BATCH_QUESTIONS",
    "MAX_BATCH_TOKEN_LENGTH",
    "MAX_OBJECT_KEYWORDS",
    "MAX_QUERY_K",
    "MAX_QUERY_KEYWORDS",
    "ProtocolError",
    "batch_token_from_dict",
    "min_generation_from_dict",
    "timeout_ms_from_dict",
    "mutation_from_dict",
    "mutation_to_dict",
    "mutations_from_dict",
    "spatial_object_from_dict",
    "query_to_dict",
    "query_from_dict",
    "batch_queries_from_dict",
    "missing_refs_from_dict",
    "lambda_from_dict",
    "whynot_question_from_dict",
    "batch_whynot_questions_from_dict",
    "object_to_dict",
    "result_to_dict",
    "execution_to_dict",
    "batch_execution_to_dict",
    "explanation_to_dict",
    "preference_refinement_to_dict",
    "keyword_refinement_to_dict",
    "combined_refinement_to_dict",
    "whynot_answer_to_dict",
    "whynot_value_to_dict",
    "whynot_execution_to_dict",
    "whynot_batch_execution_to_dict",
]

#: Defensive cap on the number of queries in one batch request; keeps a
#: single request from monopolising the server's worker pool.
MAX_BATCH_QUERIES = 256

#: Cap for why-not batches.  A why-not answer costs an order of
#: magnitude more than the top-k query it explains, so the cap is
#: proportionally tighter than :data:`MAX_BATCH_QUERIES`.
MAX_BATCH_QUESTIONS = 64

#: Cap for mutation batches (``POST /api/mutations``).  Mutations hold
#: the engine's exclusive write lock while they apply, so one request
#: must not stall the read path for long.
MAX_BATCH_MUTATIONS = 256

#: Cap on a query's ``k`` (top-k and why-not requests alike).  Nothing
#: the repository sends over HTTP asks for more than 10; 1 000 leaves
#: room for a why-not question about an object two orders of magnitude
#: deeper, and keeps a reply to ~0.25 MB where ``k = 10⁹`` at 20k
#: objects answered (and cached) all 20 000 entries, ~5 MB of JSON.
MAX_QUERY_K = 1000

#: Cap on a query's keyword list.  The benchmark's queries carry 1–3
#: keywords and the bundled datasets' objects at most 12; without a cap
#: a 100 000-keyword list was encoded whole, into the fingerprint and
#: every scan's query mask.
MAX_QUERY_KEYWORDS = 64

#: Cap on an inserted or updated object's keyword list.  An object
#: carries its document into every kernel row, scan bucket and log
#: record, so the cap sits well above any real one (≤ 12 in the bundled
#: datasets, 3–8 in the benchmark's inserts).
MAX_OBJECT_KEYWORDS = 256


class ProtocolError(ValueError):
    """A malformed request payload."""


def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise ProtocolError(f"missing required field {key!r}") from None


def _keywords(payload: Mapping[str, Any], cap: int | None) -> frozenset[str]:
    """The ``keywords`` field: a JSON list of at most ``cap`` strings.

    Items are not coerced: ``null`` or ``3`` is refused rather than
    searched for as ``"None"`` or ``"3"``, and a JSON object is refused
    rather than contributing its keys.  ``cap=None`` lifts the length
    cap.
    """
    keywords = _require(payload, "keywords")
    if not isinstance(keywords, list):
        raise ProtocolError("'keywords' must be a list of strings")
    if cap is not None and len(keywords) > cap:
        raise ProtocolError(
            f"'keywords' holds {len(keywords)} entries; the cap is {cap}"
        )
    if not all(isinstance(keyword, str) for keyword in keywords):
        raise ProtocolError("'keywords' must be a list of strings")
    return frozenset(keywords)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def query_to_dict(query: SpatialKeywordQuery) -> dict[str, Any]:
    return {
        "x": query.loc.x,
        "y": query.loc.y,
        "keywords": sorted(query.doc),
        "k": query.k,
        "ws": query.weights.ws,
        "wt": query.weights.wt,
    }


def query_from_dict(
    payload: Mapping[str, Any], *, default_weights: Weights = DEFAULT_WEIGHTS
) -> SpatialKeywordQuery:
    """Parse a query request; weights are optional (server parameter)."""
    try:
        loc = Point(float(_require(payload, "x")), float(_require(payload, "y")))
        doc = _keywords(payload, MAX_QUERY_KEYWORDS)
        k = _require(payload, "k")
        if isinstance(k, bool):
            raise ProtocolError("'k' must be a positive integer, not a boolean")
        k = int(k)
        if k > MAX_QUERY_K:
            raise ProtocolError(f"'k' must be at most {MAX_QUERY_K}")
        if "ws" in payload:
            ws = float(payload["ws"])
            wt = float(payload.get("wt", 1.0 - ws))
            weights = Weights(ws, wt)
        else:
            weights = default_weights
        return SpatialKeywordQuery(loc=loc, doc=doc, k=k, weights=weights)
    except ProtocolError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed query payload: {exc}") from None


def batch_queries_from_dict(
    payload: Mapping[str, Any],
    *,
    default_weights: Weights = DEFAULT_WEIGHTS,
    max_queries: int = MAX_BATCH_QUERIES,
) -> list[SpatialKeywordQuery]:
    """Parse a ``POST /api/query/batch`` body: ``{"queries": [...]}``.

    Each element uses the same shape as a single ``/api/query`` body; a
    malformed element reports its index so clients can repair the batch.
    """
    raw = _require(payload, "queries")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'queries' must be a non-empty list of query objects")
    if len(raw) > max_queries:
        raise ProtocolError(
            f"batch too large: {len(raw)} queries exceeds the cap of {max_queries}"
        )
    queries: list[SpatialKeywordQuery] = []
    for index, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise ProtocolError(f"queries[{index}] must be a JSON object")
        try:
            queries.append(query_from_dict(item, default_weights=default_weights))
        except ProtocolError as exc:
            raise ProtocolError(f"queries[{index}]: {exc}") from None
    return queries


# ----------------------------------------------------------------------
# Mutations (live insert / update / delete)
# ----------------------------------------------------------------------
def spatial_object_from_dict(
    payload: Mapping[str, Any],
    *,
    max_keywords: int | None = MAX_OBJECT_KEYWORDS,
) -> SpatialObject:
    """Parse an object payload: ``{"oid", "x", "y", "keywords", "name"?}``.

    The keyword list may be empty (an object can carry no text), but it
    must be present — an ingest endpoint silently defaulting documents
    would mask client bugs.
    """
    try:
        oid = int(_require(payload, "oid"))
        loc = Point(float(_require(payload, "x")), float(_require(payload, "y")))
        doc = _keywords(payload, max_keywords)
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("'name' must be a string when present")
        return SpatialObject(oid=oid, loc=loc, doc=doc, name=name)
    except ProtocolError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed object payload: {exc}") from None


def mutation_from_dict(
    payload: Mapping[str, Any],
    *,
    max_keywords: int | None = MAX_OBJECT_KEYWORDS,
) -> "Mutation":
    """Parse one mutation: ``{"op": "insert"|"update"|"delete", ...}``.

    Inserts and updates carry the object fields inline; deletes carry
    only ``"oid"``.  ``max_keywords=None`` lifts the keyword cap: a
    log replay must accept every batch the engine applied, and
    :meth:`~repro.service.api.YaskEngine.apply_mutations` takes objects
    of any keyword count.
    """
    from repro.core.mutations import Mutation, MutationError

    op = payload.get("op")
    if op not in ("insert", "update", "delete"):
        raise ProtocolError(
            "'op' must be one of 'insert', 'update', 'delete'"
        )
    try:
        if op == "delete":
            return Mutation.delete(int(_require(payload, "oid")))
        obj = spatial_object_from_dict(payload, max_keywords=max_keywords)
        return Mutation.insert(obj) if op == "insert" else Mutation.update(obj)
    except ProtocolError:
        raise
    except MutationError as exc:
        raise ProtocolError(str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed mutation payload: {exc}") from None


def mutation_to_dict(mutation: "Mutation") -> dict[str, Any]:
    """Serialise one mutation (inverse of :func:`mutation_from_dict`).

    The write-ahead log records batches in this wire shape, so a replay
    parses them with the code path a client request takes, with the
    keyword cap lifted.
    Floats survive the JSON round trip bit-for-bit (``repr`` shortest
    round-trip), which is what makes recovered score floats identical.
    """
    if mutation.kind == "delete":
        return {"op": "delete", "oid": mutation.oid}
    obj = mutation.obj
    payload: dict[str, Any] = {
        "op": mutation.kind,
        "oid": obj.oid,
        "x": obj.loc.x,
        "y": obj.loc.y,
        "keywords": sorted(obj.doc),
    }
    if obj.name is not None:
        payload["name"] = obj.name
    return payload


def min_generation_from_dict(payload: Mapping[str, Any]) -> int | None:
    """Parse the optional ``min_generation`` consistency token.

    A client that saw the primary acknowledge generation ``g`` sends
    ``"min_generation": g`` on reads to refuse anything staler; absent
    means "any generation is fine".
    """
    raw = payload.get("min_generation")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProtocolError("'min_generation' must be a non-negative integer")
    if raw < 0:
        raise ProtocolError("'min_generation' must be a non-negative integer")
    return raw


#: Defensive cap on idempotency-token length: the token is persisted in
#: every WAL record that carries it, so an adversarially long token must
#: not bloat the log.
MAX_BATCH_TOKEN_LENGTH = 128


def timeout_ms_from_dict(payload: Mapping[str, Any]) -> float | None:
    """Parse the optional ``timeout_ms`` request budget (positive number).

    Absent (or null) means no deadline — the request runs to exact
    completion however long that takes.
    """
    raw = payload.get("timeout_ms")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ProtocolError("'timeout_ms' must be a positive number")
    budget = float(raw)
    if not budget > 0.0:
        raise ProtocolError("'timeout_ms' must be a positive number")
    return budget


def batch_token_from_dict(payload: Mapping[str, Any]) -> str | None:
    """Parse the optional ``batch_token`` idempotency token.

    A non-empty string of at most :data:`MAX_BATCH_TOKEN_LENGTH`
    characters; absent means the mutation batch is not retriable.
    """
    raw = payload.get("batch_token")
    if raw is None:
        return None
    if not isinstance(raw, str) or not raw:
        raise ProtocolError("'batch_token' must be a non-empty string")
    if len(raw) > MAX_BATCH_TOKEN_LENGTH:
        raise ProtocolError(
            f"'batch_token' exceeds {MAX_BATCH_TOKEN_LENGTH} characters"
        )
    return raw


def mutations_from_dict(
    payload: Mapping[str, Any],
    *,
    max_mutations: int | None = MAX_BATCH_MUTATIONS,
) -> "list[Mutation]":
    """Parse a ``POST /api/mutations`` body: ``{"mutations": [...]}``.

    ``max_mutations=None`` disables the batch cap — the CLI's local
    workload files are not subject to the HTTP write-lock budget.
    """
    raw = _require(payload, "mutations")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "'mutations' must be a non-empty list of mutation objects"
        )
    if max_mutations is not None and len(raw) > max_mutations:
        raise ProtocolError(
            f"batch too large: {len(raw)} mutations exceeds the cap of "
            f"{max_mutations}"
        )
    mutations = []
    for index, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise ProtocolError(f"mutations[{index}] must be a JSON object")
        try:
            mutations.append(mutation_from_dict(item))
        except ProtocolError as exc:
            raise ProtocolError(f"mutations[{index}]: {exc}") from None
    return mutations


# ----------------------------------------------------------------------
# Why-not questions
# ----------------------------------------------------------------------
def missing_refs_from_dict(payload: Mapping[str, Any]) -> list[int | str]:
    """Parse the ``"missing"`` field: a non-empty list of ids or names."""
    missing = payload.get("missing")
    if not isinstance(missing, list) or not missing:
        raise ProtocolError("'missing' must be a non-empty list of ids or names")
    refs: list[int | str] = []
    for item in missing:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise ProtocolError("'missing' entries must be object ids or names")
        refs.append(item)
    return refs


def lambda_from_dict(payload: Mapping[str, Any]) -> float:
    """Parse the optional ``"lambda"`` field (default 0.5, range [0, 1])."""
    raw = payload.get("lambda", 0.5)
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ProtocolError("'lambda' must be a number")
    try:
        lam = float(raw)
    except (TypeError, ValueError):
        raise ProtocolError("'lambda' must be a number") from None
    if not 0.0 <= lam <= 1.0:
        raise ProtocolError("'lambda' must lie in [0, 1]")
    return lam


def whynot_question_from_dict(
    payload: Mapping[str, Any], *, default_weights: Weights = DEFAULT_WEIGHTS
) -> "WhyNotQuestion":
    """Parse one why-not question: query fields + ``missing`` [+ model, λ].

    The query half uses the same shape as a single ``/api/query`` body;
    ``model`` defaults to ``"full"`` (explanation plus both refinement
    models) and ``lambda`` to 0.5.
    """
    from repro.service.executor import WHYNOT_MODELS, WhyNotQuestion

    query = query_from_dict(payload, default_weights=default_weights)
    refs = missing_refs_from_dict(payload)
    lam = lambda_from_dict(payload)
    model = payload.get("model", "full")
    if model not in WHYNOT_MODELS:
        raise ProtocolError(
            f"unknown why-not model {model!r}; expected one of {WHYNOT_MODELS}"
        )
    return WhyNotQuestion(
        query=query, missing=tuple(refs), model=model, lam=lam
    )


def batch_whynot_questions_from_dict(
    payload: Mapping[str, Any],
    *,
    default_weights: Weights = DEFAULT_WEIGHTS,
    max_questions: int = MAX_BATCH_QUESTIONS,
) -> list["WhyNotQuestion"]:
    """Parse a ``POST /api/whynot/batch`` body: ``{"questions": [...]}``.

    A malformed element reports its index so clients can repair the
    batch.
    """
    raw = _require(payload, "questions")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "'questions' must be a non-empty list of why-not question objects"
        )
    if len(raw) > max_questions:
        raise ProtocolError(
            f"batch too large: {len(raw)} questions exceeds the cap of "
            f"{max_questions}"
        )
    questions = []
    for index, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise ProtocolError(f"questions[{index}] must be a JSON object")
        try:
            questions.append(
                whynot_question_from_dict(item, default_weights=default_weights)
            )
        except ProtocolError as exc:
            raise ProtocolError(f"questions[{index}]: {exc}") from None
    return questions


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def object_to_dict(obj: SpatialObject) -> dict[str, Any]:
    return {
        "oid": obj.oid,
        "name": obj.name,
        "x": obj.loc.x,
        "y": obj.loc.y,
        "keywords": sorted(obj.doc),
    }


def _entry_to_dict(entry: RankedObject) -> dict[str, Any]:
    return {
        "rank": entry.rank,
        "score": entry.score,
        "sdist": entry.sdist,
        "tsim": entry.tsim,
        "object": object_to_dict(entry.obj),
    }


def result_to_dict(result: QueryResult) -> dict[str, Any]:
    return {
        "query": query_to_dict(result.query),
        "entries": [_entry_to_dict(entry) for entry in result.entries],
    }


# ----------------------------------------------------------------------
# Executor responses
# ----------------------------------------------------------------------
def execution_to_dict(execution: "Execution") -> dict[str, Any]:
    """Serialise one executor :class:`Execution` (single or batch member).

    ``degraded`` appears only on deadline-degraded partial results, so
    exact responses are byte-identical to the pre-deadline protocol.
    """
    payload: dict[str, Any] = {
        "response_ms": execution.response_ms,
        "cached": execution.cached,
        "source": execution.source,
        "result": result_to_dict(execution.result),
    }
    if execution.degraded is not None:
        payload["degraded"] = execution.degraded
    return payload


def batch_execution_to_dict(batch: "BatchExecution") -> dict[str, Any]:
    return {
        "count": len(batch),
        "total_ms": batch.total_ms,
        "results": [execution_to_dict(execution) for execution in batch],
    }


# ----------------------------------------------------------------------
# Why-not answers
# ----------------------------------------------------------------------
def _object_explanation_to_dict(explanation: ObjectExplanation) -> dict[str, Any]:
    return {
        "object": object_to_dict(explanation.obj),
        "rank": explanation.rank,
        "k": explanation.k,
        "ranks_behind": explanation.ranks_behind,
        "score": explanation.breakdown.score,
        "sdist": explanation.breakdown.sdist,
        "tsim": explanation.breakdown.tsim,
        "closer_objects": explanation.closer_objects,
        "more_similar_objects": explanation.more_similar_objects,
        "reason": explanation.reason.value,
        "viable_ws_intervals": (
            [list(interval) for interval in explanation.viable_ws_intervals]
            if explanation.viable_ws_intervals is not None
            else None
        ),
        "fixable_by_weights_alone": explanation.fixable_by_weights_alone,
        "narrative": explanation.narrative(),
    }


def explanation_to_dict(explanation: WhyNotExplanation) -> dict[str, Any]:
    return {
        "query": query_to_dict(explanation.query),
        "worst_rank": explanation.worst_rank,
        "suggested_model": explanation.suggested_model,
        "objects": [
            _object_explanation_to_dict(entry)
            for entry in explanation.explanations
        ],
    }


def preference_refinement_to_dict(
    refinement: PreferenceRefinement,
) -> dict[str, Any]:
    return {
        "model": "preference-adjustment",
        "refined_query": query_to_dict(refinement.refined_query),
        "penalty": refinement.penalty,
        "delta_k": refinement.delta_k,
        "delta_w": refinement.delta_w,
        "refined_worst_rank": refinement.refined_worst_rank,
        "initial_worst_rank": refinement.initial_worst_rank,
        "lambda": refinement.lam,
        "method": refinement.method,
    }


def keyword_refinement_to_dict(refinement: KeywordRefinement) -> dict[str, Any]:
    return {
        "model": "keyword-adaption",
        "refined_query": query_to_dict(refinement.refined_query),
        "penalty": refinement.penalty,
        "delta_k": refinement.delta_k,
        "delta_doc": refinement.delta_doc,
        "added": sorted(refinement.added),
        "removed": sorted(refinement.removed),
        "refined_worst_rank": refinement.refined_worst_rank,
        "initial_worst_rank": refinement.initial_worst_rank,
        "lambda": refinement.lam,
        "method": refinement.method,
    }


def whynot_answer_to_dict(answer: "WhyNotAnswer") -> dict[str, Any]:
    """Serialise a full why-not answer (explanation + both refinements)."""
    return {
        "model": "full",
        "explanation": explanation_to_dict(answer.explanation),
        "preference": (
            preference_refinement_to_dict(answer.preference)
            if answer.preference is not None
            else None
        ),
        "keyword": (
            keyword_refinement_to_dict(answer.keyword)
            if answer.keyword is not None
            else None
        ),
        "best_model": answer.best_model,
    }


def whynot_value_to_dict(model: str, value: Any) -> dict[str, Any]:
    """Serialise whatever a why-not model produced, by model name."""
    if model == "full":
        return whynot_answer_to_dict(value)
    if model == "explain":
        return explanation_to_dict(value)
    if model == "preference":
        return preference_refinement_to_dict(value)
    if model == "keywords":
        return keyword_refinement_to_dict(value)
    if model == "combined":
        return combined_refinement_to_dict(value)
    raise ValueError(f"unknown why-not model {model!r}")


def whynot_execution_to_dict(execution: "WhyNotExecution") -> dict[str, Any]:
    """Serialise one :class:`WhyNotExecutor` execution (batch member)."""
    payload: dict[str, Any] = {
        "model": execution.question.model,
        "response_ms": execution.response_ms,
        "cached": execution.cached,
        "source": execution.source,
        "topk_source": execution.topk_source,
    }
    if execution.degraded is not None:
        payload["degraded"] = execution.degraded
    if execution.error is not None:
        payload["error"] = execution.error
        payload["answer"] = None
    else:
        payload["answer"] = whynot_value_to_dict(
            execution.question.model, execution.answer
        )
    return payload


def whynot_batch_execution_to_dict(
    batch: "WhyNotBatchExecution",
) -> dict[str, Any]:
    return {
        "count": len(batch),
        "total_ms": batch.total_ms,
        "results": [whynot_execution_to_dict(execution) for execution in batch],
    }


def combined_refinement_to_dict(refinement: CombinedRefinement) -> dict[str, Any]:
    return {
        "model": "combined",
        "order": refinement.order,
        "refined_query": query_to_dict(refinement.refined_query),
        "penalty": refinement.penalty,
        "delta_k": refinement.delta_k,
        "delta_w": refinement.delta_w,
        "delta_doc": refinement.delta_doc,
        "refined_worst_rank": refinement.refined_worst_rank,
        "initial_worst_rank": refinement.initial_worst_rank,
        "lambda": refinement.lam,
        "keyword_stage": (
            keyword_refinement_to_dict(refinement.keyword_stage)
            if refinement.keyword_stage is not None
            else None
        ),
        "preference_stage": (
            preference_refinement_to_dict(refinement.preference_stage)
            if refinement.preference_stage is not None
            else None
        ),
    }
