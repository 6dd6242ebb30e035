"""Query model: weights, spatial keyword top-k queries, and results.

A spatial keyword top-k query takes four parameters (Section 2.1):
``q = (q.loc, q.doc, k, ~w)`` where ``~w = ⟨ws, wt⟩``, ``0 < ws, wt < 1``
and ``ws + wt = 1``.  The demonstration system leaves ``~w`` as a server
parameter defaulting to ``⟨0.5, 0.5⟩`` (Section 3.2); this module encodes
those constraints as validated value types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.core.geometry import EPSILON, Point
from repro.core.objects import SpatialObject

__all__ = [
    "Weights",
    "DEFAULT_WEIGHTS",
    "SpatialKeywordQuery",
    "RankedObject",
    "QueryResult",
]


@dataclass(frozen=True, slots=True)
class Weights:
    """The preference vector ``~w = ⟨ws, wt⟩`` of Eqn. (1).

    Invariants (Section 2.1): ``0 < ws, wt < 1`` and ``ws + wt = 1``.
    The open-interval constraint matters to the why-not module: a weight
    of exactly 0 or 1 would collapse an object's weight-plane segment to
    an endpoint and the crossover sweep of DESIGN.md Section 3.3 assumes
    interior weights.
    """

    ws: float
    wt: float

    def __post_init__(self) -> None:
        if not (0.0 < self.ws < 1.0 and 0.0 < self.wt < 1.0):
            raise ValueError(
                f"weights must lie strictly between 0 and 1, got ws={self.ws}, wt={self.wt}"
            )
        if abs(self.ws + self.wt - 1.0) > 1e-6:
            raise ValueError(
                f"weights must sum to 1, got ws + wt = {self.ws + self.wt}"
            )

    @staticmethod
    def from_spatial(ws: float) -> "Weights":
        """Build a weight vector from the spatial component only."""
        return Weights(ws, 1.0 - ws)

    @staticmethod
    def interior(ws: float) -> bool:
        """Whether :meth:`from_spatial` accepts ``ws``: besides ``0 < ws
        < 1``, ``1 − ws`` must not round to 0 or 1."""
        return 0.0 < ws < 1.0 and 0.0 < 1.0 - ws < 1.0

    @staticmethod
    def balanced() -> "Weights":
        """The system default ``⟨0.5, 0.5⟩`` (Section 3.2)."""
        return Weights(0.5, 0.5)

    def distance_to(self, other: "Weights") -> float:
        """``Δ~w = ||~w − ~w'||₂`` — the numerator of Eqn. (3)'s second term."""
        return math.hypot(self.ws - other.ws, self.wt - other.wt)

    @property
    def penalty_normaliser(self) -> float:
        """``sqrt(1 + ws² + wt²)`` — Eqn. (3)'s Δ~w normaliser.

        The paper states Δ~w "can be proved to be no larger than" this
        quantity, which therefore maps the weight-change term into [0, 1].
        """
        return math.sqrt(1.0 + self.ws * self.ws + self.wt * self.wt)

    def as_tuple(self) -> tuple[float, float]:
        return (self.ws, self.wt)

    def __iter__(self) -> Iterator[float]:
        yield self.ws
        yield self.wt


#: Default server-side preference: spatial distance and textual
#: similarity weighed equally (Section 3.2).
DEFAULT_WEIGHTS = Weights(0.5, 0.5)


@dataclass(frozen=True, slots=True)
class SpatialKeywordQuery:
    """A spatial keyword top-k query ``q = (q.loc, q.doc, k, ~w)``.

    ``doc`` is stored as a ``frozenset`` of already-normalised keywords;
    use :func:`repro.text.keyword_set` to build it from raw text.
    """

    loc: Point
    doc: frozenset[str]
    k: int
    weights: Weights = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if not isinstance(self.doc, frozenset):
            object.__setattr__(self, "doc", frozenset(self.doc))
        if not (math.isfinite(self.loc.x) and math.isfinite(self.loc.y)):
            raise ValueError(
                f"query location must be finite, got ({self.loc.x}, {self.loc.y})"
            )
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not self.doc:
            raise ValueError("a spatial keyword query requires at least one keyword")

    # Convenience accessors mirroring the paper's notation -------------
    @property
    def ws(self) -> float:
        return self.weights.ws

    @property
    def wt(self) -> float:
        return self.weights.wt

    def with_k(self, k: int) -> "SpatialKeywordQuery":
        """Return a copy with an enlarged/modified ``k``."""
        return replace(self, k=k)

    def with_weights(self, weights: Weights) -> "SpatialKeywordQuery":
        """Return a copy with a different preference vector."""
        return replace(self, weights=weights)

    def with_doc(self, doc: Iterable[str]) -> "SpatialKeywordQuery":
        """Return a copy with a different query keyword set."""
        return replace(self, doc=frozenset(doc))

    def describe(self) -> str:
        """One-line summary used by the demonstration panels and logs."""
        keywords = ", ".join(sorted(self.doc))
        return (
            f"top-{self.k} @ ({self.loc.x:.4f}, {self.loc.y:.4f}) "
            f"keywords=[{keywords}] w=({self.weights.ws:.3f}, {self.weights.wt:.3f})"
        )


class RankedObject(NamedTuple):
    """One result entry: an object with its score decomposition and rank.

    ``rank`` is 1-based under the deterministic total order
    (score descending, object id ascending) used throughout the library;
    the paper's Definition 1 permits arbitrary tie-breaks, and fixing one
    makes ranks — and therefore why-not answers — reproducible.

    A ``NamedTuple`` rather than a dataclass: full-database rankings
    materialise one entry per object, and the scoring kernel builds them
    at C speed through :meth:`RankedObject._make` (a frozen dataclass
    pays five ``object.__setattr__`` calls per instance on that path).
    """

    obj: SpatialObject
    score: float
    sdist: float
    tsim: float
    rank: int

    @property
    def sort_key(self) -> tuple[float, int]:
        """Total-order key: higher score first, then smaller oid."""
        return (-self.score, self.obj.oid)

    def describe(self) -> str:
        return (
            f"#{self.rank} {self.obj.label}: score={self.score:.4f} "
            f"(SDist={self.sdist:.4f}, TSim={self.tsim:.4f})"
        )


class QueryResult:
    """The ordered result ``R`` of a spatial keyword top-k query."""

    def __init__(
        self, query: SpatialKeywordQuery, entries: Sequence[RankedObject]
    ) -> None:
        self._query = query
        self._entries = tuple(entries)
        for position, entry in enumerate(self._entries, start=1):
            if entry.rank != position:
                raise ValueError(
                    f"result entries must be rank-ordered: entry {position} has rank {entry.rank}"
                )

    @property
    def query(self) -> SpatialKeywordQuery:
        return self._query

    @property
    def entries(self) -> tuple[RankedObject, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RankedObject]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> RankedObject:
        return self._entries[index]

    @property
    def objects(self) -> tuple[SpatialObject, ...]:
        """The result objects in rank order."""
        return tuple(entry.obj for entry in self._entries)

    @property
    def object_ids(self) -> frozenset[int]:
        return frozenset(entry.obj.oid for entry in self._entries)

    def contains(self, reference: int | SpatialObject) -> bool:
        """Return True when the object is part of the result."""
        oid = reference.oid if isinstance(reference, SpatialObject) else reference
        return oid in self.object_ids

    @property
    def kth_score(self) -> float:
        """Score of the lowest-ranked returned object.

        The threshold a missing object must beat to enter the result;
        used by the explanation generator.
        """
        if not self._entries:
            return -math.inf
        return self._entries[-1].score

    def describe(self) -> str:
        lines = [self._query.describe()]
        lines.extend(entry.describe() for entry in self._entries)
        return "\n".join(lines)
