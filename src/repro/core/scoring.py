"""The ranking function ``ST`` of Eqn. (1) and its score decompositions.

``ST(o, q) = ws · (1 − SDist(o, q)) + wt · TSim(o, q)``

:class:`Scorer` binds a database (for distance normalisation) to a text
similarity model and exposes:

* per-object scores and their (SDist, TSim) decomposition,
* the *dual coordinates* ``(a, b) = (1 − SDist, TSim)`` of an object
  under a query — the representation in which an object's score is the
  linear function ``w·a + (1−w)·b`` of the spatial weight, which is the
  foundation of the preference-adjustment module (DESIGN.md §3.3),
* exact ranking utilities shared by the brute-force engine, the why-not
  modules and the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import nsmallest
from operator import neg
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from repro.core.kernel import ScoringKernel
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import QueryResult, RankedObject, SpatialKeywordQuery, Weights
from repro.text.similarity import JACCARD, TextSimilarityModel

__all__ = ["ScoreBreakdown", "DualPoint", "Scorer", "outranks"]


@dataclass(frozen=True, slots=True)
class ScoreBreakdown:
    """An object's score together with its two normalised components."""

    score: float
    sdist: float
    tsim: float


def outranks(score: float, oid: int, other_score: float, other_oid: int) -> bool:
    """The (score desc, oid asc) total order of every ranking: whether
    ``(score, oid)`` ranks ahead of ``(other_score, other_oid)``.  Scores
    compare exactly: every path computes them operation for operation
    alike, so equal floats are a true tie."""
    return score > other_score or (score == other_score and oid < other_oid)


class DualPoint(NamedTuple):
    """Dual-space coordinates of an object under a fixed (loc, doc).

    ``a = 1 − SDist(o, q)`` (spatial proximity) and ``b = TSim(o, q)``.
    Under weights ``⟨w, 1−w⟩`` the object's score is the line
    ``f(w) = w·a + (1−w)·b``; two objects tie exactly where their lines
    cross (DESIGN.md §3.3).

    A ``NamedTuple`` so the kernel's dual view can materialise all n
    points per query at C speed via :meth:`DualPoint._make`.
    """

    oid: int
    a: float
    b: float

    def score_at(self, ws: float) -> float:
        """Score under spatial weight ``ws``."""
        return ws * self.a + (1.0 - ws) * self.b

    @property
    def slope(self) -> float:
        """d(score)/d(ws) — used by the rank-update theorem."""
        return self.a - self.b

    def crossover_with(self, other: "DualPoint") -> float | None:
        """Spatial weight where the two score lines intersect.

        Returns None when the lines are parallel (identical slope) —
        such pairs never change relative order, so they contribute no
        rank-change candidate.
        """
        denominator = self.slope - other.slope
        if denominator == 0.0:
            return None
        return (other.b - self.b) / denominator


class Scorer:
    """Evaluator of Eqn. (1) over a fixed database and text model.

    For the set models with an exact columnar formula (Jaccard, Dice,
    Overlap) the scorer carries a :class:`~repro.core.kernel.ScoringKernel`
    and routes every full-scan utility (:meth:`rank_all`, :meth:`top_k`,
    :meth:`rank_of`, :meth:`worst_rank`, :meth:`dual_points`) through its
    flat-column batch passes.  The object-at-a-time methods remain the
    semantics oracle: both paths produce bit-identical floats and the
    same (score desc, oid asc) tie order, which
    ``tests/properties/test_prop_kernel.py`` asserts.

    The kernel is always one plain kernel over the whole database, also
    in a sharded engine: shards serve only the top-k scatter
    (:mod:`repro.core.sharding`), never the rank utilities here.
    """

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        text_model: TextSimilarityModel = JACCARD,
        use_kernel: bool = True,
    ) -> None:
        self._database = database
        self._text_model = text_model
        self._kernel = (
            ScoringKernel.maybe_build(database, text_model) if use_kernel else None
        )

    @property
    def database(self) -> SpatialDatabase:
        return self._database

    @property
    def text_model(self) -> TextSimilarityModel:
        return self._text_model

    @property
    def kernel(self) -> ScoringKernel | None:
        """The columnar batch kernel, or None when the model needs sets."""
        return self._kernel

    def _kernel_row_for(self, obj: SpatialObject) -> int | None:
        """Row of ``obj`` when the kernel may stand in for scoring it.

        The set path scores the *passed* object, so the kernel column is
        only equivalent when the object is identical to the database's
        copy (not merely sharing an oid).
        """
        if self._kernel is None or obj not in self._database:
            return None
        return self._kernel.row_of(obj.oid)

    # ------------------------------------------------------------------
    # Component scores
    # ------------------------------------------------------------------
    def sdist(self, obj: SpatialObject, query: SpatialKeywordQuery) -> float:
        """Normalised spatial distance ``SDist(o, q)`` ∈ [0, 1]."""
        return self._database.normalized_distance(obj.loc, query.loc)

    def tsim(
        self, obj: SpatialObject, query_doc: AbstractSet[str]
    ) -> float:
        """Textual similarity ``TSim(o, q)`` ∈ [0, 1] (Eqn. 2 by default)."""
        return self._text_model.similarity(obj.doc, query_doc)

    def breakdown(
        self, obj: SpatialObject, query: SpatialKeywordQuery
    ) -> ScoreBreakdown:
        """Score an object, returning the full decomposition."""
        sdist = self.sdist(obj, query)
        tsim = self.tsim(obj, query.doc)
        score = query.ws * (1.0 - sdist) + query.wt * tsim
        return ScoreBreakdown(score=score, sdist=sdist, tsim=tsim)

    def score(self, obj: SpatialObject, query: SpatialKeywordQuery) -> float:
        """``ST(o, q)`` — Eqn. (1).

        Computed directly — no :class:`ScoreBreakdown` allocation on
        this hot path; callers needing the components use
        :meth:`breakdown`.
        """
        sdist = self._database.normalized_distance(obj.loc, query.loc)
        tsim = self._text_model.similarity(obj.doc, query.doc)
        return query.ws * (1.0 - sdist) + query.wt * tsim

    # ------------------------------------------------------------------
    # Dual-space view (preference adjustment substrate)
    # ------------------------------------------------------------------
    def dual_point(
        self, obj: SpatialObject, query: SpatialKeywordQuery
    ) -> DualPoint:
        """Map an object to its dual coordinates under ``query``.

        Only ``query.loc`` and ``query.doc`` matter; the weights are the
        free variable in dual space.
        """
        sdist = self.sdist(obj, query)
        tsim = self.tsim(obj, query.doc)
        return DualPoint(oid=obj.oid, a=1.0 - sdist, b=tsim)

    def dual_points(self, query: SpatialKeywordQuery) -> list[DualPoint]:
        """Dual coordinates of every database object under ``query``."""
        if self._kernel is not None:
            return self._kernel.dual_points_all(query)
        return [self.dual_point(obj, query) for obj in self._database]

    # ------------------------------------------------------------------
    # Exact ranking (the reference semantics every engine must match)
    # ------------------------------------------------------------------
    def rank_all(self, query: SpatialKeywordQuery) -> list[RankedObject]:
        """Rank the whole database under ``query``.

        Deterministic total order: score descending, then oid ascending.
        """
        if self._kernel is not None:
            sdists, tsims, scores = self._kernel.components_all(query)
            order = self._kernel.order_rows(scores)
            # The kernel's row-aligned object column (not the database
            # tuple): under live mutation, tombstoned rows leave the two
            # misaligned, and order_rows only emits live rows.
            objects = self._kernel.row_objects
            # Entry materialisation stays at C speed: column gathers via
            # map(__getitem__) feeding RankedObject._make through zip.
            return list(
                map(
                    RankedObject._make,
                    zip(
                        map(objects.__getitem__, order),
                        map(scores.__getitem__, order),
                        map(sdists.__getitem__, order),
                        map(tsims.__getitem__, order),
                        range(1, len(order) + 1),
                    ),
                )
            )
        scored: list[tuple[float, SpatialObject, ScoreBreakdown]] = []
        for obj in self._database:
            breakdown = self.breakdown(obj, query)
            scored.append((breakdown.score, obj, breakdown))
        scored.sort(key=lambda item: (-item[0], item[1].oid))
        return [
            RankedObject(
                obj=obj, score=breakdown.score, sdist=breakdown.sdist,
                tsim=breakdown.tsim, rank=position,
            )
            for position, (_, obj, breakdown) in enumerate(scored, start=1)
        ]

    def top_k(self, query: SpatialKeywordQuery) -> QueryResult:
        """Brute-force top-k: the reference result per Definition 1.

        The kernel path selects the k best rows with a bounded heap
        instead of materialising all n :class:`RankedObject` entries —
        same (score desc, oid asc) prefix as :meth:`rank_all`.
        """
        if self._kernel is not None:
            sdists, tsims, scores = self._kernel.components_all(query)
            oids = self._kernel.oids
            objects = self._kernel.row_objects
            if self._kernel.has_tombstones:
                candidates = (
                    (-scores[row], oids[row], row)
                    for row in self._kernel.live_row_list()
                )
            else:
                candidates = zip(map(neg, scores), oids, range(len(objects)))
            best = nsmallest(query.k, candidates)
            entries = [
                RankedObject(
                    obj=objects[row], score=scores[row], sdist=sdists[row],
                    tsim=tsims[row], rank=position,
                )
                for position, (_, _, row) in enumerate(best, start=1)
            ]
            return QueryResult(query, entries)
        ranking = self.rank_all(query)
        return QueryResult(query, ranking[: query.k])

    def rank_of(
        self, obj: SpatialObject, query: SpatialKeywordQuery
    ) -> int:
        """Exact rank of one object without materialising the full order.

        Counts objects that beat ``obj`` under the (score desc, oid asc)
        total order in a single scan — O(n) instead of O(n log n).
        """
        target_score = self.score(obj, query)
        if self._kernel_row_for(obj) is not None:
            return self._kernel.count_better(target_score, obj.oid, query) + 1
        better = 0
        for other in self._database:
            if other.oid == obj.oid:
                continue
            other_score = self.score(other, query)
            if other_score > target_score or (
                other_score == target_score and other.oid < obj.oid
            ):
                better += 1
        return better + 1

    def worst_rank(
        self,
        objects: Iterable[SpatialObject],
        query: SpatialKeywordQuery,
    ) -> int:
        """``R(M, q)``: the lowest (largest) rank among ``objects``.

        This is the quantity the penalty functions of Eqns. (3) and (4)
        are built on — "R(M, q) denotes the lowest rank of the missing
        objects under the query q".
        """
        targets = list(objects)
        if not targets:
            raise ValueError("worst_rank requires at least one object")
        if self._kernel is not None and all(
            target in self._database for target in targets
        ):
            ranks = self._kernel.rank_of_many(
                [target.oid for target in targets], query
            )
            return max(ranks.values())
        # Single scan: for each database object count how many targets it
        # beats; equivalently compute each target's rank and take the max.
        # Targets live in a flat (oid, score) list with a parallel count
        # list so the inner loop carries no dict lookups.
        target_data = [(t.oid, self.score(t, query)) for t in targets]
        better_counts = [0] * len(target_data)
        for other in self._database:
            other_oid = other.oid
            other_score = self.score(other, query)
            for position, (target_oid, target_score) in enumerate(target_data):
                if other_oid == target_oid:
                    continue
                if other_score > target_score or (
                    other_score == target_score and other_oid < target_oid
                ):
                    better_counts[position] += 1
        return 1 + max(better_counts)

    def result_from_objects(
        self, query: SpatialKeywordQuery, objects: Sequence[SpatialObject]
    ) -> QueryResult:
        """Build a :class:`QueryResult` from already-selected objects.

        Used by index-based engines: the engine supplies the top-k
        objects, this re-scores them (cheap: k is small) and attaches
        rank positions.
        """
        entries = []
        for position, obj in enumerate(objects, start=1):
            breakdown = self.breakdown(obj, query)
            entries.append(
                RankedObject(
                    obj=obj, score=breakdown.score, sdist=breakdown.sdist,
                    tsim=breakdown.tsim, rank=position,
                )
            )
        return QueryResult(query, entries)

    def result_from_pairs(
        self, query: SpatialKeywordQuery, pairs: Iterable[tuple[float, int]]
    ) -> QueryResult:
        """:meth:`result_from_objects` for a kernel scan's ``(−score, oid)`` pairs."""
        get = self.database.get
        return self.result_from_objects(query, [get(oid) for _, oid in pairs])
