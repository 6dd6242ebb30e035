"""The explanation generator module (Section 3.3).

"Given a missing object, this module generates an explanation by
analyzing its spatial proximity and textual relevance with respect to
the initial query based on the SetR-tree [6].  The reason can be that
the missing object is too far away from the query location or that the
missing object is not so relevant to the set of query keywords.  The
ranking of the missing object under the initial query is also provided."

For each missing object the generator reports:

* its exact rank under the initial query (and the gap to ``k``),
* its score decomposition versus the k-th result object's,
* how many objects are strictly closer and how many are strictly more
  textually similar — the paper's SetR-tree counting queries, read here
  off the dual view the question's context already holds,
* a categorical reason (:class:`MissingReason`) and a human-readable
  sentence the demonstration GUI's explanation panel displays (Fig. 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.core.objects import SpatialObject
from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import ScoreBreakdown, Scorer
from repro.whynot.context import WhyNotContext, served_scorer
from repro.whynot.errors import NotMissingError

__all__ = ["MissingReason", "ObjectExplanation", "WhyNotExplanation", "ExplanationGenerator"]


class MissingReason(enum.Enum):
    """Why a desired object did not enter the top-k result."""

    #: Spatially out of reach: farther than the k-th result while at
    #: least as textually relevant.
    TOO_FAR = "too-far"
    #: Textually out of reach: less relevant than the k-th result while
    #: at least as close.
    LOW_RELEVANCE = "low-text-relevance"
    #: Behind on both components.
    BOTH = "too-far-and-low-relevance"
    #: Ahead on one component but the preference weighting lets the other
    #: dominate — the signature case for preference adjustment.
    PREFERENCE_IMBALANCE = "preference-imbalance"

    def headline(self) -> str:
        return {
            MissingReason.TOO_FAR: "the object is too far from the query location",
            MissingReason.LOW_RELEVANCE: (
                "the object's keywords match the query keywords poorly"
            ),
            MissingReason.BOTH: (
                "the object is both far from the query location and a poor "
                "keyword match"
            ),
            MissingReason.PREFERENCE_IMBALANCE: (
                "the object wins on one ranking component but the current "
                "preference weights favour the other"
            ),
        }[self]


@dataclass(frozen=True, slots=True)
class ObjectExplanation:
    """Explanation for one missing object."""

    obj: SpatialObject
    rank: int
    k: int
    breakdown: ScoreBreakdown
    kth_breakdown: ScoreBreakdown | None
    closer_objects: int
    more_similar_objects: int
    reason: MissingReason
    #: Spatial-weight intervals that alone would bring the object into
    #: the top-k ("How can the ranking function be adjusted so that the
    #: Starbucks cafe appears in the result?" — Example 1).  None when
    #: the generator was built without a preference adjuster.
    viable_ws_intervals: tuple[tuple[float, float], ...] | None = None

    @property
    def ranks_behind(self) -> int:
        """How many positions beyond the result the object sits."""
        return max(0, self.rank - self.k)

    @property
    def fixable_by_weights_alone(self) -> bool | None:
        """Whether some preference vector alone revives the object.

        None when weight-interval analysis was not performed.
        """
        if self.viable_ws_intervals is None:
            return None
        return len(self.viable_ws_intervals) > 0

    def narrative(self) -> str:
        """The sentence shown in the explanation panel (Fig. 5)."""
        lines = [
            f"{self.obj.label} ranks #{self.rank} under your query "
            f"(the result shows the top {self.k}).",
            f"Reason: {self.reason.headline()}.",
            f"Its score is {self.breakdown.score:.4f} "
            f"(spatial distance {self.breakdown.sdist:.4f}, "
            f"textual similarity {self.breakdown.tsim:.4f}).",
        ]
        if self.kth_breakdown is not None:
            lines.append(
                f"The last returned object scores {self.kth_breakdown.score:.4f} "
                f"(spatial distance {self.kth_breakdown.sdist:.4f}, "
                f"textual similarity {self.kth_breakdown.tsim:.4f})."
            )
        lines.append(
            f"{self.closer_objects} object(s) are closer to the query location "
            f"and {self.more_similar_objects} object(s) match the keywords better."
        )
        if self.viable_ws_intervals is not None:
            if self.viable_ws_intervals:
                ranges = ", ".join(
                    f"[{lo:.3f}, {hi:.3f}]" for lo, hi in self.viable_ws_intervals
                )
                lines.append(
                    "Adjusting the spatial weight into "
                    f"{ranges} alone would bring it into the result."
                )
            else:
                lines.append(
                    "No preference weighting alone brings it into the result; "
                    "enlarge k or adapt the query keywords."
                )
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class WhyNotExplanation:
    """Explanations for a full missing set plus refinement guidance."""

    query: SpatialKeywordQuery
    explanations: tuple[ObjectExplanation, ...]
    #: ``R(M, q)``: the quantity both penalty functions normalise by.
    worst_rank: int
    suggested_model: str

    def narrative(self) -> str:
        parts = [explanation.narrative() for explanation in self.explanations]
        parts.append(
            "Suggested refinement model to try first: "
            f"{self.suggested_model}."
        )
        return "\n\n".join(parts)


class ExplanationGenerator:
    """Builds :class:`WhyNotExplanation` objects for a missing set.

    The counting queries read the context's kernel
    :class:`~repro.core.kernel.DualView`, so the scorer needs a kernel;
    :class:`repro.paper.ScanExplanationGenerator` counts with two
    database scans instead — same answers.
    """

    def __init__(
        self,
        scorer: Scorer,
        *,
        preference_adjuster: "object | None" = None,
    ) -> None:
        """
        ``preference_adjuster`` (a
        :class:`repro.whynot.preference.PreferenceAdjuster`) enables the
        weight-interval analysis in every explanation: for each missing
        object the intervals of the spatial weight that alone would
        revive it (Example 1's "how can the ranking function be
        adjusted?").
        """
        self._scorer = self._checked(scorer)
        self._preference_adjuster = preference_adjuster

    @staticmethod
    def _checked(scorer: Scorer) -> Scorer:
        return served_scorer(scorer, "ScanExplanationGenerator")

    def _new_context(
        self, query: SpatialKeywordQuery, missing: Sequence[SpatialObject]
    ) -> WhyNotContext:
        return WhyNotContext(self._scorer, query, missing)

    # ------------------------------------------------------------------
    def explain(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        *,
        result: QueryResult,
        context: WhyNotContext | None = None,
    ) -> WhyNotExplanation:
        """Explain why every object in ``missing`` is absent from ``result``.

        ``result`` is the initial query's top-k result, which the caller
        holds (the served engine runs or caches it); ``context`` (the
        shared facts about ``(query, missing)``) is built when absent.
        Raises :class:`NotMissingError` when any object already appears.
        """
        if not missing:
            raise ValueError("the missing object set M must not be empty")
        already = [obj.oid for obj in missing if result.contains(obj)]
        if already:
            raise NotMissingError(already)
        if context is None:
            context = self._new_context(query, missing)

        kth = result.entries[-1] if len(result) else None
        kth_breakdown = (
            ScoreBreakdown(score=kth.score, sdist=kth.sdist, tsim=kth.tsim)
            if kth is not None
            else None
        )

        explanations = []
        worst_rank = 0
        for obj in missing:
            rank = context.initial_ranks[obj.oid]
            worst_rank = max(worst_rank, rank)
            breakdown = self._scorer.breakdown(obj, query)
            raw_distance = obj.loc.distance_to(query.loc)
            closer, more_similar = self._component_counts(
                context, raw_distance, breakdown.tsim
            )
            reason = self._classify(breakdown, kth_breakdown)
            intervals: tuple[tuple[float, float], ...] | None = None
            if self._preference_adjuster is not None:
                intervals = tuple(
                    self._preference_adjuster.viable_weight_intervals(
                        query, obj, context=context
                    )
                )
            explanations.append(
                ObjectExplanation(
                    obj=obj,
                    rank=rank,
                    k=query.k,
                    breakdown=breakdown,
                    kth_breakdown=kth_breakdown,
                    closer_objects=closer,
                    more_similar_objects=more_similar,
                    reason=reason,
                    viable_ws_intervals=intervals,
                )
            )

        return WhyNotExplanation(
            query=query,
            explanations=tuple(explanations),
            worst_rank=worst_rank,
            suggested_model=self._suggest_model(explanations),
        )

    # ------------------------------------------------------------------
    def _component_counts(
        self, context: WhyNotContext, raw_distance: float, tsim: float
    ) -> tuple[int, int]:
        """(#objects strictly closer, #objects strictly more similar).

        Both are popcounts of the dual view, bar the rows a ``hypot``
        places at the radius (:meth:`DualView.count_closer`,
        :meth:`DualView.count_more_similar`).
        """
        view = context.view
        return view.count_closer(raw_distance), view.count_more_similar(tsim)

    # ------------------------------------------------------------------
    @staticmethod
    def _classify(
        breakdown: ScoreBreakdown, kth: ScoreBreakdown | None
    ) -> MissingReason:
        """Component-wise comparison against the k-th returned object."""
        if kth is None:
            return MissingReason.BOTH
        spatially_behind = breakdown.sdist > kth.sdist
        textually_behind = breakdown.tsim < kth.tsim
        if spatially_behind and textually_behind:
            return MissingReason.BOTH
        if spatially_behind:
            return MissingReason.TOO_FAR
        if textually_behind:
            return MissingReason.LOW_RELEVANCE
        # Ahead (or tied) on both components yet ranked below the k-th
        # object is impossible under Eqn. (1); reaching here means the
        # object wins one component decisively while the weights favour
        # the other — the preference-imbalance case.
        return MissingReason.PREFERENCE_IMBALANCE

    @staticmethod
    def _suggest_model(explanations: Sequence[ObjectExplanation]) -> str:
        """Heuristic pointer to the refinement model likelier to be cheap.

        Keyword mismatches call for keyword adaption; spatial losses and
        imbalances call for preference adjustment (the GUI lets the user
        run either or both — Section 3.2).
        """
        textual = sum(
            1
            for explanation in explanations
            if explanation.reason
            in (MissingReason.LOW_RELEVANCE, MissingReason.BOTH)
        )
        if textual * 2 > len(explanations):
            return "keyword adaption"
        return "preference adjustment"
