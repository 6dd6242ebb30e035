"""Combined refinement: both models applied together (Section 3.2).

"Users can apply the two refinement functions simultaneously to find
better solutions."  The demonstration GUI lets a user chain the two
models; this module automates the chaining: it composes keyword adaption
and preference adjustment in both orders, evaluates each composition's
*combined* penalty, and returns the cheapest refined query — which is
never worse than the better single model, and is strictly better
whenever the missing objects suffer from both a keyword mismatch and a
preference imbalance at once.

Combined penalty.  The two penalty functions (Eqns. 3 and 4) share the
``Δk`` term and normalise their modification terms into [0, 1]; a
two-stage refinement ``q → q' → q''`` changes keywords by ``Δdoc``,
weights by ``Δ~w`` and the result size once (to the final
``R(M, q'')``).  The natural composition keeps the λ-weighted structure::

    Penalty(q, q'')_both = λ · Δk / (R(M,q) − q.k)
                        + (1−λ)/2 · Δ~w / sqrt(1 + q.ws² + q.wt²)
                        + (1−λ)/2 · Δdoc / |q.doc ∪ M.doc|

i.e. the modification budget is split evenly across the two modification
channels, so a pure single-model refinement scores exactly half its
single-model modification term — making combined penalties comparable
*within* this module but not directly against Eqns. (3)/(4) (the
single-model answers are also reported for that purpose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.whynot.context import WhyNotContext
from repro.whynot.errors import NotMissingError
from repro.whynot.keyword import KeywordAdapter, KeywordRefinement
from repro.whynot.penalty import missing_doc_union
from repro.whynot.preference import PreferenceAdjuster, PreferenceRefinement

__all__ = ["CombinedRefinement", "CombinedRefiner"]


@dataclass(frozen=True, slots=True)
class CombinedRefinement:
    """A two-stage refined query with full attribution.

    ``order`` records which model ran first ("keyword-first" or
    "preference-first"); the intermediate single-model refinements are
    kept so clients can show the steps the GUI walks through.
    """

    refined_query: SpatialKeywordQuery
    penalty: float
    delta_k: int
    delta_w: float
    delta_doc: int
    refined_worst_rank: int
    initial_worst_rank: int
    lam: float
    order: str
    keyword_stage: KeywordRefinement | None
    preference_stage: PreferenceRefinement | None

    def describe(self) -> str:
        w = self.refined_query.weights
        return (
            f"combined ({self.order}): keywords={sorted(self.refined_query.doc)}, "
            f"weights=({w.ws:.4f}, {w.wt:.4f}), k={self.refined_query.k} "
            f"(Δdoc={self.delta_doc}, Δw={self.delta_w:.4f}, Δk={self.delta_k}), "
            f"penalty={self.penalty:.4f}"
        )


class CombinedRefiner:
    """Chains keyword adaption and preference adjustment (both orders)."""

    def __init__(
        self,
        scorer: Scorer,
        preference: PreferenceAdjuster,
        keyword: KeywordAdapter,
    ) -> None:
        self._scorer = scorer
        self._preference = preference
        self._keyword = keyword

    # ------------------------------------------------------------------
    def refine(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        *,
        lam: float = 0.5,
        context: WhyNotContext | None = None,
    ) -> CombinedRefinement:
        """Return the cheaper of the two model-composition orders.

        Each order runs its first model on the initial query, resets
        ``k`` back to the user's ``k`` for the intermediate query (the
        second stage re-derives the final k from the final worst rank),
        then runs the second model.  Stages that raise
        :class:`NotMissingError` mean the first stage alone already
        revived the objects within the original ``k`` — the composition
        degenerates to that single stage.

        Both first stages share one ``context`` (built here when the
        caller holds none); ``R(M, q)`` comes from it and ``R(M, q'')``
        is the last stage's own ``refined_worst_rank``.
        """
        if not missing:
            raise ValueError("the missing object set M must not be empty")
        if context is None:
            context = WhyNotContext(self._scorer, query, missing)
        return min(
            (
                self._keyword_then_preference(query, context, lam),
                self._preference_then_keyword(query, context, lam),
            ),
            key=lambda c: (c.penalty, c.delta_doc + c.delta_k, c.order),
        )

    # ------------------------------------------------------------------
    def _finalise(
        self,
        query: SpatialKeywordQuery,
        context: WhyNotContext,
        lam: float,
        order: str,
        keyword_stage: KeywordRefinement | None,
        preference_stage: PreferenceRefinement | None,
        last_stage: KeywordRefinement | PreferenceRefinement,
    ) -> CombinedRefinement:
        """Price ``q → q''`` where ``q''`` is the last stage's refined query."""
        initial_worst = context.initial_worst_rank
        final_worst = last_stage.refined_worst_rank
        final_query = last_stage.refined_query.with_k(max(query.k, final_worst))
        delta_k = max(0, final_worst - query.k)
        delta_w = query.weights.distance_to(final_query.weights)
        delta_doc = len(query.doc ^ final_query.doc)
        k_normaliser = float(initial_worst - query.k)
        doc_normaliser = float(len(query.doc | missing_doc_union(context.missing)))
        penalty = (
            lam * delta_k / k_normaliser
            + (1.0 - lam) / 2.0 * delta_w / query.weights.penalty_normaliser
            + (1.0 - lam) / 2.0 * delta_doc / doc_normaliser
        )
        return CombinedRefinement(
            refined_query=final_query,
            penalty=penalty,
            delta_k=delta_k,
            delta_w=delta_w,
            delta_doc=delta_doc,
            refined_worst_rank=final_worst,
            initial_worst_rank=initial_worst,
            lam=lam,
            order=order,
            keyword_stage=keyword_stage,
            preference_stage=preference_stage,
        )

    def _keyword_then_preference(
        self, query: SpatialKeywordQuery, context: WhyNotContext, lam: float
    ) -> CombinedRefinement:
        missing = context.missing
        keyword_stage = self._keyword.refine(query, missing, lam=lam, context=context)
        intermediate = keyword_stage.refined_query.with_k(query.k)
        try:
            # A k-only keyword stage leaves q itself: same context.
            preference_stage: PreferenceRefinement | None = self._preference.refine(
                intermediate,
                missing,
                lam=lam,
                context=context if intermediate == query else None,
            )
        except NotMissingError:
            # Keyword adaption alone already brought M inside k.
            preference_stage = None
        return self._finalise(
            query, context, lam, "keyword-first", keyword_stage, preference_stage,
            preference_stage or keyword_stage,
        )

    def _preference_then_keyword(
        self, query: SpatialKeywordQuery, context: WhyNotContext, lam: float
    ) -> CombinedRefinement:
        missing = context.missing
        preference_stage = self._preference.refine(query, missing, lam=lam, context=context)
        intermediate = preference_stage.refined_query.with_k(query.k)
        try:
            # Same (loc, doc), new weights: the dual view carries over.
            keyword_stage: KeywordRefinement | None = self._keyword.refine(
                intermediate,
                missing,
                lam=lam,
                context=context.reweighted(intermediate),
            )
        except NotMissingError:
            keyword_stage = None
        return self._finalise(
            query, context, lam, "preference-first", keyword_stage, preference_stage,
            keyword_stage or preference_stage,
        )
