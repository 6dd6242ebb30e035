"""The preference sweep's reference arms (Section 3.3 and [5]).

The served :class:`~repro.whynot.preference.PreferenceAdjuster` reads
crossing lines off the kernel's levelled dual view.
:class:`DualIndexPreferenceAdjuster` finds them as the paper does, "two
range queries" over an R-tree of every object's dual point, and
:class:`LinearPreferenceAdjuster` by a linear scan (the E8/E11
ablation); both return the served answer float for float.
:class:`SamplingPreferenceAdjuster` is the grid-sampling baseline of
[8] that [5] compares with (E4): approximate, and linear in its probes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Sequence, cast

from repro.core.kernel import CrossingRun
from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import DualPoint, Scorer, outranks
from repro.index.dualspace import DualSpaceIndex
from repro.paper.context import ViewlessContext, set_path_scorer
from repro.whynot.context import RankWalk, WhyNotContext
from repro.whynot.errors import NotMissingError
from repro.whynot.penalty import PreferencePenalty
from repro.whynot.preference import PreferenceAdjuster, PreferenceRefinement

__all__ = [
    "DualIndexPreferenceAdjuster",
    "LinearPreferenceAdjuster",
    "SamplingPreferenceAdjuster",
    "ranks_at_weights",
]


def ranks_at_weights(
    weights: Weights,
    missing_duals: Sequence[DualPoint],
    duals: Sequence[DualPoint],
) -> Mapping[int, int]:
    """Exact ranks of the missing objects under ``weights`` (floats)."""
    targets = [
        (m.oid, weights.ws * m.a + weights.wt * m.b) for m in missing_duals
    ]
    beaten = {oid: 0 for oid, _ in targets}
    for other in duals:
        other_score = weights.ws * other.a + weights.wt * other.b
        for oid, target_score in targets:
            if other.oid != oid and outranks(other_score, other.oid, target_score, oid):
                beaten[oid] += 1
    return {oid: count + 1 for oid, count in beaten.items()}


class DualIndexPreferenceAdjuster(PreferenceAdjuster):
    """The weight sweep over a dual R-tree's two range queries."""

    _checked = staticmethod(set_path_scorer)

    def _new_context(
        self, query: SpatialKeywordQuery, missing: Sequence[SpatialObject]
    ) -> WhyNotContext:
        return ViewlessContext(self._scorer, query, missing)

    def _crossings(
        self, duals: Sequence[DualPoint]
    ) -> Callable[[DualPoint], list[DualPoint]]:
        """The lines crossing a missing object's, by its dual point."""
        return DualSpaceIndex(duals).crossing_candidates

    def _walks(self, context: WhyNotContext) -> list[RankWalk]:
        """The rank walk of each missing object, one line to a level."""
        duals = cast(ViewlessContext, context).duals
        ws = context.query.ws
        find = None
        for index, walk in enumerate(context.walks):
            if walk is not None:
                continue
            if find is None:  # one dual R-tree per call, not per object
                find = self._crossings(duals)
            m = context.missing_duals[index]
            runs = [CrossingRun(m, ws, p.b, (p.a,), (p.oid,)) for p in find(m)]
            above = DualSpaceIndex.strictly_above_at_zero(m, duals)
            ties = DualSpaceIndex.permanent_ties_smaller(m, duals)
            context.walks[index] = RankWalk(m, ws, runs, 1 + above + ties)
        return cast("list[RankWalk]", context.walks)  # every slot filled

    def _ranks(
        self, context: WhyNotContext, weights: Weights
    ) -> Mapping[int, int]:
        return ranks_at_weights(
            weights, context.missing_duals, cast(ViewlessContext, context).duals
        )


class LinearPreferenceAdjuster(DualIndexPreferenceAdjuster):
    """The weight sweep with its range queries answered by a linear scan."""

    method = "weight-sweep-linear"

    def _crossings(
        self, duals: Sequence[DualPoint]
    ) -> Callable[[DualPoint], list[DualPoint]]:
        return partial(DualSpaceIndex.crossing_candidates_linear, duals)


class SamplingPreferenceAdjuster:
    """Grid-sampling baseline for preference-adjusted why-not queries.

    Probes ``samples`` evenly spaced spatial weights in ``(0, 1)`` plus
    the initial weight, computes the exact worst rank of the missing
    objects at each probe, and returns the probe minimising Eqn. (3).
    """

    def __init__(self, scorer: Scorer, *, samples: int = 100) -> None:
        if samples < 1:
            raise ValueError("samples must be at least 1")
        self._scorer = scorer
        self._samples = samples

    @property
    def samples(self) -> int:
        return self._samples

    def refine(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        *,
        lam: float = 0.5,
    ) -> PreferenceRefinement:
        if not missing:
            raise ValueError("the missing object set M must not be empty")
        duals = self._scorer.dual_points(query)
        by_oid = {dual.oid: dual for dual in duals}
        missing_duals = [by_oid[obj.oid] for obj in missing]

        ranks = ranks_at_weights(query.weights, missing_duals, duals)
        initial_worst = max(ranks.values())
        if initial_worst <= query.k:
            raise NotMissingError(
                [oid for oid, rank in ranks.items() if rank <= query.k]
            )
        penalty = PreferencePenalty(query, initial_worst, lam)

        candidates: list[Weights] = [query.weights]
        step = 1.0 / (self._samples + 1)
        for index in range(1, self._samples + 1):
            candidates.append(Weights.from_spatial(index * step))

        best_weights = query.weights
        best_worst = initial_worst
        best_penalty = penalty(initial_worst, query.weights)
        for weights in candidates[1:]:
            worst = max(ranks_at_weights(weights, missing_duals, duals).values())
            pen = penalty(worst, weights)
            if pen < best_penalty:
                best_penalty = pen
                best_weights = weights
                best_worst = worst

        refined_k = penalty.refined_k(best_worst)
        refined_query = query.with_weights(best_weights).with_k(refined_k)
        return PreferenceRefinement(
            refined_query=refined_query,
            penalty=best_penalty,
            delta_k=penalty.delta_k(best_worst),
            delta_w=query.weights.distance_to(best_weights),
            refined_worst_rank=best_worst,
            initial_worst_rank=initial_worst,
            lam=lam,
            crossovers=0,
            candidates_evaluated=len(candidates),
            method=f"sampling-{self._samples}",
        )
