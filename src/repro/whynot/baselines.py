"""Baseline algorithms the benchmarks compare YASK's modules against.

* :class:`SamplingPreferenceAdjuster` — the sampling strategy in the
  style of He & Lo's top-k why-not answering [8], which [5] uses as its
  comparison point: probe a grid of weight vectors, rank the missing
  objects at each probe and keep the cheapest refined query found.
  Sampling is approximate — it only finds the optimum when a probe lands
  in the optimal rank interval — and its cost grows linearly with the
  probe count (experiment E4).
* :func:`exhaustive_keyword_adapter` — keyword adaption without rank
  bounds: every candidate keyword set is ranked with a full database
  scan (experiment E5).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.whynot.errors import NotMissingError
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.penalty import PreferencePenalty
from repro.whynot.preference import PreferenceAdjuster, PreferenceRefinement

__all__ = ["SamplingPreferenceAdjuster", "exhaustive_keyword_adapter"]


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

        ranks = PreferenceAdjuster._ranks_at_weights(
            query.weights, missing_duals, duals
        )
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
            probe_ranks = PreferenceAdjuster._ranks_at_weights(
                weights, missing_duals, duals
            )
            worst = max(probe_ranks.values())
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


def exhaustive_keyword_adapter(
    scorer: Scorer,
    *,
    max_edit_count: int | None = None,
    candidate_budget: int | None = None,
) -> KeywordAdapter:
    """Keyword adaption with rank bounds disabled (full scans)."""
    return KeywordAdapter(
        scorer,
        use_bounds=False,
        max_edit_count=max_edit_count,
        candidate_budget=candidate_budget,
    )
