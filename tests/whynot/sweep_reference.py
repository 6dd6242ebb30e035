"""The exhaustive preference sweep, frozen as a test oracle.

Before the preference front, ``PreferenceAdjuster.refine`` priced every
candidate weight at the request's λ: ``q.ws``, every crossover and the
past-the-crossing neighbour of *every* crossover (each one marched),
with worst ranks from an incremental cursor over the sorted events.
This module keeps that sweep, and the explanation's interval walk, for
the property that pins the front to it.

It also keeps how the crossover events were built before
``PreferenceAdjuster._sweep_inputs`` went a TSim level at a time: per
crossing object of every object's dual point, ``DualPoint.crossover_with``,
``_valid_weight`` and the slope comparison, sorted
(:func:`reference_sweep`, which the property compares to ``_sweeps``).
Everything below reads those events, never ``_sweeps``; it reuses only
the march (``_past_crossing_candidate``), the float rank oracle
(``_ranks``) and the O(n) counts at ``w → 0+``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import nsmallest
from typing import Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import DualPoint
from repro.index.dualspace import DualSpaceIndex
from repro.whynot.context import RankProfile, SweepInputs, WhyNotContext
from repro.whynot.errors import NotMissingError
from repro.whynot.penalty import PreferencePenalty
from repro.whynot.preference import PreferenceAdjuster, PreferenceRefinement


def reference_events(
    context: WhyNotContext, m_dual: DualPoint
) -> list[tuple[float, int, int]]:
    """``(w*, oid, direction)`` per object whose line crosses m's inside
    ``(0, 1)``, one object at a time, sorted; +1: it rises above m."""
    events = []
    for other in context.scorer.dual_points(context.query):
        if (other.a - m_dual.a) * (other.b - m_dual.b) < 0.0:
            w_star = m_dual.crossover_with(other)
            if w_star is not None and PreferenceAdjuster._valid_weight(w_star):
                events.append(
                    (w_star, other.oid, 1 if other.slope > m_dual.slope else -1)
                )
    return sorted(events)


@dataclass
class _SweepState:
    """Per-missing-object cursor over the sorted crossover events."""

    oid: int
    #: (crossover weight, other's oid, direction); +1: other rises above m.
    events: list[tuple[float, int, int]]
    #: Objects strictly above m on the current open interval, plus the
    #: permanent ties ahead of it.
    above: int
    cursor: int = 0

    @classmethod
    def start(cls, context: WhyNotContext, m_dual: DualPoint) -> "_SweepState":
        duals = context.scorer.dual_points(context.query)
        return cls(
            oid=m_dual.oid,
            events=reference_events(context, m_dual),
            above=DualSpaceIndex.strictly_above_at_zero(m_dual, duals)
            + DualSpaceIndex.permanent_ties_smaller(m_dual, duals),
        )

    def advance_and_rank(self, w: float) -> int:
        """Rank exactly at ``w`` (non-decreasing calls): apply every
        crossover strictly before ``w``; those exactly at ``w`` tie."""
        events = self.events
        while self.cursor < len(events) and events[self.cursor][0] < w:
            self.above += events[self.cursor][2]
            self.cursor += 1
        tied_smaller = tied_from_above = 0
        probe = self.cursor
        while probe < len(events) and events[probe][0] == w:
            _, other_oid, direction = events[probe]
            if direction < 0:
                tied_from_above += 1
            if other_oid < self.oid:
                tied_smaller += 1
            probe += 1
        return 1 + self.above - tied_from_above + tied_smaller

    def pass_crossovers_at(self, w: float) -> None:
        """Apply the crossovers exactly at ``w`` (after ranking it)."""
        events = self.events
        while self.cursor < len(events) and events[self.cursor][0] == w:
            self.above += events[self.cursor][2]
            self.cursor += 1


def reference_sweep(context: WhyNotContext, index: int) -> SweepInputs:
    """``context.missing[index]``'s :class:`SweepInputs`, event by event:
    the rank on the open interval before each distinct crossover, at it
    (ties resolved by oid) and so on to the one after the last."""
    m_dual = context.missing_duals[index]
    state = _SweepState.start(context, m_dual)
    events = state.events
    levels = sorted({w for w, _, _ in events})
    ranks = [1 + state.above]
    for w in levels:
        ranks.append(state.advance_and_rank(w))
        state.pass_crossovers_at(w)
        ranks.append(1 + state.above)
    return SweepInputs(
        m_dual,
        array("d", [w for w, _, _ in events]),
        array("q", [oid for _, oid, _ in events]),
        RankProfile(array("d", levels), array("i", ranks)),
    )


def candidate_weights(
    adjuster: PreferenceAdjuster,
    context: WhyNotContext,
    sweeps: Sequence[SweepInputs],
) -> list[float]:
    """``q.ws``, every crossover and every crossover's marched neighbour."""
    initial_ws = context.query.ws
    candidates = {initial_ws}
    for sweep in sweeps:
        candidates.update(sweep.weights)
        others = context.dual_points_of(sweep.oids)
        for w_star, other in zip(sweep.weights, others):
            neighbour = adjuster._past_crossing_candidate(
                sweep.dual, other, w_star, initial_ws
            )
            if neighbour is not None:
                candidates.add(neighbour)
    return sorted(candidates)


def reference_refine(
    adjuster: PreferenceAdjuster,
    query: SpatialKeywordQuery,
    missing: Sequence[SpatialObject],
    *,
    lam: float,
    context: WhyNotContext | None = None,
) -> PreferenceRefinement:
    """``refine`` as it was: every candidate priced at ``lam``."""
    if context is None:
        context = adjuster._new_context(query, missing)
    initial_ranks = adjuster._ranks(context, query.weights)
    initial_worst = max(initial_ranks.values())
    if initial_worst <= query.k:
        raise NotMissingError(
            [oid for oid, rank in initial_ranks.items() if rank <= query.k]
        )
    penalty = PreferencePenalty(query, initial_worst, lam)
    sweeps = [reference_sweep(context, i) for i in range(len(context.missing))]
    ordered_ws = candidate_weights(adjuster, context, sweeps)
    states = [_SweepState.start(context, m_dual) for m_dual in context.missing_duals]
    scored = []
    for w in ordered_ws:
        worst = max(state.advance_and_rank(w) for state in states)
        scored.append((penalty.value_at(worst, w), w, worst))
    window = nsmallest(
        adjuster._verification_window,
        scored,
        key=lambda item: (item[0], abs(item[1] - query.ws), item[1]),
    )
    best = None
    for _, w, _ in window:
        weights = query.weights if w == query.ws else Weights.from_spatial(w)
        worst = max(adjuster._ranks(context, weights).values())
        pen = penalty(worst, weights)
        key = (pen, abs(w - query.ws), w)
        if best is None or key < (best[0], abs(best[1] - query.ws), best[1]):
            best = (pen, w, worst)
    best_penalty, best_w, best_worst = best
    refined_weights = (
        query.weights if best_w == query.ws else Weights.from_spatial(best_w)
    )
    return PreferenceRefinement(
        refined_query=query.with_weights(refined_weights).with_k(
            penalty.refined_k(best_worst)
        ),
        penalty=best_penalty,
        delta_k=penalty.delta_k(best_worst),
        delta_w=query.weights.distance_to(refined_weights),
        refined_worst_rank=best_worst,
        initial_worst_rank=initial_worst,
        lam=lam,
        crossovers=sum(len(sweep.weights) for sweep in sweeps),
        candidates_evaluated=len(ordered_ws),
        method=adjuster.method,
    )


def reference_intervals(
    adjuster: PreferenceAdjuster,
    query: SpatialKeywordQuery,
    missing_obj: SpatialObject,
    *,
    target_k: int | None = None,
    context: WhyNotContext | None = None,
) -> list[tuple[float, float]]:
    """``viable_weight_intervals`` as it was: one cursor walk per event."""
    k = target_k if target_k is not None else query.k
    if context is None:
        context = adjuster._new_context(query, [missing_obj])
    index = [obj.oid for obj in context.missing].index(missing_obj.oid)
    state = _SweepState.start(context, context.missing_duals[index])
    events = state.events
    pieces: list[tuple[float, bool]] = []
    previous = 0.0
    for w_event, _, _ in events:
        rank_at_event = state.advance_and_rank(w_event)
        pieces.append((previous, 1 + state.above <= k))
        pieces.append((w_event, rank_at_event <= k))
        state.pass_crossovers_at(w_event)
        previous = w_event
    pieces.append((previous, 1 + state.above <= k))
    pieces.append((1.0, False))
    viable: list[tuple[float, float]] = []
    start: float | None = None
    for left, is_viable in pieces:
        if is_viable and start is None:
            start = left
        elif not is_viable and start is not None:
            viable.append((start, left))
            start = None
    return viable
