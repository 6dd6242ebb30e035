"""Preference-adjusted why-not refinement (Definition 2, Eqn. 3).

Section 3.3 of the paper: "The basic idea is to transform each object
into a segment in a two-dimensional weight plane.  As shown in [5], the
best preference weighting vector must start from the origin and point to
the points where the missing objects' segments intersect with other
objects' segments.  We use two range queries to find the segments that
intersect with the missing objects' segments and compute all the
intersection points.  Then, with a rank update theorem [5] and the
rankings of the missing objects under the initial weighting vector, we
traverse all the intersection points and compute the lowest ranking of
the missing objects and the penalty of the corresponding refined query.
Finally, the module returns the weighting vector pointing to the
intersection with the minimum penalty."

Implementation outline (DESIGN.md §3.3):

1. Map every object to its dual point ``(a, b) = (1−SDist, TSim)``;
   its score is the line ``f(w) = w·a + (1−w)·b`` over ``w = ws``.
2. For each missing object ``m``, retrieve the objects whose lines cross
   ``m``'s inside ``(0, 1)`` with the two quadrant range queries of
   :class:`repro.index.dualspace.DualSpaceIndex` and compute the
   crossover weights.
3. Walk each missing object's rank outward from ``q.ws`` with the rank
   update theorem — passing the crossover with ``o`` moves ``m``'s rank
   by ±1 according to which line rises faster — starting from its rank
   at ``q.ws``, and only as far as a reader needs: each stops where no
   crossover still to come can bring the rank back
   (:class:`repro.whynot.context.RankWalk`).
4. Keep the candidate weights (the initial weight — a pure
   k-enlargement — every crossover and its past-the-crossing neighbour)
   that can win at some λ, the context's *front*; a λ evaluates Eqn. (3)
   on the front and returns the minimum.

Exactness note: the profiles follow exact real arithmetic on the
crossover structure; the best candidates are then re-verified against
floating-point scores (the semantics of the top-k engine) so the
returned refined query is guaranteed to revive every missing object.
Past a crossover the float comparison of the two lines flips a few ulps
away (rounding); that first float weight — the past-the-crossing
neighbour, located by an exponential march plus bisection in
:meth:`PreferenceAdjuster._past_crossing_candidate` — is where the
infimum of the penalty lives when the crossover tie goes against the
missing object.  It is marched only while the front might need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush, merge, nsmallest
from itertools import groupby
from operator import itemgetter
from typing import Mapping, Sequence, cast

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import DualPoint, Scorer, outranks
from repro.index.dualspace import DualSpaceIndex
from repro.whynot.context import RankWalk, WhyNotContext
from repro.whynot.errors import NotMissingError
from repro.whynot.penalty import PreferencePenalty

__all__ = ["PreferenceRefinement", "PreferenceAdjuster"]

#: ``hypot`` is accurate to within an ulp, so one of larger arguments is
#: never below another's value less two ulps.
_HYPOT_SLACK = 1.0 - 2.0**-50


@dataclass(frozen=True, slots=True)
class PreferenceRefinement:
    """The answer to a preference-adjusted why-not question.

    ``refined_query`` differs from the initial query only in its weights
    and (possibly) its ``k`` (Definition 2: ``q' = (loc, doc, k', ~w')``).
    """

    refined_query: SpatialKeywordQuery
    penalty: float
    delta_k: int
    delta_w: float
    refined_worst_rank: int
    initial_worst_rank: int
    lam: float
    #: Diagnostics: crossover events found; front candidates priced.
    crossovers: int = 0
    candidates_evaluated: int = 0
    method: str = "weight-sweep"

    def describe(self) -> str:
        w = self.refined_query.weights
        return (
            f"refined weights=({w.ws:.4f}, {w.wt:.4f}), k={self.refined_query.k} "
            f"(Δk={self.delta_k}, Δw={self.delta_w:.4f}), penalty={self.penalty:.4f}"
        )


class PreferenceAdjuster:
    """The preference-adjustment module of YASK's why-not engine."""

    def __init__(
        self,
        scorer: Scorer,
        *,
        use_dual_index: bool = True,
        verification_window: int = 16,
    ) -> None:
        """
        Parameters
        ----------
        scorer:
            Shared Eqn. (1) evaluator (fixes database and text model).
        use_dual_index:
            When True (default) the crossing objects are found with the
            paper's two R-tree range queries in dual space; when False a
            linear scan is used instead (the E8 ablation).
        verification_window:
            How many of the best sweep candidates are re-checked against
            floating-point ranks before one is returned (so also how
            deep the context's front runs).
        """
        if verification_window < 1:
            raise ValueError("verification_window must be at least 1")
        self._scorer = scorer
        self._use_dual_index = use_dual_index
        self._verification_window = verification_window

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def refine(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        *,
        lam: float = 0.5,
        context: WhyNotContext | None = None,
    ) -> PreferenceRefinement:
        """Answer Definition 2 for missing set ``missing`` under ``λ``.

        ``context`` (the shared facts about ``(query, missing)``) is
        built here when the caller holds none.
        """
        if not missing:
            raise ValueError("the missing object set M must not be empty")
        if context is None:
            context = WhyNotContext(
                self._scorer, query, missing, indexed=self._use_dual_index
            )
        initial_ranks = self._ranks(context, query.weights)
        initial_worst = max(initial_ranks.values())
        if initial_worst <= query.k:
            raise NotMissingError(
                [oid for oid, rank in initial_ranks.items() if rank <= query.k]
            )

        penalty = PreferencePenalty(query, initial_worst, lam)
        front = self._front(context)  # steps 2-3, once per context

        # Step 4.  ``value_at`` evaluates Eqn. (3) without allocating a
        # Weights per candidate — identical floats to the verification's
        # ``penalty(worst, Weights.from_spatial(w))``.
        scored = [(penalty.value_at(worst, w), w, worst) for w, worst in front]

        # Floating-point verification of the best candidates.
        window = nsmallest(
            self._verification_window,
            scored,
            key=lambda item: (item[0], abs(item[1] - query.ws), item[1]),
        )
        best: tuple[float, float, int] | None = None
        for _, w, _ in window:
            weights = query.weights if w == query.ws else Weights.from_spatial(w)
            worst = max(self._ranks(context, weights).values())
            pen = penalty(worst, weights)
            key = (pen, abs(w - query.ws), w)
            if best is None or key < (best[0], abs(best[1] - query.ws), best[1]):
                best = (pen, w, worst)
        assert best is not None  # the initial weight is always a candidate
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
            crossovers=sum(walk.total for walk in self._walks(context)),
            candidates_evaluated=len(front),
            # The sweep strategy, not the retrieval substrate: the
            # levelled view serves the same two range queries.
            method="weight-sweep" if self._use_dual_index else "weight-sweep-linear",
        )

    # ------------------------------------------------------------------
    # Weight-interval analysis (explanation-panel companion)
    # ------------------------------------------------------------------
    def viable_weight_intervals(
        self,
        query: SpatialKeywordQuery,
        missing_obj: SpatialObject,
        *,
        target_k: int | None = None,
        context: WhyNotContext | None = None,
    ) -> list[tuple[float, float]]:
        """Spatial-weight intervals where ``missing_obj`` enters the top-k.

        Returns the maximal sub-intervals of ``(0, 1)`` on which the
        object's rank (under the initial location/keywords) is at most
        ``target_k`` (default: the query's own ``k``) — the "how would I
        have to weigh distance vs keywords" view the explanation panel
        can draw.  An empty list means no preference alone revives the
        object: only enlarging ``k`` (or adapting keywords) can.

        Interval endpoints are the crossover weights; ranks on the open
        interval between two consecutive crossovers are constant.  The
        object's rank walk goes out from ``q.ws`` on each side only until
        its floor passes ``target_k``: no interval lies further out.
        Endpoints are resolved with the engine's tie-break semantics at
        the crossover itself, except that an interval whose closing
        crossover tie goes against the object still reports that
        crossover as its (single-point over-inclusive) endpoint —
        callers probing the intervals should sample their interiors.
        ``context`` must hold ``missing_obj`` in its missing set.
        """
        k = target_k if target_k is not None else query.k
        if context is None:
            context = WhyNotContext(
                self._scorer, query, [missing_obj], indexed=self._use_dual_index
            )
        index = [obj.oid for obj in context.missing].index(missing_obj.oid)
        weights, ranks = self._walks(context)[index].walked(k).profile
        # Piece j of the profile starts at ends[(j + 1) >> 1] — 0, w0,
        # w0, w1, w1, … — and the one past the last at 1.0.  A viable
        # stretch is a run of consecutive pieces of rank ≤ k; an end of
        # the walked window that is not (0, 1)'s lies past a piece > k.
        ends = [0.0, *weights, 1.0]
        runs = groupby(range(len(ranks)), key=lambda piece: ranks[piece] <= k)
        stretches = [list(pieces) for viable, pieces in runs if viable]
        return [(ends[(run[0] + 1) >> 1], ends[(run[-1] + 2) >> 1]) for run in stretches]

    # ------------------------------------------------------------------
    # Rank walks (memoised on the context)
    # ------------------------------------------------------------------
    def _walks(self, context: WhyNotContext) -> list[RankWalk]:
        """The rank walk of each missing object.

        Crossing lines come from the levelled view's quadrant slices;
        without a view from the paper's two R-tree range queries over
        the dual points, or (``use_dual_index=False``, the E8 ablation)
        a linear scan of them, one line to a level.
        """
        view = context.view if self._use_dual_index else None
        find = None
        for index, walk in enumerate(context.walks):
            if walk is not None:
                continue
            m_dual = context.missing_duals[index]
            if view is not None:
                crossing = view.crossing_candidates(m_dual.oid)
                above = view.strictly_above_at_zero(m_dual.oid)
                ties = view.permanent_ties_smaller(m_dual.oid)
            else:
                duals = context.duals
                if find is None:  # one dual R-tree per call, not per object
                    find = (
                        DualSpaceIndex(duals).crossing_candidates
                        if self._use_dual_index
                        else partial(DualSpaceIndex.crossing_candidates_linear, duals)
                    )
                crossing = [(p.b, (p.a,), (p.oid,)) for p in find(m_dual)]
                above = self._strictly_above_at_zero(m_dual, duals)
                ties = self._permanent_ties_smaller(m_dual, duals)
            context.walks[index] = RankWalk(
                m_dual, context.query.ws, crossing, 1 + above + ties,
                None if view is None else view.count_events,
            )
        return cast("list[RankWalk]", context.walks)  # every slot filled

    def _front(self, context: WhyNotContext) -> tuple[tuple[float, int], ...]:
        """``(w, worst rank)`` of every candidate that can enter the
        verification window at some λ, memoised on the context.

        Candidates are met outward from ``q.ws`` on both sides and kept
        unless ``verification_window`` kept ones dominate them: a rank
        and a ``Δw`` no larger and a strictly smaller ``|w − ws|``, so a
        penalty no larger at any λ and k and an earlier window key.
        Whatever lies beyond a crossover lies at or past the first float
        beyond it: its rank is at least the walks' floor there and, when
        both ``Δw`` components only grow from there, its ``Δw`` at least
        that float's.  Once that much is dominated the side ends: its
        walks go no further.
        """
        if context.front is not None:
            return context.front
        walks = self._walks(context)
        ws, wt = context.query.ws, context.query.wt
        kept: list[tuple[float, int, float, float]] = []  # (|w − ws|, rank, Δw, w)
        seen = {ws}
        marched: list[tuple[float, float]] = []  # heap of (|w − ws|, w)

        def dominated(distance: float, rank: int, delta_w: float) -> bool:
            return sum(
                d < distance and r <= rank and dw <= delta_w for d, r, dw, _ in kept
            ) >= self._verification_window

        def offer(w: float) -> None:
            rank = max(walk.rank(w) for walk in walks)
            delta_w = math.hypot(ws - w, wt - (1.0 - w))
            if not dominated(abs(w - ws), rank, delta_w):
                kept.append((abs(w - ws), rank, delta_w, w))

        sides = [  # each side's crossover weights, outward
            map(itemgetter(0), groupby(merge(*(x.levels(up) for x in walks), reverse=not up)))
            for up in (False, True)
        ]
        nearest = [next(side, None) for side in sides]
        if nearest[True] != ws:
            offer(ws)
        while nearest != [None, None]:
            down, up = nearest
            going_up = down is None or (up is not None and abs(up - ws) < abs(down - ws))
            w_star = nearest[going_up]
            while marched and marched[0] < (abs(w_star - ws), w_star):
                offer(heappop(marched)[1])
            offer(w_star)
            past = math.nextafter(w_star, 1.0 if going_up else 0.0)
            dx, dy = ws - past, wt - (1.0 - past)
            if ((dx <= 0.0 <= dy) if going_up else (dy <= 0.0 <= dx)) and dominated(
                abs(past - ws), max(walk.floor(w_star) for walk in walks),
                math.hypot(dx, dy) * _HYPOT_SLACK,
            ):
                nearest[going_up] = None  # the side ends
                continue
            for walk in walks:
                for other in context.dual_points_of(walk.oids_at(w_star)):
                    w = self._past_crossing_candidate(walk.dual, other, w_star, ws)
                    if w is None or w in seen:
                        continue
                    seen.add(w)
                    if not any(walk.oids_at(w) for walk in walks):  # else offered as one
                        heappush(marched, (abs(w - ws), w))
            nearest[going_up] = next(sides[going_up], None)
        for _, w in sorted(marched):
            offer(w)
        context.front = tuple(sorted((w, rank) for _, rank, _, w in kept))
        return context.front

    # ------------------------------------------------------------------
    # Sweep internals
    # ------------------------------------------------------------------
    _valid_weight = staticmethod(Weights.interior)

    @staticmethod
    def _beats(other: DualPoint, m_dual: DualPoint, w: float) -> bool:
        """Whether ``other`` outranks m at ``w``, as :meth:`_ranks_at_weights`
        ranks: scores ``w·a + (1−w)·b``, ``Weights.from_spatial(w)``'s."""
        return outranks(
            w * other.a + (1.0 - w) * other.b, other.oid,
            w * m_dual.a + (1.0 - w) * m_dual.b, m_dual.oid,
        )

    def _past_crossing_candidate(
        self, m_dual: DualPoint, other: DualPoint, w_star: float, initial_ws: float
    ) -> float | None:
        """First float weight past the crossing, on the side away from ``ws``.

        In real arithmetic the pair's relative order flips exactly at
        ``w_star``; in floats the comparison flips a few ulps away.  The
        interval on the far side of the crossing has its penalty infimum
        at this float boundary, so it is located exactly: march away
        from the crossing in exponentially growing steps until the float
        comparison shows the far-side state, then bisect back to the
        first float weight exhibiting it.
        """
        going_up = w_star >= initial_ws
        # Past the crossing (in sweep direction), the faster-rising line
        # is on top.
        other_beats_expected = (
            other.slope > m_dual.slope if going_up else other.slope < m_dual.slope
        )

        def state_reached(w: float) -> bool:
            return self._beats(other, m_dual, w) == other_beats_expected

        step = math.ulp(w_star) or math.ulp(1.0)
        for _ in range(128):
            probe = w_star + step if going_up else w_star - step
            if not self._valid_weight(probe):
                return None
            if state_reached(probe):
                break
            step *= 2.0
        else:
            return None
        # Bisect [w_star, probe] for the earliest float in the far-side
        # state (probe is in-state, w_star side is not necessarily).
        low, high = w_star, probe
        while True:
            mid = low + (high - low) / 2.0
            if mid == low or mid == high:
                break
            if state_reached(mid):
                high = mid
            else:
                low = mid
        return high if self._valid_weight(high) else None

    # The view-less arms' counts at ``w → 0+`` (the view's own mirror them).
    _strictly_above_at_zero = staticmethod(DualSpaceIndex.strictly_above_at_zero)
    _permanent_ties_smaller = staticmethod(DualSpaceIndex.permanent_ties_smaller)

    # ------------------------------------------------------------------
    # Floating-point rank oracle (shared with the sampling baseline)
    # ------------------------------------------------------------------
    def _ranks(
        self, context: WhyNotContext, weights: Weights
    ) -> Mapping[int, int]:
        """Exact missing-object ranks under ``weights``: over the
        levelled view when there is one and the DualPoint list
        otherwise — identical floats either way."""
        view = context.view if self._use_dual_index else None
        if view is None:
            return self._ranks_at_weights(
                weights, context.missing_duals, context.duals
            )
        if weights == context.query.weights:
            return context.initial_ranks
        return view.ranks_at(
            weights.ws, weights.wt, [m.oid for m in context.missing_duals]
        )

    @staticmethod
    def _ranks_at_weights(
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
