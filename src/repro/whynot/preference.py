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
3. Sweep all candidate weights in ascending order, maintaining each
   missing object's rank incrementally: passing the crossover with ``o``
   moves ``m``'s rank by ±1 according to which line rises faster — the
   rank update theorem.
4. Evaluate Eqn. (3) at every candidate (the initial weight — a pure
   k-enlargement — is always a candidate) and return the minimum.

Exactness note: ranks during the sweep follow exact real arithmetic on
the crossover structure; the engine then re-verifies the best candidates
against floating-point scores (the semantics of the top-k engine) so the
returned refined query is guaranteed to revive every missing object.
Each crossover also contributes a *past-the-crossing* candidate: the
first floating-point weight on the far side of the crossover at which
the float score comparison between the two objects actually flips.  The
flip happens a few ulps away from the real crossover (rounding), and
that float boundary — located by an exponential march plus bisection in
:meth:`PreferenceAdjuster._past_crossing_candidate` — is where the
infimum of the penalty lives when the crossover tie goes against the
missing object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import DualPoint, Scorer
from repro.index.dualspace import DualSpaceIndex
from repro.whynot.errors import NotMissingError
from repro.whynot.penalty import PreferencePenalty

__all__ = ["PreferenceRefinement", "PreferenceAdjuster"]


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
    #: Diagnostics: number of crossover points found / candidates scored.
    crossovers: int = 0
    candidates_evaluated: int = 0
    method: str = "weight-sweep"

    @property
    def k_only(self) -> bool:
        """True when the refinement keeps the weights and only enlarges k."""
        return self.delta_w == 0.0

    def describe(self) -> str:
        w = self.refined_query.weights
        return (
            f"refined weights=({w.ws:.4f}, {w.wt:.4f}), k={self.refined_query.k} "
            f"(Δk={self.delta_k}, Δw={self.delta_w:.4f}), penalty={self.penalty:.4f}"
        )


@dataclass(slots=True)
class _SweepState:
    """Per-missing-object sweep bookkeeping."""

    dual: DualPoint
    #: Events: (crossover weight, other's oid, direction); direction +1
    #: means the other object rises above m past the crossover.
    events: list[tuple[float, int, int]]
    #: Objects strictly above m on the current open interval.
    above: int
    #: Objects identical to m's line with a smaller oid (permanent ties).
    permanent_tie_smaller: int
    cursor: int = 0


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
            floating-point ranks before one is returned.
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
    ) -> PreferenceRefinement:
        """Answer Definition 2 for missing set ``missing`` under ``λ``."""
        if not missing:
            raise ValueError("the missing object set M must not be empty")
        # The kernel's dual view carries (a, b) as flat columns; rank
        # evaluations during the sweep then run over arrays instead of
        # DualPoint attribute loops (identical floats either way).
        kernel = self._scorer.kernel
        view = kernel.dual_view(query) if kernel is not None else None
        if view is not None and self._use_dual_index:
            # The sweep runs over the view's flat columns; only the
            # missing objects need materialised dual points — skipping
            # the n-point list (and its oid dict) is a measurable win
            # on the cold why-not path.
            duals: list[DualPoint] = []
            missing_duals = [view.dual_point_of(obj.oid) for obj in missing]
        else:
            duals = (
                view.dual_points()
                if view is not None
                else self._scorer.dual_points(query)
            )
            by_oid: dict[int, DualPoint] = {dual.oid: dual for dual in duals}
            missing_duals = [by_oid[obj.oid] for obj in missing]

        initial_ranks = self._ranks(query.weights, missing_duals, duals, view)
        initial_worst = max(initial_ranks.values())
        if initial_worst <= query.k:
            already = [
                oid for oid, rank in initial_ranks.items() if rank <= query.k
            ]
            raise NotMissingError(already)

        penalty = PreferencePenalty(query, initial_worst, lam)

        # Step 2: crossover events via the two dual-space range queries —
        # served, with a kernel, by the equivalent columnar quadrant scan
        # (same candidate set, no per-query R-tree over the dual points).
        # ``use_dual_index=False`` remains the E8 ablation: a plain
        # linear scan over the materialised dual points on either path.
        dual_index = (
            DualSpaceIndex(duals)
            if self._use_dual_index and view is None
            else None
        )
        states: list[_SweepState] = []
        candidate_ws: set[float] = {query.ws}
        total_crossovers = 0
        for m_dual in missing_duals:
            if not self._use_dual_index:
                crossing = DualSpaceIndex.crossing_candidates_linear(duals, m_dual)
            elif view is not None:
                crossing = view.crossing_candidates(m_dual.oid)
            else:
                crossing = dual_index.crossing_candidates(m_dual)
            events: list[tuple[float, int, int]] = []
            for other in crossing:
                w_star = m_dual.crossover_with(other)
                if w_star is None or not self._valid_weight(w_star):
                    continue
                direction = 1 if other.slope > m_dual.slope else -1
                events.append((w_star, other.oid, direction))
                total_crossovers += 1
                candidate_ws.add(w_star)
                neighbour = self._past_crossing_candidate(
                    m_dual, other, w_star, query.ws
                )
                if neighbour is not None:
                    candidate_ws.add(neighbour)
            events.sort()
            states.append(
                _SweepState(
                    dual=m_dual,
                    events=events,
                    above=(
                        view.strictly_above_at_zero(m_dual.oid)
                        if view is not None
                        else self._strictly_above_at_zero(m_dual, duals)
                    ),
                    permanent_tie_smaller=(
                        view.permanent_ties_smaller(m_dual.oid)
                        if view is not None
                        else self._permanent_ties_smaller(m_dual, duals)
                    ),
                )
            )

        # Steps 3-4: ascending sweep with the rank-update theorem.
        # ``value_at`` evaluates Eqn. (3) without allocating a Weights
        # per candidate — identical floats to the verification's
        # ``penalty(worst, Weights.from_spatial(w))``.
        ordered_ws = sorted(candidate_ws)
        scored: list[tuple[float, float, int]] = []  # (penalty, w, worst rank)
        for w in ordered_ws:
            worst = 0
            for state in states:
                rank = self._advance_and_rank(state, w)
                if rank > worst:
                    worst = rank
            scored.append((penalty.value_at(worst, w), w, worst))

        # Floating-point verification of the best candidates.
        scored.sort(key=lambda item: (item[0], abs(item[1] - query.ws), item[1]))
        window = scored[: self._verification_window]
        best: tuple[float, float, int] | None = None
        for _, w, _ in window:
            weights = (
                query.weights if w == query.ws else Weights.from_spatial(w)
            )
            ranks = self._ranks(weights, missing_duals, duals, view)
            worst = max(ranks.values())
            pen = penalty(worst, weights)
            key = (pen, abs(w - query.ws), w)
            if best is None or key < (best[0], abs(best[1] - query.ws), best[1]):
                best = (pen, w, worst)
        assert best is not None  # the initial weight is always a candidate
        best_penalty, best_w, best_worst = best

        refined_weights = (
            query.weights if best_w == query.ws else Weights.from_spatial(best_w)
        )
        refined_k = penalty.refined_k(best_worst)
        refined_query = query.with_weights(refined_weights).with_k(refined_k)
        return PreferenceRefinement(
            refined_query=refined_query,
            penalty=best_penalty,
            delta_k=penalty.delta_k(best_worst),
            delta_w=query.weights.distance_to(refined_weights),
            refined_worst_rank=best_worst,
            initial_worst_rank=initial_worst,
            lam=lam,
            crossovers=total_crossovers,
            candidates_evaluated=len(ordered_ws),
            # The sweep strategy, not the retrieval substrate: the
            # columnar quadrant scan serves the same two range queries.
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
    ) -> list[tuple[float, float]]:
        """Spatial-weight intervals where ``missing_obj`` enters the top-k.

        Returns the maximal sub-intervals of ``(0, 1)`` on which the
        object's rank (under the initial location/keywords) is at most
        ``target_k`` (default: the query's own ``k``) — the "how would I
        have to weigh distance vs keywords" view the explanation panel
        can draw.  An empty list means no preference alone revives the
        object: only enlarging ``k`` (or adapting keywords) can.

        Interval endpoints are the crossover weights; ranks on the open
        interval between two consecutive crossovers are constant.
        Endpoints are resolved with the engine's tie-break semantics at
        the crossover itself, except that an interval whose closing
        crossover tie goes against the object still reports that
        crossover as its (single-point over-inclusive) endpoint —
        callers probing the intervals should sample their interiors.
        """
        k = target_k if target_k is not None else query.k
        kernel = self._scorer.kernel
        view = kernel.dual_view(query) if kernel is not None else None
        if view is not None and self._use_dual_index:
            duals = []
            m_dual = view.dual_point_of(missing_obj.oid)
        else:
            duals = (
                view.dual_points()
                if view is not None
                else self._scorer.dual_points(query)
            )
            by_oid = {dual.oid: dual for dual in duals}
            m_dual = by_oid[missing_obj.oid]

        if not self._use_dual_index:
            crossing = DualSpaceIndex.crossing_candidates_linear(duals, m_dual)
        elif view is not None:
            crossing = view.crossing_candidates(m_dual.oid)
        else:
            crossing = DualSpaceIndex(duals).crossing_candidates(m_dual)
        events: list[tuple[float, int, int]] = []
        for other in crossing:
            w_star = m_dual.crossover_with(other)
            if w_star is None or not self._valid_weight(w_star):
                continue
            direction = 1 if other.slope > m_dual.slope else -1
            events.append((w_star, other.oid, direction))
        events.sort()

        state = _SweepState(
            dual=m_dual,
            events=events,
            above=(
                view.strictly_above_at_zero(m_dual.oid)
                if view is not None
                else self._strictly_above_at_zero(m_dual, duals)
            ),
            permanent_tie_smaller=(
                view.permanent_ties_smaller(m_dual.oid)
                if view is not None
                else self._permanent_ties_smaller(m_dual, duals)
            ),
        )
        # Evaluate the rank on every open interval between consecutive
        # crossovers (probed at the interval's left-open representative)
        # and at every crossover point, then merge viable stretches.
        boundaries = [0.0] + [event[0] for event in events] + [1.0]
        viable: list[tuple[float, float]] = []
        current_start: float | None = None

        def extend(lo: float, hi: float) -> None:
            nonlocal current_start
            if current_start is None:
                current_start = lo
            # Merged on the fly: contiguous viable pieces share endpoints.
            del hi

        def close(at: float) -> None:
            nonlocal current_start
            if current_start is not None:
                viable.append((current_start, at))
                current_start = None

        previous = 0.0
        for index, (w_event, _, _) in enumerate(events):
            # Open interval (previous, w_event): rank is the state's rank
            # just before the event; probe exactly at the event weight
            # minus nothing — _advance_and_rank at w_event applies events
            # strictly before it, which *is* the open-interval rank, then
            # handles the event ties for the point itself.
            interval_rank_probe = self._advance_and_rank(state, w_event)
            # interval_rank_probe is the rank AT w_event (ties included);
            # reconstruct the open-interval rank from the pre-event state:
            open_rank = 1 + state.above + state.permanent_tie_smaller
            if open_rank <= k:
                extend(previous, w_event)
            else:
                close(previous)
            if interval_rank_probe <= k:
                extend(w_event, w_event)
            else:
                close(w_event)
            # Consume the event(s) at this weight before moving on.
            while state.cursor < len(events) and events[state.cursor][0] == w_event:
                state.above += events[state.cursor][2]
                state.cursor += 1
            previous = w_event
        final_rank = 1 + state.above + state.permanent_tie_smaller
        if final_rank <= k:
            extend(previous, 1.0)
            close(1.0)
        else:
            close(previous)
        return viable

    # ------------------------------------------------------------------
    # Sweep internals
    # ------------------------------------------------------------------
    @staticmethod
    def _valid_weight(w: float) -> bool:
        """True when ``Weights.from_spatial(w)`` yields interior weights.

        Besides ``0 < w < 1`` this requires ``1 − w`` not to round to 0
        or 1 in floating point, which the :class:`Weights` validator
        would reject.
        """
        return 0.0 < w < 1.0 and 0.0 < 1.0 - w < 1.0

    @staticmethod
    def _beats(other: DualPoint, m_dual: DualPoint, w: float) -> bool:
        """Float-semantics comparison at spatial weight ``w``.

        Must mirror :meth:`_ranks_at_weights` exactly: scores are
        ``w·a + (1−w)·b`` (the values ``Weights.from_spatial(w)`` stores)
        with the (score desc, oid asc) tie-break.
        """
        other_score = w * other.a + (1.0 - w) * other.b
        m_score = w * m_dual.a + (1.0 - w) * m_dual.b
        if other_score != m_score:  # yasklint: disable=YASK103 -- dual-space comparator mirrors the kernel operation-for-operation; equality means a true permanent tie
            return other_score > m_score
        return other.wins_ties_against(m_dual)

    def _past_crossing_candidate(
        self,
        m_dual: DualPoint,
        other: DualPoint,
        w_star: float,
        initial_ws: float,
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
        probe: float | None = None
        for _ in range(128):
            candidate = w_star + step if going_up else w_star - step
            if not self._valid_weight(candidate):
                return None
            if state_reached(candidate):
                probe = candidate
                break
            step *= 2.0
        if probe is None:
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

    @staticmethod
    def _strictly_above_at_zero(
        m_dual: DualPoint, duals: Sequence[DualPoint]
    ) -> int:
        """Objects strictly outranking ``m`` as ``w → 0+``.

        At the textual end of the weight range order is decided by ``b``
        (TSim), with the line slope — equivalently ``a`` — as the
        tie-break among lines meeting at ``w = 0``.
        """
        above = 0
        for other in duals:
            if other.oid == m_dual.oid:
                continue
            if other.b > m_dual.b or (
                other.b == m_dual.b and other.a > m_dual.a
            ):
                above += 1
        return above

    @staticmethod
    def _permanent_ties_smaller(
        m_dual: DualPoint, duals: Sequence[DualPoint]
    ) -> int:
        """Objects with an identical score line and a smaller object id.

        Such objects tie with ``m`` at every weight and beat it under the
        deterministic (score desc, oid asc) order.
        """
        return sum(
            1
            for other in duals
            if other.oid != m_dual.oid
            and other.a == m_dual.a
            and other.b == m_dual.b
            and other.oid < m_dual.oid
        )

    @staticmethod
    def _advance_and_rank(state: _SweepState, w: float) -> int:
        """Rank of the state's missing object exactly at weight ``w``.

        Applies the rank update theorem for every crossover strictly
        before ``w``; crossovers exactly at ``w`` are ties resolved by
        object id.  Must be called with non-decreasing ``w``.
        """
        events = state.events
        while state.cursor < len(events) and events[state.cursor][0] < w:
            _, _, direction = events[state.cursor]
            state.above += direction
            state.cursor += 1
        # Objects crossing exactly at w are tied with m here.
        tied_smaller = 0
        tied_from_above = 0
        probe = state.cursor
        while probe < len(events) and events[probe][0] == w:
            _, other_oid, direction = events[probe]
            if direction < 0:
                # Was above on the previous interval, tied at w.
                tied_from_above += 1
            if other_oid < state.dual.oid:
                tied_smaller += 1
            probe += 1
        strictly_above = state.above - tied_from_above
        return 1 + strictly_above + tied_smaller + state.permanent_tie_smaller

    # ------------------------------------------------------------------
    # Floating-point rank oracle (shared with the sampling baseline)
    # ------------------------------------------------------------------
    def _ranks(
        self,
        weights: Weights,
        missing_duals: Sequence[DualPoint],
        duals: Sequence[DualPoint],
        view: "object | None",
    ) -> Mapping[int, int]:
        """Exact missing-object ranks, over the kernel's dual columns
        when available (a :class:`repro.core.kernel.DualView`) and the
        DualPoint list otherwise — identical floats either way."""
        if view is not None:
            return view.ranks_at(
                weights.ws, weights.wt, [m.oid for m in missing_duals]
            )
        return self._ranks_at_weights(weights, missing_duals, duals)

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
                if other.oid == oid:
                    continue
                if other_score > target_score or (
                    other_score == target_score and other.oid < oid  # yasklint: disable=YASK103 -- the documented (score desc, oid asc) tie rule; scores are bit-identical by the kernel parity contract
                ):
                    beaten[oid] += 1
        return {oid: count + 1 for oid, count in beaten.items()}
