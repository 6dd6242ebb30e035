"""What the why-not questions about one ``(loc, doc, ~w, M)`` share.

A why-not session asks several questions about the same initial query
and missing set — an explanation, then one or more refinements — and
every module starts from the same facts: the dual coordinates under
``(loc, doc)`` of the objects that can reach M, the missing objects'
dual points and initial ranks, (per missing object) the crossover
events and rank profile of the weight sweep, and the preference front.
None depends on ``k`` or ``λ``.  :class:`WhyNotContext` computes each
once, on first use, and the modules take it as an argument instead.

A context is a snapshot of one database generation: whoever keeps one
across requests (:class:`repro.whynot.engine.WhyNotEngine`) drops it
when a mutation batch applies.  Nothing in it is a cursor — a sweep
keeps its position in local variables — so concurrent readers may share
one; two racing to fill the same slot compute the same value twice.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import add
from typing import Mapping, NamedTuple, Sequence

from repro.core.kernel import DualView
from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import DualPoint, Scorer

__all__ = ["RankProfile", "SweepInputs", "WhyNotContext"]


class RankProfile(NamedTuple):
    """A sweep rank as a step function of the spatial weight ``w``.

    ``weights`` are the distinct crossover weights, ascending; ``ranks``
    alternates the rank on each open interval and at each crossover
    (ties there resolved by object id): on ``(0, weights[0])``, at
    ``weights[0]``, on ``(weights[0], weights[1])``, … on ``(…, 1)``.
    """

    weights: Sequence[float]
    ranks: Sequence[int]

    def rank(self, w: float) -> int:
        """The rank at ``w``: ``ranks[2·lo + hit]``, with ``hit = hi − lo``."""
        return self.ranks[bisect_left(self.weights, w) + bisect_right(self.weights, w)]

    @staticmethod
    def worst(profiles: Sequence["RankProfile"]) -> "RankProfile":
        """``R(M, ·)``: the largest of several ranks at every weight."""
        if len(profiles) == 1:
            return profiles[0]
        weights = sorted(set().union(*(profile.weights for profile in profiles)))
        ranks = [0] * (2 * len(weights) + 1)
        for profile in profiles:  # at w: ranks[lo + hi]; past it: ranks[2·hi]
            low = map(bisect_left, repeat(profile.weights), weights)
            high = list(map(bisect_right, repeat(profile.weights), weights))
            own = [profile.ranks[0]] * len(ranks)
            own[1::2] = map(profile.ranks.__getitem__, map(add, low, high))
            own[2::2] = map(profile.ranks.__getitem__, map(add, high, high))
            ranks = list(map(max, ranks, own))
        return RankProfile(weights, ranks)


class SweepInputs(NamedTuple):
    """One missing object's crossover structure (Section 3.3, step 2):
    the other objects' crossover weights and oids, parallel arrays
    sorted by ``(weight, oid)``, and ``m``'s rank profile along them."""

    dual: DualPoint
    weights: array
    oids: array
    profile: RankProfile


class WhyNotContext:
    """Lazily memoised facts about one initial query and missing set.

    ``view`` is the kernel's levelled :class:`DualView` for the missing
    objects — ``None`` when the scorer has no kernel, a missing object
    is not the database's own copy (the set path scores the *passed*
    object) or the caller asked for the O(n) reference
    (``indexed=False``); consumers then take their
    :class:`DualPoint`-list and tree-walk arms.

    ``query.k`` is that of whichever request built the context: read
    ``loc``, ``doc`` and the weights from it, ``k`` from the request.
    """

    __slots__ = (
        "scorer", "query", "missing", "_indexed", "_view",
        "_duals", "_dual_of", "_missing_duals", "_initial_ranks", "sweeps",
        "front",
    )

    def __init__(
        self,
        scorer: Scorer,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        *,
        indexed: bool = True,
        view: DualView | None = None,
    ) -> None:
        self.scorer = scorer
        self.query = query
        self.missing = tuple(missing)
        #: Whether ``view`` is still to be built on first use.
        self._indexed = indexed and view is None
        self._view = view
        self._duals: list[DualPoint] | None = None
        self._dual_of: dict[int, DualPoint] | None = None
        self._missing_duals: list[DualPoint] | None = None
        self._initial_ranks: Mapping[int, int] | None = None
        #: Per missing object, filled by ``PreferenceAdjuster``.
        self.sweeps: list[SweepInputs | None] = [None] * len(self.missing)
        #: The preference front, ``(w, worst rank)`` pairs (likewise).
        self.front: tuple[tuple[float, int], ...] | None = None

    def reweighted(self, query: SpatialKeywordQuery) -> "WhyNotContext":
        """The context of ``query`` = this one's with other weights.

        Dual coordinates are weight-free and the missing set is the
        same, so the view is shared; ranks and the front are not.
        """
        return WhyNotContext(
            self.scorer, query, self.missing,
            indexed=self.view is not None, view=self.view,
        )

    @property
    def view(self) -> DualView | None:
        if self._indexed:
            kernel = self.scorer.kernel
            if kernel is not None and all(
                obj in self.scorer.database for obj in self.missing
            ):
                self._view = kernel.dual_view(self.query, [m.oid for m in self.missing])
            self._indexed = False
        return self._view

    def dual_points_of(self, oids: Sequence[int]) -> list[DualPoint]:
        """The dual points of the missing objects and the rows that reach one."""
        if self.view is not None:
            return self.view.dual_points_of(oids)
        self._dual_of = self._dual_of or {dual.oid: dual for dual in self.duals}
        return list(map(self._dual_of.__getitem__, oids))

    @property
    def duals(self) -> list[DualPoint]:
        """Every object's dual point — the reference arms' substrate."""
        if self._duals is None:
            self._duals = self.scorer.dual_points(self.query)
        return self._duals

    @property
    def missing_duals(self) -> list[DualPoint]:
        if self._missing_duals is None:
            self._missing_duals = self.dual_points_of([m.oid for m in self.missing])
        return self._missing_duals

    @property
    def initial_ranks(self) -> Mapping[int, int]:
        """Exact rank of each missing object under the initial query."""
        if self._initial_ranks is None:
            query = self.query
            if self.view is not None:
                self._initial_ranks = self.view.ranks_at(
                    query.ws, query.wt, [obj.oid for obj in self.missing]
                )
            else:
                self._initial_ranks = {
                    obj.oid: self.scorer.rank_of(obj, query)
                    for obj in self.missing
                }
        return self._initial_ranks

    @property
    def initial_worst_rank(self) -> int:
        """``R(M, q)``: the lowest rank among the missing objects."""
        return max(self.initial_ranks.values())
