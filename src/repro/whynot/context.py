"""What the why-not questions about one ``(loc, doc, ~w, M)`` share.

A why-not session asks several questions about the same initial query
and missing set — an explanation, then one or more refinements — and
every module starts from the same facts: the dual coordinates under
``(loc, doc)`` of the objects that can reach M, the missing objects'
dual points and initial ranks, (per missing object) the walk of its
rank outward from ``q.ws``, and the preference front.  None depends on
``k`` or ``λ``.  :class:`WhyNotContext` computes each once, on first
use, and the modules take it as an argument instead.

A context is a snapshot of one database generation: whoever keeps one
across requests (:class:`repro.whynot.engine.WhyNotEngine`) drops it
when a mutation batch applies.  Concurrent readers may share one.  Its
only cursors are the rank walks, and a walk never moves one in place:
an extension publishes a new immutable walked prefix.  Two readers
racing to extend a walk or to fill a slot compute the same value twice.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from itertools import chain
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.kernel import DualView
from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import DualPoint, Scorer

__all__ = ["RankProfile", "RankWalk", "SweepInputs", "WhyNotContext"]


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


class SweepInputs(NamedTuple):
    """One missing object's crossover structure (Section 3.3, step 2):
    the other objects' crossover weights and oids, parallel arrays
    sorted by ``(weight, oid)``, and ``m``'s rank profile along them —
    over the whole of ``(0, 1)`` or the window a walk has reached."""

    dual: DualPoint
    weights: array
    oids: array
    profile: RankProfile


class _Side(NamedTuple):
    keys: tuple[float, ...]
    oids: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    floors: tuple[int, ...]
    heads: list[tuple[float, int, int, int]]


class RankWalk:
    """``m``'s rank as ``w`` moves out from ``q.ws`` (Section 3.3, step 3).

    Each level of m's crossing candidates, ``(b, proximities ascending,
    oids)``, is a run of events in ``w`` order (see
    :meth:`DualView.crossing_run`): ``total`` is exact, and m's rank at
    ``q.ws`` is ``start`` (``1 + above + ties``) plus each run's
    direction times its events below ``q.ws``, before any event is read.
    Each side then applies the rank update theorem a level at a time,
    merging the runs' cursors by ``(w, oid)``, as far as a reader asks.
    Past each level it keeps a *floor*, the rank there less the events
    still to come that can lower it: no rank further out is less.

    A side holds its levels (``keys``: ``w`` going up, ``−w`` going
    down), the oids crossing at each, the rank at ``q.ws`` then at and
    past each level, the floors past none, one, … levels (the rank less
    the events left that lower it) and a heap of each run's next event.
    An extension republishes a side whole, never advancing it in place.
    ``count``, when given, is told how many events each one reads.
    """

    __slots__ = ("dual", "ws", "total", "_runs", "_sides", "_count")

    def __init__(
        self, dual: DualPoint, ws: float,
        crossing: Sequence[tuple[float, Sequence[float], Sequence[int]]],
        start: int, count: Callable[[int], None] | None = None,
    ) -> None:
        runs = []
        heads: tuple[list, list] = ([], [])  # down, up
        lowering = [0, 0]
        for level in crossing:
            weight, oids, direction, low, split, stop = DualView.crossing_run(dual, ws, *level)
            start += direction * (split - low)
            # Lines falling behind m lower its rank going up, rising ones going down.
            lowering[direction < 0] += stop - split if direction < 0 else split - low
            if split > low:
                heads[0].append((-weight(split - 1), oids[split - 1], len(runs), split - 1))
            if split < stop:
                heads[1].append((weight(split), oids[split], len(runs), split))
            runs.append((weight, oids, direction, low, stop))
        self.dual, self.ws, self._runs, self._count = dual, ws, runs, count
        self.total = sum(stop - low for _, _, _, low, stop in runs)
        for side in heads:
            heapify(side)
        self._sides = [_Side((), (), (start,), (start - lowering[up],), heads[up]) for up in (0, 1)]

    def _reach(
        self, going_up: bool, key: float = -math.inf, count: int = 0, floor: float = -math.inf
    ) -> _Side:
        """One side, walked until its next level lies past ``key``, it
        holds ``count`` levels and its floor passes ``floor``, or to its end."""
        side = self._sides[going_up]
        keys, oids, ranks, floors, heads = side
        if not heads or (heads[0][0] > key and len(keys) >= count and floors[-1] > floor):
            return side
        keys, oids, ranks, floors, heads = map(list, side)
        lowering = ranks[-1] - floors[-1]
        runs, m_oid, step, read = self._runs, self.dual.oid, 1 if going_up else -1, 0
        while heads and (heads[0][0] <= key or len(keys) < count or floors[-1] <= floor):
            level, met, moved, falling = heads[0][0], [], 0, 0
            while heads and heads[0][0] == level:
                _, oid, run, t = heads[0]
                weight, run_oids, direction, low, stop = runs[run]
                met.append(oid)
                moved += direction
                falling += direction < 0
                if low <= t + step < stop:
                    w = weight(t + step)
                    heapreplace(heads, (w if going_up else -w, run_oids[t + step], run, t + step))
                else:
                    heappop(heads)
            read += len(met)
            smaller = sum(oid < m_oid for oid in met)
            if going_up:  # the lines falling behind m lower the rank
                ranks += (ranks[-1] + smaller - falling, ranks[-1] + moved)
                lowering -= falling
            else:  # the lines rising above m with w do
                ranks += (ranks[-1] - moved + smaller - falling, ranks[-1] - moved)
                lowering -= len(met) - falling
            keys.append(level)
            oids.append(tuple(sorted(met)))
            floors.append(ranks[-1] - lowering)
        side = _Side(tuple(keys), tuple(oids), tuple(ranks), tuple(floors), heads)
        self._sides[going_up] = side
        if self._count is not None:
            self._count(read)
        return side

    def _find(self, w: float) -> tuple[_Side, float, int, bool]:
        """``w``'s side walked to it, its key there, the number of that
        side's levels nearer ``q.ws`` and whether ``w`` is a level."""
        key = w if w >= self.ws else -w
        side = self._reach(w >= self.ws, key)
        nearer = bisect_left(side.keys, key)
        return side, key, nearer, nearer < len(side.keys) and side.keys[nearer] == key

    def rank(self, w: float) -> int:
        """m's rank at ``w`` (ties at a crossover resolved by oid)."""
        side, _, nearer, hit = self._find(w)
        return side.ranks[2 * nearer + hit]

    def floor(self, w: float) -> int:
        """A lower bound on m's rank anywhere past ``w``, away from ``q.ws``."""
        side, key, _, _ = self._find(w)
        return side.floors[bisect_right(side.keys, key)]

    def oids_at(self, w: float) -> tuple[int, ...]:
        """The oids whose lines cross m's at ``w`` (none off a crossover)."""
        side, _, nearer, hit = self._find(w)
        return side.oids[nearer] if hit else ()

    def levels(self, going_up: bool) -> Iterator[float]:
        """The crossover weights out from ``q.ws`` on one side (going
        up, from ``q.ws`` itself), walked as they are read."""
        count = 0
        while count < len(keys := self._reach(going_up, count=count + 1).keys):
            yield keys[count] if going_up else -keys[count]
            count += 1

    def walked(self, beyond: float = math.inf) -> SweepInputs:
        """The crossovers and rank profile of the window walked until
        each side's floor passes ``beyond`` (by default, all of them)."""
        down, up = (self._reach(going_up, floor=beyond) for going_up in (False, True))
        levels = [-key for key in reversed(down.keys)] + list(up.keys)
        met = [*reversed(down.oids), *up.oids]
        weights = array("d", [w for w, oids in zip(levels, met) for _ in oids])
        ranks = array("i", [*reversed(down.ranks[1:]), *up.ranks])
        profile = RankProfile(array("d", levels), ranks)
        return SweepInputs(self.dual, weights, array("q", chain(*met)), profile)


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
        "_duals", "_dual_of", "_missing_duals", "_initial_ranks", "walks",
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
        self.walks: list[RankWalk | None] = [None] * len(self.missing)
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
