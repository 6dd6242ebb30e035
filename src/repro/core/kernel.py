"""Columnar scoring kernel: the batch hot paths of Eqn. (1).

Everything above this module — the brute-force oracle, best-first leaf
scoring, the why-not modules' full-database rank scans — ultimately
evaluates ``ST(o, q) = ws · (1 − SDist) + wt · TSim`` over many objects
for one query.  The object-at-a-time path pays a Python method call, a
``frozenset`` intersection and a dataclass allocation per object; this
kernel stores the database once as parallel flat columns

* ``array('d')`` x/y coordinates,
* interned doc bitmasks (one Python ``int`` per object, bit positions
  assigned by :class:`repro.text.vocabulary.Vocabulary`),
* ``array('q')`` doc lengths and object ids,

and evaluates whole-database passes in tight loops where Jaccard
(Eqn. 2) becomes integer bit arithmetic:
``|o.doc ∩ q.doc| = (mask & qmask).bit_count()``.

Float parity contract
---------------------

The kernel is an *optimisation*, never a semantics change: every number
it produces must be bit-for-bit identical to the set-based path in
:class:`repro.core.scoring.Scorer` (which remains the semantics oracle).
Each formula below therefore mirrors
:class:`~repro.text.similarity.JaccardSimilarity` operation by operation
— same operand order, same division, same ``min`` clamp — and the scorer
builds a kernel only for that exact type, so a subclass overriding
``similarity`` can never be silently mis-kerneled.
``tests/properties/test_prop_kernel.py`` asserts the parity across tie
orders and empty-doc edge cases.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import lt
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Mapping, Sequence

from repro import concurrency, faults
from repro.core.hotpath import hot_path
from repro.core.objects import OID_LIMIT, SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scanindex import (
    SKIP_MARGIN,
    ScanIndex,
    bit_positions,
    score_delta_rows,
    tsim_from_counts,
)

if TYPE_CHECKING:  # pragma: no cover - scoring imports this module
    from repro.core.scoring import DualPoint
    from repro.text.vocabulary import Vocabulary

__all__ = [
    "KernelStats",
    "ScoringKernel",
    "KernelQuery",
    "DocContext",
    "CrossingRun",
    "DualView",
    "score_delta_rows",
]


#: Tombstone sentinels.  A deleted row is not spliced out of the columns
#: (that would renumber every row behind it); instead its cells are
#: overwritten so the unchanged scan loops render it *inert*:
#:
#: * coordinates ``_DEAD_COORD`` put it beyond any dataspace, so its
#:   clamped SDist is 1 and its proximity 0;
#: * an empty mask makes every TSim 0 (all formulas gate on shared > 0);
#: * hence its score is exactly 0.0 under any query and weights, which
#:   can never *strictly* beat anything, and
#: * the oid sentinel — ``OID_LIMIT``, which ``SpatialObject`` refuses as
#:   an id, so it is larger than any real one — loses every
#:   (score desc, oid asc) tie-break, so a dead row is never counted as
#:   a beater even against a true score of 0.0.
#:
#: Only the materialising entry points, which would otherwise emit
#: rows, filter liveness explicitly: ``order_rows`` and
#: ``dual_points_all`` skip dead rows, and ``scan_top_k`` and
#: ``dual_view`` read the scan index, whose ``alive`` bitmap holds no
#: dead position (so ``count_closer``, which compares raw distances the
#: sentinel's score says nothing about, sees none).  Every
#: score-counting scan is tombstone-oblivious by the argument above.
_DEAD_OID = OID_LIMIT
_DEAD_COORD = 1e300

#: Default tombstone fraction beyond which a mutation batch triggers
#: compaction (dead rows physically dropped, rows renumbered).
DEFAULT_COMPACTION_THRESHOLD = 0.25


class KernelStats:
    """Work counters of one kernel (exposed through ``GET /api/stats``).

    ``full_passes``/``score_passes`` count whole-database column scans;
    ``point_scores`` counts single-row evaluations (best-first leaf
    scoring); ``scan_calls`` / ``scan_rows_scored`` /
    ``scan_columns_visited`` / ``scan_index_builds`` count indexed top-k
    scans, the rows they actually scored, the index columns they walked
    and the (lazy) index builds they paid for; ``dual_views`` / ``dual_view_rows``
    count dual views (and reference dual passes) and the rows given a
    ``hypot`` for them, widenings included (a view's: the boundary rows
    of the disks it counts by popcount, and each level's rows out to the
    proximity its readers reach, see :class:`DualView`);
    ``dual_view_events`` counts the crossover events the why-not rank
    walks read off those views;
    the remaining counters attribute batch entry points to their consumers.

    One kernel is shared by every executor worker thread, so updates go
    through :meth:`bump` under a lock — like the executor-tier cache
    counters served from the same stats endpoint.  The per-row hot
    paths never bump individually: :class:`KernelQuery` counts locally
    per search and flushes one bump at the end.
    """

    _FIELDS = (
        "full_passes",
        "score_passes",
        "point_scores",
        "scan_calls",
        "scan_rows_scored",
        "scan_columns_visited",
        "scan_index_builds",
        "count_better_calls",
        "rank_of_many_calls",
        "dual_views",
        "dual_view_rows",
        "dual_view_events",
        "doc_contexts",
        "doc_rank_scans",
    )

    __slots__ = ("_lock",) + _FIELDS

    def __init__(self) -> None:
        self._lock = concurrency.ordered_lock("kernel.stats", concurrency.LEVEL_LEAF)
        for field in self._FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to one counter."""
        self.record(**{field: amount})

    def record(self, **amounts: int) -> None:
        """Add to several counters in one locked update."""
        with self._lock:
            for field, amount in amounts.items():
                setattr(self, field, getattr(self, field) + amount)

    def reset(self) -> None:
        with self._lock:
            for field in self._FIELDS:
                setattr(self, field, 0)

    def to_dict(self) -> dict[str, int]:
        with self._lock:
            return {field: getattr(self, field) for field in self._FIELDS}


class DocContext:
    """One keyword set encoded against a kernel's vocabulary.

    The keyword-adaption module scores thousands of candidate keyword
    sets against the same database; encoding a candidate once and
    computing ``TSim`` per object by bit arithmetic replaces a
    ``frozenset`` intersection per (candidate, object) pair.
    """

    __slots__ = ("_kernel", "mask", "length")

    def __init__(self, kernel: "ScoringKernel", doc: AbstractSet[str]) -> None:
        self._kernel = kernel
        self.mask, _unknown = kernel.vocabulary.encode_query(doc)
        self.length = len(doc)

    def tsim_row(self, row: int) -> float:
        """``TSim(o_row, doc)`` — identical floats to the set path's."""
        kernel = self._kernel
        shared = (kernel._masks[row] & self.mask).bit_count()
        return tsim_from_counts(shared, kernel._lens[row], self.length)

    def rank_scan(
        self,
        ws: float,
        wt: float,
        proximities: Sequence[float],
        target_oid: int,
    ) -> int:
        """Exact rank of ``target_oid`` under this doc, by full scan.

        Mirrors ``KeywordAdapter._rank_via_scan``: score every object as
        ``ws · proximity + wt · TSim`` and count the (score desc, oid
        asc) beaters of the target.
        """
        kernel = self._kernel
        kernel.stats.bump("doc_rank_scans")
        target_row = kernel._row_of[target_oid]
        theta = ws * proximities[target_row] + wt * self.tsim_row(target_row)
        return 1 + self.count_beaters(
            range(kernel._n), ws, wt, proximities, theta, target_oid
        )

    @hot_path
    def count_beaters(
        self,
        rows: Iterable[int],
        ws: float,
        wt: float,
        proximities: Sequence[float],
        theta: float,
        target_oid: int,
    ) -> int:
        """How many of ``rows`` beat ``(theta, target_oid)`` under this doc.

        One columnar call per row set — the whole database for
        :meth:`rank_scan`, one uncertain KcR-tree leaf for the keyword
        module's bound-and-prune descent.  The target's own row scores
        exactly ``theta`` and does not precede itself, so it needs no
        skip.
        """
        kernel = self._kernel
        masks = kernel._masks
        lens = kernel._lens
        oids = kernel._oids
        qmask = self.mask
        qlen = self.length
        beaters = 0
        for row in rows:
            shared = (masks[row] & qmask).bit_count()
            tsim = shared / (lens[row] + qlen - shared) if shared else 0.0
            score = ws * proximities[row] + wt * tsim
            if score > theta or (score == theta and oids[row] < target_oid):
                beaters += 1
        return beaters


class KernelQuery:
    """A query prepared for repeated single-row scoring.

    Best-first search scores one leaf entry at a time; preparing the
    query once (bitmask encoding, scalar unpacking) makes each
    ``score_oid`` a handful of arithmetic operations with no set
    machinery.  Scorings are counted in the (single-threaded) prepared
    query itself — :meth:`flush_stats` publishes them to the shared
    :class:`KernelStats` in one locked bump.
    """

    __slots__ = ("_kernel", "_scalars", "scored")

    def __init__(self, kernel: "ScoringKernel", query: SpatialKeywordQuery) -> None:
        self._kernel = kernel
        self._scalars = kernel._query_scalars(query)
        self.scored = 0

    def flush_stats(self) -> None:
        """Publish the local scoring count to the kernel's counters."""
        if self.scored:
            self._kernel.stats.bump("point_scores", self.scored)
            self.scored = 0

    def score_row(self, row: int) -> float:
        """``ST(o_row, q)`` — identical floats to ``Scorer.score``."""
        kernel = self._kernel
        self.scored += 1
        xs, ys, masks, lens = kernel._xs, kernel._ys, kernel._masks, kernel._lens
        ((_oid, score, _sdist, _tsim),) = score_delta_rows(
            [(xs[row], ys[row], masks[row], lens[row], 0)], *self._scalars,
            normaliser=kernel._normaliser,
        )
        return score

    def score_oid(self, oid: int) -> float:
        return self.score_row(self._kernel._row_of[oid])


class CrossingRun:
    """One TSim level of a target's crossing candidates as a cursor over
    its crossover events in ``w`` order.

    Event ``t`` crosses at ``event(t) = (w, oid)``; ``direction`` is +1
    when the level's lines rise above the target as ``w`` grows; ``[low,
    stop)`` are the valid crossovers and ``[low, split)`` those below
    ``ws``.  Built from the level's crossing rows, ``(proximities,
    oids)`` with the proximities ascending, in full.

    ``w*`` is float-monotone in the proximity, since its denominator
    ``slope − (a − b)`` is: it rises with ``a`` above the target's
    level and falls below it, where the rows are read backwards.  So
    parallel lines (a zero denominator) end the run, invalid weights
    sit at its ends and the events below ``ws`` open it: each is one
    bisect, or a check of the ends when there are none.
    """

    __slots__ = ("direction", "low", "split", "stop", "_weight", "_oids")

    def __init__(
        self,
        target: "DualPoint",
        ws: float,
        b: float,
        proximities: Sequence[float],
        oids: Sequence[int],
    ) -> None:
        self.direction = -1 if b > target.b else 1
        if self.direction > 0:
            proximities, oids = proximities[::-1], oids[::-1]
        numerator, slope = b - target.b, target.slope
        # Row t's w*: DualPoint.crossover_with, operation for operation.
        weight = lambda t: numerator / (slope - (proximities[t] - b))
        stop = len(proximities)
        while stop and proximities[stop - 1] - b == slope:
            stop -= 1
        low, interior = 0, Weights.interior
        if stop and not (interior(weight(0)) and interior(weight(stop - 1))):
            side = lambda t: 0 if interior(weight(t)) else 1 if weight(t) >= 0.5 else -1
            low = bisect_left(range(stop), 0, 0, stop, key=side)
            stop = bisect_right(range(stop), 0, low, stop, key=side)
        self.split = bisect_left(range(stop), ws, low, stop, key=weight)
        self.low, self.stop, self._weight, self._oids = low, stop, weight, oids

    def event(self, t: int) -> tuple[float, int]:
        """Event ``t``'s ``(w*, oid)``, for ``low ≤ t < stop``."""
        return self._weight(t), self._oids[t]


class _LevelRun(CrossingRun):
    """A :class:`CrossingRun` over one :class:`DualView` level, which the
    view may hold only in part.

    The level's crossing rows are counted, not listed: ``stop`` is the
    count of rows past the target's proximity less the invalid ones,
    which sit within ulps of it and so among the rows a ``hypot``
    placed (the :meth:`DualView._split` of that proximity).  Only the
    rows the view has scored, every one with proximity at or above the
    level's ``lo``, are listed: in ``w`` order the trailing events
    (``b`` above the target's) or the leading ones (``b`` below).
    ``split`` is certified by ``w*`` at ``lo`` itself, which bounds
    every unlisted row's; an event past the listed ones widens the
    level first.
    """

    __slots__ = ("_view", "_level", "_am", "_weight_at", "_n", "_r0")

    def __init__(
        self, view: "DualView", level: int, target: "DualPoint", ws: float
    ) -> None:
        b = view._levels[level][0]
        am, bm = target.a, target.b
        numerator, slope = b - bm, target.slope
        self._weight_at = lambda a: numerator / (slope - (a - b))
        self._view, self._level, self._am = view, level, am
        self.direction = -1 if b > bm else 1
        n_inside, _, _, proximities, oids = view._split(am)[level]
        above = bisect_right(proximities, am)
        at = bisect_left(proximities, am, 0, above)
        if self.direction < 0:  # the rows below am, read down from it
            self._n = view._sizes[level] - n_inside - (len(proximities) - at)
            nearest = reversed(proximities[:at])
        else:  # the rows above am, read up from it
            self._n = n_inside + len(proximities) - above
            nearest = iter(proximities[above:])
        interior, invalid = Weights.interior, 0
        for a in nearest:
            if a - b != slope and interior(self._weight_at(a)):
                break
            invalid += 1
        self.low, self.stop = 0, self._n - invalid
        # Rows nearer than am hold the leading events (b < bm): a first
        # step opens a disk about as many rows deep as a walk reads.
        self._r0 = view._normaliser * (1.0 - am) * math.sqrt(_FIRST_ROWS / (1 + n_inside))
        if self.stop <= 0:  # no valid crossover: nothing to list
            self.split = 0
            return
        # w* = ws at a = slope + b − numerator / ws: every row on the far
        # side of it is placed by w* at the level's lo.
        reach = slope + b - numerator / ws - _SLACK if ws > 0.0 else -math.inf
        state = view._rows[level]
        while not self._certified(state, ws):
            state = view._widen(level, reach, self._r0)
            reach = math.inf  # a geometric step from here on
        start, stop = self._listed(state)
        window = state[1][start:stop]
        if self.direction > 0:  # w order is the proximities' reverse
            window.reverse()
        t0 = self._n - len(window) if self.direction < 0 else 0
        valid = max(0, min(self.stop - t0, len(window)))
        self.split = t0 + bisect_left(window, ws, 0, valid, key=self._weight_at)

    def _listed(self, state: "_Rows") -> tuple[int, int]:
        """The slice of ``state``'s rows that are the run's listed events:
        the crossing rows at or above the level's ``lo``.  They end the
        run (``b`` above the target's) or open it (``b`` below)."""
        lo, proximities, _, _ = state
        start = bisect_left(proximities, lo)
        if self.direction < 0:
            return start, bisect_left(proximities, self._am, start)
        return max(start, bisect_right(proximities, self._am, start)), len(proximities)

    def _certified(self, state: "_Rows", ws: float) -> bool:
        """Whether the unlisted rows are all on their side of ``ws``."""
        lo = state[0]
        if lo == -math.inf:
            return True
        if self.direction < 0:  # unlisted rows lie below lo < am
            return lo < self._am and self._weight_at(lo) < ws
        return lo > self._am and self._weight_at(lo) >= ws or lo <= self._am

    def event(self, t: int) -> tuple[float, int]:
        view, level = self._view, self._level
        state = view._rows[level]
        while True:
            start, stop = self._listed(state)
            index = stop - (self._n - t) if self.direction < 0 else stop - 1 - t
            if index >= start:
                _, proximities, oids, _ = state
                return self._weight_at(proximities[index]), oids[index]
            state = view._widen(level, math.inf, self._r0)


#: How far below an estimated threshold a view widens a level, in
#: proximity: enough to clear the estimate's rounding, few rows deep.
_SLACK = 1e-9

#: The smallest radius a geometric widening step opens, as a share of
#: the dataspace diagonal.
_MIN_STEP = 2.0**-20

#: How many rows a level's first disk is sized to hold, at the density
#: the target's own disk shows: a walk's first event is one row, and it
#: reads a handful more.
_FIRST_ROWS = 4.0

#: A level's scored rows: ``(lo, proximities ascending, their oids, their
#: positions as a bitmap)`` — every row of the level with proximity
#: ≥ ``lo`` and perhaps some below it, ties in oid order.
_Rows = tuple[float, array, array, int]


class DualView:
    """Dual coordinates ``(a, b)`` under one query, for one missing set.

    A view answers for its *targets* (the missing objects; a rank query
    about any other object raises ``ValueError``).  Under Jaccard
    ``b = TSim`` takes few distinct values per query (at most
    ``(|q.doc| + 1) · max doc length``, never a function of n): the
    view's *levels* are the scan index's buckets of one TSim, each a
    bitmap of positions whose size is a popcount.  Within one level the
    score ``ws·a + wt·b`` is float-monotone in ``a`` (multiply and add
    by non-negative weights are monotone), and so is a target's
    crossover weight ``w*``, so every question of Section 3.3 is a count
    of a level's rows on one side of a proximity.

    * *Counts by popcount.*  A count at a target's own proximity ``am``
      — its rank at ``q.ws``, each level's event total, the rows above
      it as ``w → 0``, its permanent ties, the closer-count — is one
      :meth:`ScanIndex.disk` walk: rows wholly inside are a popcount
      per level, and only the boundary rows get a ``hypot``
      (:meth:`_split`).
    * *Events by annulus.*  A level's rows are scored only from the top
      down to its ``lo``, the proximity a reader has needed so far: the
      rows nearest ``q`` cross a target below it earliest, the rows
      just past a level's threshold cross it near ``q.ws``.  A rank walk
      that reads past the listed rows widens the level
      (:class:`_LevelRun`), publishing a new immutable row list, so
      concurrent readers never see one change under them.  A level of
      at most one row per index column is scored whole at its first
      widening.

    A ``ranks_at`` at other weights counts from the same two: the
    listed rows when the level's threshold lies among them, the split
    at ``am`` when the level's score clears the target on both sides
    of ``am``'s boundary band, and a widened level otherwise.

    A row's ``(a, b)`` is scored on demand, against the kernel columns
    of the generation the view was built in.
    """

    __slots__ = (
        "_kernel", "_index", "_scalars", "_targets", "_levels", "_sizes",
        "_whole", "_rows", "_disks", "_splits", "_normaliser",
    )

    def __init__(
        self,
        kernel: "ScoringKernel",
        index: ScanIndex,
        scalars: tuple[float, float, int, int],
        targets: Mapping[int, tuple[float, float]],
    ) -> None:
        """``scalars``: the query's ``(qx, qy, qmask, qlen)``;
        ``targets``: each target's ``(a, b)``.  Nothing is scored yet."""
        buckets = index.buckets(scalars[2], scalars[3])
        self._kernel = kernel
        self._index = index
        self._scalars = scalars
        self._targets = targets
        self._normaliser = kernel._normaliser
        #: ``(b, positions bitmap)`` by descending ``b``.
        self._levels = tuple((b, buckets[b]) for b in sorted(buckets, reverse=True))
        self._sizes = [bitmap.bit_count() for _, bitmap in self._levels]
        self._whole = index.columns
        self._rows: list[_Rows] = [
            (math.inf, array("d"), array("q"), 0) for _ in self._levels
        ]
        #: Per proximity, per level: ``(rows inside, their proximity
        #: bound, the bound below which the rest lie, the rows between
        #: as proximities ascending and oids)``.
        self._splits: dict[float, list[tuple[int, float, float, array, array]]] = {}
        self._disks: dict[tuple[float, bool], tuple[int, int]] = {}

    def _target(self, oid: int) -> tuple[float, float]:
        point = self._targets.get(oid)
        if point is None:
            raise ValueError(f"object {oid} is not a target of this dual view")
        return point

    # ------------------------------------------------------------------
    # Scoring rows
    # ------------------------------------------------------------------
    def _score(self, mask: int) -> tuple[list[float], list[int]]:
        """The proximities and oids of the positions in ``mask``."""
        index = self._index
        positions = bit_positions(mask)
        qx, qy, _, _ = self._scalars
        self._kernel.stats.bump("dual_view_rows", len(positions))
        return index.proximities(positions, qx, qy), index.oids_at(positions)

    def _publish(self, level: int, state: _Rows, mask: int, lo: float) -> _Rows:
        """``state`` with the positions in ``mask`` scored and ``lo``
        lowered to ``lo``, published for the level and returned."""
        _, proximities, oids, scored = state
        if mask:
            new = sorted(zip(*self._score(mask)))
            # Listed rows nearer q than every new one keep their place.
            cut = bisect_right(proximities, new[-1][0])
            rows = sorted([*zip(proximities[:cut], oids[:cut]), *new])
            proximities = array("d", [a for a, _ in rows]) + proximities[cut:]
            oids = array("q", [oid for _, oid in rows]) + oids[cut:]
        state = (lo, proximities, oids, scored | mask)
        self._rows[level] = state
        return state

    def _widen(self, level: int, lo: float, r0: float) -> _Rows:
        """The level scored down to ``lo`` at least — or, with ``lo`` no
        lower than it is, one geometric step further (the radius
        doubled, and at least ``r0``) — published and returned."""
        state = self._rows[level]
        current, scored = state[0], state[3]
        _, bitmap = self._levels[level]
        norm = self._normaliser
        if lo >= current:
            radius = norm * (1.0 - current) if current < 1.0 else 0.0
            lo = 1.0 - max(2.0 * radius, r0) / norm
        elif lo > 1.0:  # no row is that close: nothing to score
            return self._publish(level, state, 0, lo)
        if lo <= 0.0 or self._sizes[level] <= self._whole:
            return self._publish(level, state, bitmap & ~scored, -math.inf)
        # Down to a rung of a fixed ladder of radii (quarter octaves of
        # the diagonal), so levels widening to nearby proximities share
        # one disk walk.
        octaves = math.ceil(4.0 * math.log2(max(1.0 - lo, _MIN_STEP))) / 4.0
        rung = 1.0 - 2.0**octaves
        lo = rung if rung <= lo else 1.0 - 2.0 ** (octaves + 0.25)
        if lo <= 0.0:
            return self._publish(level, state, bitmap & ~scored, -math.inf)
        inside, boundary = self._disk(lo, split=False)
        return self._publish(level, state, bitmap & (inside | boundary) & ~scored, lo)

    def _disk(self, a: float, *, split: bool = True) -> tuple[int, int]:
        """:meth:`ScanIndex.disk` at proximity ``a``, memoised (a split
        disk serves as a cover too)."""
        disk = self._disks.get((a, True)) or self._disks.get((a, split))
        if disk is None:
            qx, qy, _, _ = self._scalars
            disk = self._disks[a, split] = self._index.disk(qx, qy, a, split=split)
        return disk

    def _split(self, a: float) -> list[tuple[int, float, float, array, array]]:
        """Per level, its rows split at proximity ``a``, memoised:
        ``(inside, above, below, proximities, oids)`` — ``inside``
        unlisted rows, each with proximity over ``above`` (> ``a``),
        every other unlisted row under ``below`` (< ``a``), and the
        listed rows exact, ascending.  A level already scored below
        ``a`` lists its scored rows; any other adds the boundary rows
        of one :meth:`ScanIndex.disk` walk, shared by every level."""
        split = self._splits.get(a)
        if split is not None:
            return split
        split = []
        for level, (_, bitmap) in enumerate(self._levels):
            state = self._rows[level]
            lo = state[0]
            if lo <= a - SKIP_MARGIN:
                split.append((0, a, lo, state[1], state[2]))
                continue
            inside, boundary = self._disk(a)
            scored = state[3]
            state = self._publish(level, state, bitmap & boundary & ~scored, lo)
            split.append((
                (bitmap & inside & ~scored).bit_count(),
                a + SKIP_MARGIN / 4.0,
                a - SKIP_MARGIN / 4.0,
                state[1],
                state[2],
            ))
        self._splits[a] = split
        return split

    # ------------------------------------------------------------------
    # What the why-not modules ask
    # ------------------------------------------------------------------
    def dual_points_of(self, oids: Sequence[int]) -> "list[DualPoint]":
        """These live objects' :class:`DualPoint`s, scored now
        (``KeyError`` for any other)."""
        from repro.core.scoring import DualPoint

        points = self._kernel._dual_rows(oids, *self._scalars)
        return [DualPoint(oid, a, b) for oid, a, _, b in points]

    def crossing_runs(self, target_oid: int, ws: float) -> list[CrossingRun]:
        """The target's crossover events, one :class:`_LevelRun` per
        other TSim level.

        Lines cross exactly when the dual points sit in opposite open
        quadrants, ``(a_o − a_m)(b_o − b_m) < 0`` (Section 3.3's two
        range queries, :class:`repro.index.dualspace.DualSpaceIndex`):
        per level above the target's, the proximities below ``a_m``; per
        level below it, those above.
        """
        from repro.core.scoring import DualPoint

        am, bm = self._target(target_oid)
        target = DualPoint(target_oid, am, bm)
        return [
            _LevelRun(self, level, target, ws)
            for level, (b, _) in enumerate(self._levels)
            if b != bm
        ]

    def count_events(self, events: int) -> None:
        """Count crossover events a rank walk read off this view."""
        self._kernel.stats.bump("dual_view_events", events)

    @hot_path
    def ranks_at(
        self, ws: float, wt: float, target_oids: Sequence[int]
    ) -> dict[int, int]:
        """Exact float-semantics ranks of the targets at weights (ws, wt).

        Mirrors ``PreferenceAdjuster._ranks_at_weights``: scores are
        ``ws·a + wt·b`` (non-negative weights) with the (score desc,
        oid asc) tie-break, which only the run of rows scoring exactly
        the target's score needs.
        """
        targets = [(oid, *self._target(oid)) for oid in target_oids]
        scores = [ws * am + wt * bm for _, am, bm in targets]
        beaten = [0] * len(targets)
        rows = self._rows
        for level, (b, _) in enumerate(self._levels):
            faults.check_deadline()
            offset = wt * b
            score_of = lambda x: ws * x + offset
            for index, (oid, am, _) in enumerate(targets):
                lo, proximities, oids, _ = rows[level]
                score = scores[index]
                if score_of(lo) < score or lo == -math.inf:  # the scored rows decide
                    beaten[index] += _count_beating(
                        proximities, oids, bisect_left(proximities, lo), score_of, score, oid
                    )
                else:
                    beaten[index] += self._beating(level, ws, score_of, score, oid, am)
        return {oid: count + 1 for (oid, _, _), count in zip(targets, beaten)}

    def _beating(
        self,
        level: int,
        ws: float,
        score_of: Callable[[float], float],
        score: float,
        oid: int,
        am: float,
    ) -> int:
        """The level's rows beating ``(score, oid)``, ``score_of`` scoring
        its proximities, when its scored rows alone do not decide: the
        split at ``am`` may, or the level widens until they do."""
        # Below the threshold every row loses; ws = 0 leaves none.
        reach = (score - score_of(0.0)) / ws - _SLACK if ws > 0.0 else -math.inf
        state = self._rows[level]
        while True:
            lo, proximities, oids, _ = state
            if lo == -math.inf or score_of(lo) < score:
                return _count_beating(
                    proximities, oids, bisect_left(proximities, lo), score_of, score, oid
                )
            inside, above, below, near, near_oids = self._split(am)[level]
            if score_of(below) < score and (not inside or score_of(above) > score):
                return inside + _count_beating(near, near_oids, 0, score_of, score, oid)
            state = self._widen(level, reach, self._normaliser * (1.0 - am) / 4.0)
            reach = math.inf

    def strictly_above_at_zero(self, target_oid: int) -> int:
        """Objects strictly outranking the target as ``w → 0+``.

        Mirrors ``DualSpaceIndex.strictly_above_at_zero``: order by
        ``b`` (TSim) with ``a`` as the tie-break.
        """
        am, bm = self._target(target_oid)
        above = 0
        for level, (b, _) in enumerate(self._levels):
            if b > bm:
                above += self._sizes[level]
            elif b == bm:
                inside, _, _, proximities, _ = self._split(am)[level]
                above += inside + len(proximities) - bisect_right(proximities, am)
        return above

    def permanent_ties_smaller(self, target_oid: int) -> int:
        """Objects with an identical score line and a smaller object id:
        its equal-proximity run's head, the run being in oid order."""
        am, bm = self._target(target_oid)
        for level, (b, _) in enumerate(self._levels):
            if b == bm:
                _, _, _, proximities, oids = self._split(am)[level]
                start = bisect_left(proximities, am)
                stop = bisect_right(proximities, am, start)
                return bisect_left(oids, target_oid, start, stop) - start
        return 0

    def count_more_similar(self, tsim: float) -> int:
        """Objects with ``TSim > tsim``: a sum of level sizes."""
        return sum(
            size for (level, _), size in zip(self._levels, self._sizes) if level > tsim
        )

    def count_closer(self, raw_distance: float) -> int:
        """Live objects with raw distance to the query ``< raw_distance``.

        ``a = 1 − min(d / norm, 1)`` is float-monotone non-increasing in
        the raw distance ``d`` (a division by a positive constant, a
        clamp and a subtraction from a constant are each monotone): a
        row whose proximity is larger than the radius's lies strictly
        closer, one with a smaller proximity strictly farther, and only
        the rows at exactly that proximity (every clamped row when it
        is 0) compare raw distances — the :meth:`_split` at it.
        """
        proximity = 1.0 - min(raw_distance / self._normaliser, 1.0)
        kernel = self._kernel
        qx, qy, _, _ = self._scalars
        xs, ys, row_of = kernel._xs, kernel._ys, kernel._row_of
        closer = 0
        for inside, _, _, proximities, oids in self._split(proximity):
            above = bisect_right(proximities, proximity)
            closer += inside + len(proximities) - above
            for oid in oids[bisect_left(proximities, proximity, 0, above) : above]:
                row = row_of[oid]
                if math.hypot(xs[row] - qx, ys[row] - qy) < raw_distance:
                    closer += 1
        return closer


def _count_beating(
    proximities: Sequence[float],
    oids: Sequence[int],
    start: int,
    score_of: Callable[[float], float],
    score: float,
    oid: int,
) -> int:
    """Rows of ``proximities[start:]`` (ascending, ties in oid order)
    beating ``(score, oid)``: two bisects, and the tied run by oid."""
    above = bisect_right(proximities, score, start, key=score_of)
    tied = bisect_left(proximities, score, start, above, key=score_of)
    return len(proximities) - above + sum(map(lt, oids[tied:above], repeat(oid)))


class ScoringKernel:
    """Columnar batch evaluator of Eqn. (1) over one database."""

    __slots__ = (
        "_database",
        "_n",
        "_xs",
        "_ys",
        "_masks",
        "_lens",
        "_oids",
        "_objects",
        "_alive",
        "_dead_count",
        "_row_of",
        "_oids_ascending",
        "_max_seen_oid",
        "_normaliser",
        "compaction_threshold",
        "compactions",
        "stats",
        "_scan_index",
        "_scan_index_lock",
    )

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        rows: Sequence[int] | None = None,
        compaction_threshold: float = DEFAULT_COMPACTION_THRESHOLD,
    ) -> None:
        if not 0.0 <= compaction_threshold <= 1.0:
            raise ValueError("compaction_threshold must lie in [0, 1]")
        self._database = database
        objects: Sequence[SpatialObject] = database.objects
        masks: Sequence[int] = database.doc_masks
        if rows is not None:  # a shard's members, in the database's bit space
            objects = [objects[row] for row in rows]
            masks = [masks[row] for row in rows]
        self._n = len(objects)
        self._xs = array("d", (obj.loc.x for obj in objects))
        self._ys = array("d", (obj.loc.y for obj in objects))
        self._masks: list[int] = list(masks)
        self._lens = array("q", (len(obj.doc) for obj in objects))
        self._oids = array("q", (obj.oid for obj in objects))
        # Row-aligned object column (None at tombstones): the result
        # materialisation substrate — under mutation the database's
        # dense object tuple no longer lines up with physical rows.
        self._objects: list[SpatialObject | None] = list(objects)
        self._alive: list[bool] = [True] * self._n
        self._dead_count = 0
        self._row_of: dict[int, int] = {
            obj.oid: row for row, obj in enumerate(objects)
        }
        # With ascending oids (the common builder layout) rank ordering
        # can ride a stable reverse sort keyed by score alone.
        self._oids_ascending = all(
            self._oids[row] < self._oids[row + 1] for row in range(self._n - 1)
        )
        self._max_seen_oid = max(self._oids)
        self._normaliser = database.distance_normaliser
        self.compaction_threshold = compaction_threshold
        self.compactions = 0
        self.stats = KernelStats()
        # No index yet: the first ``scan_top_k`` builds it.
        self._scan_index: ScanIndex | None = None
        self._scan_index_lock = concurrency.ordered_lock(
            "kernel.scan_index", concurrency.LEVEL_LEAF
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def database(self) -> SpatialDatabase:
        return self._database

    @property
    def vocabulary(self) -> "Vocabulary":
        return self._database.vocabulary_index

    @property
    def oids(self) -> array:
        """Object ids in database (row) order."""
        return self._oids

    def row_of(self, oid: int) -> int:
        """Row index of an object id; raises ``KeyError`` when unknown."""
        return self._row_of[oid]

    @property
    def row_objects(self) -> Sequence["SpatialObject | None"]:
        """Row-aligned objects (None at tombstones) for materialisation."""
        return self._objects

    @property
    def live_count(self) -> int:
        """Number of live (non-tombstoned) rows."""
        return self._n - self._dead_count

    @property
    def has_tombstones(self) -> bool:
        return self._dead_count > 0

    def live_row_list(self) -> list[int]:
        """Physical rows of the live objects, in row order."""
        alive = self._alive
        return [row for row in range(self._n) if alive[row]]

    # ------------------------------------------------------------------
    # Incremental maintenance (repro.core.mutations)
    # ------------------------------------------------------------------
    def apply_mutations(self, change) -> None:
        """Tombstone removed rows, append new ones, maybe compact.

        ``change`` is an :class:`repro.core.mutations.AppliedBatch`
        (duck-typed: ``removed_oids`` + ``appended``).  Call *after* the
        owning database applied the same batch: the appended objects are
        encoded against its (already extended) vocabulary.  Every kernel
        — unsharded, a sharded engine's global one, each shard's — keeps
        its tombstones until they pass its own ``compaction_threshold``.

        The scan index, when one has been built, follows in O(batch):
        a delete clears its ``alive`` bit, an insert is filed into its
        x-column (so views and scans cut it like a built row), a
        compaction re-keys its row map; only a tail of inserts grown past
        its share of the build drops it for the next scan to rebuild.
        """
        appended: Sequence[SpatialObject] = change.appended
        rows = self.encode_rows(appended, self.vocabulary)
        scan_index = self._scan_index
        for oid in change.removed_oids:
            row = self._row_of.pop(oid)
            if scan_index is not None:
                scan_index.delete(row)
            self._xs[row] = _DEAD_COORD
            self._ys[row] = _DEAD_COORD
            self._masks[row] = 0
            self._lens[row] = 1
            self._oids[row] = _DEAD_OID
            self._objects[row] = None
            self._alive[row] = False
            self._dead_count += 1
        for obj, (x, y, mask, doc_len, oid) in zip(appended, rows):
            self._xs.append(x)
            self._ys.append(y)
            self._masks.append(mask)
            self._lens.append(doc_len)
            self._oids.append(oid)
            self._objects.append(obj)
            self._alive.append(True)
            self._row_of[oid] = self._n
            self._n += 1
            if scan_index is not None:
                scan_index.append(x, y, mask, doc_len, oid)
            # Incremental oid-order tracking: deletes preserve a
            # rising live sequence, appends keep it only past the
            # highest id ever seen (conservative after the max is
            # deleted — the decorated sort is always correct).
            if oid > self._max_seen_oid:
                self._max_seen_oid = oid
            else:
                self._oids_ascending = False
        if scan_index is not None and scan_index.tail_overgrown:
            self._scan_index = None
        if self._dead_count > self.compaction_threshold * self._n:
            self._compact()

    @staticmethod
    def encode_rows(
        objects: Sequence[SpatialObject], vocabulary: "Vocabulary"
    ) -> tuple[tuple[float, float, int, int, int], ...]:
        """Pre-encode objects as ``(x, y, mask, doc_len, oid)`` rows.

        The one definition of the column-delta row format that
        :meth:`apply_mutations` appends.
        """
        encode = vocabulary.encode
        return tuple(
            (obj.loc.x, obj.loc.y, encode(obj.doc), len(obj.doc), obj.oid)
            for obj in objects
        )

    def _compact(self) -> None:
        """Drop tombstoned rows, renumbering the survivors in order."""
        alive = self._alive
        rows = [row for row in range(self._n) if alive[row]]
        self._xs = array("d", (self._xs[row] for row in rows))
        self._ys = array("d", (self._ys[row] for row in rows))
        self._masks = [self._masks[row] for row in rows]
        self._lens = array("q", (self._lens[row] for row in rows))
        self._oids = array("q", (self._oids[row] for row in rows))
        self._objects = [self._objects[row] for row in rows]
        if self._scan_index is not None:
            self._scan_index.compact(rows)
        self._n = len(rows)
        self._alive = [True] * self._n
        self._dead_count = 0
        self._row_of = {oid: row for row, oid in enumerate(self._oids)}
        # Compaction is the (rare) moment an exact recompute is cheap
        # relative to the work already done.
        self._oids_ascending = all(
            self._oids[row] < self._oids[row + 1] for row in range(self._n - 1)
        )
        self._max_seen_oid = max(self._oids)
        self.compactions += 1

    def mutation_info(self) -> dict[str, int | float]:
        """Column occupancy for ``GET /api/stats``' mutations section."""
        return {
            "rows": self._n,
            "live_rows": self.live_count,
            "tombstones": self._dead_count,
            "compactions": self.compactions,
            "compaction_threshold": self.compaction_threshold,
        }

    # ------------------------------------------------------------------
    # Whole-database passes
    # ------------------------------------------------------------------
    def _query_scalars(
        self, query: SpatialKeywordQuery
    ) -> tuple[float, float, int, int, float, float]:
        qmask, _unknown = self.vocabulary.encode_query(query.doc)
        return (
            query.loc.x,
            query.loc.y,
            qmask,
            len(query.doc),
            query.ws,
            query.wt,
        )

    @hot_path
    def components_all(
        self, query: SpatialKeywordQuery
    ) -> tuple[list[float], list[float], list[float]]:
        """``(sdists, tsims, scores)`` columns in database order.

        Every float matches ``Scorer.breakdown`` exactly: same hypot,
        same division by the dataspace diagonal, same clamp at 1, same
        convex combination.  Outputs are plain lists — readers index
        them heavily and lists hand back the already-boxed floats.
        """
        self.stats.bump("full_passes")
        qx, qy, qmask, qlen, ws, wt = self._query_scalars(query)
        norm = self._normaliser
        hypot = math.hypot
        sdists: list[float] = []
        tsims: list[float] = []
        scores: list[float] = []
        push_sdist = sdists.append
        push_tsim = tsims.append
        push_score = scores.append
        for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
            d = hypot(x - qx, y - qy) / norm
            if d > 1.0:
                d = 1.0
            s = (m & qmask).bit_count()
            t = s / (length + qlen - s) if s else 0.0
            push_sdist(d)
            push_tsim(t)
            push_score(ws * (1.0 - d) + wt * t)
        return sdists, tsims, scores

    def _score_list(self, query: SpatialKeywordQuery) -> list[float]:
        """The score column alone (the rank primitives' shared pass)."""
        return self.scalar_scores(*self._query_scalars(query))

    @hot_path
    def scalar_scores(
        self,
        qx: float,
        qy: float,
        qmask: int,
        qlen: int,
        ws: float,
        wt: float,
    ) -> list[float]:
        """The score column from pre-extracted query scalars.

        The query-free core of :meth:`_score_list`: everything a pass
        needs is the six scalars of :meth:`_query_scalars`, the same
        ones :meth:`scan_top_k` takes, which makes this pass the
        reference the indexed scan is tested against.
        """
        self.stats.bump("score_passes")
        norm = self._normaliser
        hypot = math.hypot
        scores: list[float] = []
        push_score = scores.append
        for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
            d = hypot(x - qx, y - qy) / norm
            if d > 1.0:
                d = 1.0
            s = (m & qmask).bit_count()
            t = s / (length + qlen - s) if s else 0.0
            push_score(ws * (1.0 - d) + wt * t)
        return scores

    def score_all(self, query: SpatialKeywordQuery) -> array:
        """``ST(o, q)`` for every object, in database order."""
        return array("d", self._score_list(query))

    def scan_top_k(
        self,
        k: int,
        qx: float,
        qy: float,
        qmask: int,
        qlen: int,
        ws: float,
        wt: float,
        floor: float | None = None,
    ) -> list[tuple[float, int, float, float]]:
        """The best ``k`` live rows as ``(−score, oid, sdist, tsim)``,
        merge-ready.

        ``(−score, oid)`` ascending is exactly the oracle's
        ``(score desc, oid asc)`` order, so candidate lists from
        different shards merge with plain heap selection; ``sdist`` and
        ``tsim`` are the floats the score was summed from
        (``Scorer.breakdown``'s, bit for bit), so the winners
        materialise without a re-score.  ``floor``,
        when given, is an *inclusive* score cut: the answer is the top
        ``k`` minus every pair scoring below it (a pair tying the floor
        still competes on oid), which is what a scatter that already
        holds ``k`` candidates needs from a later shard.

        Answered from the kernel's :class:`~repro.core.scanindex.ScanIndex`
        — only the rows that can still reach the running k-th score are
        scored — with the reference semantics
        ``nsmallest(k, zip(map(neg, scalar_scores(…)), oids))`` over the
        live rows, each pair extended by its components.  This is the
        one scan the scatter runs, through
        :meth:`ShardedEngine._scan_shard`.

        The index is built on first use (:meth:`_built_scan_index`).
        """
        index, builds = self._built_scan_index()
        rows, rows_scored, columns = index.scan(k, qx, qy, qmask, qlen, ws, wt, floor)
        self.stats.record(
            scan_calls=1, scan_rows_scored=rows_scored,
            scan_columns_visited=columns, scan_index_builds=builds,
        )
        return rows

    def _built_scan_index(self) -> tuple[ScanIndex, int]:
        """``(the scan index, 1 if this call built it)``, built under a leaf
        lock: readers hold the engine's shared lock and a mutation its
        exclusive one, so a build can never race :meth:`apply_mutations`."""
        index = self._scan_index
        if index is not None:
            return index, 0
        with self._scan_index_lock:
            index = self._scan_index
            if index is not None:
                return index, 0
            index = self._scan_index = ScanIndex(
                self._normaliser, self._xs, self._ys, self._masks,
                self._lens, self._oids, self.live_row_list(),
            )
            return index, 1

    def order_rows(self, scores: Sequence[float]) -> list[int]:
        """Rows in (score desc, oid asc) rank order for a score column.

        With ascending oids a stable reverse sort keyed by score alone
        realises the tie-break for free (equal scores keep row — hence
        oid — order); otherwise a decorated sort spells it out.
        Tombstoned rows are excluded — this is a materialising entry
        point, so dead rows must not leak into rankings.
        """
        if self._dead_count:
            rows: Sequence[int] = self.live_row_list()
        else:
            rows = range(self._n)
        if self._oids_ascending:
            return sorted(rows, key=scores.__getitem__, reverse=True)
        oids = self._oids
        decorated = sorted((-scores[row], oids[row], row) for row in rows)
        return [row for _, _, row in decorated]

    def proximities(self, query: SpatialKeywordQuery) -> list[float]:
        """``1 − SDist(o, q)`` per object — the keyword module's cache."""
        qx = query.loc.x
        qy = query.loc.y
        norm = self._normaliser
        hypot = math.hypot
        return [
            1.0 - min(hypot(x - qx, y - qy) / norm, 1.0)
            for x, y in zip(self._xs, self._ys)
        ]

    # ------------------------------------------------------------------
    # Dual-space view (preference adjustment substrate)
    # ------------------------------------------------------------------
    def dual_view(
        self, query: SpatialKeywordQuery, targets: Sequence[int]
    ) -> DualView:
        """The :class:`DualView` of ``query`` for ``targets`` (live oids).

        Only the targets are scored here: the view counts and scores the
        rest of its levels (the scan index's buckets of one TSim) as its
        readers ask — Section 3.3's counts and range queries, not a pass
        over every row.
        """
        faults.check_deadline()
        if not targets:
            raise ValueError("a dual view needs at least one target")
        qx, qy, qmask, qlen, _ws, _wt = self._query_scalars(query)
        own = self._dual_rows(targets, qx, qy, qmask, qlen)
        index, builds = self._built_scan_index()
        self.stats.record(dual_views=1, scan_index_builds=builds)
        duals = {oid: (a, b) for oid, a, _, b in own}
        return DualView(self, index, (qx, qy, qmask, qlen), duals)

    def _dual_rows(
        self, oids: Sequence[int], qx: float, qy: float, qmask: int, qlen: int
    ) -> list[tuple[int, float, float, float]]:
        """``(oid, a, SDist, b)`` of live oids (``KeyError`` for any other)
        under prepared query scalars: :func:`score_delta_rows` at (1, 0)."""
        xs, ys, masks, lens = self._xs, self._ys, self._masks, self._lens
        rows = map(self._row_of.__getitem__, oids)
        return score_delta_rows(
            [(xs[r], ys[r], masks[r], lens[r], oid) for oid, r in zip(oids, rows)],
            qx, qy, qmask, qlen, 1.0, 0.0,
            normaliser=self._normaliser,
        )

    def dual_points_all(self, query: SpatialKeywordQuery) -> "list[DualPoint]":
        """Every live object's :class:`DualPoint`, in row order — matches
        ``Scorer.dual_points``: the reference arms' one pass."""
        from repro.core.scoring import DualPoint

        qx, qy, qmask, qlen, _ws, _wt = self._query_scalars(query)
        columns = zip(self._xs, self._ys, self._masks, self._lens, self._oids)
        rows = score_delta_rows(
            compress(columns, self._alive), qx, qy, qmask, qlen, 1.0, 0.0,
            normaliser=self._normaliser,
        )
        points = [DualPoint(oid, a, b) for oid, a, _sdist, b in rows]
        self.stats.record(dual_views=1, dual_view_rows=len(points))
        return points

    # ------------------------------------------------------------------
    # Rank primitives
    # ------------------------------------------------------------------
    @hot_path
    def count_better(
        self, score: float, oid: int, query: SpatialKeywordQuery
    ) -> int:
        """Objects beating ``(score, oid)`` under (score desc, oid asc).

        ``oid``'s own row is excluded, so passing an object's true score
        yields ``rank − 1`` exactly as ``Scorer.rank_of`` counts it.
        """
        self.stats.bump("count_better_calls")
        return self._count_beating(self._score_list(query), score, oid)

    @hot_path
    def rank_of_many(
        self, target_oids: Iterable[int], query: SpatialKeywordQuery
    ) -> dict[int, int]:
        """Exact rank of each target oid in one shared column pass."""
        self.stats.bump("rank_of_many_calls")
        scores = self._score_list(query)
        return {
            oid: 1 + self._count_beating(scores, scores[self._row_of[oid]], oid)
            for oid in target_oids
        }

    @hot_path
    def _count_beating(self, scores: Sequence[float], score: float, oid: int) -> int:
        """Rows of this kernel's score column beating ``(score, oid)``, but
        ``oid``'s own: it ties its own oid, so it counts only above ``score``."""
        oids = self._oids
        better = 0
        for row, other in enumerate(scores):
            if other > score or (other == score and oids[row] < oid):
                better += 1
        own = self._row_of.get(oid)
        return better - (own is not None and scores[own] > score)

    # ------------------------------------------------------------------
    # Prepared contexts
    # ------------------------------------------------------------------
    def prepare(self, query: SpatialKeywordQuery) -> KernelQuery:
        """Prepare a query for repeated single-object scoring."""
        return KernelQuery(self, query)

    def doc_context(self, doc: AbstractSet[str]) -> DocContext:
        """Encode a (candidate) keyword set for batch TSim evaluation."""
        self.stats.bump("doc_contexts")
        return DocContext(self, doc)
