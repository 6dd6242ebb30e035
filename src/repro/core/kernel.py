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

and evaluates whole-database passes in tight loops where Jaccard, Dice
and Overlap become integer bit arithmetic:
``|o.doc ∩ q.doc| = (mask & qmask).bit_count()``.

Float parity contract
---------------------

The kernel is an *optimisation*, never a semantics change: every number
it produces must be bit-for-bit identical to the set-based path in
:class:`repro.core.scoring.Scorer` (which remains the semantics oracle).
Each formula below therefore mirrors its set-path counterpart operation
by operation — same operand order, same division, same ``min`` clamp —
and the supported text models are matched by *exact type* so a subclass
overriding ``similarity`` can never be silently mis-kerneled.
``tests/properties/test_prop_kernel.py`` asserts the parity across
models, tie orders and empty-doc edge cases.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import eq, lt
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Mapping, Sequence

from repro import concurrency, faults
from repro.core.hotpath import hot_path
from repro.core.objects import OID_LIMIT, SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scanindex import (
    SKIP_MARGIN,
    ScanIndex,
    score_delta_rows,
    tsim_from_counts,
)
from repro.text.similarity import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapSimilarity,
    TextSimilarityModel,
)

if TYPE_CHECKING:  # pragma: no cover - scoring imports this module
    from repro.core.scoring import DualPoint
    from repro.text.vocabulary import Vocabulary

__all__ = [
    "KernelStats",
    "ScoringKernel",
    "KernelQuery",
    "DocContext",
    "DualView",
    "score_delta_rows",
]


#: Exact-type dispatch: the kernel replicates each model's float formula
#: operation for operation, so only these precise classes qualify — a
#: subclass may override ``similarity`` and must fall back to sets.
_MODEL_CODES: dict[type, str] = {
    JaccardSimilarity: "jaccard",
    DiceSimilarity: "dice",
    OverlapSimilarity: "overlap",
}

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


def key_order(keys: Sequence[float], ties: Sequence[int]) -> tuple[list[int], array]:
    """``(order, keys in that order)``: the positions of ``keys`` in
    ``(key, tie)`` order — one key sort (fast on presorted runs), then
    each (rare) run of equal keys re-sorted by its ``ties``."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    column = array("d", map(keys.__getitem__, order))
    for value in set(compress(column, map(eq, column, column[1:]))):
        run = slice(bisect_left(column, value), bisect_right(column, value))
        order[run] = sorted(order[run], key=ties.__getitem__)
    return order, column


class KernelStats:
    """Work counters of one kernel (exposed through ``GET /api/stats``).

    ``full_passes``/``score_passes`` count whole-database column scans;
    ``point_scores`` counts single-row evaluations (best-first leaf
    scoring); ``scan_calls`` / ``scan_rows_scored`` /
    ``scan_columns_visited`` / ``scan_index_builds`` count indexed top-k
    scans, the rows they actually scored, the index columns they walked
    and the (lazy) index builds they paid for; ``dual_views`` / ``dual_view_rows``
    count dual views (and reference dual passes) and the rows they scored
    (a view's: its buckets at or above its TSim floor and the rest of its
    disk, see :meth:`ScanIndex.undominated`); ``dual_view_events`` counts
    the crossover events the why-not rank walks read off those views;
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

    __slots__ = ("_kernel", "mask", "length", "_code")

    def __init__(self, kernel: "ScoringKernel", doc: AbstractSet[str]) -> None:
        self._kernel = kernel
        self.mask, _unknown = kernel.vocabulary.encode_query(doc)
        self.length = len(doc)
        self._code = kernel.model_code

    def tsim_row(self, row: int) -> float:
        """``TSim(o_row, doc)`` — identical floats to the set model."""
        kernel = self._kernel
        shared = (kernel._masks[row] & self.mask).bit_count()
        return tsim_from_counts(self._code, shared, kernel._lens[row], self.length)

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
        code = self._code
        beaters = 0
        if code == "jaccard":
            for row in rows:
                shared = (masks[row] & qmask).bit_count()
                tsim = (
                    shared / (lens[row] + qlen - shared) if shared else 0.0
                )
                score = ws * proximities[row] + wt * tsim
                if score > theta or (score == theta and oids[row] < target_oid):
                    beaters += 1
        elif code == "dice":
            for row in rows:
                shared = (masks[row] & qmask).bit_count()
                tsim = 2.0 * shared / (lens[row] + qlen) if shared else 0.0
                score = ws * proximities[row] + wt * tsim
                if score > theta or (score == theta and oids[row] < target_oid):
                    beaters += 1
        else:
            for row in rows:
                shared = (masks[row] & qmask).bit_count()
                tsim = shared / min(lens[row], qlen) if shared else 0.0
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
            normaliser=kernel._normaliser, model_code=kernel.model_code,
        )
        return score

    def score_oid(self, oid: int) -> float:
        return self.score_row(self._kernel._row_of[oid])


class DualView:
    """Dual coordinates ``(a, b)`` under one query, for one missing set.

    A view answers for its *targets* (the missing objects; a rank query
    about any other object raises ``ValueError``) and holds the rows at
    or above ``a_floor`` or ``b_floor``, the targets' minima less
    ``SKIP_MARGIN``.  A row below both can neither beat nor tie a target
    at any weights (one of ``ws + wt ≈ 1`` is ≳ 0.5, and its term alone
    loses by far more than the sum's rounding) nor cross a target's line.

    Under a set text model ``b = TSim`` takes few distinct values per
    query (at most ``(|q.doc| + 1) · max doc length``, never a function
    of n), and within one level the score ``ws·a + wt·b`` is
    float-monotone in ``a`` (multiply and add by non-negative weights
    are monotone).  So the view keeps, per level, the proximities sorted
    ascending with their oids alongside (ties in oid order): a rank is
    two bisects per level, exact with no margin, and the quadrant and
    counting queries of Section 3.3 are slices and lengths.  Building it
    is a key sort and two gathers per level, nothing of the kernel's
    length; a row's ``(a, b)`` is scored on demand, against the kernel
    columns of the generation the view was built in.
    """

    __slots__ = ("a_floor", "b_floor", "_kernel", "_scalars", "_targets", "_levels")

    @hot_path
    def __init__(
        self,
        kernel: "ScoringKernel",
        scalars: tuple[float, float, int, int],
        kept: Iterable[tuple[float, Sequence[float], Sequence[int]]],
        targets: Mapping[int, tuple[float, float]],
        a_floor: float,
        b_floor: float,
    ) -> None:
        """``kept``: the rows to hold as :meth:`ScanIndex.undominated`'s
        ``(b, proximities, oids)`` per TSim level, by descending ``b``,
        each level's rows in any order; ``scalars`` the query's
        ``(qx, qy, qmask, qlen)``; ``targets`` each target's ``(a, b)``."""
        levels = []
        for level, proximities, oids in kept:
            order, column = key_order(proximities, oids)
            levels.append((level, column, array("q", map(oids.__getitem__, order))))
        self.a_floor = a_floor
        self.b_floor = b_floor
        self._kernel = kernel
        self._scalars = scalars
        self._targets = targets
        #: ``(b, proximities ascending, their oids)`` by descending ``b``.
        self._levels = tuple(levels)

    def _target(self, oid: int) -> tuple[float, float]:
        point = self._targets.get(oid)
        if point is None:
            raise ValueError(f"object {oid} is not a target of this dual view")
        return point

    def dual_points_of(self, oids: Sequence[int]) -> "list[DualPoint]":
        """These objects' :class:`DualPoint`s, scored now (the floats the
        view holds); ``KeyError`` for an object the view does not hold."""
        from repro.core.scoring import DualPoint

        points = self._kernel._dual_rows(oids, *self._scalars)
        a_floor, b_floor = self.a_floor, self.b_floor
        if any(a < a_floor and b < b_floor for _, a, _, b in points):
            raise KeyError("an object this dual view does not hold")
        return [DualPoint(oid, a, b) for oid, a, _, b in points]

    def crossing_candidates(
        self, target_oid: int
    ) -> list[tuple[float, array, list[int]]]:
        """Objects whose score lines cross the target's inside ``(0, 1)``.

        The two dual-space range queries of Section 3.3 (see
        :class:`repro.index.dualspace.DualSpaceIndex`): lines cross
        exactly when the dual points sit in opposite open quadrants,
        ``(a_o − a_m)(b_o − b_m) < 0`` — per level, the proximities
        below ``a_m`` where ``b > b_m`` and above it where ``b < b_m``
        (differences of these columns are multiples of 2⁻⁵³ and ratios
        of doc lengths: the float product cannot underflow to ±0).
        Returned as ``(b, proximities, oids)`` per level with any, the
        columns as views of the level's (nothing is copied): a rank walk
        reads only the rows it reaches.
        """
        am, bm = self._target(target_oid)
        found = []
        for level, proximities, oids in self._levels:
            if level > bm:
                span = slice(0, bisect_left(proximities, am))
            elif level < bm:
                span = slice(bisect_right(proximities, am), None)
            else:
                continue
            crossing = memoryview(proximities)[span]
            if crossing:
                found.append((level, crossing, memoryview(oids)[span]))
        return found

    @staticmethod
    def crossing_run(
        target: "DualPoint",
        ws: float,
        b: float,
        proximities: Sequence[float],
        oids: Sequence[int],
    ) -> tuple[Callable[[int], float], Sequence[int], int, int, int, int]:
        """One level of the target's crossing candidates as a cursor over
        its crossover events in ``w`` order: ``(weight, oids, direction,
        low, split, stop)``.  Event ``t`` crosses at ``weight(t)``, with
        ``oids[t]``; ``direction`` is +1 when the level's lines rise
        above the target as ``w`` grows; ``[low, stop)`` are the valid
        crossovers and ``[low, split)`` those below ``ws``.

        ``w*`` is float-monotone in the proximity, since its denominator
        ``slope − (a − b)`` is: it rises with ``a`` above the target's
        level and falls below it, where the rows are read backwards.  So
        parallel lines (a zero denominator) end the run, invalid weights
        sit at its ends and the events below ``ws`` open it: each is one
        bisect, or a check of the ends when there are none.
        """
        direction = -1 if b > target.b else 1
        if direction > 0:
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
        split = bisect_left(range(stop), ws, low, stop, key=weight)
        return weight, oids, direction, low, split, stop

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
        scores = [ws * a + wt * b for a, b in map(self._target, target_oids)]
        beaten = [0] * len(scores)
        for level, proximities, oids in self._levels:
            faults.check_deadline()
            offset = wt * level
            score_of = lambda x: ws * x + offset
            size = len(proximities)
            for index, score in enumerate(scores):
                above = bisect_right(proximities, score, key=score_of)
                tied = bisect_left(proximities, score, 0, above, key=score_of)
                count = size - above
                if tied < above:
                    count += sum(map(lt, oids[tied:above], repeat(target_oids[index])))
                beaten[index] += count
        return {
            oid: count + 1 for oid, count in zip(target_oids, beaten)
        }

    def strictly_above_at_zero(self, target_oid: int) -> int:
        """Objects strictly outranking the target as ``w → 0+``.

        Mirrors ``DualSpaceIndex.strictly_above_at_zero``: order by
        ``b`` (TSim) with ``a`` as the tie-break.
        """
        am, bm = self._target(target_oid)
        above = 0
        for level, proximities, _ in self._levels:
            if level > bm:
                above += len(proximities)
            elif level == bm:
                above += len(proximities) - bisect_right(proximities, am)
        return above

    def permanent_ties_smaller(self, target_oid: int) -> int:
        """Objects with an identical score line and a smaller object id:
        its equal-proximity run's head, the run being in oid order."""
        am, bm = self._target(target_oid)
        for level, proximities, oids in self._levels:
            if level == bm:
                start = bisect_left(proximities, am)
                stop = bisect_right(proximities, am, start)
                return bisect_left(oids, target_oid, start, stop) - start
        return 0

    def count_more_similar(self, tsim: float) -> int:
        """Objects with ``TSim > tsim`` (≥ ``b_floor``): a sum of level sizes."""
        if tsim < self.b_floor:
            raise ValueError(f"TSim {tsim} is below this dual view's floor")
        return sum(
            len(proximities)
            for level, proximities, _ in self._levels
            if level > tsim
        )


class ScoringKernel:
    """Columnar batch evaluator of Eqn. (1) over one database and model."""

    __slots__ = (
        "_database",
        "_model",
        "model_code",
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
        text_model: TextSimilarityModel,
        *,
        rows: Sequence[int] | None = None,
        compaction_threshold: float = DEFAULT_COMPACTION_THRESHOLD,
    ) -> None:
        code = _MODEL_CODES.get(type(text_model))
        if code is None:
            raise ValueError(
                f"{type(text_model).__name__} has no columnar kernel; "
                "use ScoringKernel.maybe_build for graceful fallback"
            )
        if not 0.0 <= compaction_threshold <= 1.0:
            raise ValueError("compaction_threshold must lie in [0, 1]")
        self._database = database
        self._model = text_model
        self.model_code = code
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

    @staticmethod
    def supports(text_model: TextSimilarityModel) -> bool:
        """Whether the model has an exact columnar formula (by exact type)."""
        return type(text_model) in _MODEL_CODES

    @classmethod
    def maybe_build(
        cls, database: SpatialDatabase, text_model: TextSimilarityModel
    ) -> "ScoringKernel | None":
        """Build a kernel, or None when the model needs the set path."""
        if not cls.supports(text_model):
            return None
        return cls(database, text_model)

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
        a delete clears its ``alive`` bit, an insert joins its unsorted
        tail, a compaction re-keys its row map; only a tail grown past
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

        The one definition of the column-delta row format: the kernel's
        own :meth:`apply_mutations` and the mutation tier's
        :class:`~repro.core.mutations.BatchSummary` row payload both
        encode through here, so a row means the same thing to the
        columns and to the answer-maintenance tier.
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
        code = self.model_code
        if code == "jaccard":
            for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
                d = hypot(x - qx, y - qy) / norm
                if d > 1.0:
                    d = 1.0
                s = (m & qmask).bit_count()
                t = s / (length + qlen - s) if s else 0.0
                push_sdist(d)
                push_tsim(t)
                push_score(ws * (1.0 - d) + wt * t)
        elif code == "dice":
            for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
                d = hypot(x - qx, y - qy) / norm
                if d > 1.0:
                    d = 1.0
                s = (m & qmask).bit_count()
                t = 2.0 * s / (length + qlen) if s else 0.0
                push_sdist(d)
                push_tsim(t)
                push_score(ws * (1.0 - d) + wt * t)
        else:
            for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
                d = hypot(x - qx, y - qy) / norm
                if d > 1.0:
                    d = 1.0
                s = (m & qmask).bit_count()
                t = s / min(length, qlen) if s else 0.0
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
        code = self.model_code
        if code == "jaccard":
            for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
                d = hypot(x - qx, y - qy) / norm
                if d > 1.0:
                    d = 1.0
                s = (m & qmask).bit_count()
                t = s / (length + qlen - s) if s else 0.0
                push_score(ws * (1.0 - d) + wt * t)
        elif code == "dice":
            for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
                d = hypot(x - qx, y - qy) / norm
                if d > 1.0:
                    d = 1.0
                s = (m & qmask).bit_count()
                t = 2.0 * s / (length + qlen) if s else 0.0
                push_score(ws * (1.0 - d) + wt * t)
        else:
            for x, y, m, length in zip(self._xs, self._ys, self._masks, self._lens):
                d = hypot(x - qx, y - qy) / norm
                if d > 1.0:
                    d = 1.0
                s = (m & qmask).bit_count()
                t = s / min(length, qlen) if s else 0.0
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
    ) -> list[tuple[float, int]]:
        """The best ``k`` live rows as ``(−score, oid)`` pairs, merge-ready.

        ``(−score, oid)`` ascending is exactly the oracle's
        ``(score desc, oid asc)`` order, so candidate lists from
        different shards merge with plain heap selection.  ``floor``,
        when given, is an *inclusive* score cut: the answer is the top
        ``k`` minus every pair scoring below it (a pair tying the floor
        still competes on oid), which is what a scatter that already
        holds ``k`` candidates needs from a later shard.

        Answered from the kernel's :class:`~repro.core.scanindex.ScanIndex`
        — only the rows that can still reach the running k-th score are
        scored — with the reference semantics
        ``nsmallest(k, zip(map(neg, scalar_scores(…)), oids))`` over the
        live rows.  This is the one scan the scatter runs, through
        :meth:`ShardedEngine._scan_shard`.

        The index is built on first use (:meth:`_built_scan_index`).
        """
        index, builds = self._built_scan_index()
        pairs, rows_scored, columns = index.scan(k, qx, qy, qmask, qlen, ws, wt, floor)
        self.stats.record(
            scan_calls=1, scan_rows_scored=rows_scored,
            scan_columns_visited=columns, scan_index_builds=builds,
        )
        return pairs

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
                self.model_code, self._normaliser, self._xs, self._ys,
                self._masks, self._lens, self._oids, self.live_row_list(),
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
        """``(a, b) = (1 − SDist, TSim)`` under ``query`` of the rows that
        can reach ``targets`` (live oids): per ``b`` level, their sorted
        proximities and oids.  The targets' own ``(a, b)`` set the floors
        (see :class:`DualView`), and the scan index scores only the rows
        inside the proximity floor's disk or in a (shared keywords, doc
        length) bucket whose TSim reaches the TSim floor
        (:meth:`ScanIndex.undominated`) — the two range queries of
        Section 3.3, not a pass over every row.  A target with TSim 0
        keeps every live row.
        """
        faults.check_deadline()
        if not targets:
            raise ValueError("a dual view needs at least one target")
        qx, qy, qmask, qlen, _ws, _wt = self._query_scalars(query)
        own = self._dual_rows(targets, qx, qy, qmask, qlen)
        a_floor = min(a for _, a, _, _ in own) - SKIP_MARGIN
        b_floor = min(b for _, _, _, b in own) - SKIP_MARGIN
        index, builds = self._built_scan_index()
        kept, scored = index.undominated(qx, qy, qmask, qlen, a_floor, b_floor)
        self.stats.record(dual_views=1, dual_view_rows=scored, scan_index_builds=builds)
        duals = {oid: (a, b) for oid, a, _, b in own}
        return DualView(self, (qx, qy, qmask, qlen), kept, duals, a_floor, b_floor)

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
            normaliser=self._normaliser, model_code=self.model_code,
        )

    def dual_points_all(self, query: SpatialKeywordQuery) -> "list[DualPoint]":
        """Every live object's :class:`DualPoint`, in row order — matches
        ``Scorer.dual_points``: the reference arms' one pass."""
        from repro.core.scoring import DualPoint

        qx, qy, qmask, qlen, _ws, _wt = self._query_scalars(query)
        columns = zip(self._xs, self._ys, self._masks, self._lens, self._oids)
        rows = score_delta_rows(
            compress(columns, self._alive), qx, qy, qmask, qlen, 1.0, 0.0,
            normaliser=self._normaliser, model_code=self.model_code,
        )
        points = [DualPoint(oid, a, b) for oid, a, _sdist, b in rows]
        self.stats.record(dual_views=1, dual_view_rows=len(points))
        return points

    def count_closer(
        self, view: DualView, query: SpatialKeywordQuery, raw_distance: float
    ) -> int:
        """Live objects with raw distance to ``query.loc`` ``< raw_distance``.

        Read off ``view``, this kernel's :meth:`dual_view` of ``query``,
        which holds every row at or above its ``a_floor`` (a farther
        radius raises ``ValueError``).  ``a = 1 − min(d / norm, 1)`` (the
        expression there, restated below) is float-monotone non-increasing
        in the raw distance ``d``: a division by a positive constant, a
        clamp and a subtraction from a constant are each monotone.  So a
        row whose proximity is strictly larger than the radius's lies
        strictly closer, one with a smaller proximity strictly farther
        (two bisects per TSim level), and only the run at exactly that
        proximity (every clamped row when it is 0) is compared exactly.
        """
        proximity = 1.0 - min(raw_distance / self._normaliser, 1.0)
        if proximity < view.a_floor:
            raise ValueError(f"distance {raw_distance} is beyond this dual view")
        qx = query.loc.x
        qy = query.loc.y
        xs, ys, row_of = self._xs, self._ys, self._row_of
        hypot = math.hypot
        closer = 0
        for _, proximities, oids in view._levels:
            above = bisect_right(proximities, proximity)
            closer += len(proximities) - above
            for oid in oids[bisect_left(proximities, proximity, 0, above) : above]:
                row = row_of[oid]
                if hypot(xs[row] - qx, ys[row] - qy) < raw_distance:
                    closer += 1
        return closer

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
