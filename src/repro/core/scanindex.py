"""The top-k scan index: score the rows that can still win.

A cold top-k used to score every row of a kernel and keep the best
``k``.  Against the final k-th score only a few dozen rows of a
20 000-row database can still win, so :class:`ScanIndex` finds those
and scores nothing else (docs/ARCHITECTURE.md, "Top-k is an index, not
a scan"):

* Rows are laid out in **x-quantile columns** of ``_COLUMN_ROWS`` rows,
  y-sorted inside each column; a row's *position* is its place in that
  order.  The index owns position-ordered x, y and oid columns, so a
  scan never touches the kernel and a kernel compaction only renumbers
  the row → position map.
* Per vocabulary bit one Python big-int **bitmap** over the positions
  (the kernel's row-major doc masks, transposed), per doc length one
  more, and an ``alive`` bitmap.  A query folds them, with a handful of
  C-speed big-int AND/ORs, into **buckets** of one exact TSim: (shared
  keywords, doc length) pairs, equal TSims merged.
* A bucket holding no more rows than the columns its reach spans is
  *peeled*: scored outright, best TSim first, before any column is
  walked.
* Columns are walked outward from the query, the other buckets best
  TSim first.  The current k-th score θ becomes a y-interval: a row of
  a bucket with TSim ``t`` can still win only within distance
  ``norm · (1 − (θ − SKIP_MARGIN − wt·t) / ws)`` of the query, two
  bisects and a shift-and-mask, and the first bucket out of reach ends
  the column.  Only the set bits are scored, on proximity plus the
  bucket's text term: :func:`score_delta_rows`' floats, bit for bit.

The same column walk counts a disk around the query without scoring it
(:meth:`ScanIndex.disk`): a y-run whose rectangle lies wholly inside is
a range of positions, and only the rows near the circle need a
``hypot``.  A why-not question's dual view counts and widens its TSim
levels with it (:class:`repro.core.kernel.DualView`).

This module sits *below* the kernel (which imports it) and holds no
reference back to one: the row-level primitives the index shares with
the kernel and the shard bounds — :func:`score_delta_rows`,
:func:`tsim_from_counts`, :func:`tsim_upper_bound`, ``SKIP_MARGIN`` —
live here for that reason.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from heapq import heappush, heapreplace
from typing import Iterable, Iterator, Sequence

from repro.core.hotpath import hot_path

__all__ = [
    "SKIP_MARGIN",
    "ScanIndex",
    "bit_positions",
    "score_delta_rows",
    "tsim_from_counts",
    "tsim_upper_bound",
]

#: Defensive margin for skip decisions built on distance bounds:
#: ``math.hypot`` is faithful (≤ 1 ulp ≈ 2e-16 here) rather than exactly
#: monotone, so a skip requires the bound to sit this far below the
#: threshold.  It is taken on the *score* side (θ − margin), where every
#: quantity is at most 1, so it dominates the rounding of any bound
#: derived from it whatever the dataspace's units.  Pruning power loss
#: is negligible; unsafe skips impossible.
SKIP_MARGIN = 1e-12

#: Rows per x-quantile column.  A constant, not a knob: small enough
#: that a column's y-interval is a short run, large enough that a scan
#: walks tens of columns, not thousands.
_COLUMN_ROWS = 256

#: Inserts land in an unsorted tail that every scan covers at distance
#: bound 0; the kernel drops the index (the next scan rebuilds it) once
#: the tail outgrows ``max(_COLUMN_ROWS, built // _TAIL_DIVISOR)`` rows.
_TAIL_DIVISOR = 8


def score_delta_rows(
    rows: Iterable[tuple[float, float, int, int, int]],
    qx: float,
    qy: float,
    qmask: int,
    qlen: int,
    ws: float,
    wt: float,
    *,
    normaliser: float,
    model_code: str,
) -> list[tuple[int, float, float, float]]:
    """Score pre-encoded rows against prepared query scalars.

    ``(oid, score, sdist, tsim)`` per ``(x, y, mask, doc_len, oid)``
    row — the same hypot / diagonal division / clamp / convex
    combination as :meth:`ScoringKernel.components_all`, so the floats
    are bit-identical to what a full column pass (or
    ``Scorer.breakdown``) produces for the same object.

    The one row-at-a-time scorer for rows given by value: the
    cache-maintenance tier scores a mutation batch's added and removed
    rows (:class:`repro.core.mutations.BatchSummary`) against each
    cached query's scalars through it, and the kernel scores single
    rows (``KernelQuery.score_row``, a dual view's targets) with it.
    :meth:`ScanIndex.scan` repeats its expression inline.  Deliberately
    a pure module-level function — no kernel instance, no stats bump,
    no lock — so it is safe to call while holding a cache leaf lock.
    """
    hypot = math.hypot
    out: list[tuple[int, float, float, float]] = []
    push = out.append
    if model_code == "jaccard":
        for x, y, m, length, oid in rows:
            d = hypot(x - qx, y - qy) / normaliser
            if d > 1.0:
                d = 1.0
            s = (m & qmask).bit_count()
            t = s / (length + qlen - s) if s else 0.0
            push((oid, ws * (1.0 - d) + wt * t, d, t))
    elif model_code == "dice":
        for x, y, m, length, oid in rows:
            d = hypot(x - qx, y - qy) / normaliser
            if d > 1.0:
                d = 1.0
            s = (m & qmask).bit_count()
            t = 2.0 * s / (length + qlen) if s else 0.0
            push((oid, ws * (1.0 - d) + wt * t, d, t))
    elif model_code == "overlap":
        for x, y, m, length, oid in rows:
            d = hypot(x - qx, y - qy) / normaliser
            if d > 1.0:
                d = 1.0
            s = (m & qmask).bit_count()
            t = s / min(length, qlen) if s else 0.0
            push((oid, ws * (1.0 - d) + wt * t, d, t))
    else:
        raise ValueError(f"unknown kernel model code: {model_code!r}")
    return out


def tsim_upper_bound(
    model_code: str, shared: int, qlen: int, min_doc_len: int
) -> float:
    """``max TSim(o, q)`` over docs sharing at most ``shared`` query keywords.

    With ``m = shared`` and ``ℓ = min_doc_len`` (no doc is shorter;
    a smaller ``ℓ`` than the truth only loosens the bound):

    * Jaccard: ``s/(|o| + qlen − s)`` is maximised at ``s = m`` and
      ``|o| = max(ℓ, m)`` → ``m / (max(ℓ, m) + qlen − m)``.
    * Dice: ``2s/(|o| + qlen)`` → ``2m / (max(ℓ, m) + qlen)``.
    * Overlap: reaches 1 whenever some doc could sit inside the shared
      keywords (``m ≥ ℓ``); otherwise ``m / min(ℓ, qlen)``.

    Each bound is one correctly-rounded division of exact integers,
    non-decreasing in ``m``, so float monotonicity against the kernel's
    per-object values is exact — no margin needed on the text term.
    The one text bound: shard skipping (``Shard.tsim_upper_bound``) and
    batch impact tests (``BatchSummary.tsim_upper_bound``) call it.
    """
    if shared == 0 or qlen == 0:
        return 0.0
    floor_len = max(min_doc_len, shared)
    if model_code == "jaccard":
        return shared / (floor_len + qlen - shared)
    if model_code == "dice":
        return 2.0 * shared / (floor_len + qlen)
    if shared >= min_doc_len:
        return 1.0
    return min(1.0, shared / min(min_doc_len, qlen))


def tsim_from_counts(model_code: str, shared: int, doc_len: int, qlen: int) -> float:
    """TSim of a ``doc_len``-keyword doc sharing ``shared`` keywords with
    a ``qlen``-keyword query: :func:`score_delta_rows`' expression, so
    its float.  The kernel's per-row TSim and the scan index's per-bucket
    one (:meth:`ScanIndex.buckets`) both call it."""
    if shared == 0:
        return 0.0
    if model_code == "jaccard":
        return shared / (doc_len + qlen - shared)
    if model_code == "dice":
        return 2.0 * shared / (doc_len + qlen)
    return shared / min(doc_len, qlen)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, each as an isolated power of two."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


#: ``_BYTE_BITS[byte]``: the offsets of the set bits of ``byte``, ascending.
_BYTE_BITS = [[bit for bit in range(8) if byte >> bit & 1] for byte in range(256)]


def bit_positions(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, isolated from the top down
    (each step shortens the mask): for the sparse masks of a peeled
    bucket or a view's disk, cheaper than :func:`_positions`' pass over
    every byte below the highest bit."""
    out: list[int] = []
    push = out.append
    while mask:
        top = mask.bit_length() - 1
        push(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _positions(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending: a table lookup per byte from
    the lowest set one, where isolating them one by one (:func:`_bits`)
    costs O(width / 64) each."""
    if not mask:
        return []
    start = (mask & -mask).bit_length() - 1
    data = (mask >> start).to_bytes((mask.bit_length() - start + 7) >> 3, "little")
    return [
        base + bit
        for base, byte in zip(range(start, start + (len(data) << 3), 8), data)
        if byte
        for bit in _BYTE_BITS[byte]
    ]


def _y_run(
    ys: Sequence[float], start: int, stop: int, qy: float, radius: float, gap: float
) -> tuple[int, int]:
    """``[lo, hi)``: the y-sorted column ``[start, stop)`` cut to the rows
    within ``radius`` of the query, the column ``gap`` away in x (qy ∓ reach
    round monotonically, so the float interval holds the real one)."""
    reach = math.sqrt(radius * radius - gap * gap)
    lo = bisect_left(ys, qy - reach, start, stop)
    return lo, bisect_right(ys, qy + reach, lo, stop)


class ScanIndex:
    """Bit-sliced spatial-keyword index over one kernel's live rows.

    Built from a kernel's columns and maintained by the kernel's
    ``apply_mutations`` in O(batch): :meth:`delete` clears an ``alive`` bit,
    :meth:`append` adds to the unsorted tail, :meth:`compact` follows a
    kernel compaction.  The keyword and length bitmaps keep dead
    positions, which every derived set loses to ``alive``, and
    positions never move.
    """

    __slots__ = (
        "_model_code",
        "_normaliser",
        "_built",
        "_xs",
        "_ys",
        "_oids",
        "_pos_of_row",
        "_col_min_x",
        "_col_max_x",
        "_bitmaps",
        "_length_bitmaps",
        "_alive",
    )

    def __init__(
        self,
        model_code: str,
        normaliser: float,
        xs: Sequence[float],
        ys: Sequence[float],
        masks: Sequence[int],
        lens: Sequence[int],
        oids: Sequence[int],
        live_rows: Sequence[int],
    ) -> None:
        """Index ``live_rows`` (kernel row numbers) of the given columns,
        copying what it needs into position order."""
        self._model_code = model_code
        self._normaliser = normaliser
        by_x = sorted(live_rows, key=xs.__getitem__)
        built = len(by_x)
        order: list[int] = []
        col_min_x = array("d")
        col_max_x = array("d")
        for start in range(0, built, _COLUMN_ROWS):
            column = by_x[start : start + _COLUMN_ROWS]
            col_min_x.append(xs[column[0]])
            col_max_x.append(xs[column[-1]])
            column.sort(key=ys.__getitem__)
            order += column
        self._built = built
        self._col_min_x = col_min_x
        self._col_max_x = col_max_x
        self._xs = array("d", map(xs.__getitem__, order))
        self._ys = array("d", map(ys.__getitem__, order))
        self._oids = array("q", map(oids.__getitem__, order))
        #: Kernel row → position (−1 for rows dead at build time).
        pos_of_row = array("q", [-1]) * len(xs)
        for pos, row in enumerate(order):
            pos_of_row[row] = pos
        self._pos_of_row = pos_of_row
        # Transpose the doc masks: one byte plane per vocabulary bit
        # (keyed by the isolated bit itself, which is what iterating a
        # query mask yields) and one per doc length, set bit by bit,
        # then frozen to an int.
        plane_bytes = (built + 7) // 8
        planes: dict[int, bytearray] = {}
        length_planes: dict[int, bytearray] = {}
        doc_masks = map(masks.__getitem__, order)
        doc_lens = map(lens.__getitem__, order)
        for pos, (mask, length) in enumerate(zip(doc_masks, doc_lens)):
            byte = pos >> 3
            bit = 1 << (pos & 7)
            for low in _bits(mask):
                plane = planes.get(low)
                if plane is None:
                    plane = planes[low] = bytearray(plane_bytes)
                plane[byte] |= bit
            plane = length_planes.get(length)
            if plane is None:
                plane = length_planes[length] = bytearray(plane_bytes)
            plane[byte] |= bit
        self._bitmaps = {
            low: int.from_bytes(plane, "little") for low, plane in planes.items()
        }
        self._length_bitmaps = {
            length: int.from_bytes(plane, "little")
            for length, plane in length_planes.items()
        }
        self._alive = (1 << built) - 1

    # ------------------------------------------------------------------
    # Maintenance (driven by ScoringKernel.apply_mutations)
    # ------------------------------------------------------------------
    def delete(self, row: int) -> None:
        """Kernel row ``row`` was tombstoned: it can no longer win."""
        self._alive ^= 1 << self._pos_of_row[row]

    def append(self, x: float, y: float, mask: int, doc_len: int, oid: int) -> None:
        """The kernel appended a row: it joins the unsorted tail."""
        pos = len(self._xs)
        self._xs.append(x)
        self._ys.append(y)
        self._oids.append(oid)
        self._pos_of_row.append(pos)
        bit = 1 << pos
        self._alive |= bit
        bitmaps = self._bitmaps
        for low in _bits(mask):
            bitmaps[low] = bitmaps.get(low, 0) | bit
        lengths = self._length_bitmaps
        lengths[doc_len] = lengths.get(doc_len, 0) | bit

    def compact(self, surviving_rows: Sequence[int]) -> None:
        """The kernel renumbered its rows to ``surviving_rows``' order.

        Positions do not move — only the row → position map is re-keyed.
        """
        self._pos_of_row = array(
            "q", map(self._pos_of_row.__getitem__, surviving_rows)
        )

    @property
    def tail_overgrown(self) -> bool:
        """Whether the unsorted tail has outgrown its share of the build."""
        tail = len(self._xs) - self._built
        return tail > max(_COLUMN_ROWS, self._built // _TAIL_DIVISOR)

    # ------------------------------------------------------------------
    # The scan
    # ------------------------------------------------------------------
    def _exact_levels(self, qmask: int) -> list[int]:
        """``levels[s]``: live positions sharing exactly ``s`` query keywords.

        A counting fold over the query's keyword bitmaps builds the
        nested "≥ s shared" sets (``at_least[s] |= at_least[s−1] & b``);
        neighbours XOR to the exact sets.  Everything descends from
        ``alive``, so dead positions are in no level.
        """
        at_least = [self._alive]
        for low in _bits(qmask):
            bitmap = self._bitmaps.get(low)
            if bitmap is None:
                continue
            at_least.append(0)
            for s in range(len(at_least) - 1, 0, -1):
                at_least[s] |= at_least[s - 1] & bitmap
        at_least.append(0)
        return [at_least[s] ^ at_least[s + 1] for s in range(len(at_least) - 1)]

    def buckets(self, qmask: int, qlen: int) -> dict[float, int]:
        """``{tsim: positions}``, non-empty: each exact-shared-count level
        ANDed with each doc-length bitmap.  A non-empty bucket has
        ``s ≤ length``, so :func:`tsim_from_counts` gives its rows' own
        TSim float; equal TSims merge."""
        code = self._model_code
        unshared, *shared = self._exact_levels(qmask)
        buckets = {0.0: unshared} if unshared else {}
        for s, level in enumerate(shared, 1):
            if not level:
                continue
            for length, bitmap in self._length_bitmaps.items():
                bucket = level & bitmap
                if bucket:
                    tsim = tsim_from_counts(code, s, length, qlen)
                    buckets[tsim] = buckets.get(tsim, 0) | bucket
        return buckets

    def _columns_outward(self, qx: float) -> Iterator[tuple[int, float]]:
        """``(column, x-gap to qx)`` by non-decreasing gap, from qx's column."""
        min_x = self._col_min_x
        max_x = self._col_max_x
        last = len(min_x)
        if not last:
            return
        left = max(bisect_right(min_x, qx) - 1, 0)
        right = left + 1  # every column from here starts right of qx
        while left >= 0 or right < last:
            gap_left = (
                max(min_x[left] - qx, 0.0, qx - max_x[left])
                if left >= 0
                else math.inf
            )
            gap_right = min_x[right] - qx if right < last else math.inf
            if gap_left <= gap_right:
                yield left, gap_left
                left -= 1
            else:
                yield right, gap_right
                right += 1

    @hot_path
    def scan(
        self,
        k: int,
        qx: float,
        qy: float,
        qmask: int,
        qlen: int,
        ws: float,
        wt: float,
        floor: float | None,
    ) -> tuple[list[tuple[float, int, float, float]], int, int]:
        """``(best ≤ k (−score, oid, sdist, tsim) rows scoring ≥ floor,
        rows scored, columns walked)`` (the unsorted tail is not a column).

        Exactly the full scan's top ``k`` cut at the inclusive ``floor``:
        θ is the larger of the floor and the running k-th score, a row
        is passed over only when its score *bound* is below
        ``θ − SKIP_MARGIN``, and θ only rises — so every row that ends
        in the answer was scored, with the full scan's own arithmetic:
        ``ws · (1 − min(d, 1)) + wt · t`` with the bucket's ``wt · t``,
        the same two-operand sum as :func:`score_delta_rows`, whose
        ``d`` and ``t`` come back with the score.

        A bucket of no more rows than the columns its radius reaches is
        *peeled* before the walk, best text first: its rows are scored
        outright, wherever they lie, until the first bucket that cannot
        reach θ (nor can any after it).  The walk then serves the
        buckets left, and ends at the radius of the best of those.
        """
        if k < 1:
            return [], 0, 0
        norm = self._normaliser
        xs, ys, oids = self._xs, self._ys, self._oids
        built = self._built
        hypot = math.hypot
        buckets = self.buckets(qmask, qlen)

        heap: list[tuple[float, int, float, float]] = []  # min-heap: [0] is the k-th best
        scored = 0
        theta_m = -math.inf if floor is None else floor - SKIP_MARGIN

        def score(positions: Sequence[int], text: float, tsim: float) -> None:
            """Score one bucket's ``positions`` into the heap; raise θ."""
            nonlocal scored, theta_m
            scored += len(positions)
            for p in positions:
                d = hypot(xs[p] - qx, ys[p] - qy) / norm
                if d > 1.0:
                    d = 1.0
                row = (ws * (1.0 - d) + text, -oids[p])
                if len(heap) < k:
                    if floor is None or row[0] >= floor:
                        heappush(heap, (*row, d, tsim))
                elif row > heap[0]:
                    heapreplace(heap, (*row, d, tsim))
            if len(heap) == k:
                theta_m = heap[0][0] - SKIP_MARGIN

        # Buckets of one TSim, best first: (wt·TSim, TSim, positions).
        # wt ≥ 0, so the text terms do not increase down the list.
        min_x, max_x = self._col_min_x, self._col_max_x
        tiers = []
        for tsim in sorted(buckets, reverse=True):
            text, bucket = wt * tsim, buckets[tsim]
            need = theta_m - text
            opens = len(min_x)  # the columns the bucket's radius reaches
            if need > 0.0:
                if need > ws:
                    break  # out of reach, and so is every bucket after it
                radius = norm * (1.0 - need / ws)
                opens = bisect_right(min_x, qx + radius) - bisect_left(max_x, qx - radius)
            if bucket.bit_count() <= opens:
                score(bit_positions(bucket), text, tsim)
            else:
                tiers.append((text, tsim, bucket))

        def visit(start: int, stop: int, gap: float) -> None:
            """Score what can still win among positions ``[start, stop)``,
            all at least ``gap`` from the query."""
            for text, tsim, bucket in tiers:
                # A bucket row wins only with ws·proximity ≥ need, which
                # only grows down the tiers: the first miss ends the column.
                need = theta_m - text
                lo, hi = start, stop
                if need > 0.0:
                    if need > ws:
                        break
                    radius = norm * (1.0 - need / ws)
                    if gap > radius:
                        break
                    if start < built:  # a y-sorted column: cut to the run
                        lo, hi = _y_run(ys, start, stop, qy, radius, gap)
                positions = _positions(bucket & (((1 << (hi - lo)) - 1) << lo))
                if positions:
                    score(positions, text, tsim)

        columns = 0
        if tiers:
            best_text = tiers[0][0]
            for column, gap in self._columns_outward(qx):
                # Columns only get farther: once one is beyond the best
                # walked bucket's reach, so is every column still to come.
                need = theta_m - best_text
                if need > 0.0 and (need > ws or gap > norm * (1.0 - need / ws)):
                    break
                start = column * _COLUMN_ROWS
                visit(start, min(start + _COLUMN_ROWS, built), gap)
                columns += 1
            if len(ys) > built:
                visit(built, len(ys), 0.0)  # the unsorted tail: no distance bound
        heap.sort(reverse=True)
        return [
            (-score, -negoid, sdist, tsim) for score, negoid, sdist, tsim in heap
        ], scored, columns

    @hot_path
    def disk(
        self, qx: float, qy: float, a: float, *, split: bool = True
    ) -> tuple[int, int]:
        """``(inside, boundary)``: positions split by proximity
        ``1 − min(d, 1)`` against ``a``, in one walk of the columns.

        Every position in ``inside`` has proximity above
        ``a + SKIP_MARGIN / 4``; every position in neither is below
        ``a − SKIP_MARGIN / 4``; only ``boundary`` needs a ``hypot``.
        A column's y-run within the outer radius is split three ways:
        the middle run whose rectangle lies wholly inside the disk is
        ``inside`` when its farthest corner, in the scorer's own floats
        (each row's ``x − qx`` and ``y − qy`` are no larger in magnitude
        than the corner's, and ``hypot`` is faithful), clears ``a`` by
        half the margin — any closer call falls to ``boundary``, as do
        the run's two ends and the unsorted tail.  Dead positions are
        included: callers intersect with their own live set.  Without
        ``split`` every position goes to ``boundary``: a cover of the
        rows that may reach ``a``, walked with half the bisects.
        """
        norm = self._normaliser
        ys, built = self._ys, self._built
        everything = (1 << len(ys)) - 1
        if a < 0.0:  # every proximity is ≥ 0
            return everything, 0
        if a - SKIP_MARGIN >= 1.0:  # no proximity exceeds 1
            return 0, 0
        outer = norm * (1.0 - (a - SKIP_MARGIN))
        inner = norm * (1.0 - (a + SKIP_MARGIN))
        clear = a + SKIP_MARGIN / 2.0
        min_x, max_x = self._col_min_x, self._col_max_x
        hypot, sqrt = math.hypot, math.sqrt
        inside = 0
        near = ((1 << (len(ys) - built)) - 1) << built  # the tail
        for column, gap in self._columns_outward(qx):
            if gap > outer:
                break  # and so is every column still to come
            start = column * _COLUMN_ROWS
            lo, hi = _y_run(ys, start, min(start + _COLUMN_ROWS, built), qy, outer, gap)
            ilo = ihi = lo
            dx = max(abs(min_x[column] - qx), abs(max_x[column] - qx))
            if split and dx < inner:
                reach = sqrt(inner * inner - dx * dx)
                ilo = bisect_left(ys, qy - reach, lo, hi)
                ihi = bisect_right(ys, qy + reach, ilo, hi)
                if ilo < ihi:
                    d = hypot(dx, max(abs(ys[ilo] - qy), abs(ys[ihi - 1] - qy))) / norm
                    if 1.0 - (d if d < 1.0 else 1.0) <= clear:
                        ilo = ihi = lo
            inside |= ((1 << (ihi - ilo)) - 1) << ilo
            near |= (((1 << (ilo - lo)) - 1) << lo) | (((1 << (hi - ihi)) - 1) << ihi)
        if a < SKIP_MARGIN:  # a clamped row's proximity 0 is not below a
            return inside, everything & ~inside
        return inside, near

    @property
    def columns(self) -> int:
        """How many y-sorted columns the index walks (the tail aside)."""
        return len(self._col_min_x)

    def oids_at(self, positions: Sequence[int]) -> list[int]:
        """The oids at ``positions``."""
        return list(map(self._oids.__getitem__, positions))

    def proximities(self, positions: Sequence[int], qx: float, qy: float) -> list[float]:
        """``1 − min(d, 1)`` at each position: :func:`score_delta_rows`'
        score at weights ``(1, 0)``, bit for bit, without a call per row."""
        hypot = math.hypot
        norm = self._normaliser
        xs, ys = self._xs, self._ys
        return [
            1.0 - (d if d < 1.0 else 1.0)
            for d in [hypot(xs[p] - qx, ys[p] - qy) / norm for p in positions]
        ]
