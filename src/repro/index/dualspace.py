"""Dual-space index for the preference-adjustment module.

Section 3.3 of the paper: "The basic idea is to transform each object
into a segment in a two-dimensional weight plane. ... We use two range
queries to find the segments that intersect with the missing objects'
segments and compute all the intersection points."

Under a fixed query location and keyword set, every object ``o`` is the
dual point ``(a_o, b_o) = (1 − SDist(o, q), TSim(o, q))`` and its score
is the line ``f_o(w) = w·a_o + (1−w)·b_o`` over the spatial weight
``w ∈ (0, 1)`` — the weight-plane segment.  Two score lines cross inside
the open interval exactly when one object is spatially closer but
textually less similar than the other, i.e. when the dual points sit in
*opposite open quadrants* of each other:

``crosses(o, m) ⇔ (a_o − a_m)(b_o − b_m) < 0``

so the objects whose segments intersect a missing object's segment are
retrieved by two axis-aligned range queries around ``(a_m, b_m)`` — the
upper-left and lower-right open quadrants of the unit square.  This
module serves those two range queries with an R-tree over the dual
points (and a linear-scan fallback used by the E8 ablation benchmark).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.geometry import Point, Rect
from repro.core.scoring import DualPoint
from repro.index.rtree import RTree

__all__ = ["DualSpaceIndex"]


class DualSpaceIndex:
    """R-tree over the dual points of all database objects for one query.

    The index is built per (query location, keyword set) pair — the dual
    coordinates change with both — which mirrors the paper's design where
    the why-not engine runs against the cached initial query
    (Section 3.3: "The server caches users' initial spatial keyword
    queries").
    """

    def __init__(
        self, dual_points: Iterable[DualPoint], *, max_entries: int = 32
    ) -> None:
        self._points: tuple[DualPoint, ...] = tuple(dual_points)
        self._tree: RTree[DualPoint] = RTree.bulk_load(
            self._points,
            key=lambda dual: Point(dual.a, dual.b),
            max_entries=max_entries,
        )

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[DualPoint, ...]:
        return self._points

    # ------------------------------------------------------------------
    # The two range queries of Section 3.3
    # ------------------------------------------------------------------
    def crossing_candidates(self, missing: DualPoint) -> list[DualPoint]:
        """Objects whose score lines cross ``missing``'s inside (0, 1).

        Issues the two quadrant range queries and filters to the strict
        inequalities (points on the axes produce parallel-order lines
        that never change relative rank — see module docstring).
        """
        # Upper-left quadrant: textually more similar, spatially farther.
        upper_left = Rect(0.0, missing.b, missing.a, 1.0)
        # Lower-right quadrant: spatially closer, textually less similar.
        lower_right = Rect(missing.a, 0.0, 1.0, missing.b)
        candidates: list[DualPoint] = []
        seen: set[int] = set()
        for window in (upper_left, lower_right):
            for dual in self._tree.range_search(window):
                if dual.oid in seen:
                    continue
                if (dual.a - missing.a) * (dual.b - missing.b) < 0.0:
                    seen.add(dual.oid)
                    candidates.append(dual)
        return candidates

    @staticmethod
    def crossing_candidates_linear(
        points: Sequence[DualPoint], missing: DualPoint
    ) -> list[DualPoint]:
        """Linear-scan reference used as the E8 ablation baseline."""
        return [
            dual
            for dual in points
            if (dual.a - missing.a) * (dual.b - missing.b) < 0.0
        ]

    # ------------------------------------------------------------------
    # The sweep's counts at w → 0+ (linear, as the view-less arms need)
    # ------------------------------------------------------------------
    @staticmethod
    def strictly_above_at_zero(missing: DualPoint, points: Sequence[DualPoint]) -> int:
        """Objects strictly outranking ``missing`` as ``w → 0+``.

        At the textual end of the weight range order is decided by ``b``
        (TSim), with the line slope — equivalently ``a`` — as the
        tie-break among lines meeting at ``w = 0``.
        """
        return sum(
            dual.oid != missing.oid
            and (dual.b > missing.b or (dual.b == missing.b and dual.a > missing.a))
            for dual in points
        )

    @staticmethod
    def permanent_ties_smaller(missing: DualPoint, points: Sequence[DualPoint]) -> int:
        """Objects with an identical score line and a smaller object id.

        Such objects tie with ``missing`` at every weight and beat it
        under the deterministic (score desc, oid asc) order.
        """
        return sum(
            dual.oid < missing.oid and dual.a == missing.a and dual.b == missing.b
            for dual in points
        )
