"""The why-not context without a dual view, and the explanation's two scans.

The reference arms work from every object's dual point (Section 3.3:
"transform each object into a segment in a two-dimensional weight
plane"), on the set path too and for missing objects that are not the
database's own copies.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import DualPoint, Scorer
from repro.whynot.context import WhyNotContext
from repro.whynot.explanation import ExplanationGenerator

__all__ = ["ViewlessContext", "ScanExplanationGenerator", "set_path_scorer"]


def set_path_scorer(scorer: Scorer) -> Scorer:
    """The reference classes' scorer check: any scorer will do."""
    return scorer


class ViewlessContext(WhyNotContext):
    """A :class:`WhyNotContext` over every object's dual point.

    Initial ranks come from :meth:`Scorer.rank_of`, which scores the
    missing objects as passed, and dual points from
    :meth:`Scorer.dual_points`.  Its ``view`` is never read.
    """

    __slots__ = ("_duals", "_dual_of")

    def __init__(
        self,
        scorer: Scorer,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
    ) -> None:
        self._duals: list[DualPoint] | None = None
        self._dual_of: dict[int, DualPoint] | None = None
        super().__init__(scorer, query, missing)

    def _check_served(self) -> None:
        """Any scorer and any missing objects will do."""

    def reweighted(self, query: SpatialKeywordQuery) -> "ViewlessContext":
        return ViewlessContext(self.scorer, query, self.missing)

    @property
    def duals(self) -> list[DualPoint]:
        """Every object's dual point."""
        if self._duals is None:
            self._duals = self.scorer.dual_points(self.query)
        return self._duals

    def dual_points_of(self, oids: Sequence[int]) -> list[DualPoint]:
        self._dual_of = self._dual_of or {dual.oid: dual for dual in self.duals}
        return list(map(self._dual_of.__getitem__, oids))

    def _ranks_at_query(self) -> Mapping[int, int]:
        return {obj.oid: self.scorer.rank_of(obj, self.query) for obj in self.missing}


class ScanExplanationGenerator(ExplanationGenerator):
    """The explanation generator counting with two database scans
    instead of the dual view's popcounts — same answers."""

    _checked = staticmethod(set_path_scorer)

    def _new_context(
        self, query: SpatialKeywordQuery, missing: Sequence[SpatialObject]
    ) -> WhyNotContext:
        return ViewlessContext(self._scorer, query, missing)

    def _component_counts(
        self, context: WhyNotContext, raw_distance: float, tsim: float
    ) -> tuple[int, int]:
        query = context.query
        database = self._scorer.database
        closer = sum(
            1 for other in database
            if other.loc.distance_to(query.loc) < raw_distance
        )
        more_similar = sum(
            1 for other in database
            if self._scorer.tsim(other, query.doc) > tsim
        )
        return closer, more_similar
