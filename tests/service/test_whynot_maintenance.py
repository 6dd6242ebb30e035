"""Why-not cache maintenance is engine-free: carry the intervals or evict.

``WhyNotExecutor`` repairs a cached ``explain`` answer from the batch's
delta rows alone.  Its viable weight intervals carry over exactly when
no delta row can ever outrank the missing object
(:meth:`repro.core.scoring.DualPoint.never_outranks`); any other row
evicts the entry and the next fetch recomputes cold.  Either way the
served answer equals a cold ``engine.answer_whynot``.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point, Rect
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import DualPoint
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor, WhyNotQuestion
from repro.whynot.preference import PreferenceAdjuster

QUERY = SpatialKeywordQuery(loc=Point(0.5, 0.5), doc=frozenset({"a", "b"}), k=2)
MISSING = 10
WEAK_DOC = frozenset({"a", "x", "y", "w"})  # TSim 1/5 < the missing object's 1/3


def obj(oid, x, y, *doc):
    return SpatialObject(oid, Point(x, y), frozenset(doc))


def build():
    """Top-2 = {0, 1}; object 10 ranks third and a small enough spatial
    weight alone revives it (object 1 is close but a poor match)."""
    objects = [
        obj(0, 0.5, 0.5, "a", "b"),
        obj(1, 0.5, 0.5, "a", "p", "q", "r"),
        obj(MISSING, 0.7, 0.5, "a", "c"),
        obj(3, 0.95, 0.6, *WEAK_DOC),  # farther and less similar than 10
        obj(4, 0.55, 0.5, *WEAK_DOC),  # closer but less similar than 10
        obj(6, 0.1, 0.1, "z"),
        obj(7, 0.9, 0.1, "z", "y"),
        obj(8, 0.1, 0.9, "x"),
    ]
    engine = YaskEngine(
        SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0)),
    )
    topk = QueryExecutor(engine, cache_capacity=8, skyband_delta=2)
    return engine, topk, WhyNotExecutor(engine, topk, cache_capacity=16)


def close(engine, topk, whynot):
    whynot.close()
    topk.close()
    engine.close()


EXPLAIN = WhyNotQuestion(query=QUERY, missing=(MISSING,), model="explain")

#: mutation → does the cached answer survive the batch (patched)?
EDGES = {
    "dominated insert": (Mutation.insert(obj(20, 0.95, 0.5, *WEAK_DOC)), True),
    "dominated delete": (Mutation.delete(3), True),
    "closer but less similar": (
        Mutation.insert(obj(20, 0.6, 0.5, *WEAK_DOC)),
        False,
    ),
    "closer but less similar, deleted": (Mutation.delete(4), False),
    "more similar but farther": (
        Mutation.insert(obj(20, 1.0, 1.0, "a", "b", "c")),
        False,
    ),
    "same line, larger oid": (Mutation.insert(obj(50, 0.7, 0.5, "a", "c")), True),
    "same line, smaller oid": (Mutation.insert(obj(5, 0.7, 0.5, "a", "c")), False),
}


@pytest.mark.parametrize("edge", EDGES)
def test_intervals_carry_or_entry_is_evicted(edge):
    mutation, carried = EDGES[edge]
    engine, topk, whynot = build()
    try:
        first = whynot.execute(EXPLAIN).answer
        assert first.explanations[0].rank == 3
        assert first.explanations[0].viable_ws_intervals  # non-trivial

        report = engine.apply_mutations([mutation])
        tally = topk.maintain(report.change)
        assert (tally["linked_patched"], tally["linked_dropped"]) == (
            (1, 0) if carried else (0, 1)
        )
        after = whynot.execute(EXPLAIN)
        assert after.source == ("cache" if carried else "engine")
        assert after.answer == engine.answer_whynot(EXPLAIN)
    finally:
        close(engine, topk, whynot)


def test_maintain_never_calls_the_engine(monkeypatch):
    engine, topk, whynot = build()
    try:
        for missing in (MISSING, 3, 4, 6, 7):
            for model in ("explain", "preference"):
                whynot.execute(
                    WhyNotQuestion(query=QUERY, missing=(missing,), model=model)
                )

        def refuse(*args, **kwargs):
            raise AssertionError("maintenance recomputed weight intervals")

        monkeypatch.setattr(PreferenceAdjuster, "viable_weight_intervals", refuse)
        dual_views = engine.kernel.stats.to_dict()["dual_views"]
        # Carried edges first, so later batches still find entries to repair.
        for mutation, _ in sorted(EDGES.values(), key=lambda edge: not edge[1]):
            if mutation.kind == "insert" and mutation.oid in engine.database:
                continue  # two edges reuse one fresh oid
            report = engine.apply_mutations([mutation])
            topk.maintain(report.change)
        assert whynot.stats().maintained_patched > 0
        assert engine.kernel.stats.to_dict()["dual_views"] == dual_views
    finally:
        close(engine, topk, whynot)


class TestNeverOutranks:
    """The comparator's edges, on the dual points themselves."""

    target = DualPoint(oid=10, a=0.8, b=0.3)

    @pytest.mark.parametrize(
        "other, expected",
        [
            (DualPoint(20, 0.7, 0.2), True),  # dominated
            (DualPoint(20, 0.8, 0.2), True),  # tied on one coordinate
            (DualPoint(20, 0.9, 0.2), False),  # closer, less similar
            (DualPoint(20, 0.7, 0.4), False),  # more similar, farther
            (DualPoint(20, 0.9, 0.4), False),  # dominates the target
            (DualPoint(20, 0.8, 0.3), True),  # same line, loses the tie
            (DualPoint(5, 0.8, 0.3), False),  # same line, wins the tie
        ],
    )
    def test_edges(self, other, expected):
        assert other.never_outranks(self.target) is expected

    def test_tie_rule_is_the_one_the_rank_order_uses(self):
        small, large = DualPoint(5, 0.8, 0.3), DualPoint(10, 0.8, 0.3)
        assert small.wins_ties_against(large)
        assert not large.wins_ties_against(small)
        # ... and the float comparator of the preference sweep agrees.
        assert PreferenceAdjuster._beats(small, large, 0.5)
        assert not PreferenceAdjuster._beats(large, small, 0.5)
