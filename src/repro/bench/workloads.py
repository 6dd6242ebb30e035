"""Workload generation for the benchmarks and stress tests.

Two generators:

* :class:`QueryWorkload` — random but realistic spatial keyword top-k
  queries over a database: locations sampled near the data distribution
  (users query where objects are), keywords sampled from the database
  vocabulary biased towards frequent keywords (users ask for common
  facilities), plus the ``k`` and weights sweeps the experiments need.

* :func:`generate_whynot_scenarios` — well-posed why-not questions: for
  a query, the missing objects are drawn from ranks inside
  ``(k, k + rank_window]`` of the exact ranking, mirroring the paper's
  user who expects a *nearly*-returned object ("the Starbucks cafe down
  the street"), not an arbitrary bottom-ranked one.

:func:`first_view_reads` replays what a preference question first asks
of a fresh dual view, for the benchmarks that time a view.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from itertools import islice

from repro.core.geometry import Point
from repro.core.kernel import ScoringKernel
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import DEFAULT_WEIGHTS, SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.whynot.context import RankWalk

__all__ = [
    "QueryWorkload",
    "WhyNotScenario",
    "first_view_reads",
    "generate_whynot_scenarios",
]


class QueryWorkload:
    """Seeded generator of spatial keyword top-k queries."""

    def __init__(
        self,
        database: SpatialDatabase,
        *,
        seed: int = 123,
        k: int = 10,
        keywords_per_query: tuple[int, int] = (1, 3),
        weights: Weights = DEFAULT_WEIGHTS,
        location_jitter: float = 0.02,
        keyword_bias: str = "frequency",
    ) -> None:
        """
        ``keyword_bias`` selects how query keywords are drawn:
        ``"frequency"`` (document-frequency proportional — common
        facilities are queried more often, like real query logs) or
        ``"uniform"`` (every vocabulary keyword equally likely — rare
        keywords appear often, the favourable regime for set-bound
        pruning; E3 benchmarks both).
        """
        min_kw, max_kw = keywords_per_query
        if not (1 <= min_kw <= max_kw):
            raise ValueError(f"invalid keywords_per_query range {keywords_per_query}")
        if keyword_bias not in ("frequency", "uniform"):
            raise ValueError(f"unknown keyword_bias {keyword_bias!r}")
        self._database = database
        self._rng = random.Random(seed)
        self._k = k
        self._kw_range = (min_kw, max_kw)
        self._weights = weights
        self._jitter = location_jitter
        frequencies = database.keyword_document_frequencies()
        self._keywords = sorted(frequencies)
        if keyword_bias == "uniform":
            weights_list = [1.0] * len(self._keywords)
        else:
            weights_list = [float(frequencies[kw]) for kw in self._keywords]
        total = sum(weights_list)
        self._cumulative: list[float] = []
        running = 0.0
        for weight in weights_list:
            running += weight / total
            self._cumulative.append(running)

    def _sample_keyword(self) -> str:
        needle = self._rng.random()
        low, high = 0, len(self._cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < needle:
                low = mid + 1
            else:
                high = mid
        return self._keywords[low]

    def _sample_location(self) -> Point:
        anchor = self._database.objects[
            self._rng.randrange(len(self._database))
        ].loc
        space = self._database.dataspace
        dx = self._rng.gauss(0.0, self._jitter * max(space.width, 1e-12))
        dy = self._rng.gauss(0.0, self._jitter * max(space.height, 1e-12))
        return Point(
            min(max(anchor.x + dx, space.min_x), space.max_x),
            min(max(anchor.y + dy, space.min_y), space.max_y),
        )

    def next_query(self, *, k: int | None = None) -> SpatialKeywordQuery:
        """Generate the next query of the workload."""
        count = self._rng.randint(*self._kw_range)
        keywords: set[str] = set()
        attempts = 0
        while len(keywords) < count and attempts < count * 20:
            keywords.add(self._sample_keyword())
            attempts += 1
        return SpatialKeywordQuery(
            loc=self._sample_location(),
            doc=frozenset(keywords),
            k=k if k is not None else self._k,
            weights=self._weights,
        )

    def queries(self, count: int, *, k: int | None = None) -> Iterator[SpatialKeywordQuery]:
        for _ in range(count):
            yield self.next_query(k=k)


@dataclass(frozen=True, slots=True)
class WhyNotScenario:
    """A well-posed why-not question: query + genuinely missing objects."""

    query: SpatialKeywordQuery
    missing: tuple[SpatialObject, ...]
    #: Exact ranks of the missing objects under the query (diagnostics).
    missing_ranks: tuple[int, ...]

    @property
    def worst_rank(self) -> int:
        return max(self.missing_ranks)


def generate_whynot_scenarios(
    scorer: Scorer,
    *,
    count: int,
    k: int = 10,
    missing_count: int = 1,
    rank_window: int = 40,
    seed: int = 321,
    keywords_per_query: tuple[int, int] = (2, 3),
    weights: Weights = DEFAULT_WEIGHTS,
) -> list[WhyNotScenario]:
    """Generate ``count`` scenarios whose missing objects rank just outside k.

    Queries that cannot produce ``missing_count`` objects in the rank
    window (e.g. too few keyword matches) are skipped and regenerated;
    generation fails loudly rather than silently under-delivering.
    """
    workload = QueryWorkload(
        scorer.database,
        seed=seed,
        k=k,
        keywords_per_query=keywords_per_query,
        weights=weights,
    )
    rng = random.Random(seed + 1)
    scenarios: list[WhyNotScenario] = []
    attempts = 0
    max_attempts = count * 50
    while len(scenarios) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not generate {count} why-not scenarios in "
                f"{max_attempts} attempts (k={k}, window={rank_window})"
            )
        query = workload.next_query()
        ranking = scorer.rank_all(query)
        window = [
            entry
            for entry in ranking[k : k + rank_window]
            # Objects with zero textual similarity and far away make
            # degenerate "missing" objects nobody would expect; require
            # at least one matching keyword, like the paper's scenarios.
            if entry.tsim > 0.0
        ]
        if len(window) < missing_count:
            continue
        chosen = rng.sample(window, missing_count)
        scenarios.append(
            WhyNotScenario(
                query=query,
                missing=tuple(entry.obj for entry in chosen),
                missing_ranks=tuple(entry.rank for entry in chosen),
            )
        )
    return scenarios


def first_view_reads(
    kernel: ScoringKernel, query: SpatialKeywordQuery, oid: int, levels: int = 8
) -> tuple[int, int, list[list[float]]]:
    """A fresh dual view of ``query`` for ``oid``, asked what a
    preference question asks first: ``oid``'s rank at the query's
    weights, then its rank walk's ``levels`` crossovers nearest
    ``q.ws`` on each side.  ``(rank, the walk's rank at q.ws, [levels
    below q.ws, levels above])``; the two ranks agree."""
    view = kernel.dual_view(query, [oid])
    rank = view.ranks_at(query.ws, query.wt, [oid])[oid]
    (dual,) = view.dual_points_of([oid])
    start = 1 + view.strictly_above_at_zero(oid) + view.permanent_ties_smaller(oid)
    walk = RankWalk(
        dual, query.ws, view.crossing_runs(oid, query.ws), start, view.count_events
    )
    met = [list(islice(walk.levels(going_up), levels)) for going_up in (False, True)]
    return rank, walk.rank(query.ws), met
