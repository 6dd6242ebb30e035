"""Core query model: geometry, objects, scoring (Eqn. 1), top-k engines.

The public names here are the vocabulary of the whole library: build a
:class:`SpatialDatabase` of :class:`SpatialObject`, pose a
:class:`SpatialKeywordQuery`, and evaluate it with a
:class:`Scorer`-backed engine from :mod:`repro.core.topk`.
"""

from repro.core.geometry import EPSILON, Point, Rect
from repro.core.kernel import KernelStats, ScoringKernel
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import (
    DEFAULT_WEIGHTS,
    QueryResult,
    RankedObject,
    SpatialKeywordQuery,
    Weights,
)
from repro.core.scoring import DualPoint, ScoreBreakdown, Scorer
from repro.core.sharding import (
    PARTITIONERS,
    Shard,
    ShardRouter,
    ShardStats,
    grid_partition,
    round_robin_partition,
)
from repro.core.topk import (
    BestFirstTopK,
    BruteForceTopK,
    KernelTopK,
    SearchStats,
    SpatioTextualIndex,
    TopKEngine,
)

__all__ = [
    "EPSILON",
    "Point",
    "Rect",
    "KernelStats",
    "ScoringKernel",
    "SpatialDatabase",
    "SpatialObject",
    "DEFAULT_WEIGHTS",
    "QueryResult",
    "RankedObject",
    "SpatialKeywordQuery",
    "Weights",
    "DualPoint",
    "ScoreBreakdown",
    "Scorer",
    "PARTITIONERS",
    "Shard",
    "ShardRouter",
    "ShardStats",
    "grid_partition",
    "round_robin_partition",
    "BestFirstTopK",
    "BruteForceTopK",
    "KernelTopK",
    "SearchStats",
    "SpatioTextualIndex",
    "TopKEngine",
]
