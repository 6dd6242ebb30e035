"""Property-based tests for both why-not refinement models.

The why-not scenario is drawn adversarially by hypothesis: any database,
any query, any choice of missing objects outside the result.  Both
models must (a) revive every missing object and (b) never be beaten by
their baseline (sampling / exhaustive enumeration).
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import replace
from operator import attrgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import DualPoint, Scorer
from repro.core.topk import BruteForceTopK
from repro.index.kcrtree import KcRTree
from repro.whynot.baselines import SamplingPreferenceAdjuster, exhaustive_keyword_adapter
from repro.whynot.context import WhyNotContext
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.preference import PreferenceAdjuster

from tests.properties.strategies import databases_with_queries, docs, points, queries
from tests.whynot.sweep_reference import (
    reference_intervals,
    reference_refine,
    reference_sweep,
)


@st.composite
def whynot_cases(draw):
    """(database, query, missing objects, λ) with genuinely missing M."""
    database, query = draw(databases_with_queries(min_size=8, max_size=30))
    scorer = Scorer(database)
    ranking = scorer.rank_all(query)
    outside = ranking[query.k :]
    assume(len(outside) >= 1)
    missing_count = draw(st.integers(min_value=1, max_value=min(2, len(outside))))
    indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(outside) - 1),
            min_size=missing_count,
            max_size=missing_count,
            unique=True,
        )
    )
    missing = [outside[i].obj for i in indexes]
    lam = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return database, scorer, query, missing, lam


@settings(max_examples=40, deadline=None)
@given(whynot_cases())
def test_preference_refinement_revives_and_dominates_sampling(case):
    database, scorer, query, missing, lam = case
    adjuster = PreferenceAdjuster(scorer)
    refinement = adjuster.refine(query, missing, lam=lam)

    result = BruteForceTopK(scorer).search(refinement.refined_query)
    assert all(result.contains(m) for m in missing)

    sampler = SamplingPreferenceAdjuster(scorer, samples=60)
    sampled = sampler.refine(query, missing, lam=lam)
    assert refinement.penalty <= sampled.penalty + 1e-9

    # Penalty can never exceed the pure-k-enlargement fallback.
    assert refinement.penalty <= lam + 1e-12


def check_keyword_adaption(case):
    """Both bound-and-prune arms (the kernel's scan index, the KcR-tree
    descent) revive M and give the exhaustive enumeration's answer."""
    database, scorer, query, missing, lam = case
    exhaustive = exhaustive_keyword_adapter(scorer).refine(query, missing, lam=lam)
    tree = KcRTree.build(database, max_entries=4)
    for adapter in (KeywordAdapter(scorer), KeywordAdapter(scorer, tree)):
        refinement = adapter.refine(query, missing, lam=lam)

        result = BruteForceTopK(scorer).search(refinement.refined_query)
        assert all(result.contains(m) for m in missing)

        assert abs(refinement.penalty - exhaustive.penalty) <= 1e-12
        assert refinement.refined_query == exhaustive.refined_query
        assert refinement.refined_worst_rank == exhaustive.refined_worst_rank

        assert refinement.penalty <= lam + 1e-12


@settings(max_examples=30, deadline=None)
@given(whynot_cases())
def test_keyword_adaption_revives_and_matches_exhaustive(case):
    check_keyword_adaption(case)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(whynot_cases())
def test_keyword_adaption_revives_and_matches_exhaustive_deep(case):
    check_keyword_adaption(case)


@settings(max_examples=30, deadline=None)
@given(whynot_cases())
def test_reported_worst_rank_is_exact(case):
    database, scorer, query, missing, lam = case
    adjuster = PreferenceAdjuster(scorer)
    refinement = adjuster.refine(query, missing, lam=lam)
    assert refinement.refined_worst_rank == scorer.worst_rank(
        missing, refinement.refined_query
    )


@settings(max_examples=25, deadline=None)
@given(whynot_cases())
def test_combined_refinement_revives(case):
    from repro.whynot.combined import CombinedRefiner

    database, scorer, query, missing, lam = case
    refiner = CombinedRefiner(
        scorer, PreferenceAdjuster(scorer), KeywordAdapter(scorer)
    )
    refinement = refiner.refine(query, missing, lam=lam)
    result = BruteForceTopK(scorer).search(refinement.refined_query)
    assert all(result.contains(m) for m in missing)
    assert 0.0 <= refinement.penalty <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(whynot_cases())
def test_viable_intervals_consistent_with_oracle(case):
    from repro.core.query import Weights

    database, scorer, query, missing, lam = case
    adjuster = PreferenceAdjuster(scorer)
    intervals = adjuster.viable_weight_intervals(query, missing[0])
    for lo, hi in intervals:
        if hi - lo < 1e-9:
            continue
        mid = (lo + hi) / 2.0
        refined = query.with_weights(Weights.from_spatial(mid))
        assert scorer.rank_of(missing[0], refined) <= query.k


# ----------------------------------------------------------------------
# The preference front against the frozen exhaustive sweep
# ----------------------------------------------------------------------
#: The λ of E6 and the demo's slider ends, plus one drawn per case.
LAMBDAS = (0.0, 0.1, 0.5, 0.9, 1.0)

#: ``Weights`` accepts ``ws + wt = 1 ± 1e-6``; Δw is then not monotone
#: in ``|w − ws|`` right next to ``q.ws``.
SUM_SLACKS = st.sampled_from([0.0, 0.0, 1e-6, -1e-6, 4e-7, -4e-7, 1e-9, -1e-12])


class DualPointScorer:
    """A kernel-less scorer over drawn dual points: lines placed where no
    set-model database can put them (near-parallel ones crossing inside
    ``(0, 1)``).  The view-less arms read only ``dual_points``."""

    kernel = None

    def __init__(self, duals):
        self._duals = list(duals)

    def dual_points(self, query):
        return list(self._duals)


def nudged(value: float, steps: int) -> float:
    """``value`` moved ``steps`` ulps towards 0.5 (inside the unit square)."""
    for _ in range(steps):
        value = math.nextafter(value, 0.5)
    return value


def weights_at(ws: float, slack: float) -> Weights:
    """``(ws, 1 − ws + slack)``, or ``(ws, 1 − ws)`` where that is refused."""
    try:
        return Weights(ws, 1.0 - ws + slack)
    except ValueError:
        return Weights(ws, 1.0 - ws)


@st.composite
def crafted_databases(draw):
    """Objects plus exact copies (identical lines) and ulp-nudged copies,
    whose crossovers with a missing object sit ulps apart, so a float
    flip can land past the next crossover."""
    objects = [
        SpatialObject(oid=oid, loc=draw(points), doc=draw(docs))
        for oid in range(draw(st.integers(min_value=4, max_value=14)))
    ]
    for source in draw(st.lists(st.sampled_from(objects), max_size=4)):
        objects.append(SpatialObject(oid=len(objects), loc=source.loc, doc=source.doc))
    for source in draw(st.lists(st.sampled_from(objects), max_size=3)):
        for step in range(1, draw(st.integers(min_value=2, max_value=5))):
            loc = Point(nudged(source.loc.x, step), nudged(source.loc.y, step // 2))
            objects.append(SpatialObject(oid=len(objects), loc=loc, doc=source.doc))
    return SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0))


#: Pencil points: dyadic, anywhere, and ulps from either end of (0, 1),
#: where a float crossover can land outside the valid weights.
PENCIL_WEIGHTS = (
    st.sampled_from([0.25, 0.5, 0.625])
    | st.floats(min_value=0.01, max_value=0.99)
    | st.sampled_from([2.0**-60, 1e-17, 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52])
)


@st.composite
def crafted_duals(draw):
    """Dual points with identical lines, pencils of lines through one
    point of the missing object's line — near-parallel ones (slopes ulps
    to 1e-9 apart), through a dyadic point ones 1/16 apart that all
    cross it at exactly one weight from both sides, and through points
    ulps from w = 0 or 1 ones whose crossovers round out of the valid
    weights — and lines parallel to it at the TSim of a line that
    crosses it.  Object ids are shuffled so crossover ties go either
    way."""
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    dyadic = st.integers(min_value=0, max_value=16).map(lambda i: i / 16)
    m = draw(st.tuples(unit, unit) | st.tuples(dyadic, dyadic))
    lines = [m]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        lines.append((draw(unit), draw(unit)))
    lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    m_slope = m[0] - m[1]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        w_c = draw(PENCIL_WEIGHTS)
        height = w_c * m[0] + (1.0 - w_c) * m[1]
        step = draw(st.sampled_from([2.0**-52, 1e-14, 1e-13, 1e-12, 1e-9, 1 / 16]))
        for multiple in draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=5)):
            slope = m_slope + multiple * step
            b = height - w_c * slope
            lines.append((b + slope, b))
    crossing = [(a, b) for a, b in lines if (a - m[0]) * (b - m[1]) < 0.0]
    for _, b in draw(st.lists(st.sampled_from(crossing), max_size=2)) if crossing else ():
        lines.append((b + m_slope, b))
    oids = draw(st.permutations(range(len(lines))))
    return [
        DualPoint(oid, min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0))
        for oid, (a, b) in zip(oids, lines)
    ]


@st.composite
def front_cases(draw):
    """(adjuster, query, missing, λ) over a crafted database (kernel,
    set-path or linear arm) or drawn dual points (R-tree or linear)."""
    window = draw(st.sampled_from([1, 2, 16]))
    slack = draw(SUM_SLACKS)
    oid = attrgetter("oid")
    if draw(st.booleans()):
        database = draw(crafted_databases())
        scorer = Scorer(database, use_kernel=draw(st.booleans()))
        base = draw(queries())
        duals = scorer.dual_points(base)
        objects = list(database)
        missing = draw(
            st.lists(st.sampled_from(objects), min_size=1, max_size=3, unique_by=oid)
        )
    else:
        duals = draw(crafted_duals())
        scorer = DualPointScorer(duals)
        base = SpatialKeywordQuery(Point(0.0, 0.0), frozenset({"t0"}), 1)
        objects = [SpatialObject(d.oid, Point(0.0, 0.0), frozenset({"t0"})) for d in duals]
        # The pencils cross the first line drawn: it is missing.
        others = st.lists(st.sampled_from(objects[1:]), max_size=2, unique_by=oid)
        missing = [objects[0], *draw(others)]
    ws = draw(st.floats(min_value=0.02, max_value=0.98))
    if draw(st.booleans()):
        # A crossover exactly at q.ws.
        by_oid = {d.oid: d for d in duals}
        crossings = [
            w
            for d in duals
            if (w := by_oid[missing[0].oid].crossover_with(d)) is not None
            and PreferenceAdjuster._valid_weight(w)
        ]
        if crossings:
            ws = draw(st.sampled_from(crossings))
    query = replace(base, weights=weights_at(ws, slack))
    adjuster = PreferenceAdjuster(
        scorer, use_dual_index=draw(st.booleans()), verification_window=window
    )
    ranks = PreferenceAdjuster._ranks_at_weights(
        query.weights, [d for d in duals if d.oid in {m.oid for m in missing}], duals
    )
    worst = max(ranks.values())
    assume(worst > 1)
    query = query.with_k(draw(st.integers(min_value=1, max_value=worst - 1)))
    lam = draw(st.floats(min_value=0.0, max_value=1.0))
    return adjuster, query, missing, lam


def near_parallel_case():
    """Found by search: two lines a few 1e-12 off m's slope cross it just
    below ``q.ws``, and a past-the-crossing neighbour lands beyond the
    next crossover, at a better rank than the interval it starts from."""
    duals = [
        DualPoint(3, 0.7737625191129288, 0.021444291344324462),
        DualPoint(4, 0.27417928154099847, 0.9083253703299259),
        DualPoint(1, 0.9736644838999314, 0.6070353671708387),
        DualPoint(2, 0.7737625191138575, 0.021444291343253263),
        DualPoint(0, 0.7737625191133932, 0.021444291343788835),
    ]
    ws = 0.7312892823294266
    somewhere = Point(0.0, 0.0), frozenset({"t0"})
    query = SpatialKeywordQuery(*somewhere, 3, Weights(ws, 1.0 - ws))
    adjuster = PreferenceAdjuster(
        DualPointScorer(duals), use_dual_index=False, verification_window=1
    )
    return adjuster, query, [SpatialObject(3, *somewhere)], 0.5


def one_weight_crossings_case(use_dual_index):
    """m = (1/2, 1/2), oid 5, is a flat line; five lines cross it at
    exactly w = 1/2, two falling behind it (oids 2 and 9) and three
    rising above it (oids 1, 3 and 8): one float w, both directions,
    oids on both sides of m.  Oid 4 is m's line (a permanent tie ahead
    of it), oid 7 falls behind m at 1/5 and oid 0 stays above."""
    duals = [
        DualPoint(5, 0.5, 0.5),
        DualPoint(2, 0.25, 0.75),
        DualPoint(9, 0.125, 0.875),
        DualPoint(1, 0.875, 0.125),
        DualPoint(8, 0.75, 0.25),
        DualPoint(3, 0.625, 0.375),
        DualPoint(4, 0.5, 0.5),
        DualPoint(7, 0.0, 0.625),
        DualPoint(0, 0.9, 0.9),
    ]
    somewhere = Point(0.0, 0.0), frozenset({"t0"})
    query = SpatialKeywordQuery(*somewhere, 3, Weights.from_spatial(0.3))
    adjuster = PreferenceAdjuster(
        DualPointScorer(duals), use_dual_index=use_dual_index, verification_window=2
    )
    return adjuster, query, [SpatialObject(5, *somewhere)], 0.5


@pytest.mark.parametrize("use_dual_index", [True, False])
def test_crossovers_both_ways_at_one_weight(use_dual_index):
    case = one_weight_crossings_case(use_dual_index)
    adjuster, query, missing, _ = case
    context = WhyNotContext(adjuster.scorer, query, missing)
    (walk,) = adjuster._walks(context)
    assert walk.total == 6
    sweep = walk.walked()  # the whole range
    assert sweep == reference_sweep(context, 0)
    assert list(sweep.weights) == [0.2, 0.5, 0.5, 0.5, 0.5, 0.5]
    assert list(sweep.oids) == [7, 1, 2, 3, 8, 9]
    # 6 = 1 + (0, 2, 7 and 9 above as w → 0) + (4 tied ahead).  At 1/5
    # m wins its tie with 7 (5), which then stays behind; at 1/2, 0 is
    # above and 1–4 tie ahead (6); past it 0, 1, 3, 4 and 8 are ahead.
    assert list(sweep.profile.weights) == [0.2, 0.5]
    assert list(sweep.profile.ranks) == [6, 5, 5, 6, 6]
    check_front_parity(case)


def check_front_parity(case):
    """Every λ's answer and every interval list is the exhaustive
    sweep's, one context (one front, walks extended on demand) serving
    them all; walked on to both ends, every missing object's crossover
    events and rank profile are the per-object construction's."""
    adjuster, query, missing, lam = case
    context = WhyNotContext(
        adjuster.scorer, query, missing, indexed=adjuster._use_dual_index
    )
    for each in (*LAMBDAS, lam):
        got = adjuster.refine(query, missing, lam=each, context=context)
        want = reference_refine(adjuster, query, missing, lam=each)
        assert replace(got, candidates_evaluated=0) == replace(
            want, candidates_evaluated=0
        )
        assert got.candidates_evaluated <= want.candidates_evaluated
    for obj in missing:
        for k in (query.k, query.k + 2):
            assert adjuster.viable_weight_intervals(
                query, obj, target_k=k, context=context
            ) == reference_intervals(adjuster, query, obj, target_k=k)
    for index, walk in enumerate(adjuster._walks(context)):
        assert walk.walked() == reference_sweep(context, index)


@settings(max_examples=60, deadline=None)
@given(front_cases())
@example(near_parallel_case())
def test_preference_front_matches_exhaustive_sweep(case):
    check_front_parity(case)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(front_cases())
@example(near_parallel_case())
def test_preference_front_matches_exhaustive_sweep_deep(case):
    check_front_parity(case)


def check_walk_parity(case):
    """A walk stopped part way reads the frozen sweep's rank at every
    crossover and open interval it reached and holds that window's
    events; its floor is below every rank further out, and its event
    count is the sweep's total before it reads any."""
    adjuster, query, missing, _ = case
    context = WhyNotContext(
        adjuster.scorer, query, missing, indexed=adjuster._use_dual_index
    )
    for index, walk in enumerate(adjuster._walks(context)):
        want = reference_sweep(context, index)
        assert walk.total == len(want.weights)
        assert walk.rank(query.ws) == want.profile.rank(query.ws)
        levels, ranks = want.profile
        for beyond in (query.k, query.k + 16, math.inf):
            got = walk.walked(beyond)
            reached = list(got.profile.weights)
            low, high = (reached[0], reached[-1]) if reached else (math.inf, -math.inf)
            assert reached == [w for w in levels if low <= w <= high]
            assert list(zip(got.weights, got.oids)) == [
                (w, oid) for w, oid in zip(want.weights, want.oids) if low <= w <= high
            ]
            middles = [(w + v) / 2.0 for w, v in zip(reached, reached[1:])]
            for w in (*reached, *middles):
                assert walk.rank(w) == got.profile.rank(w) == want.profile.rank(w)
            for w in reached:
                at = levels.index(w)
                further = ranks[2 * at + 2 :] if w >= query.ws else ranks[: 2 * at + 1]
                assert walk.floor(w) <= min(further)
            # Outside the window no rank comes back to ``beyond``.
            first = bisect_left(levels, low) if reached else bisect_left(levels, query.ws)
            last = bisect_right(levels, high) if reached else first
            outside = ranks[: 2 * first] + ranks[2 * last + 1 :]
            assert all(rank > beyond for rank in outside)


@settings(max_examples=60, deadline=None)
@given(front_cases())
@example(near_parallel_case())
def test_rank_walk_matches_exhaustive_sweep(case):
    check_walk_parity(case)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(front_cases())
@example(near_parallel_case())
def test_rank_walk_matches_exhaustive_sweep_deep(case):
    check_walk_parity(case)
