"""Property tests: the columnar kernel ≡ the object-at-a-time scorer.

The kernel is pure optimisation — for every database, query and
supported text model it must reproduce the set-based path *exactly*:
identical score/sdist/tsim floats (no tolerance), identical
(score desc, oid asc) tie order, identical ranks, and identical why-not
refinements.  Databases here include empty keyword sets and duplicated
(location, doc) pairs so tie-breaks and the 0/0 corner cases are
actually exercised, and queries mix in out-of-vocabulary keywords.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point, Rect
from repro.core.mutations import Mutation
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scanindex import SKIP_MARGIN
from repro.core.scoring import Scorer
from repro.core.topk import BestFirstTopK
from repro.index.dualspace import DualSpaceIndex
from repro.index.kcrtree import KcRTree
from repro.index.setrtree import SetRTree
from repro.service.api import YaskEngine
from repro.text.similarity import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapSimilarity,
)
from repro.whynot.baselines import exhaustive_keyword_adapter
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.preference import PreferenceAdjuster

from tests.properties.strategies import ALPHABET, coordinates, points
from tests.properties.test_prop_mutations import CHURN, INGEST, draw_batch
from tests.properties.test_prop_scan_index import column_rows, query_coordinate

#: The kernel-supported set models, one instance each.
MODELS = [JaccardSimilarity(), DiceSimilarity(), OverlapSimilarity()]

models = st.sampled_from(MODELS)

#: Unlike the shared ``docs`` strategy this one allows *empty* object
#: keyword sets — the 0/0 corners of Jaccard/Dice/Overlap.
sparse_docs = st.sets(st.sampled_from(ALPHABET), min_size=0, max_size=6).map(
    frozenset
)

#: Query keywords drawn from the corpus alphabet plus words no object
#: can ever carry (out-of-vocabulary still counts towards |q.doc|).
query_keywords = st.sets(
    st.sampled_from(ALPHABET + ["zz-unseen", "zz-rare"]),
    min_size=1,
    max_size=4,
)


@st.composite
def kernel_databases(draw, min_size: int = 2, max_size: int = 30):
    """Databases with possibly-empty docs and shuffled, gappy oids."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    oids = draw(st.permutations(range(0, 2 * size, 2)).map(lambda p: p[:size]))
    objects = [
        SpatialObject(oid=oid, loc=draw(points), doc=draw(sparse_docs))
        for oid in oids
    ]
    return SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0))


@st.composite
def kernel_queries(draw, k_max: int = 8):
    return SpatialKeywordQuery(
        loc=draw(points),
        doc=frozenset(draw(query_keywords)),
        k=draw(st.integers(min_value=1, max_value=k_max)),
        weights=Weights.from_spatial(
            draw(st.floats(min_value=0.05, max_value=0.95))
        ),
    )


def scorer_pair(database, model):
    return (
        Scorer(database, text_model=model),
        Scorer(database, text_model=model, use_kernel=False),
    )


@settings(max_examples=80, deadline=None)
@given(kernel_databases(), kernel_queries(), models)
def test_components_match_breakdown_exactly(database, query, model):
    fast, slow = scorer_pair(database, model)
    assert fast.kernel is not None
    sdists, tsims, scores = fast.kernel.components_all(query)
    for row, obj in enumerate(database):
        breakdown = slow.breakdown(obj, query)
        assert sdists[row] == breakdown.sdist
        assert tsims[row] == breakdown.tsim
        assert scores[row] == breakdown.score
        assert fast.score(obj, query) == breakdown.score


@settings(max_examples=80, deadline=None)
@given(kernel_databases(), kernel_queries(), models)
def test_rank_all_bit_identical(database, query, model):
    fast, slow = scorer_pair(database, model)
    fast_entries = [tuple(entry) for entry in fast.rank_all(query)]
    slow_entries = [tuple(entry) for entry in slow.rank_all(query)]
    assert fast_entries == slow_entries


@settings(max_examples=80, deadline=None)
@given(kernel_databases(), kernel_queries(), models)
def test_top_k_is_rank_all_prefix(database, query, model):
    fast, slow = scorer_pair(database, model)
    assert [tuple(e) for e in fast.top_k(query)] == [
        tuple(e) for e in slow.top_k(query)
    ]


@settings(max_examples=60, deadline=None)
@given(kernel_databases(), kernel_queries(), models)
def test_dual_points_and_ranks_match(database, query, model):
    fast, slow = scorer_pair(database, model)
    assert fast.dual_points(query) == slow.dual_points(query)
    for obj in database:
        assert fast.rank_of(obj, query) == slow.rank_of(obj, query)
    targets = list(database.objects)[:3]
    assert fast.worst_rank(targets, query) == slow.worst_rank(targets, query)


@settings(max_examples=40, deadline=None)
@given(kernel_databases(min_size=4), kernel_queries(k_max=3), models)
def test_dual_view_rank_oracle_matches(database, query, model):
    """DualView.ranks_at ≡ PreferenceAdjuster._ranks_at_weights."""
    fast, slow = scorer_pair(database, model)
    target_oids = [obj.oid for obj in list(database.objects)[:3]]
    view = fast.kernel.dual_view(query, target_oids)
    duals = slow.dual_points(query)
    by_oid = {dual.oid: dual for dual in duals}
    for ws in (0.1, query.ws, 0.9):
        weights = Weights.from_spatial(ws)
        expected = PreferenceAdjuster._ranks_at_weights(
            weights, [by_oid[oid] for oid in target_oids], duals
        )
        assert view.ranks_at(weights.ws, weights.wt, target_oids) == dict(
            expected
        )


@settings(max_examples=25, deadline=None)
@given(kernel_databases(min_size=5), kernel_queries(k_max=2))
def test_preference_refinement_parity(database, query):
    fast, slow = scorer_pair(database, JaccardSimilarity())
    worst = max(slow.rank_of(obj, query) for obj in database)
    missing = [
        obj for obj in database if slow.rank_of(obj, query) == worst
    ][:1]
    if slow.worst_rank(missing, query) <= query.k:
        return  # nothing is missing under this draw
    refined_fast = PreferenceAdjuster(fast).refine(query, missing, lam=0.5)
    refined_slow = PreferenceAdjuster(slow).refine(query, missing, lam=0.5)
    assert refined_fast == refined_slow


def keyword_answer(refinement):
    """Every field of a keyword refinement but how it was found."""
    return dataclasses.replace(refinement, stats=None, method=None)


def assert_keyword_arms_agree(engine, model, query, missing_oids, lams):
    """The served engine's keyword answers (the scan-index arm) against
    the exhaustive set path, every model, and the KcR-tree descent over
    a fresh tree, Jaccard (the model its bounds are derived for)."""
    database = engine.database
    missing = [database.get(oid) for oid in missing_oids]
    oracle = Scorer(database, text_model=model, use_kernel=False)
    references = [exhaustive_keyword_adapter(oracle)]
    if isinstance(model, JaccardSimilarity):
        references.append(
            KeywordAdapter(oracle, KcRTree.build(database, max_entries=4))
        )
    for lam in lams:
        served = engine.refine_keywords(query, missing_oids, lam=lam)
        assert served.method == "scan-index-bound-prune"
        for reference in references:
            assert keyword_answer(served) == keyword_answer(
                reference.refine(query, missing, lam=lam)
            )


def draw_missing(data, engine, model, query, *, most=3):
    """1 to ``most`` object ids ranked outside ``query``'s top k."""
    oracle = Scorer(engine.database, text_model=model, use_kernel=False)
    outside = [entry.obj.oid for entry in oracle.rank_all(query)[query.k :]]
    return data.draw(
        st.lists(st.sampled_from(outside), min_size=1, max_size=most, unique=True)
    )


@settings(max_examples=15, deadline=None)
@given(
    kernel_databases(min_size=5, max_size=14),
    kernel_queries(k_max=2),
    models,
    st.sampled_from([None, 4]),
    st.data(),
)
def test_keyword_refinement_parity(database, query, model, shards, data):
    """λ ∈ {0, 0.1, 0.5, 1}, |M| from 1 to 3, unsharded and over 4
    shards: one answer from every arm, field for field."""
    engine = YaskEngine(database, text_model=model, shards=shards)
    try:
        missing = draw_missing(data, engine, model, query)
        assert_keyword_arms_agree(engine, model, query, missing, (0.0, 0.1, 0.5, 1.0))
    finally:
        engine.close()


@pytest.mark.parametrize("shards", [None, 4])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_keyword_parity_through_tombstones_tail_and_compaction(model, shards):
    """After every batch of a history that tombstones rows, grows the
    scan index's unsorted tail past its share (so the index is dropped
    and rebuilt) and compacts the kernel, the served keyword answers
    still equal both references."""
    spots = [Point(x / 4.0, y / 4.0) for x in range(5) for y in range(5)]
    objects = [
        SpatialObject(oid, spots[oid % 25], frozenset(ALPHABET[oid % 5 : oid % 5 + 3]))
        for oid in range(24)
    ]
    database = SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0))
    query = SpatialKeywordQuery(
        Point(0.5, 0.5), frozenset(ALPHABET[1:4]), 3, Weights.balanced()
    )

    def check(engine):
        oracle = Scorer(engine.database, text_model=model, use_kernel=False)
        ranking = oracle.rank_all(query)
        missing = [ranking[5].obj.oid, ranking[-2].obj.oid]
        assert_keyword_arms_agree(engine, model, query, missing, (0.1, 0.5, 0.9))

    with column_rows(4):
        engine = YaskEngine(database, text_model=model, shards=shards)
        check(engine)
        for oid in range(0, 14, 2):  # past the 25 % tombstone threshold
            engine.apply_mutations([Mutation.delete(oid)])
            check(engine)
        for oid in range(100, 106):  # past the tail's share of the build
            newcomer = SpatialObject(oid, spots[oid % 25], query.doc)
            engine.apply_mutations([Mutation.insert(newcomer)])
            check(engine)
        stats = engine.kernel.stats
        assert engine.kernel.compactions >= 1
        assert stats.scan_index_builds >= 2 and stats.scan_calls > 0
        engine.close()


@pytest.mark.parametrize(
    "model",
    [
        MODELS[0],
        # Their exhaustive references take seconds here: deep budget only.
        *(pytest.param(model, marks=pytest.mark.slow) for model in MODELS[1:]),
    ],
    ids=lambda m: type(m).__name__,
)
def test_keyword_parity_at_deep_ranks(medium_db, medium_kcrtree, model):
    """Missing objects from ranks 100-300, where rank caps run into the
    hundreds: the served answers equal the KcR descent's (Jaccard) and
    the kernel's exhaustive rank scans' (every model)."""
    engine = YaskEngine(medium_db, text_model=model)
    scorer = engine.scorer
    references = [exhaustive_keyword_adapter(scorer)]
    if isinstance(model, JaccardSimilarity):
        references.append(KeywordAdapter(scorer, medium_kcrtree))
    rng = random.Random(25)
    vocabulary = sorted(medium_db.vocabulary())
    deepest = 0
    for _ in range(3):
        query = SpatialKeywordQuery(
            rng.choice(medium_db.objects).loc,
            frozenset(rng.sample(vocabulary, 2)),
            10,
            Weights.balanced(),
        )
        window = [e for e in scorer.rank_all(query)[99:300] if e.tsim > 0.0]
        missing = [e.obj for e in rng.sample(window, rng.randint(1, 2))]
        for lam in (0.3, 0.6):
            served = engine.refine_keywords(query, missing, lam=lam)
            deepest = max(deepest, served.refined_worst_rank)
            for reference in references:
                assert keyword_answer(served) == keyword_answer(
                    reference.refine(query, missing, lam=lam)
                )
    assert deepest >= 100
    engine.close()


# ----------------------------------------------------------------------
# The levelled dual view ≡ the O(n) reference (the kernel-less path)
# ----------------------------------------------------------------------
@st.composite
def tied_databases(draw):
    """Few distinct locations and docs, shuffled gappy oids: score ties,
    permanent ties and whole TSim levels of equal proximity are common."""
    locations = draw(st.lists(points, min_size=1, max_size=4))
    documents = draw(st.lists(sparse_docs, min_size=1, max_size=4))
    size = draw(st.integers(min_value=4, max_value=24))
    oids = draw(st.permutations(range(0, 3 * size, 3)))[:size]
    objects = [
        SpatialObject(
            oid=oid,
            loc=draw(st.sampled_from(locations)),
            doc=draw(st.sampled_from(documents)),
        )
        for oid in oids
    ]
    return SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0)), locations, documents


def ulp_steps(value, steps, toward):
    """``value`` moved ``steps`` ulps towards ``toward``, kept in [0, 1]."""
    for _ in range(steps):
        value = math.nextafter(value, toward)
    return min(max(value, 0.0), 1.0)


def with_ulp_neighbours(database, locations, documents, query_loc, draw):
    """``database`` plus, per location, an object a few ulps off it (its
    proximity ties or straddles that of the objects there) and one pushed
    away from the query by ``SKIP_MARGIN`` of proximity and then a few
    ulps (it ties or straddles the floor of a view for them), plus one
    object with no keywords (a TSim-0 target)."""
    shift = SKIP_MARGIN * database.distance_normaliser
    extra = []
    for loc in locations:
        dx, dy = loc.x - query_loc.x, loc.y - query_loc.y
        r = math.hypot(dx, dy)
        ux, uy = (dx / r, dy / r) if r else (1.0, 0.0)
        for x, y in ((loc.x, loc.y), (loc.x + ux * shift, loc.y + uy * shift)):
            steps = draw(st.integers(min_value=1, max_value=4))
            toward = draw(st.sampled_from([-math.inf, math.inf]))
            if abs(ux) >= abs(uy):
                x = ulp_steps(x, steps, toward)
            else:
                y = ulp_steps(y, steps, toward)
            # An empty doc is below every TSim floor but a TSim-0 one's.
            doc = draw(st.sampled_from([*documents, frozenset()]))
            extra.append((Point(x, y), doc))
    extra.append((draw(st.sampled_from(locations)), frozenset()))
    objects = [
        SpatialObject(oid=1000 + i, loc=loc, doc=doc)
        for i, (loc, doc) in enumerate(extra)
    ]
    return SpatialDatabase(
        [*database, *objects], dataspace=Rect(0.0, 0.0, 1.0, 1.0)
    )


def assert_view_matches_reference(engine, query, model, target_oids):
    """A view for ``target_oids``: its rows against the dominance rule
    and every primitive against its O(n) counterpart."""
    kernel = engine.kernel
    view = kernel.dual_view(query, target_oids)
    database = engine.database
    reference = Scorer(database, text_model=model, use_kernel=False)
    tree = SetRTree.build(database, text_model=model, max_entries=4)
    duals = reference.dual_points(query)
    by_oid = {dual.oid: dual for dual in duals}
    targets = [by_oid[oid] for oid in target_oids]
    # Exactly the rows no target beats by more than the margin on both
    # axes are in the view, with the reference's floats.
    a_floor = min(m.a for m in targets) - SKIP_MARGIN
    b_floor = min(m.b for m in targets) - SKIP_MARGIN
    assert (view.a_floor, view.b_floor) == (a_floor, b_floor)
    for dual in duals:
        if dual.a >= a_floor or dual.b >= b_floor:
            assert view.dual_points_of([dual.oid]) == [dual]
        else:
            with pytest.raises(KeyError):
                view.dual_points_of([dual.oid])
    if b_floor < 0.0:  # a TSim-0 target: every live row
        assert view.dual_points_of(list(by_oid)) == duals
    others = sorted(by_oid.keys() - set(target_oids))
    if others:  # a view answers for its targets only
        with pytest.raises(ValueError):
            view.strictly_above_at_zero(others[0])
    oids = [m.oid for m in targets]
    probe_ws = {query.ws, 1e-9, 1.0 - 1e-9}
    for m in targets:
        crossing = DualSpaceIndex.crossing_candidates_linear(duals, m)
        found = {
            oid: (a, b)
            for b, proximities, others in view.crossing_candidates(m.oid)
            for a, oid in zip(proximities, others)
        }
        assert found == {o.oid: (o.a, o.b) for o in crossing}
        assert view.strictly_above_at_zero(
            m.oid
        ) == PreferenceAdjuster._strictly_above_at_zero(m, duals)
        assert view.permanent_ties_smaller(
            m.oid
        ) == PreferenceAdjuster._permanent_ties_smaller(m, duals)
        assert view.count_more_similar(m.b) == tree.count_more_similar(
            query.doc, m.b
        )
        # Radii: nothing, the object's own distance (the explanation's
        # question), one inside the dataspace, one past its diagonal
        # (every clamped row ties at proximity 0); the view answers
        # every radius whose proximity is at least its floor.
        own = database.get(m.oid).loc.distance_to(query.loc)
        for radius in (0.0, own, 0.3, 2.0):
            if 1.0 - min(radius / database.distance_normaliser, 1.0) < a_floor:
                with pytest.raises(ValueError):  # beyond what the view holds
                    kernel.count_closer(view, query, radius)
                continue
            closer = kernel.count_closer(view, query, radius)
            assert closer == tree.count_within_distance(query.loc, radius)
            assert closer == sum(
                1 for obj in database if obj.loc.distance_to(query.loc) < radius
            )
        for other in crossing:
            w_star = m.crossover_with(other)
            if w_star is not None:
                probe_ws.update(
                    (w_star, math.nextafter(w_star, 0.0), math.nextafter(w_star, 1.0))
                )
    for ws in probe_ws:
        if not PreferenceAdjuster._valid_weight(ws):
            continue
        weights = Weights.from_spatial(ws)
        assert view.ranks_at(weights.ws, weights.wt, oids) == dict(
            PreferenceAdjuster._ranks_at_weights(weights, targets, duals)
        )


def spread_level(query_doc, locations, draw):
    """Objects of doc lengths 1–5 sharing one query keyword and nothing
    else with the query (oids 2001–2005): one keyword level whose
    buckets straddle the TSim floor of a view for its length-3 member,
    ``SPREAD_TARGET`` (none when the query has no corpus keyword)."""
    shared = sorted(query_doc & set(ALPHABET))
    if not shared:
        return []
    keyword = draw(st.sampled_from(shared))
    filler = [word for word in ALPHABET if word not in query_doc]
    return [
        SpatialObject(
            oid=2000 + length,
            loc=draw(st.sampled_from(locations)),
            doc=frozenset([keyword, *filler[: length - 1]]),
        )
        for length in range(1, 6)
    ]


SPREAD_TARGET = 2003


def long_doc(query_doc):
    """Seven keywords, one of them the query's when it has a corpus one:
    a doc length no built row has (``sparse_docs`` stop at six)."""
    shared = sorted(query_doc & set(ALPHABET))[:1]
    filler = [word for word in ALPHABET if word not in query_doc]
    return frozenset([*shared, *filler[: 7 - len(shared)]])


def assert_levels_match_reference(kernel, query, view):
    """``view._levels`` is the floors' rows of ``dual_points_all``: levels
    by descending ``b``, ``(a, oid)`` in order within each (``a``
    ascending, ties by oid)."""
    levels: dict[float, list[tuple[float, int]]] = {}
    for point in kernel.dual_points_all(query):
        if point.a >= view.a_floor or point.b >= view.b_floor:
            levels.setdefault(point.b, []).append((point.a, point.oid))
    assert [
        (b, list(zip(proximities, oids))) for b, proximities, oids in view._levels
    ] == [(b, sorted(levels[b])) for b in sorted(levels, reverse=True)]


def check_levelled_view(tied, query, model, shards, data):
    database, locations, documents = tied
    database = with_ulp_neighbours(
        database, locations, documents, query.loc, data.draw
    )
    database = SpatialDatabase(
        [*database, *spread_level(query.doc, locations, data.draw)],
        dataspace=Rect(0.0, 0.0, 1.0, 1.0),
    )
    # Two-row index columns make the disk a walk over many columns,
    # each cut to its y-run; the shipped height keeps them in one.
    with column_rows(data.draw(st.sampled_from([2, 256]))):
        engine = YaskEngine(database, text_model=model, shards=shards)

        def check():
            live = sorted(obj.oid for obj in engine.database)
            targets = data.draw(
                st.lists(st.sampled_from(live), min_size=1, max_size=3, unique=True)
            )
            checked = [targets]
            unmatched = [
                obj.oid for obj in engine.database if not obj.doc & query.doc
            ]
            if unmatched:
                zero = data.draw(st.sampled_from(unmatched))
                checked.append([zero, *(t for t in targets if t != zero)])
            if SPREAD_TARGET in live:
                checked.append([SPREAD_TARGET])
            for each in checked:
                assert_view_matches_reference(engine, query, model, each)
                view = engine.kernel.dual_view(query, each)
                assert_levels_match_reference(engine.kernel, query, view)

        try:
            check()
            for first in (True, False):
                live = {obj.oid for obj in engine.database}
                batch = [Mutation.delete(data.draw(st.sampled_from(sorted(live))))]
                # Newcomers land between live ids, so they win and lose
                # oid tie-breaks against the objects whose cells they copy.
                fresh = data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=80).filter(
                            lambda oid: oid not in live
                        ),
                        min_size=1 if first else 0,
                        max_size=2,
                        unique=True,
                    )
                )
                for oid in fresh:
                    # The first newcomer's doc length is new to the index.
                    doc = (
                        long_doc(query.doc)
                        if first and oid == fresh[0]
                        else data.draw(st.sampled_from(documents))
                    )
                    batch.append(
                        Mutation.insert(
                            SpatialObject(
                                oid=oid, loc=data.draw(st.sampled_from(locations)), doc=doc
                            )
                        )
                    )
                engine.apply_mutations(batch)
                check()
        finally:
            engine.close()


VIEW_CASES = (
    tied_databases(),
    kernel_queries(),
    models,
    st.sampled_from([None, 1, 2, 4]),
    st.data(),
)


@settings(max_examples=60, deadline=None)
@given(*VIEW_CASES)
def test_levelled_view_matches_linear_reference(tied, query, model, shards, data):
    """A view for 1–3 drawn targets, one for a TSim-0 target and one for
    the middle of a keyword level spread over doc lengths 1–5: the rows
    it holds and their levels, ranks_at (at the initial weights, near 0
    and 1, every crossover and its ±1 ulp neighbours), the crossing set,
    above-at-zero, permanent ties, count_more_similar and the
    closer-count — among objects whose proximities sit a few ulps from
    a target's or from the view's floor, before and after batches that
    leave tombstones in the unsharded kernel's columns and insert a doc
    length the scan index has not seen."""
    check_levelled_view(tied, query, model, shards, data)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(*VIEW_CASES)
def test_levelled_view_matches_linear_reference_deep(tied, query, model, shards, data):
    check_levelled_view(tied, query, model, shards, data)


# ----------------------------------------------------------------------
# The served unsharded top-k ≡ the set path ≡ best-first over a SetR-tree
# ----------------------------------------------------------------------
def assert_topk_matches_references(engine, model, loc, doc, extra_k):
    """``YaskEngine.query`` against two references that share nothing
    with the scan: the kernel-less set path and the paper's best-first
    search over a SetR-tree bulk-loaded from the current objects."""
    database = engine.database
    oracle = Scorer(database, text_model=model, use_kernel=False)
    best_first = BestFirstTopK(
        SetRTree.build(database, text_model=model, max_entries=4), oracle
    )
    n = len(database)
    # Weights are open at both ends: 1e-9 stands in for 0 and 1.
    for ws in (1e-9, 0.5, 1.0 - 1e-9):
        for k in {1, n, n + 3, extra_k}:
            query = SpatialKeywordQuery(loc, doc, k, Weights.from_spatial(ws))
            expected = [tuple(e) for e in oracle.top_k(query)]
            assert [tuple(e) for e in engine.query(query)] == expected
            assert [tuple(e) for e in best_first.search(query)] == expected


def check_unsharded_topk_through_history(tied, model, kinds, batches_max, data):
    database, _locations, _documents = tied
    draw = data.draw
    locations = st.builds(Point, query_coordinate, query_coordinate)
    docs = query_keywords.map(frozenset)
    # Two-row index columns: three inserts outgrow the tail, so the
    # scan index is dropped and rebuilt inside a short history.
    with column_rows(2):
        engine = YaskEngine(database, text_model=model)
        try:
            live = {obj.oid for obj in database}
            next_oid = max(live) + 1
            for _ in range(draw(st.integers(min_value=1, max_value=batches_max))):
                loc, doc = draw(locations), draw(docs)
                extra_k = draw(st.integers(min_value=1, max_value=len(live) + 3))
                assert_topk_matches_references(engine, model, loc, doc, extra_k)
                batch = draw_batch(draw, live, next_oid, kinds)
                next_oid += len(batch)
                engine.apply_mutations(batch)
                assert_topk_matches_references(engine, model, loc, doc, extra_k)
        finally:
            engine.close()


HISTORY_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=25, **HISTORY_SETTINGS)
@given(tied_databases(), models, st.sampled_from([INGEST, CHURN]), st.data())
def test_unsharded_engine_topk_matches_set_path_and_best_first(
    tied, model, kinds, data
):
    check_unsharded_topk_through_history(tied, model, kinds, 5, data)


@pytest.mark.slow
@settings(max_examples=150, **HISTORY_SETTINGS)
@given(tied_databases(), models, st.sampled_from([INGEST, CHURN]), st.data())
def test_unsharded_engine_topk_matches_set_path_and_best_first_deep(
    tied, model, kinds, data
):
    check_unsharded_topk_through_history(tied, model, kinds, 20, data)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_unsharded_history_compacts_and_rebuilds_the_scan_index(model):
    """The histories above do reach both events: a seeded churn run on
    the served engine compacts its kernel and rebuilds its scan index,
    with parity after every batch."""
    spots = [Point(x / 4.0, y / 4.0) for x in range(5) for y in range(5)]
    objects = [
        SpatialObject(oid, spots[oid % 25], frozenset(ALPHABET[oid % 5 : oid % 5 + 3]))
        for oid in range(24)
    ]
    database = SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0))
    doc = frozenset(ALPHABET[1:4])
    with column_rows(4):
        engine = YaskEngine(database, text_model=model)
        assert_topk_matches_references(engine, model, Point(0.5, 0.5), doc, 5)
        for oid in range(0, 14, 2):  # past the 25 % tombstone threshold
            engine.apply_mutations([Mutation.delete(oid)])
            assert_topk_matches_references(engine, model, Point(0.5, 0.5), doc, 5)
        for oid in range(100, 106):  # past the tail's share of the build
            newcomer = SpatialObject(oid, spots[oid % 25], doc)
            engine.apply_mutations([Mutation.insert(newcomer)])
            assert_topk_matches_references(engine, model, Point(0.5, 0.5), doc, 5)
        assert engine.kernel.compactions >= 1
        assert engine.kernel.stats.scan_index_builds >= 2
        engine.close()
