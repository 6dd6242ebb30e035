"""Seeded request streams: what each closed-loop client sends, in order.

A stream is an endless iterator of :class:`Operation`; the same
``(workload, seed, client)`` always yields the same operations, byte
for byte (:func:`encode`).  The server never sees the seed, only the
requests.  Streams are built from the *static* dataset: mutation
batches touch only objects the same client inserted earlier, so the
dataset's own objects (and therefore every why-not session's missing
object) stay valid however the run interleaves.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import gcd
from typing import Callable, Iterator, Sequence

import catalogue as cat
from repro.bench.workloads import QueryWorkload
from repro.core.objects import SpatialDatabase
from repro.core.query import QueryResult, SpatialKeywordQuery


@dataclass(frozen=True)
class Step:
    """One HTTP request.  ``cls`` is its latency class (catalogue)."""

    cls: str
    path: str
    body: dict


@dataclass(frozen=True)
class Operation:
    """One closed-loop unit: a lone request, or a session whose later
    steps carry the ``session_id`` the first step's reply returned."""

    kind: str  # hot | cold | session | mutation
    steps: tuple[Step, ...]


#: In-process top-k used to pick a session's missing object.
Picker = Callable[[SpatialKeywordQuery], QueryResult]


def encode(operation: Operation) -> bytes:
    """Canonical bytes of an operation (stream identity in the self-test)."""
    return json.dumps(
        [operation.kind, [[s.cls, s.path, s.body] for s in operation.steps]],
        sort_keys=True,
    ).encode()


def derive_seed(seed: int, *parts: object) -> int:
    """An independent sub-seed per (seed, purpose); stable across runs."""
    label = "/".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


def query_body(query: SpatialKeywordQuery) -> dict:
    """A ``POST /api/query`` body; weights are left to the server default."""
    return {
        "x": query.loc.x,
        "y": query.loc.y,
        "keywords": sorted(query.doc),
        "k": query.k,
    }


def _stratified(
    weights: Sequence[tuple[str, int]], rng: random.Random
) -> Iterator[str]:
    """Endless draws in the exact proportions of ``weights``: shuffled
    blocks, each holding every kind its share of times.  Independent
    draws would let the count of the dearest kind (a mutation batch, a
    combined refinement) swing run length by its own sampling noise."""
    unit = reduce(gcd, (weight for _, weight in weights))
    block = [kind for kind, weight in weights for _ in range(weight // unit)]
    while True:
        rng.shuffle(block)
        yield from block


def _topk(kind: str, query: SpatialKeywordQuery) -> Operation:
    return Operation(kind, (Step(cat.TOPK, "/api/query", query_body(query)),))


def _queries(database: SpatialDatabase, seed: int) -> QueryWorkload:
    return QueryWorkload(
        database, seed=seed, k=cat.TOPK_K, keywords_per_query=(1, 3)
    )


def hot_set(database: SpatialDatabase, seed: int) -> list[Operation]:
    """The distinct queries hot reads draw from (issued once to warm up)."""
    workload = _queries(database, derive_seed(seed, "hot-set"))
    return [_topk("hot", workload.next_query()) for _ in range(cat.HOT_SET_SIZE)]


def _hot(hot: Sequence[Operation], seed: int) -> Iterator[Operation]:
    """Zipf(1.0) draws: rank r is asked with weight 1/r."""
    rng = random.Random(seed)
    cumulative = list(accumulate(1.0 / rank for rank in range(1, len(hot) + 1)))
    while True:
        yield hot[bisect_left(cumulative, rng.random() * cumulative[-1])]


def _cold(database: SpatialDatabase, seed: int) -> Iterator[Operation]:
    workload = _queries(database, seed)
    while True:
        yield _topk("cold", workload.next_query())


def _sessions(
    database: SpatialDatabase, picker: Picker, seed: int
) -> Iterator[Operation]:
    """query -> explain -> one refinement, about a nearly-returned object."""
    workload = _queries(database, seed)
    rng = random.Random(derive_seed(seed, "missing"))
    refinements = _stratified(cat.REFINEMENT_WEIGHTS, rng)
    k = cat.TOPK_K
    while True:
        query = workload.next_query()
        wide = SpatialKeywordQuery(
            loc=query.loc,
            doc=query.doc,
            k=k + cat.WHYNOT_RANK_WINDOW,
            weights=query.weights,
        )
        window = [e for e in picker(wide).entries[k:] if e.tsim > 0.0]
        if not window:
            continue  # nobody would expect a zero-similarity object
        missing = {"missing": [rng.choice(window).obj.oid]}
        refinement = next(refinements)
        yield Operation(
            "session",
            (
                Step(cat.TOPK, "/api/query", query_body(query)),
                Step(cat.WHYNOT, "/api/whynot/explain", missing),
                Step(cat.WHYNOT, f"/api/whynot/{refinement}", missing),
            ),
        )


def _mutations(
    database: SpatialDatabase, seed: int, client: int
) -> Iterator[Operation]:
    """Batches of 6 inserts + 1 update + 1 delete of this client's own
    earlier inserts, each with a unique ``batch_token``."""
    rng = random.Random(seed)
    vocabulary = sorted(database.keyword_document_frequencies())
    space = database.dataspace
    next_oid = cat.FIRST_MINTED_OID + client * cat.MINTED_OIDS_PER_CLIENT
    live: list[int] = []

    def near_existing(op: str, oid: int) -> dict:
        anchor = database.objects[rng.randrange(len(database))].loc
        x = anchor.x + rng.gauss(0.0, 0.005 * space.width)
        y = anchor.y + rng.gauss(0.0, 0.005 * space.height)
        return {
            "op": op,
            "oid": oid,
            "x": min(max(x, space.min_x), space.max_x),
            "y": min(max(y, space.min_y), space.max_y),
            "keywords": sorted(rng.sample(vocabulary, cat.MUTATION_KEYWORDS)),
        }

    for number in range(1 << 62):
        batch = []
        earlier = len(live)
        for _ in range(cat.MUTATION_INSERTS):
            batch.append(near_existing("insert", next_oid))
            live.append(next_oid)
            next_oid += 1
        if earlier >= 2:
            updated, deleted = rng.sample(range(earlier), 2)
            batch.append(near_existing("update", live[updated]))
            batch.append({"op": "delete", "oid": live.pop(deleted)})
        body = {"mutations": batch, "batch_token": f"e16-{client}-{number}"}
        yield Operation(
            "mutation", (Step(cat.MUTATION, "/api/mutations", body),)
        )


def client_stream(
    workload: str,
    seed: int,
    client: int,
    database: SpatialDatabase,
    picker: Picker,
    hot: Sequence[Operation],
) -> Iterator[Operation]:
    """The endless operation stream of one client of one workload."""
    def sub(purpose: str) -> int:
        return derive_seed(seed, workload, client, purpose)

    if workload == "hot_read":
        return _hot(hot, sub("hot"))
    if workload == "cold_read":
        return _cold(database, sub("cold"))
    if workload == "whynot_session":
        return _sessions(database, picker, sub("session"))
    if workload == "mixed_rw":
        # The heavy operations are the same in every run (drawn from the
        # dataset's seed, not the run's): a 24 s window holds only ~48
        # batches and ~60 sessions costing 40-900 ms each, and left to
        # the run seed their sampling noise alone spreads throughput by
        # 15 %.  The run seed draws the reads and shuffles the mix.
        def fixed(purpose: str) -> int:
            return derive_seed(cat.DATASET_SEED, workload, client, purpose)

        sources = {
            "hot": _hot(hot, sub("hot")),
            "cold": _cold(database, sub("cold")),
            "session": _sessions(database, picker, fixed("session")),
            "mutation": _mutations(database, fixed("mutation"), client),
        }
        return _mixed(sources, sub("mix"))
    raise ValueError(f"unknown workload {workload!r}")


def _mixed(sources: dict[str, Iterator[Operation]], seed: int) -> Iterator[Operation]:
    for kind in _stratified(cat.MIXED_WEIGHTS, random.Random(seed)):
        yield next(sources[kind])
