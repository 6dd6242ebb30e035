"""Shared fixtures for the YASK reproduction test suite.

Dataset fixtures are session-scoped: databases are immutable by
construction, so sharing them across tests is safe and keeps the suite
fast despite hundreds of tests touching the same data.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.geometry import Point, Rect
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import SpatialKeywordQuery, Weights
from repro.core.scoring import Scorer
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.datasets.hotels import coffee_shops, hong_kong_hotels
from repro.index.kcrtree import KcRTree
from repro.index.setrtree import SetRTree


@pytest.fixture(scope="session", autouse=True)
def no_server_left_serving():
    """Session-end check: every background server was shut down.

    ``YaskHTTPServer.start_background`` names its thread
    ``yask-serve``; one still alive after the last test is a server a
    test forgot to ``shutdown()``, whose loop would outlive the suite.
    """
    yield
    alive = [
        thread
        for thread in threading.enumerate()
        if thread.name == "yask-serve" and thread.is_alive()
    ]
    assert not alive, f"{len(alive)} background server(s) never shut down"


def make_tiny_db() -> SpatialDatabase:
    """Five handcrafted objects in the unit square (worked-example scale).

    Mirrors Fig. 2's five-object setup: o1-o3 cluster in the south-west
    with Chinese/restaurant keywords, o4-o5 in the north-east with
    Spanish/restaurant keywords.
    """
    objects = [
        SpatialObject(0, Point(0.10, 0.10), frozenset({"chinese", "restaurant"}), "o1"),
        SpatialObject(1, Point(0.20, 0.15), frozenset({"chinese", "restaurant"}), "o2"),
        SpatialObject(2, Point(0.15, 0.25), frozenset({"restaurant"}), "o3"),
        SpatialObject(3, Point(0.80, 0.85), frozenset({"spanish", "restaurant"}), "o4"),
        SpatialObject(4, Point(0.90, 0.80), frozenset({"spanish", "restaurant"}), "o5"),
    ]
    return SpatialDatabase(objects, dataspace=Rect(0.0, 0.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def tiny_db() -> SpatialDatabase:
    return make_tiny_db()


@pytest.fixture(scope="session")
def small_db() -> SpatialDatabase:
    """120 synthetic objects — brute-force oracles stay instant."""
    return SyntheticDatasetBuilder(seed=11).build(
        120, vocabulary_size=30, doc_length=(2, 6)
    )


@pytest.fixture(scope="session")
def medium_db() -> SpatialDatabase:
    """1500 clustered objects — enough for indexes to have real depth."""
    return SyntheticDatasetBuilder(seed=12).build(
        1500,
        vocabulary_size=80,
        doc_length=(3, 8),
        spatial="clustered",
        clusters=6,
    )


@pytest.fixture(scope="session")
def hotels_db() -> SpatialDatabase:
    return hong_kong_hotels()


@pytest.fixture(scope="session")
def coffee_db() -> SpatialDatabase:
    return coffee_shops()


@pytest.fixture(scope="session")
def small_scorer(small_db: SpatialDatabase) -> Scorer:
    return Scorer(small_db)


@pytest.fixture(scope="session")
def medium_scorer(medium_db: SpatialDatabase) -> Scorer:
    return Scorer(medium_db)


@pytest.fixture(scope="session")
def hotels_scorer(hotels_db: SpatialDatabase) -> Scorer:
    return Scorer(hotels_db)


@pytest.fixture(scope="session")
def small_setrtree(small_db: SpatialDatabase) -> SetRTree:
    return SetRTree.build(small_db, max_entries=8)


@pytest.fixture(scope="session")
def medium_setrtree(medium_db: SpatialDatabase) -> SetRTree:
    return SetRTree.build(medium_db, max_entries=16)


@pytest.fixture(scope="session")
def small_kcrtree(small_db: SpatialDatabase) -> KcRTree:
    return KcRTree.build(small_db, max_entries=8)


@pytest.fixture(scope="session")
def medium_kcrtree(medium_db: SpatialDatabase) -> KcRTree:
    return KcRTree.build(medium_db, max_entries=16)


def make_query(
    x: float = 0.5,
    y: float = 0.5,
    keywords: tuple[str, ...] = ("kw000", "kw001"),
    k: int = 5,
    ws: float = 0.5,
) -> SpatialKeywordQuery:
    """Convenience query constructor used across test modules."""
    return SpatialKeywordQuery(
        loc=Point(x, y),
        doc=frozenset(keywords),
        k=k,
        weights=Weights.from_spatial(ws),
    )


def random_queries(
    database: SpatialDatabase, count: int, *, seed: int, k: int = 5
) -> list[SpatialKeywordQuery]:
    """Deterministic random queries with keywords from the database."""
    rng = random.Random(seed)
    vocabulary = sorted(database.vocabulary())
    space = database.dataspace
    queries = []
    for _ in range(count):
        keywords = rng.sample(vocabulary, k=rng.randint(1, min(3, len(vocabulary))))
        queries.append(
            SpatialKeywordQuery(
                loc=Point(
                    rng.uniform(space.min_x, space.max_x),
                    rng.uniform(space.min_y, space.max_y),
                ),
                doc=frozenset(keywords),
                k=k,
                weights=Weights.from_spatial(rng.uniform(0.2, 0.8)),
            )
        )
    return queries
