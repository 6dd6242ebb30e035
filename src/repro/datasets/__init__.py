"""Datasets: the Hong Kong demonstration data and synthetic generators."""

from repro.datasets.generators import (
    SyntheticDatasetBuilder,
    generate_vocabulary,
    zipf_weights,
)
from repro.datasets.hotels import (
    GRAND_VICTORIA,
    HONG_KONG_BOUNDS,
    HOTEL_COUNT,
    STARBUCKS_CENTRAL,
    coffee_shops,
    hong_kong_hotels,
)
from repro.datasets.loaders import load_csv, load_json, save_csv, save_json

__all__ = [
    "SyntheticDatasetBuilder",
    "generate_vocabulary",
    "zipf_weights",
    "GRAND_VICTORIA",
    "HONG_KONG_BOUNDS",
    "HOTEL_COUNT",
    "STARBUCKS_CENTRAL",
    "coffee_shops",
    "hong_kong_hotels",
    "load_csv",
    "load_json",
    "save_csv",
    "save_json",
]
