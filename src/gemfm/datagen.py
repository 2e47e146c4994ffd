"""Synthetic app-usage click datasets with long-tailed, graph-smooth structure.

Generates Frappe-shaped transactions (user, item, and eight context fields)
whose positives follow user-cluster preferences over a long-tailed item
catalog, then negative-samples each split. Tail users and items appear in
only a handful of transactions, so models that share statistical strength
across co-occurring features have a measurable edge over independent
per-feature embeddings. Everything is deterministic in the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSpace, PackedInstances, negative_sample, split_dataset
from .seeding import derive_seed, seeded_rng

CONTEXT_FIELDS = (
    ("daytime", 7),
    ("weekday", 7),
    ("isweekend", 2),
    ("homework", 3),
    ("cost", 2),
    ("weather", 9),
)
# Zipf exponents of user and item popularity, and negatives drawn per positive
USER_ZIPF = 0.85
ITEM_ZIPF = 1.0
NEGATIVES_PER_POSITIVE = 2


@dataclass(frozen=True)
class ClickDataConfig:
    num_users: int = 2000
    num_items: int = 1000
    num_countries: int = 60
    num_cities: int = 200
    num_clusters: int = 12
    num_transactions: int = 36000
    cluster_affinity: float = 0.92
    seed: int = 0


def click_space(config: ClickDataConfig) -> FeatureSpace:
    names = ["user", "item"] + [n for n, _ in CONTEXT_FIELDS] + ["country", "city"]
    sizes = [config.num_users, config.num_items] + [s for _, s in CONTEXT_FIELDS]
    sizes += [config.num_countries, config.num_cities]
    return FeatureSpace.from_cardinalities(names, sizes)


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def generate_positives(config: ClickDataConfig) -> PackedInstances:
    """Label-1 transactions: long-tailed users clicking items of their
    preferred cluster, with home-city geography and derived context."""
    rng = seeded_rng(derive_seed(config.seed, "positives"))
    space = click_space(config)
    n = config.num_transactions
    k = config.num_clusters

    item_cluster = np.arange(config.num_items) % k
    cluster_items = [np.flatnonzero(item_cluster == c) for c in range(k)]
    user_cluster = rng.integers(0, k, size=config.num_users)
    home_city = rng.choice(config.num_cities, size=config.num_users,
                           p=_zipf_probs(config.num_cities, 1.1))
    item_cost = rng.integers(0, 2, size=config.num_items)

    users = rng.choice(config.num_users, size=n,
                       p=_zipf_probs(config.num_users, USER_ZIPF))
    keep_pref = rng.random(n) < config.cluster_affinity
    clusters = np.where(keep_pref, user_cluster[users], rng.integers(0, k, size=n))
    items = np.empty(n, dtype=np.int64)
    for c in range(k):
        mask = clusters == c
        pool = cluster_items[c]
        picks = rng.choice(pool.size, size=int(mask.sum()),
                           p=_zipf_probs(pool.size, ITEM_ZIPF))
        items[mask] = pool[picks]

    daytime = rng.integers(0, 7, size=n)
    weekday = rng.integers(0, 7, size=n)
    isweekend = (weekday >= 5).astype(np.int64)
    homework = rng.integers(0, 3, size=n)
    weather = rng.integers(0, 9, size=n)
    at_home = rng.random(n) < 0.9
    city = np.where(at_home, home_city[users],
                    rng.integers(0, config.num_cities, size=n))
    country = city % config.num_countries

    columns = [users, items, daytime, weekday, isweekend, homework,
               item_cost[items], weather, country, city]
    starts = np.array([space.field_range(f)[0] for f in range(space.num_fields)],
                      dtype=np.int64)
    index_rows = np.stack(columns, axis=1) + starts[None, :]
    # one entry per field, in field order, so every row is sorted
    width = space.num_fields
    return PackedInstances(np.ones(n), np.arange(n + 1, dtype=np.int64) * width,
                           index_rows.ravel(), np.ones(n * width))


@dataclass(frozen=True)
class ClickBenchmark:
    """A ready-to-train benchmark: splits with negatives mixed in, plus the
    train positives the co-occurrence graph should be built from."""

    space: FeatureSpace
    train: PackedInstances
    validation: PackedInstances
    test: PackedInstances
    train_positives: PackedInstances


def click_benchmark(config: ClickDataConfig) -> ClickBenchmark:
    """Positives split 8:1:1, then per-split negative sampling."""
    space = click_space(config)
    positives = generate_positives(config)
    split = split_dataset(positives, (0.8, 0.1, 0.1),
                          seed=derive_seed(config.seed, "split"))
    item_field = space.field_id("item")
    parts = []
    for name, part in (("train", split.train), ("validation", split.validation),
                       ("test", split.test)):
        negatives = negative_sample(part, space, item_field, NEGATIVES_PER_POSITIVE,
                                    seed=derive_seed(config.seed, "negative", name))
        parts.append(part + negatives)
    return ClickBenchmark(space, parts[0], parts[1], parts[2], split.train)
