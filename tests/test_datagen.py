"""Synthetic click-data generator: structure, determinism, distributions."""

import hashlib
import warnings

import numpy as np

from gemfm import ModelParams, build_graph, count_params
from gemfm.datagen import ClickDataConfig, click_benchmark, click_space, generate_positives
from oracles import packed_equal, unpack

SMALL = ClickDataConfig(num_users=30, num_items=24, num_countries=5,
                        num_cities=10, num_clusters=4, num_transactions=400,
                        seed=0)


def test_click_space_layout():
    space = click_space(SMALL)
    assert space.field_names == ("user", "item", "daytime", "weekday",
                                 "isweekend", "homework", "cost", "weather",
                                 "country", "city")
    assert space.cardinality(space.field_id("user")) == 30
    assert space.cardinality(space.field_id("weather")) == 9
    assert space.num_features == 30 + 24 + 7 + 7 + 2 + 3 + 2 + 9 + 5 + 10


def test_published_space_parameter_budget():
    space = click_space(ClickDataConfig(num_users=957, num_items=4082, num_countries=80,
                                        num_cities=233))
    assert space.num_features == 5382
    params = ModelParams.initialize(space.num_features, 256)
    assert count_params(params) == 1 + 5382 + 5382 * 256 == 1_383_175


def _index_rows(positives, space):
    """The (rows, fields) index matrix of one-entry-per-field rows."""
    return positives.indices.reshape(len(positives), space.num_fields)


def test_positives_are_complete_one_hot_rows():
    space = click_space(SMALL)
    positives = generate_positives(SMALL)
    n, f = SMALL.num_transactions, space.num_fields
    assert len(positives) == n
    np.testing.assert_array_equal(positives.labels, np.ones(n))
    np.testing.assert_array_equal(positives.indptr, np.arange(n + 1) * f)
    np.testing.assert_array_equal(positives.values, np.ones(n * f))
    rows = _index_rows(positives, space)
    for field in range(f):
        lo, hi = space.field_range(field)
        assert np.all((lo <= rows[:, field]) & (rows[:, field] < hi))


def test_positives_respect_derived_context():
    space = click_space(SMALL)
    rows = _index_rows(generate_positives(SMALL), space)

    def column(name):
        field = space.field_id(name)
        return rows[:, field] - space.field_range(field)[0]

    np.testing.assert_array_equal(column("isweekend"), column("weekday") >= 5)
    np.testing.assert_array_equal(column("country"), column("city") % SMALL.num_countries)


def test_full_affinity_pins_users_to_one_cluster():
    config = ClickDataConfig(num_users=20, num_items=24, num_countries=5,
                             num_cities=10, num_clusters=4,
                             num_transactions=600, cluster_affinity=1.0, seed=1)
    space = click_space(config)
    item_lo = space.field_range(space.field_id("item"))[0]
    by_user: dict[int, set[int]] = {}
    for user, item in _index_rows(generate_positives(config), space)[:, :2].tolist():
        by_user.setdefault(user, set()).add((item - item_lo) % config.num_clusters)
    assert all(len(clusters) == 1 for clusters in by_user.values())


def test_user_frequencies_are_long_tailed():
    positives = generate_positives(SMALL)
    counts = np.bincount(_index_rows(positives, click_space(SMALL))[:, 0],
                         minlength=SMALL.num_users)
    head = np.sort(counts)[::-1]
    uniform = SMALL.num_transactions / SMALL.num_users
    # busiest decile well above a uniform share, quietest decile below it
    assert head[:3].sum() > 2 * 3 * uniform
    assert head[-3:].sum() < 3 * uniform


def test_generation_is_deterministic():
    assert packed_equal(generate_positives(SMALL), generate_positives(SMALL))
    other = ClickDataConfig(**{**SMALL.__dict__, "seed": 9})
    assert not packed_equal(generate_positives(other), generate_positives(SMALL))


def test_benchmark_mixes_negatives_into_each_split():
    bench = click_benchmark(SMALL)
    assert len(bench.train_positives) == 320
    k = SMALL.negatives_per_positive
    for part, base in ((bench.train, 320), (bench.validation, 40),
                       (bench.test, 40)):
        # positives first, then (every context has plenty of unclicked items
        # at this scale) k negatives each
        np.testing.assert_array_equal(part.labels, [1.0] * base + [0.0] * (k * base))
    assert packed_equal(bench.train.take(np.arange(320)), bench.train_positives)


def test_benchmark_negatives_swap_only_the_item():
    space = click_space(SMALL)
    bench = click_benchmark(SMALL)
    item_field = space.field_id("item")
    lo, hi = space.field_range(item_field)
    train = unpack(bench.train)
    positives_by_context = {}
    for label, entries in train:
        if label != 1.0:
            continue
        context = tuple(e for e in entries if not lo <= e[0] < hi)
        positives_by_context.setdefault(context, set()).add(
            next(i for i, _ in entries if lo <= i < hi))
    for label, entries in train:
        if label != 0.0:
            continue
        context = tuple(e for e in entries if not lo <= e[0] < hi)
        item = next(i for i, _ in entries if lo <= i < hi)
        assert context in positives_by_context
        assert item not in positives_by_context[context]


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# blake2b of the generated rows (labels, indptr, indices, values) and of the
# co-occurrence edges, recorded while datagen, splitting, negative sampling
# and graph building still worked on lists of instance objects. Packed
# arrays must keep every row, value, RNG draw and edge.
PINNED_DATA = {
    "train": "3c459181895794f94666532aef1226c6",
    "validation": "a740b54af9d5ddbd01312295984725f7",
    "test": "0f351adaad4c722ae1639af523f8819c",
    "train_positives": "d57e3922854fd3b7792cc67b9a2fe047",
}
PINNED_EDGES = {   # included fields -> (edge count, digest)
    ("user", "item"): (126, "96972e85e8c77ece7dbe524de7157a9f"),
    None: (2299, "d6c90e128aae995eb82c1d5ff19c81e7"),
}


def test_click_benchmark_is_pinned():
    bench = click_benchmark(SMALL)
    for name, digest in PINNED_DATA.items():
        part = getattr(bench, name)
        assert _digest(part.labels, part.indptr, part.indices, part.values) == digest, name
    for fields, (count, digest) in PINNED_EDGES.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # low-cardinality fields
            graph = build_graph(bench.train_positives, bench.space, included_fields=fields)
        assert (graph.num_edges, _digest(graph.edges)) == (count, digest), fields
