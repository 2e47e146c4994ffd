"""Co-occurrence graph construction, normalization, neighbor sampling."""

import itertools

import numpy as np
import pytest

from gemfm import (FeatureGraph, FeatureSpace, GraphFormatError,
                   SparseInstance, build_graph, normalize, sample_neighbors)
from gemfm.graph import local_columns, node_set
from oracles import dense_normalized_adjacency


def _inst(*indices):
    return SparseInstance(1.0, tuple((i, 1.0) for i in sorted(indices)))


def _brute_force_pairs(instances, space, fields):
    """All co-occurring index pairs whose fields are both allowed."""
    allowed = set(fields)
    pairs = set()
    for inst in instances:
        for a, b in itertools.combinations(inst.indices, 2):
            if space.field_of(a) in allowed and space.field_of(b) in allowed:
                pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


# --- construction ---

def test_graph_requires_canonical_edges():
    g = FeatureGraph(4, np.array([[0, 3], [1, 2]]))
    assert g.num_edges == 2
    with pytest.raises(GraphFormatError, match="i < j"):
        FeatureGraph(4, np.array([[2, 1]]))
    with pytest.raises(GraphFormatError, match="sorted"):
        FeatureGraph(4, np.array([[1, 2], [0, 3]]))
    with pytest.raises(GraphFormatError, match="unique"):
        FeatureGraph(4, np.array([[0, 3], [0, 3]]))
    with pytest.raises(GraphFormatError, match="i < j"):
        FeatureGraph(4, np.array([[1, 1]]))
    with pytest.raises(GraphFormatError, match="outside"):
        FeatureGraph(4, np.array([[0, 4]]))
    with pytest.raises(GraphFormatError, match="outside"):
        FeatureGraph(4, np.array([[-1, 2]]))
    with pytest.raises(GraphFormatError):
        FeatureGraph(0, np.zeros((0, 2), dtype=np.int64))


def test_degrees_and_neighbor_lists():
    g = FeatureGraph(5, np.array([[0, 1], [0, 2], [1, 2], [3, 4]]))
    np.testing.assert_array_equal(g.degrees(), [2, 2, 2, 1, 1])
    np.testing.assert_array_equal(g.neighbor_lists[0], [1, 2])
    np.testing.assert_array_equal(g.neighbor_lists[2], [0, 1])
    np.testing.assert_array_equal(g.neighbor_lists[4], [3])


def test_build_graph_matches_brute_force():
    rng = np.random.default_rng(2)
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [20, 30, 15])
    instances = []
    for _ in range(200):
        u = int(rng.integers(0, 20))
        i = 20 + int(rng.integers(0, 30))
        c = 50 + int(rng.integers(0, 15))
        instances.append(_inst(u, i, c))
    g = build_graph(instances, space, low_cardinality_threshold=0)
    expected = _brute_force_pairs(instances, space, {0, 1, 2})
    np.testing.assert_array_equal(g.edges, expected)
    assert g.num_nodes == space.num_features


def test_build_graph_field_subset():
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [20, 30, 15])
    instances = [_inst(0, 25, 55), _inst(1, 25, 60)]
    g = build_graph(instances, space, included_fields=["u", "i"],
                    low_cardinality_threshold=0)
    expected = _brute_force_pairs(instances, space, {0, 1})
    np.testing.assert_array_equal(g.edges, expected)
    assert not any(i >= 50 for edge in g.edges for i in edge)


def test_build_graph_pair_list_mode():
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [4, 4, 4])
    instances = [_inst(0, 5, 9), _inst(1, 6, 10)]
    g = build_graph(instances, space, mode="pair_list",
                    field_pairs=[("u", "c")], low_cardinality_threshold=0)
    np.testing.assert_array_equal(g.edges, [[0, 9], [1, 10]])


def test_build_graph_links_within_a_field_too():
    # multi-hot fields co-occur with themselves; all_pairs keeps those edges
    space = FeatureSpace.from_cardinalities(["tags"], [6])
    instances = [_inst(0, 1, 2), _inst(3, 4)]
    g = build_graph(instances, space, low_cardinality_threshold=0)
    np.testing.assert_array_equal(
        g.edges, [[0, 1], [0, 2], [1, 2], [3, 4]])


def test_build_graph_warns_on_low_cardinality_field():
    space = FeatureSpace.from_cardinalities(["u", "flag"], [50, 2])
    instances = [_inst(0, 50), _inst(1, 51)]
    with pytest.warns(RuntimeWarning, match="'flag' has only 2 features"):
        build_graph(instances, space, low_cardinality_threshold=10)


def test_build_graph_rejects_out_of_range_feature():
    space = FeatureSpace.from_cardinalities(["u", "i"], [2, 2])
    with pytest.raises(GraphFormatError, match=r"instance 1: feature index 4"):
        build_graph([_inst(0, 2), _inst(1, 4)], space,
                    low_cardinality_threshold=0)


def test_build_graph_rejects_unknown_field():
    from gemfm import DataFormatError
    space = FeatureSpace.from_cardinalities(["u", "i"], [2, 2])
    with pytest.raises(DataFormatError, match="unknown field"):
        build_graph([_inst(0, 2)], space, included_fields=["bogus"])
    with pytest.raises(ValueError, match="outside"):
        build_graph([_inst(0, 2)], space, included_fields=[5])


# --- save / load ---

def test_graph_file_round_trip(tmp_path):
    g = FeatureGraph(6, np.array([[0, 5], [1, 2], [2, 4]]))
    path = tmp_path / "graph.txt"
    g.save(path)
    loaded = FeatureGraph.load(path)
    assert loaded.num_nodes == 6
    np.testing.assert_array_equal(loaded.edges, g.edges)


def test_graph_load_canonicalizes(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("nodes 4\n# comment\n3 1\n0 2\n")
    g = FeatureGraph.load(path)
    np.testing.assert_array_equal(g.edges, [[0, 2], [1, 3]])


@pytest.mark.parametrize("text,fragment", [
    ("3 1\n", "header"),
    ("nodes x\n", "header"),
    ("", "missing 'nodes"),
    ("nodes 4\n1 1\n", "self-edge"),
    ("nodes 4\n1 9\n", "outside"),
    ("nodes 4\n1\n", "expected 'i j'"),
    ("nodes 4\n1 2 3\n", "expected 'i j'"),
    ("nodes 4\na b\n", "non-integer"),
    ("nodes 4\n1 3\n3 1\n", "duplicate"),
])
def test_graph_load_rejects(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=fragment):
        FeatureGraph.load(path)


# --- normalization ---

def test_normalize_isolated_node_is_exact():
    g = FeatureGraph(3, np.zeros((0, 2), dtype=np.int64))
    norm = normalize(g)
    dense = norm.matrix.toarray()
    np.testing.assert_array_equal(dense, np.eye(3))  # bitwise identity


def test_normalize_two_node_edge():
    # both degrees+1 = 2, so every coefficient is exactly 1/2
    norm = normalize(FeatureGraph(2, np.array([[0, 1]])))
    np.testing.assert_array_equal(norm.matrix.toarray(), np.full((2, 2), 0.5))


def test_normalize_star_coefficients():
    # center 0 with leaves 1..3: deg+1 = (4, 2, 2, 2)
    norm = normalize(FeatureGraph(4, np.array([[0, 1], [0, 2], [0, 3]])))
    assert norm.coefficient(0, 0) == 0.25
    assert norm.coefficient(1, 1) == 0.5
    assert norm.coefficient(0, 1) == 1.0 / np.sqrt(8.0)
    assert norm.coefficient(1, 0) == norm.coefficient(0, 1)
    assert norm.coefficient(1, 2) == 0.0


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        mask = np.triu(rng.random((n, n)) < 0.3, k=1)
        edges = np.argwhere(mask)
        g = FeatureGraph(n, edges if len(edges) else np.zeros((0, 2), np.int64))
        expected = dense_normalized_adjacency(n, g.edges)
        np.testing.assert_allclose(norm_dense := normalize(g).matrix.toarray(),
                                   expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(norm_dense, norm_dense.T)


def test_normalize_row_sums_on_regular_graphs():
    # rows of the normalized matrix sum to 1 exactly when degrees are uniform
    cycle = FeatureGraph(6, np.array(
        [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]))
    complete = FeatureGraph(4, np.array(list(itertools.combinations(range(4), 2))))
    for g in (cycle, complete):
        sums = normalize(g).matrix.toarray().sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


def test_normalize_expand_collects_neighbors():
    g = FeatureGraph(5, np.array([[0, 1], [1, 2], [3, 4]]))
    norm = normalize(g)
    np.testing.assert_array_equal(norm.expand(np.array([0])), [0, 1])
    np.testing.assert_array_equal(norm.expand(np.array([1])), [0, 1, 2])
    np.testing.assert_array_equal(norm.expand(np.array([0, 3])), [0, 1, 3, 4])


def test_node_set_matches_sorted_dedup():
    rng = np.random.default_rng(12)
    for size in (1, 7, 300):
        ids = rng.integers(0, size, size=int(rng.integers(0, 500)))
        nodes, local = node_set(ids, size)
        np.testing.assert_array_equal(nodes, np.unique(ids))
        np.testing.assert_array_equal(local[ids], np.searchsorted(nodes, ids))


def test_local_columns_renumbers_without_reordering():
    g = FeatureGraph(6, np.array([[0, 1], [1, 2], [3, 5], [4, 5]]))
    block = normalize(g).matrix[np.array([0, 4])]
    columns, local = local_columns(block)
    np.testing.assert_array_equal(columns, [0, 1, 4, 5])
    assert local.shape == (2, 4)
    np.testing.assert_array_equal(local.toarray(), block.toarray()[:, columns])
    np.testing.assert_array_equal(local.data, block.data)


# --- neighbor sampling ---

def test_sampling_ratio_one_returns_same_graph():
    g = FeatureGraph(4, np.array([[0, 1], [2, 3]]))
    assert sample_neighbors(g, 1.0, seed=0) is g


def test_sampling_ratio_zero_empties_graph():
    g = FeatureGraph(4, np.array([[0, 1], [2, 3]]))
    s = sample_neighbors(g, 0.0, seed=0)
    assert s.num_nodes == 4
    assert s.edges.shape == (0, 2)


def test_sampling_star_survives_by_union():
    # every leaf has one neighbor, so each leaf keeps its edge to the
    # center at any positive ratio; the union rule preserves the star
    edges = np.array([[0, i] for i in range(1, 9)])
    g = FeatureGraph(9, edges)
    for seed in range(10):
        s = sample_neighbors(g, 0.1, seed=seed)
        np.testing.assert_array_equal(s.edges, g.edges)


def test_sampling_keep_count_uses_ceiling():
    # circulant graph where every node has degree 4: ratio 0.3 keeps
    # ceil(1.2) = 2 of 4 per node, so each directed side survives with
    # p = 1/2 and each edge with p = 1 - (1/2)^2 = 3/4.  A floor rule
    # would keep 1 of 4 (p = 7/16).  Average over many seeds separates them.
    n = 12
    edges = np.array([[min(i, (i + o) % n), max(i, (i + o) % n)]
                      for i in range(n) for o in (1, 2)])
    g = FeatureGraph(n, np.unique(edges, axis=0))
    total = len(g.edges)
    kept = np.mean([len(sample_neighbors(g, 0.3, seed=s).edges) / total
                    for s in range(60)])
    assert abs(kept - 0.75) < 0.06
    assert kept > 0.6  # floor-based sampling would sit near 0.44


def test_sampling_produces_edge_subset():
    rng = np.random.default_rng(3)
    mask = np.triu(rng.random((25, 25)) < 0.2, k=1)
    g = FeatureGraph(25, np.argwhere(mask))
    full = {tuple(e) for e in g.edges}
    for ratio in (0.2, 0.5, 0.8):
        s = sample_neighbors(g, ratio, seed=5)
        assert {tuple(e) for e in s.edges} <= full
        assert s.num_nodes == g.num_nodes


def test_sampling_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    mask = np.triu(rng.random((30, 30)) < 0.3, k=1)
    g = FeatureGraph(30, np.argwhere(mask))
    a = sample_neighbors(g, 0.4, seed=1)
    b = sample_neighbors(g, 0.4, seed=1)
    c = sample_neighbors(g, 0.4, seed=2)
    np.testing.assert_array_equal(a.edges, b.edges)
    assert a.edges.shape != c.edges.shape or not np.array_equal(a.edges, c.edges)


def test_sampling_rejects_bad_ratio():
    g = FeatureGraph(2, np.array([[0, 1]]))
    for ratio in (-0.1, 1.5):
        with pytest.raises(ValueError, match="ratio"):
            sample_neighbors(g, ratio, seed=0)
