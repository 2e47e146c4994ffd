"""Co-occurrence graph construction, normalization, neighbor sampling."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from gemfm import (FeatureGraph, FeatureSpace, GemfmError, GraphFormatError, build_graph,
                   normalize, sample_neighbors)
from gemfm.graph import (_edge_arrays, _edge_lines, _kept_directed_edges, local_columns,
                         node_set)
from oracles import dense_normalized_adjacency, graph_save_reference, packed_rows


def _inst(*indices):
    return (1.0, tuple((i, 1.0) for i in sorted(indices)))


def _brute_force_pairs(instances, space, fields):
    """All co-occurring index pairs whose fields are both allowed."""
    allowed = set(fields)
    pairs = set()
    for _, entries in instances:
        for (a, _), (b, _) in itertools.combinations(entries, 2):
            if set(space.field_of_array(np.array([a, b])).tolist()) <= allowed:
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
    with pytest.raises(GraphFormatError, match="at least one node, got 0"):
        FeatureGraph(0, np.zeros((0, 2), dtype=np.int64))


@pytest.mark.parametrize("num_nodes, edges, fragment", [
    (2.5, [[0, 1]], "node count must be an integer, got 2.5"),
    (True, [[0, 1]], "node count must be an integer, got True"),
    ("3", [[0, 1]], "node count must be an integer, got '3'"),
    (4, [[0.5, 1.7]], "endpoints must be integers, got float64"),
    (4, np.array([[False, True]]), "endpoints must be integers, got bool"),
    (4, [["0", "1"]], "endpoints must be integers"),
])
def test_graph_refuses_input_that_is_not_integer(num_nodes, edges, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        FeatureGraph(num_nodes, edges)


def test_graph_takes_numpy_integers():
    g = FeatureGraph(np.int64(4), np.array([[0, 3]], dtype=np.uint8))
    assert g.num_nodes == 4 and g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 3]]
    assert FeatureGraph(4, []).num_edges == 0


def test_degrees_and_neighbor_lists():
    g = FeatureGraph(5, np.array([[0, 1], [0, 2], [1, 2], [3, 4]]))
    np.testing.assert_array_equal(g.degrees(), [2, 2, 2, 1, 1])


def test_build_graph_matches_brute_force():
    rng = np.random.default_rng(2)
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [20, 30, 15])
    instances = []
    for _ in range(200):
        u = int(rng.integers(0, 20))
        i = 20 + int(rng.integers(0, 30))
        c = 50 + int(rng.integers(0, 15))
        instances.append(_inst(u, i, c))
    g = build_graph(packed_rows(instances), space)
    expected = _brute_force_pairs(instances, space, {0, 1, 2})
    np.testing.assert_array_equal(g.edges, expected)
    assert g.num_nodes == space.num_features


def test_build_graph_groups_rows_of_any_length():
    # rows with 0 to 6 selected entries; with and without field pairs
    rng = np.random.default_rng(4)
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [9, 12, 6])
    instances = [_inst(*rng.choice(27, size=int(rng.integers(0, 7)), replace=False).tolist())
                 for _ in range(150)]
    packed = packed_rows(instances)
    for fields in (None, ["u", "c"]):
        expected = _brute_force_pairs(instances, space, {0, 2} if fields else {0, 1, 2})
        g = build_graph(packed, space, included_fields=fields)
        np.testing.assert_array_equal(g.edges, np.array(expected).reshape(-1, 2))
    g = build_graph(packed, space, field_pairs=[("u", "c"), ("i", "i")])
    pairs = {(0, 2), (1, 1)}
    expected = [(a, b) for a, b in _brute_force_pairs(instances, space, {0, 1, 2})
                if tuple(sorted(space.field_of_array(np.array([a, b])).tolist())) in pairs]
    np.testing.assert_array_equal(g.edges, expected)
    # a pair list no row matches gives no edges
    g = build_graph(packed_rows([_inst(0, 9)]), space, field_pairs=[("u", "c")])
    assert g.edges.shape == (0, 2)


def test_build_graph_field_subset():
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [20, 30, 15])
    instances = [_inst(0, 25, 55), _inst(1, 25, 60)]
    g = build_graph(packed_rows(instances), space, included_fields=["u", "i"])
    expected = _brute_force_pairs(instances, space, {0, 1})
    np.testing.assert_array_equal(g.edges, expected)
    assert not any(i >= 50 for edge in g.edges for i in edge)


def test_build_graph_pair_list_mode():
    space = FeatureSpace.from_cardinalities(["u", "i", "c"], [4, 4, 4])
    instances = [_inst(0, 5, 9), _inst(1, 6, 10)]
    g = build_graph(packed_rows(instances), space,
                    field_pairs=[("u", "c")])
    np.testing.assert_array_equal(g.edges, [[0, 9], [1, 10]])


def test_build_graph_links_within_a_field_too():
    # multi-hot fields co-occur with themselves; without field pairs those edges stay
    space = FeatureSpace.from_cardinalities(["tags"], [6])
    instances = [_inst(0, 1, 2), _inst(3, 4)]
    g = build_graph(packed_rows(instances), space)
    np.testing.assert_array_equal(
        g.edges, [[0, 1], [0, 2], [1, 2], [3, 4]])


def test_build_graph_warns_on_low_cardinality_field():
    space = FeatureSpace.from_cardinalities(["u", "flag"], [50, 2])
    instances = [_inst(0, 50), _inst(1, 51)]
    with pytest.warns(RuntimeWarning, match="'flag' has only 2 features"):
        build_graph(packed_rows(instances), space)


def test_build_graph_rejects_out_of_range_feature():
    space = FeatureSpace.from_cardinalities(["u", "i"], [2, 2])
    with pytest.raises(GraphFormatError, match=r"instance 1: feature index 4"):
        build_graph(packed_rows([_inst(0, 2), _inst(1, 4)]), space)


def test_build_graph_rejects_unknown_field():
    from gemfm import DataFormatError
    space = FeatureSpace.from_cardinalities(["u", "i"], [2, 2])
    with pytest.raises(DataFormatError, match="unknown field"):
        build_graph(packed_rows([_inst(0, 2)]), space, included_fields=["bogus"])
    with pytest.raises(ValueError, match="outside"):
        build_graph(packed_rows([_inst(0, 2)]), space, included_fields=[5])


# --- save / load ---

def test_graph_file_round_trip(tmp_path):
    g = FeatureGraph(6, np.array([[0, 5], [1, 2], [2, 4]]))
    path = tmp_path / "graph.txt"
    g.save(path)
    loaded = FeatureGraph.load(path)
    assert loaded.num_nodes == 6
    np.testing.assert_array_equal(loaded.edges, g.edges)


@given(st.sets(st.tuples(st.integers(0, 2 * 10**9), st.integers(1, 2 * 10**9))
               .filter(lambda e: e[0] < e[1]), max_size=40),
       st.integers(0, 3), st.sampled_from([1, 3, 1 << 16]))
@settings(max_examples=200, deadline=None)
def test_graph_save_writes_the_line_writer_bytes(graph_file, edges, spare, block):
    top = max((j for _, j in edges), default=0)
    graph = FeatureGraph(top + 1 + spare, np.array(sorted(edges), dtype=np.int64))
    want = graph_file.with_name("want.txt")
    graph_save_reference(graph, want)
    with mock.patch("gemfm.graph._SAVE_EDGES", block):
        graph.save(graph_file)
    assert graph_file.read_bytes() == want.read_bytes()


def test_graph_load_reads_comments_in_bulk(tmp_path, monkeypatch):
    # a comment's multi-byte character moves the header's bytes, not its token
    path = tmp_path / "graph.txt"
    calls = []
    monkeypatch.setattr("gemfm.graph._edge_lines",
                        lambda *args: calls.append(args) or _edge_lines(*args))
    for first in ("# written by hand", "# café"):
        path.write_text(f"{first}\nnodes 6 # six\n0 5\n#\n2 1  # 1 9 #\n3 4#\n",
                        encoding="utf-8")
        g = FeatureGraph.load(path)
        assert calls == []
        assert g.num_nodes == 6
        np.testing.assert_array_equal(g.edges, [[0, 5], [1, 2], [3, 4]])


@pytest.mark.parametrize("byte", range(128))
def test_graph_load_splits_where_str_split_does(tmp_path, monkeypatch, byte):
    # the byte between tokens, around them and alone on a line: a file the
    # line reader reads is read in bulk to the same graph, any other fails alike
    c = chr(byte)
    path = tmp_path / "graph.txt"
    path.write_bytes(f"nodes{c}5\n{c}0{c}1\n2 3{c}\n{c}\n4 1\n".encode("ascii"))
    lines = path.read_text(encoding="utf-8").split("\n")    # newlines as load reads them
    calls = []
    monkeypatch.setattr("gemfm.graph._edge_lines",
                        lambda *args: calls.append(args) or _edge_lines(*args))
    try:
        header, pairs = _edge_lines(lines, path)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as raised:
            FeatureGraph.load(path)
        assert str(raised.value) == str(exc)
    else:
        g = FeatureGraph.load(path)
        assert calls == []
        assert g.num_nodes == header
        np.testing.assert_array_equal(g.edges, sorted(pairs.tolist()))


def test_graph_load_canonicalizes(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("nodes 4\n# comment\n3 1\n0 2\n")
    g = FeatureGraph.load(path)
    np.testing.assert_array_equal(g.edges, [[0, 2], [1, 3]])


def test_graph_order_check_holds_past_the_int64_key_range(tmp_path):
    # i * num_nodes + j overflows int64 here, so rows are compared as pairs
    path = tmp_path / "graph.txt"
    path.write_text("nodes 922337203685477581\n0 1\n9 922337203685477580\n")
    g = FeatureGraph.load(path)
    np.testing.assert_array_equal(g.edges, [[0, 1], [9, 922337203685477580]])
    with pytest.raises(GraphFormatError, match="sorted"):
        FeatureGraph(g.num_nodes, g.edges[::-1])


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
    ("nodes \u00b2\n", "header"),               # superscript two passes isdigit
    ("nodes 99999999999999999999\n", "header"),
    ("nodes 4\n\u0660 \u0661\n", "non-integer"),   # Arabic-Indic digits pass int()
    ("nodes 4\n+1 2\n", "non-integer"),
    ("nodes 4\n1 0_2\n", "non-integer"),
    ("nodes 4\n1 99999999999999999999\n", "non-integer"),
])
def test_graph_load_rejects(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFormatError, match=fragment):
        FeatureGraph.load(path)


@pytest.mark.parametrize("text,message", [
    ("nodes 4\n0 1\n2 2\n", ":3: self-edge 2"),
    ("nodes 4\n\n0 1\n3 4\n", ":4: endpoint outside [0, 4)"),
    ("nodes 4\n0 1\n1 x\n", ":3: non-integer endpoint in '1 x'"),
    ("nodes 4\n0 1 # note\n1\n", ":3: expected 'i j', got '1'"),
    ("\nnodes\n0 1\n", ":2: expected 'nodes <count>' header, got 'nodes'"),
    ("nodes 4\n0 1\n2 3\n1 0\n", ": duplicate edges in file"),
])
def test_graph_load_errors_name_the_line(tmp_path, text, message):
    # the bulk tokenizer rejects these, and the line-by-line reader names them
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError) as raised:
        FeatureGraph.load(path)
    assert str(raised.value) == f"{path}{message}"


# arbitrary bytes, arbitrary text, and lines shaped like the format from the
# tokens its grammar cares about
_GRAPH_TOKEN = st.one_of(
    st.sampled_from(["nodes", "0", "1", "3", "-1", "+2", "1_0", "\u00b2", "\u0663", "#",
                     "99999999999999999999", "999999999999999999"]),
    st.text(alphabet="0123456789+-_#\u0663", min_size=1, max_size=6))
_GRAPH_TEXT = st.tuples(
    st.one_of(st.sampled_from(["nodes 4", "nodes 30", "nodes 999999999999999999"]),
              st.lists(_GRAPH_TOKEN, max_size=3).map(" ".join)),
    st.lists(st.lists(_GRAPH_TOKEN, max_size=3).map(" ".join), max_size=6),
).map(lambda parts: "\n".join([parts[0], *parts[1]]))


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


@given(st.one_of(st.binary(), st.text().map(str.encode), _GRAPH_TEXT.map(str.encode)))
@settings(max_examples=500, deadline=None)
def test_graph_load_fuzz(graph_file, blob):
    graph_file.write_bytes(blob)
    try:
        FeatureGraph.load(graph_file)
    except GemfmError:
        pass


@given(_GRAPH_TEXT)
@settings(max_examples=500, deadline=None)
def test_graph_bulk_reader_agrees_with_the_line_reader(text):
    # whatever the bulk tokenizer accepts, comments included, the line
    # reader reads the same way
    bulk = _edge_arrays(text)
    if bulk is not None:
        header, pairs = _edge_lines(text.split("\n"), "graph.txt")
        assert bulk[0] == header
        np.testing.assert_array_equal(bulk[1], pairs)


def test_graph_load_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"nodes 4 # caf\xe9\n0 1\n")
    with pytest.raises(GraphFormatError, match=r"latin1\.txt.*UTF-8"):
        FeatureGraph.load(path)


# --- normalization ---

def test_normalize_isolated_node_is_exact():
    g = FeatureGraph(3, np.zeros((0, 2), dtype=np.int64))
    norm = normalize(g)
    dense = norm.toarray()
    np.testing.assert_array_equal(dense, np.eye(3))  # bitwise identity


def test_normalize_two_node_edge():
    # both degrees+1 = 2, so every coefficient is exactly 1/2
    norm = normalize(FeatureGraph(2, np.array([[0, 1]])))
    np.testing.assert_array_equal(norm.toarray(), np.full((2, 2), 0.5))


def test_normalize_star_coefficients():
    # center 0 with leaves 1..3: deg+1 = (4, 2, 2, 2)
    norm = normalize(FeatureGraph(4, np.array([[0, 1], [0, 2], [0, 3]])))
    assert isinstance(norm, sparse.csr_array) and norm.has_sorted_indices
    assert norm.indices.tolist() == [0, 1, 2, 3, 0, 1, 0, 2, 0, 3]
    assert norm[0, 0] == 0.25
    assert norm[1, 1] == 0.5
    assert norm[0, 1] == 1.0 / np.sqrt(8.0)
    assert norm[1, 0] == norm[0, 1]
    assert norm[1, 2] == 0.0


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        mask = np.triu(rng.random((n, n)) < 0.3, k=1)
        edges = np.argwhere(mask)
        g = FeatureGraph(n, edges if len(edges) else np.zeros((0, 2), np.int64))
        expected = dense_normalized_adjacency(n, g.edges)
        np.testing.assert_allclose(norm_dense := normalize(g).toarray(),
                                   expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(norm_dense, norm_dense.T)


def test_normalize_row_sums_on_regular_graphs():
    # rows of the normalized matrix sum to 1 exactly when degrees are uniform
    cycle = FeatureGraph(6, np.array(
        [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]))
    complete = FeatureGraph(4, np.array(list(itertools.combinations(range(4), 2))))
    for g in (cycle, complete):
        sums = normalize(g).toarray().sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


def test_normalize_expand_collects_neighbors():
    g = FeatureGraph(5, np.array([[0, 1], [1, 2], [3, 4]]))
    norm = normalize(g)
    for nodes, reached in (([0], [0, 1]), ([1], [0, 1, 2]), ([0, 3], [0, 1, 3, 4])):
        np.testing.assert_array_equal(local_columns(norm[nodes])[0], reached)


def test_node_set_matches_sorted_dedup():
    rng = np.random.default_rng(12)
    for size in (1, 7, 300):
        ids = rng.integers(0, size, size=int(rng.integers(0, 500)))
        nodes, local = node_set(ids, size)
        np.testing.assert_array_equal(nodes, np.unique(ids))
        np.testing.assert_array_equal(local[ids], np.searchsorted(nodes, ids))


def test_local_columns_renumbers_without_reordering():
    g = FeatureGraph(6, np.array([[0, 1], [1, 2], [3, 5], [4, 5]]))
    block = normalize(g)[np.array([0, 4])]
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


def test_sampling_keeps_the_smallest_keys_per_node():
    # the directed keep step, exactly: each node keeps min(deg, max(1,
    # ceil(ratio * deg))) neighbors (none at ratio 0), those with the smallest keys
    rng = np.random.default_rng(8)
    mask = np.triu(rng.random((40, 40)) < 0.25, k=1)
    g = FeatureGraph(40, np.argwhere(mask))
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    deg = g.degrees()
    for ratio in (0.0, 0.01, 0.2, 0.3, 0.5, 0.75, 0.99):
        keys = rng.random(src.size)
        kept = _kept_directed_edges(src, keys, ratio, g.num_nodes)
        for node in range(g.num_nodes):
            own = np.flatnonzero(src == node)
            count = min(deg[node], max(1, math.ceil(ratio * deg[node] - 1e-9))) if ratio else 0
            np.testing.assert_array_equal(np.sort(kept[src[kept] == node]),
                                          np.sort(own[np.argsort(keys[own])[:count]]))


def test_sampling_survival_on_a_clique_matches_the_union_rule():
    # K_n: each node keeps k of its n - 1 neighbors uniformly, independently
    # of the other endpoint, so every edge survives with 1 - (1 - k/(n-1))^2
    n, ratio, seeds = 7, 0.3, 3000
    g = FeatureGraph(n, np.argwhere(np.triu(np.ones((n, n), dtype=bool), k=1)))
    k = math.ceil(ratio * (n - 1))
    p = 1 - (1 - k / (n - 1)) ** 2
    survived = np.zeros((seeds, g.num_edges), dtype=bool)
    for seed in range(seeds):
        kept = sample_neighbors(g, ratio, seed=seed).edges
        survived[seed] = (kept[:, 0, None] * n + kept[:, 1, None]
                          == g.edges[:, 0] * n + g.edges[:, 1]).any(axis=0)
    # the share of edges kept per draw, whose mean estimates p
    share = survived.mean(axis=1)
    assert abs(share.mean() - p) < 3 * share.std(ddof=1) / math.sqrt(seeds)
    # and no edge is favored: each edge's own frequency, at a bound wide
    # enough for 21 edges at once
    assert np.all(np.abs(survived.mean(axis=0) - p) < 4 * math.sqrt(p * (1 - p) / seeds))


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


def test_pairs_only_graph_warns_only_about_linked_fields():
    space = FeatureSpace.from_cardinalities(["u", "i", "flag", "day"], [3, 4, 2, 7])
    instances = [_inst(0, 3, 7, 9), _inst(1, 4, 8, 10)]
    with pytest.warns(RuntimeWarning) as record:
        g = build_graph(packed_rows(instances), space, field_pairs=[("u", "i")])
    assert sorted(str(w.message).split("'")[1] for w in record) == ["i", "u"]
    np.testing.assert_array_equal(g.edges, [[0, 3], [1, 4]])
