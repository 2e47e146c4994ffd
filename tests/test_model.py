"""Scoring paths, convolution embeddings, checkpoints."""

import hashlib
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import _sparsetools

from gemfm import (CheckpointError, ConfigError, DataFormatError, FeatureGraph, GemfmError,
                   ModelParams, gcn_embed, lookup_embed, loss_and_grads, normalize,
                   predict_batch)
from gemfm.graph import node_set
from gemfm.model import (CHECKPOINT_MAGIC, _SPLIT_WORK, _csr_dense, _split, batch_design,
                         embed, scores_from_design)
from gemfm.data import PackedInstances
from oracles import dense_gcn_rows, dense_normalized_adjacency, packed_rows, pairwise_score


def _random_graph(rng, m, density=0.25):
    mask = np.triu(rng.random((m, m)) < density, k=1)
    edges = np.argwhere(mask)
    return FeatureGraph(m, edges if len(edges) else np.zeros((0, 2), np.int64))


def _score(instance, params, norm=None):
    return float(predict_batch(packed_rows([instance]), params, norm)[0])


def _random_instance(rng, m, max_active=6, values=(-2.0, 2.0)):
    k = int(rng.integers(1, max_active + 1))
    idx = np.sort(rng.choice(m, size=k, replace=False))
    return (
        float(rng.normal()),
        tuple((int(i), float(rng.uniform(*values))) for i in idx),
    )


# --- table scoring ---

def test_lookup_scores_match_pairwise_oracle():
    rng = np.random.default_rng(0)
    params = ModelParams(float(rng.normal()), rng.normal(size=12),
                         [rng.normal(size=(12, 4))])
    for _ in range(50):
        inst = _random_instance(rng, 12)
        expected = pairwise_score(inst, params.weights[0], params.w, params.w0)
        assert _score(inst, params) == pytest.approx(expected, rel=1e-12)


def test_empty_instance_scores_bias_only():
    params = ModelParams(0.5, np.ones(3), [np.ones((3, 2))])
    assert _score((1.0, ()), params) == 0.5


def test_predict_batch_rejects_out_of_range():
    params = ModelParams(0.0, np.zeros(3), [np.zeros((3, 2))])
    with pytest.raises(DataFormatError, match="index 3"):
        predict_batch(packed_rows([(1.0, ((3, 1.0),))]), params)


# --- convolution embeddings ---

@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_gcn_embed_matches_dense_oracle(num_layers, activation):
    rng = np.random.default_rng(10 * num_layers + (activation == "relu"))
    m, d = 15, 5
    graph = _random_graph(rng, m)
    norm = normalize(graph)
    params = ModelParams.initialize(m, d, num_layers, activation,
                                    seed=int(rng.integers(1 << 30)), scale=0.5)
    dense = dense_normalized_adjacency(m, graph.edges)
    expected = dense_gcn_rows(dense, params.weights, activation, num_layers)

    view = gcn_embed(norm, params, np.arange(m))
    np.testing.assert_allclose(view.rows, expected, rtol=1e-12, atol=1e-13)

    subset = np.array([0, 3, 7])
    sub = gcn_embed(norm, params, subset)
    np.testing.assert_allclose(sub.rows, expected[subset], rtol=1e-12, atol=1e-13)


def test_convolved_scores_match_dense_oracle():
    rng = np.random.default_rng(4)
    m, d = 14, 3
    graph = _random_graph(rng, m)
    norm = normalize(graph)
    for num_layers, activation in [(1, "identity"), (2, "relu"), (3, "identity")]:
        params = ModelParams.initialize(m, d, num_layers, activation, seed=8, scale=0.4)
        params.w0 = 0.3
        params.w = rng.normal(size=m)
        dense_rows = dense_gcn_rows(dense_normalized_adjacency(m, graph.edges),
                                    params.weights, activation, num_layers)
        for _ in range(25):
            inst = _random_instance(rng, m)
            expected = pairwise_score(inst, dense_rows, params.w, params.w0)
            assert _score(inst, params, norm) == pytest.approx(expected, rel=1e-10)


def test_embeddings_follow_the_order_of_the_ids_asked_for():
    # unsorted ids with a repeat give the sorted call's rows, in the order asked
    rng = np.random.default_rng(6)
    m = 12
    norm = normalize(_random_graph(rng, m))
    asked = [7, 2, 9, 2, 0]
    nodes = np.unique(asked)
    at = np.searchsorted(nodes, asked)
    flat = ModelParams.initialize(m, 3, seed=4)
    np.testing.assert_array_equal(lookup_embed(flat, asked).rows,
                                  lookup_embed(flat, nodes).rows[at])
    for num_layers in (1, 2, 3):
        params = ModelParams.initialize(m, 3, num_layers, "relu", seed=4, scale=0.5)
        np.testing.assert_array_equal(gcn_embed(norm, params, asked).rows,
                                      gcn_embed(norm, params, nodes).rows[at])


def test_gcn_embed_touches_only_the_reachable_neighborhood():
    # nodes 0-2 form a triangle; nodes 3-4 are a separate edge.  Asking for
    # node 0 must never materialize the other component in any frontier.
    graph = FeatureGraph(5, np.array([[0, 1], [0, 2], [1, 2], [3, 4]]))
    norm = normalize(graph)
    params = ModelParams.initialize(5, 3, num_layers=2, seed=1)
    view = gcn_embed(norm, params, [0])
    np.testing.assert_array_equal(view.layers[1].frontier, [0])
    np.testing.assert_array_equal(view.layers[0].frontier, [0, 1, 2])
    assert all(3 not in cache.frontier and 4 not in cache.frontier
               for cache in view.layers)


def test_gcn_embed_requires_layers_and_matching_sizes():
    graph = FeatureGraph(4, np.array([[0, 1]]))
    norm = normalize(graph)
    flat = ModelParams.initialize(4, 2, num_layers=0)
    with pytest.raises(ValueError, match="num_layers >= 1"):
        gcn_embed(norm, flat, [0])
    mismatched = ModelParams.initialize(6, 2, num_layers=1)
    with pytest.raises(ValueError, match="does not match"):
        gcn_embed(norm, mismatched, [0])


@pytest.mark.parametrize("form", [
    lambda norm: norm.tocsc(),
    lambda norm: norm.tocoo(),
    lambda norm: norm.tolil(),
    lambda norm: norm.todok(),
    lambda norm: norm.tobsr(),
    lambda norm: norm.astype(np.float32),
    lambda norm: sparse.csr_array((norm.data, norm.indices, norm.indptr), shape=(5, 7)),
    lambda norm: sparse.vstack([norm, sparse.csr_array((3, 5))], format="csr"),
    lambda norm: norm.toarray(),
], ids=["csc", "coo", "lil", "dok", "bsr", "float32", "7 columns", "m + 3 rows", "dense"])
def test_an_adjacency_enters_only_as_normalize_returns_it(form):
    # gcn_embed takes the one form normalize returns, a float64 (m, m) CSR, whichever
    # path the adjacency comes in by; a csr_matrix is that form too, with the same bits
    norm = normalize(FeatureGraph(5, np.array([[0, 1], [0, 3], [1, 2], [3, 4]])))
    bad = form(norm)
    batch = packed_rows([(1.0, ((0, 1.0), (2, -0.5))), (0.5, ((1, 2.0), (4, 1.0)))])
    one, two = (ModelParams.initialize(5, 3, layers, "relu", seed=4, scale=0.3)
                for layers in (1, 2))
    for call in (lambda adj: gcn_embed(adj, two, [0, 2]),
                 lambda adj: predict_batch(batch, one, adj),
                 lambda adj: predict_batch(batch, two, adj),
                 lambda adj: loss_and_grads(batch, one, adj)):
        with pytest.raises(ConfigError, match="does not match 5 features"):
            call(bad)
    matrix = sparse.csr_matrix(norm)
    for params in (one, two):
        assert (predict_batch(batch, params, matrix).tobytes()
                == predict_batch(batch, params, norm).tobytes())
        by_matrix, by_array = (loss_and_grads(batch, params, adj, l2_lambda=0.1)
                               for adj in (matrix, norm))
        assert by_matrix[0] == by_array[0]
        for got, expected in zip(by_matrix[1].d_weights, by_array[1].d_weights):
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("indices,indptr", [
    ([0, 4_000_000, 2], [0, 1, 2, 3, 3, 3]),   # read past the table
    ([0, -1, 2], [0, 1, 2, 3, 3, 3]),
    ([0, 1, 2], [0, 2, 1, 3, 3, 3]),
    ([0, 1, 2], [0, 1, -2, 3, 3, 3]),
], ids=["past the table", "negative", "falling indptr", "negative indptr"])
def test_an_adjacency_with_bad_stored_indices_is_refused(indices, indptr):
    # scipy checks only the lengths when it builds a CSR from its arrays; an index
    # past the table used to take the whole process down in the product kernel
    bad = sparse.csr_array((np.ones(3), np.array(indices), np.array(indptr)), shape=(5, 5))
    batch = packed_rows([(1.0, ((0, 1.0), (2, -0.5))), (0.5, ((1, 2.0), (4, 1.0)))])
    one, two = (ModelParams.initialize(5, 3, layers, seed=4) for layers in (1, 2))
    for call in (lambda: gcn_embed(bad, one, [0, 1, 2]),
                 lambda: gcn_embed(bad, two, [0, 1, 2]),
                 lambda: gcn_embed(bad, two, [1]),   # row 1 is checked before its columns are used
                 lambda: predict_batch(batch, one, bad),
                 lambda: loss_and_grads(batch, one, bad, dropout_ratio=0.5)):
        with pytest.raises(ConfigError, match="adjacency is not a valid CSR: the rows read"):
            call()


def test_only_the_rows_an_embedding_reads_are_checked():
    # the check follows the batch's neighborhood, not the whole adjacency: a bad
    # entry in a row no frontier reaches changes nothing
    good = sparse.csr_array((np.ones(3), np.array([0, 1, 2]), np.array([0, 1, 2, 3, 3, 3])),
                            shape=(5, 5))
    bad = good.copy()
    bad.indices[2] = 4_000_000   # row 2, which no frontier of nodes 0 and 1 reaches
    params = ModelParams.initialize(5, 3, 2, seed=4)
    assert (gcn_embed(bad, params, [0, 1]).rows.tobytes()
            == gcn_embed(good, params, [0, 1]).rows.tobytes())
    with pytest.raises(ConfigError, match="outside its entries or \\[0, 5\\)"):
        gcn_embed(bad, params, [2])


def test_degradation_edgeless_identity_equals_lookup_bitwise():
    # with no edges the normalized adjacency is exactly the identity, so one
    # identity-activation convolution reproduces plain table lookup bit for bit
    rng = np.random.default_rng(3)
    m, d = 9, 4
    graph = FeatureGraph(m, np.zeros((0, 2), dtype=np.int64))
    norm = normalize(graph)
    table = rng.normal(size=(m, d))
    flat = ModelParams(0.1, rng.normal(size=m), [table.copy()], "identity", 0)
    conv = ModelParams(0.1, flat.w.copy(), [table.copy()], "identity", 1)

    nodes = np.arange(m)
    np.testing.assert_array_equal(gcn_embed(norm, conv, nodes).rows,
                                  lookup_embed(flat, nodes).rows)
    for _ in range(20):
        inst = _random_instance(rng, m)
        assert _score(inst, conv, norm) == _score(inst, flat)


def test_lookup_embed_validates_nodes():
    params = ModelParams.initialize(4, 2)
    with pytest.raises(DataFormatError, match="outside"):
        lookup_embed(params, [0, 4])


# --- batch scoring ---

def test_batch_design_is_batch_local():
    packed = PackedInstances.from_instances(
        packed_rows([(1.0, ((3, 2.0), (7, 1.0))),
                     (0.0, ((7, 3.0),))]), num_features=10)
    nodes, x, x2 = batch_design(packed, *node_set(packed.indices, 10))
    np.testing.assert_array_equal(nodes, [3, 7])
    np.testing.assert_array_equal(x.toarray(), [[2.0, 1.0], [0.0, 3.0]])
    np.testing.assert_array_equal(x2.toarray(), [[4.0, 1.0], [0.0, 9.0]])
    # over a wider table (a whole call's nodes) the columns are table positions
    table, position = node_set(np.array([1, 3, 5, 7]), 10)
    nodes, x, x2 = batch_design(packed, table, position)
    np.testing.assert_array_equal(nodes, [1, 3, 5, 7])
    np.testing.assert_array_equal(x.toarray(), [[0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 0.0, 3.0]])
    np.testing.assert_array_equal(x2.toarray(), [[0.0, 4.0, 0.0, 1.0], [0.0, 0.0, 0.0, 9.0]])


def test_batch_design_rejects_negative_index():
    # the pack refuses it as it is made, so no batch holds one
    with pytest.raises(DataFormatError, match="negative"):
        batch_design(PackedInstances(np.zeros(1), np.array([0, 2]), np.array([-1, 3]),
                                     np.ones(2)))


def test_predict_batch_matches_per_instance_scores():
    rng = np.random.default_rng(6)
    m, d = 20, 4
    graph = _random_graph(rng, m)
    norm = normalize(graph)
    instances = [_random_instance(rng, m) for _ in range(40)]

    flat = ModelParams.initialize(m, d, 0, seed=2, scale=0.3)
    flat.w0, flat.w = 0.2, rng.normal(size=m)
    got = predict_batch(packed_rows(instances), flat)
    expected = np.array([_score(inst, flat) for inst in instances])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    conv = ModelParams.initialize(m, d, 2, "relu", seed=3, scale=0.3)
    got = predict_batch(packed_rows(instances), conv, norm)
    expected = np.array([_score(inst, conv, norm) for inst in instances])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_predict_batch_chunking_changes_nothing(monkeypatch):
    rng = np.random.default_rng(7)
    m = 16
    instances = [_random_instance(rng, m - 1) for _ in range(23)]
    # in chunks of 4: rows of 1 and 6 entries meet where chunk 0 ends, and
    # empty rows end chunk 1 and start chunk 2; node m - 1 first appears in
    # the last chunk
    instances[3] = (0.5, ((2, 1.5),))
    instances[4] = (-0.5, tuple((i, 0.25 * i - 1.0) for i in range(0, 12, 2)))
    instances[7] = instances[8] = (1.0, ())
    instances[21] = (0.0, ((1, 0.5), (m - 1, 2.0)))
    packed = packed_rows(instances)
    norm = normalize(_random_graph(rng, m))
    for layers in (0, 1, 2):
        params = ModelParams.initialize(m, 3, layers, seed=5, scale=0.2)
        graph = norm if layers else None
        monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", 8192)
        whole = predict_batch(packed, params, graph)
        monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", 4)
        chunked = predict_batch(packed, params, graph)
        assert chunked.tobytes() == whole.tobytes()
        alone = np.concatenate([predict_batch(packed_rows([inst]), params, graph)
                                for inst in instances])
        assert alone.tobytes() == chunked.tobytes()


def test_predict_batch_chunking_changes_nothing_with_every_product_split(
        monkeypatch, every_product_split):
    test_predict_batch_chunking_changes_nothing(monkeypatch)


@pytest.mark.parametrize("num_layers", [0, 1, 2])
def test_predict_batch_embeds_once_per_call(monkeypatch, num_layers):
    rng = np.random.default_rng(8)
    m = 12
    instances = [_random_instance(rng, m) for _ in range(10)]
    params = ModelParams.initialize(m, 3, num_layers, seed=2, scale=0.2)
    norm = normalize(_random_graph(rng, m)) if num_layers else None
    calls = {"embed": [], "batch_design": [], "scores_from_design": []}

    def counting(name, fn):
        def counted(*args):
            calls[name].append(args)
            return fn(*args)
        return counted

    monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", 4)
    for name, fn in [("embed", embed), ("batch_design", batch_design),
                     ("scores_from_design", scores_from_design)]:
        monkeypatch.setattr(f"gemfm.model.{name}", counting(name, fn))
    predict_batch(packed_rows(instances), params, norm)
    assert len(calls["embed"]) == 1
    np.testing.assert_array_equal(calls["embed"][0][2],
                                  np.unique([i for _, entries in instances for i, _ in entries]))
    # one design and one scoring per chunk of 4: ceil(10 / 4)
    assert len(calls["batch_design"]) == len(calls["scores_from_design"]) == 3
    assert [len(args[0]) for args in calls["batch_design"]] == [4, 4, 2]


@pytest.mark.parametrize("num_layers", [0, 1, 2])
def test_predict_batch_of_nothing_is_empty(num_layers):
    m = 6
    params = ModelParams.initialize(m, 3, num_layers, seed=1)
    norm = normalize(FeatureGraph(m, np.array([[0, 1], [1, 2]]))) if num_layers else None
    out = predict_batch(packed_rows([]), params, norm)
    assert out.shape == (0,) and out.dtype == np.float64


@pytest.mark.parametrize("num_layers", [0, 1, 2])
@pytest.mark.parametrize("bad", [-1, -7, -100])   # -7 and -100 lie below -m
def test_predict_batch_refuses_negative_index_before_embedding(monkeypatch, num_layers, bad):
    m = 6
    params = ModelParams.initialize(m, 3, num_layers, seed=1)
    norm = normalize(FeatureGraph(m, np.array([[0, 1], [1, 2]]))) if num_layers else None

    def never(*args):
        raise AssertionError("embedded before the indices were checked")

    monkeypatch.setattr("gemfm.model.embed", never)
    for chunk in (8192, 1):   # one chunk, and one embedding over several
        monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", chunk)
        # the pack refuses the index as it is made
        with pytest.raises(DataFormatError, match=f"negative feature index {bad}"):
            predict_batch(PackedInstances(np.zeros(2), np.array([0, 1, 3]),
                                          np.array([2, bad, 4]), np.ones(3)), params, norm)


def test_predict_batch_norm_contract():
    graph = FeatureGraph(4, np.array([[0, 1]]))
    norm = normalize(graph)
    inst = packed_rows([(1.0, ((0, 1.0),))])
    flat = ModelParams.initialize(4, 2, 0)
    conv = ModelParams.initialize(4, 2, 1)
    with pytest.raises(ValueError, match="iff"):
        predict_batch(inst, flat, norm)
    with pytest.raises(ValueError, match="iff"):
        predict_batch(inst, conv)


def test_predict_batch_accepts_packed_and_validates():
    packed = PackedInstances.from_instances(packed_rows([(1.0, ((5, 1.0),))]), num_features=6)
    params = ModelParams.initialize(4, 2, 0)
    with pytest.raises(DataFormatError, match="outside"):
        predict_batch(packed, params)


# --- split sparse-by-dense products ---

@given(st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_product_keeps_every_bit(monkeypatch, every_product_split, data):
    split = data.draw(st.booleans(), label="split")
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2 if split else 1)
    rows = data.draw(st.sampled_from([0, 1, 2, 57, 400]), label="rows")
    cols = data.draw(st.integers(1, 60), label="cols")
    width = data.draw(st.sampled_from([1, 64, 65, 100]), label="width")
    index = data.draw(st.sampled_from([np.int32, np.int64]), label="index dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lengths = rng.integers(0, 7, size=rows) * (rng.random(rows) < 0.7)   # empty rows too
    if rows and data.draw(st.booleans(), label="one heavy row"):
        lengths[rng.integers(rows)] = 30 * rows + 1   # most of the entries
    nnz = int(lengths.sum())
    # columns in any order, repeats included, and values of many magnitudes, so a
    # changed summation order would show in the last bits
    a = sparse.csr_array((rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 9, size=nnz),
                          rng.integers(0, cols, size=nnz),
                          np.concatenate([[0], np.cumsum(lengths)])), shape=(rows, cols))
    a.indices, a.indptr = a.indices.astype(index), a.indptr.astype(index)
    b = rng.normal(size=(cols, width))
    parts = []

    def counted(*args):
        parts.append(args[0])
        _sparsetools.csr_matvecs(*args)

    monkeypatch.setattr("gemfm.model._sparsetools", SimpleNamespace(csr_matvecs=counted))
    got = _csr_dense(a, b)
    # the rows went to two threads, or all to one call
    assert len(parts) == (2 if split else 1) and sum(parts) == rows
    expected = a @ b
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_split_product_is_cut_where_half_the_entries_fall(monkeypatch, every_product_split):
    parts = []

    def counted(*args):
        parts.append((threading.get_ident(), args[0], args[3][-1] - args[3][0]))
        _sparsetools.csr_matvecs(*args)

    monkeypatch.setattr("gemfm.model._sparsetools", SimpleNamespace(csr_matvecs=counted))
    lengths = np.array([1, 0, 3, 2, 4, 0, 6, 4])   # 20 entries: 10 in rows 0-4
    a = sparse.csr_array((np.ones(20), np.zeros(20, np.int32),
                          np.concatenate([[0], np.cumsum(lengths)])), shape=(8, 1))
    _csr_dense(a, np.ones((1, 3)))
    first, second = sorted(parts, key=lambda part: part[0] != threading.get_ident())
    assert first[1:] == (5, 10) and second[1:] == (3, 10)
    assert first[0] == threading.get_ident() != second[0]


def test_small_products_and_one_cpu_stay_on_the_calling_thread(monkeypatch):
    rng = np.random.default_rng(3)
    big = sparse.random_array((600, 400), density=0.02, format="csr", rng=rng)
    b = rng.normal(size=(400, 64))
    assert big.nnz * b.shape[1] >= _SPLIT_WORK
    small = big[:10]
    assert small.nnz * b.shape[1] < _SPLIT_WORK
    threads = []

    def counted(*args):
        threads.append(threading.get_ident())
        _sparsetools.csr_matvecs(*args)

    monkeypatch.setattr("gemfm.model._sparsetools", SimpleNamespace(csr_matvecs=counted))
    monkeypatch.setattr("gemfm.model._cpus", lambda: 1)
    assert _csr_dense(big, b).tobytes() == (big @ b).tobytes()
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)
    assert _csr_dense(small, b).tobytes() == (small @ b).tobytes()
    assert threads == [threading.get_ident()] * 2   # each ran whole on this thread


def test_a_split_raises_the_calling_threads_error_once_the_worker_is_done(monkeypatch):
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)
    ended = []

    def part(lo, hi):
        if lo:   # the worker's half, still running when the calling thread's fails
            time.sleep(0.2)
            ended.append(threading.get_ident())
            raise KeyError("the worker's half")
        if hi == 1:
            raise ValueError("the calling thread's half")

    with pytest.raises(ValueError, match="calling thread's half") as caught:
        _split(part, 2, 1, True)
    # the worker's half had ended, on the worker, before the calling thread's error was raised
    assert len(ended) == 1 and ended[0] != threading.get_ident()
    assert caught.value.__context__ is None
    with pytest.raises(KeyError, match="worker's half"):   # the worker's error, raised alone
        _split(part, 3, 2, True)
    assert len(ended) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_finishes_a_split_product(every_product_split):
    # the parent's worker thread does not exist in a child forked after it started
    rng = np.random.default_rng(12)
    m = 14
    params = ModelParams.initialize(m, 5, 2, "relu", seed=3, scale=0.3)
    norm = normalize(_random_graph(rng, m))
    packed = packed_rows([_random_instance(rng, m) for _ in range(30)])
    expected = predict_batch(packed, params, norm).tobytes()   # the worker runs now
    pid = os.fork()
    if pid == 0:   # the child: exit 0 only on the parent's bits
        code = 1
        try:
            code = 0 if predict_batch(packed, params, norm).tobytes() == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on a split product")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# --- parameters and checkpoints ---

def test_model_params_validation():
    with pytest.raises(ValueError, match="activation"):
        ModelParams(0.0, np.zeros(2), [np.zeros((2, 2))], "tanh")
    with pytest.raises(ValueError, match="weight matrices"):
        ModelParams(0.0, np.zeros(2), [np.zeros((2, 2))], num_layers=2)
    with pytest.raises(ValueError, match="entries"):
        ModelParams(0.0, np.zeros(3), [np.zeros((2, 2))])
    with pytest.raises(ValueError, match=r"layer 2 weight"):
        ModelParams(0.0, np.zeros(2), [np.zeros((2, 2)), np.zeros((3, 3))],
                    num_layers=2)
    with pytest.raises(ValueError, match="num_layers"):
        ModelParams(0.0, np.zeros(2), [np.zeros((2, 2))], num_layers=-1)
    for w, table in ((np.zeros((2, 1)), np.zeros((2, 2))), (np.zeros(2), np.zeros(2))):
        with pytest.raises(ConfigError, match=r"^w must be 1-d and weights\[0\] 2-d$"):
            ModelParams(0.0, w, [table])


def test_initialize_shapes_and_spread():
    params = ModelParams.initialize(30, 8, num_layers=3, seed=0, scale=0.01)
    assert params.w0 == 0.0
    assert not params.w.any()
    assert [W.shape for W in params.weights] == [(30, 8), (8, 8), (8, 8)]
    flat = np.concatenate([W.ravel() for W in params.weights])
    assert abs(flat.mean()) < 0.005
    assert 0.005 < flat.std() < 0.02
    again = ModelParams.initialize(30, 8, num_layers=3, seed=0, scale=0.01)
    np.testing.assert_array_equal(params.weights[0], again.weights[0])


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    params = ModelParams(rng.normal(), rng.normal(size=7),
                         [rng.normal(size=(7, 3)), rng.normal(size=(3, 3))],
                         "relu", 2)
    path = tmp_path / "model.bin"
    params.save(path)
    loaded = ModelParams.load(path)
    assert loaded.w0 == params.w0
    assert loaded.activation == "relu"
    assert loaded.num_layers == 2
    np.testing.assert_array_equal(loaded.w, params.w)
    for a, b in zip(loaded.weights, params.weights):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_bytes_are_pinned(tmp_path):
    # exact binary values (no random draws), so the file is the same
    # everywhere; the digest was recorded before save/load became one loop
    # over the parameter blocks
    m, d = 5, 3
    params = ModelParams(-0.8125, np.arange(m) / 8.0 - 0.25,
                         [np.arange(m * d).reshape(m, d) / 16.0, np.eye(d) / 2.0,
                          -np.eye(d)[::-1] / 4.0], "relu", 3)
    path = tmp_path / "model.bin"
    params.save(path)
    digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert digest == "9964635be1ac21dacec4d86b79b84344"


def test_checkpoint_rejects_corruption(tmp_path):
    params = ModelParams.initialize(3, 2, num_layers=1, seed=0)
    good = tmp_path / "good.bin"
    params.save(good)
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTAMODEL" + blob[9:])
    with pytest.raises(CheckpointError, match="magic"):
        ModelParams.load(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="bytes"):
        ModelParams.load(truncated)

    short_header = tmp_path / "header.bin"
    short_header.write_bytes(blob[: len(CHECKPOINT_MAGIC) + 4])
    with pytest.raises(CheckpointError, match="truncated"):
        ModelParams.load(short_header)

    padded = tmp_path / "padded.bin"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="bytes"):
        ModelParams.load(padded)

    # a layer count of 1 + 2**56 must fail on size, not allocate per layer
    many_layers = bytearray(blob)
    many_layers[len(CHECKPOINT_MAGIC) + 16 + 7] ^= 0x01
    huge = tmp_path / "layers.bin"
    huge.write_bytes(bytes(many_layers))
    with pytest.raises(CheckpointError, match="bytes"):
        ModelParams.load(huge)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    params = ModelParams.initialize(3, 2, num_layers=2, seed=0)
    good = tmp_path / "good.bin"
    params.save(good)
    blob = good.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 32 + len(params.activation)
    count = (len(blob) - start) // 8
    for k in (0, 1, 7, count - 1):    # w0, w[0], a table entry, the last deep weight
        bad = bytearray(blob)
        bad[start + 8 * k:start + 8 * k + 8] = np.array(value, dtype="<f8").tobytes()
        path = tmp_path / f"bad{k}.bin"
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match="non-finite"):
            ModelParams.load(path)


def test_checkpoint_rejects_foreign_activation(tmp_path):
    params = ModelParams.initialize(3, 2, num_layers=1, seed=0)
    good = tmp_path / "good.bin"
    params.save(good)
    blob = bytearray(good.read_bytes())
    # activation text sits right after the 4-field header
    pos = len(CHECKPOINT_MAGIC) + 32
    blob[pos:pos + 8] = b"sigmoidx"[: len("identity")]
    bad = tmp_path / "act.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="activation"):
        ModelParams.load(bad)


def test_checkpoint_loads_through_a_pipe(tmp_path):
    params = ModelParams.initialize(2000, 6, num_layers=2, activation="relu", seed=4)
    params.save(tmp_path / "model.bin")
    blob = (tmp_path / "model.bin").read_bytes()
    assert len(blob) > 1 << 16   # more than one pipe buffer
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    for sent in (blob, blob[:-8]):
        writer = threading.Thread(target=pipe.write_bytes, args=(sent,), daemon=True)
        writer.start()
        if sent is blob:
            loaded = ModelParams.load(pipe)
        else:
            with pytest.raises(CheckpointError, match=f"found {len(sent)}"):
                ModelParams.load(pipe)
        writer.join(timeout=60)
        assert not writer.is_alive()
    assert loaded.w0 == params.w0 and loaded.activation == "relu"
    for got, saved in zip([loaded.w, *loaded.weights], [params.w, *params.weights]):
        assert got.tobytes() == saved.tobytes()
        assert got.flags.writeable and got.flags.aligned


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "good.bin"
    ModelParams.initialize(5, 3, num_layers=2, activation="relu", seed=0).save(path)
    return directory, path.read_bytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_checkpoint_load_fuzz(checkpoint, data):
    # truncations and byte flips of a valid checkpoint, header bytes included
    # (a flipped layer count once made load build a list per claimed layer)
    directory, blob = checkpoint
    corrupt = bytearray(blob[:data.draw(st.integers(0, len(blob)), label="length")])
    for _ in range(data.draw(st.integers(0, 4), label="flips")):
        if corrupt:
            pos = data.draw(st.integers(0, len(corrupt) - 1), label="position")
            corrupt[pos] ^= data.draw(st.integers(1, 255), label="mask")
    path = directory / "corrupt.bin"
    path.write_bytes(bytes(corrupt))
    try:
        ModelParams.load(path)
    except GemfmError:
        pass
