"""Scoring paths, convolution embeddings, checkpoints."""

import numpy as np
import pytest

from gemfm import (CheckpointError, DataFormatError, FeatureGraph,
                   ModelParams, SparseInstance, fm_score, gcn_embed,
                   gem_score, lookup_embed, normalize, predict_batch)
from gemfm.model import (CHECKPOINT_MAGIC, EmbeddingView, batch_design,
                         fm_interaction, scores_from_design)
from gemfm.data import PackedInstances
from oracles import dense_gcn_rows, dense_normalized_adjacency, pairwise_score


def _random_graph(rng, m, density=0.25):
    mask = np.triu(rng.random((m, m)) < density, k=1)
    edges = np.argwhere(mask)
    return FeatureGraph(m, edges if len(edges) else np.zeros((0, 2), np.int64))


def _random_instance(rng, m, max_active=6, values=(-2.0, 2.0)):
    k = int(rng.integers(1, max_active + 1))
    idx = np.sort(rng.choice(m, size=k, replace=False))
    return SparseInstance(
        float(rng.normal()),
        tuple((int(i), float(rng.uniform(*values))) for i in idx),
    )


# --- table scoring ---

def test_fm_score_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    params = ModelParams(float(rng.normal()), rng.normal(size=12),
                         [rng.normal(size=(12, 4))])
    for _ in range(50):
        inst = _random_instance(rng, 12)
        expected = pairwise_score(inst, params.weights[0], params.w, params.w0)
        assert fm_score(inst, params) == pytest.approx(expected, rel=1e-12)


def test_single_active_feature_interaction_is_exact_zero():
    rows = np.full((3, 4), 7.7)
    inst = SparseInstance(1.0, ((1, 1.9),))
    assert fm_interaction(inst, lambda i: rows[i]) == 0.0


def test_empty_instance_scores_bias_only():
    params = ModelParams(0.5, np.ones(3), [np.ones((3, 2))])
    assert fm_score(SparseInstance(1.0, ()), params) == 0.5


def test_fm_score_rejects_out_of_range():
    params = ModelParams(0.0, np.zeros(3), [np.zeros((3, 2))])
    with pytest.raises(DataFormatError, match="index 3"):
        fm_score(SparseInstance(1.0, ((3, 1.0),)), params)


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
    np.testing.assert_allclose(view.rows, expected[view.nodes], rtol=1e-12, atol=1e-13)

    subset = np.array([0, 3, 7])
    sub = gcn_embed(norm, params, subset)
    np.testing.assert_allclose(sub.rows, expected[subset], rtol=1e-12, atol=1e-13)


def test_gem_score_matches_dense_oracle():
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
            assert gem_score(inst, norm, params) == pytest.approx(expected, rel=1e-10)


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
        assert gem_score(inst, norm, conv) == fm_score(inst, flat)


def test_embedding_view_lookup():
    view = EmbeddingView(np.array([2, 5, 9]), np.arange(9.0).reshape(3, 3))
    np.testing.assert_array_equal(view.row(5), [3.0, 4.0, 5.0])
    np.testing.assert_array_equal(view.take([9, 2]), view.rows[[2, 0]])
    with pytest.raises(KeyError):
        view.row(4)
    with pytest.raises(KeyError):
        view.take([2, 11])


def test_lookup_embed_validates_nodes():
    params = ModelParams.initialize(4, 2)
    with pytest.raises(DataFormatError, match="outside"):
        lookup_embed(params, [0, 4])


# --- batch scoring ---

def test_batch_design_is_batch_local():
    packed = PackedInstances.from_instances(
        [SparseInstance(1.0, ((3, 2.0), (7, 1.0))),
         SparseInstance(0.0, ((7, 3.0),))], num_features=10)
    nodes, x, x2 = batch_design(packed)
    np.testing.assert_array_equal(nodes, [3, 7])
    np.testing.assert_array_equal(x.toarray(), [[2.0, 1.0], [0.0, 3.0]])
    np.testing.assert_array_equal(x2.toarray(), [[4.0, 1.0], [0.0, 9.0]])


def test_batch_design_rejects_negative_index():
    packed = PackedInstances(np.zeros(1), np.array([0, 2]), np.array([-1, 3]),
                             np.ones(2))
    with pytest.raises(DataFormatError, match="negative"):
        batch_design(packed)


def test_predict_batch_matches_per_instance_scores():
    rng = np.random.default_rng(6)
    m, d = 20, 4
    graph = _random_graph(rng, m)
    norm = normalize(graph)
    instances = [_random_instance(rng, m) for _ in range(40)]

    flat = ModelParams.initialize(m, d, 0, seed=2, scale=0.3)
    flat.w0, flat.w = 0.2, rng.normal(size=m)
    got = predict_batch(instances, flat)
    expected = np.array([fm_score(inst, flat) for inst in instances])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    conv = ModelParams.initialize(m, d, 2, "relu", seed=3, scale=0.3)
    got = predict_batch(instances, conv, norm)
    expected = np.array([gem_score(inst, norm, conv) for inst in instances])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_predict_batch_chunking_changes_nothing():
    rng = np.random.default_rng(7)
    m = 15
    instances = [_random_instance(rng, m) for _ in range(23)]
    params = ModelParams.initialize(m, 3, 0, seed=5, scale=0.2)
    whole = predict_batch(instances, params)
    chunked = predict_batch(instances, params, chunk_size=4)
    np.testing.assert_array_equal(whole, chunked)


def test_predict_batch_norm_contract():
    graph = FeatureGraph(4, np.array([[0, 1]]))
    norm = normalize(graph)
    inst = [SparseInstance(1.0, ((0, 1.0),))]
    flat = ModelParams.initialize(4, 2, 0)
    conv = ModelParams.initialize(4, 2, 1)
    with pytest.raises(ValueError, match="iff"):
        predict_batch(inst, flat, norm)
    with pytest.raises(ValueError, match="iff"):
        predict_batch(inst, conv)


def test_predict_batch_accepts_packed_and_validates():
    packed = PackedInstances.from_instances(
        [SparseInstance(1.0, ((5, 1.0),))], num_features=6)
    params = ModelParams.initialize(4, 2, 0)
    with pytest.raises(DataFormatError, match="outside"):
        predict_batch(packed, params)


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
