"""Shipping gate: one test per release criterion, at the stated tolerances.

Run ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion. Criteria 5 and 6 share a module-scoped fixture that trains seven
models on the synthetic click benchmark (a few minutes of CPU); everything
else finishes in seconds. No test touches the network or any real dataset.
"""

import math
import time

import numpy as np
import pytest

from gemfm import (FeatureGraph, FeatureSpace, ModelParams, TrainConfig, build_graph,
                   count_params, loss_and_grads, mae, normalize, parse_libfm_line,
                   predict_batch, rmse, sample_neighbors, save_libfm, train)
from gemfm.data import PackedInstances
from gemfm.datagen import ClickDataConfig, click_benchmark, click_space
from gemfm.model import gcn_embed
from oracles import (decayed_dense_gradients, dense_gcn_rows, dense_gradients,
                     dense_normalized_adjacency, finite_difference_gradients,
                     gradient_agreement, packed_rows, pairwise_score, unpack)


def _random_graph(rng, m, density=0.1):
    mask = np.triu(rng.random((m, m)) < density, k=1)
    edges = np.argwhere(mask)
    return FeatureGraph(m, edges if len(edges) else np.zeros((0, 2), np.int64))


def _random_instance(rng, m, max_active, lo=-2.0, hi=2.0):
    k = int(rng.integers(1, min(max_active, m) + 1))
    idx = np.sort(rng.choice(m, size=k, replace=False))
    return (
        float(rng.normal()),
        tuple((int(i), float(rng.uniform(lo, hi))) for i in idx),
    )


# 1. Reformulation equivalence: squared-sum scoring matches the brute-force
#    pairwise oracle on 1,000 random instances within 1e-6 relative error,
#    in under 10 seconds, for both the table and the convolved path.

def test_criterion_1_scoring_matches_pairwise_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for setup in range(50):
        m = int(rng.integers(4, 101))
        d = int(rng.integers(1, 33))
        layers = 1 + setup % 2
        activation = ("identity", "relu")[setup % 2]
        graph = _random_graph(rng, m)
        norm = normalize(graph)
        params = ModelParams.initialize(m, d, layers, activation,
                                        seed=int(rng.integers(1 << 30)),
                                        scale=0.3)
        params.w0 = float(rng.normal())
        params.w = rng.normal(size=m)
        table = params.weights[0]
        conv_rows = dense_gcn_rows(dense_normalized_adjacency(m, graph.edges),
                                   params.weights, activation, layers)
        flat = ModelParams(params.w0, params.w, [table], "identity", 0)
        for _ in range(20):
            inst = _random_instance(rng, m, max_active=20)
            want_flat = pairwise_score(inst, table, params.w, params.w0)
            got_flat = predict_batch(packed_rows([inst]), flat)[0]
            # 1e-6 relative, with a 1e-9 guard for near-cancelled oracles
            assert got_flat == pytest.approx(want_flat, rel=1e-6, abs=1e-9)
            want_conv = pairwise_score(inst, conv_rows, params.w, params.w0)
            got_conv = predict_batch(packed_rows([inst]), params, norm)[0]
            assert got_conv == pytest.approx(want_conv, rel=1e-6, abs=1e-9)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000
    assert elapsed < 10.0, f"scoring check took {elapsed:.1f}s"


# 2. Gradient correctness: central differences (h=1e-5) agree with the
#    analytic gradients within 1e-4 relative / 1e-6 absolute floor on every
#    coordinate, over >= 100 configurations spanning L in {0,1,2} and both
#    activations, in under 2 minutes.

def test_criterion_2_gradients_match_finite_differences():
    started = time.perf_counter()
    checked = 0
    for idx in range(108):
        layers = idx % 3
        activation = ("identity", "relu")[(idx // 3) % 2]
        lam = (0.0, 0.01)[(idx // 6) % 2]
        ratio = (0.0, 0.3)[(idx // 12) % 2]
        rng = np.random.default_rng(9000 + idx)
        m = int(rng.integers(6, 11))
        d = int(rng.integers(2, 5))
        graph = _random_graph(rng, m, density=0.3)
        norm = normalize(graph) if layers else None
        batch = PackedInstances.from_instances(
            packed_rows(_random_instance(rng, m, max_active=4) for _ in range(4)), m)

        for attempt in range(60):
            params = ModelParams.initialize(
                m, d, layers, activation,
                seed=int(rng.integers(1 << 30)), scale=0.5)
            params.w0 = float(rng.normal())
            params.w = rng.normal(size=m)
            if layers == 0 or activation == "identity":
                break
            # a pre-activation close to the relu kink would make the central
            # difference step straddle the nondifferentiable point
            view = gcn_embed(norm, params, np.unique(batch.indices))
            if min(float(np.abs(c.pre).min()) for c in view.layers) > 1e-3:
                break
        else:
            pytest.fail("could not draw parameters clear of the relu kink")

        # a fixed dropout seed fixes the mask, so the loss is deterministic
        kwargs = dict(l2_lambda=lam, dropout_ratio=ratio, dropout_seed=777 + idx)

        def loss_fn(p):
            return loss_and_grads(batch, p, norm, **kwargs)[0]

        grads = loss_and_grads(batch, params, norm, **kwargs)[1]
        d_w, d_weights = decayed_dense_gradients(grads, params, lam)
        fd_w0, fd_w, fd_weights = finite_difference_gradients(loss_fn, params,
                                                              h=1e-5)
        assert gradient_agreement(grads.d_w0, fd_w0) <= 1.0
        assert gradient_agreement(d_w, fd_w) <= 1.0
        for analytic, numeric in zip(d_weights, fd_weights):
            assert gradient_agreement(analytic, numeric) <= 1.0
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 100
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"


# 3. Degradation: an edgeless graph (or sampling ratio 0) with identity
#    activation makes the convolved model equal plain lookup bit for bit:
#    scores, losses, gradients, and parameters after a trained epoch.

def test_criterion_3_convolution_degrades_to_plain_fm_bitwise():
    rng = np.random.default_rng(33)
    m, d = 40, 8
    table = rng.normal(size=(m, d))
    w = rng.normal(size=m)
    flat = ModelParams(0.25, w.copy(), [table.copy()], "identity", 0)
    conv = ModelParams(0.25, w.copy(), [table.copy()], "identity", 1)
    edgeless = FeatureGraph(m, np.zeros((0, 2), dtype=np.int64))
    norm = normalize(edgeless)
    instances = [_random_instance(rng, m, max_active=6) for _ in range(200)]
    batch = PackedInstances.from_instances(packed_rows(instances), m)

    # scores, elementwise and batched
    for inst in instances:
        one = packed_rows([inst])
        assert predict_batch(one, conv, norm)[0] == predict_batch(one, flat)[0]
    np.testing.assert_array_equal(predict_batch(batch, conv, norm),
                                  predict_batch(batch, flat))

    # losses, with weight decay and a shared dropout seed (so a shared mask)
    for kwargs in ({}, {"l2_lambda": 0.01},
                   {"dropout_ratio": 0.2, "dropout_seed": 5}):
        assert (loss_and_grads(batch, conv, norm, **kwargs)[0]
                == loss_and_grads(batch, flat, **kwargs)[0])

    # epoch-1 gradients
    kwargs = {"l2_lambda": 0.01, "dropout_ratio": 0.2, "dropout_seed": 5}
    got = loss_and_grads(batch, conv, norm, **kwargs)[1]
    want = loss_and_grads(batch, flat, **kwargs)[1]
    assert got.d_w0 == want.d_w0
    np.testing.assert_array_equal(got.touched_features, want.touched_features)
    np.testing.assert_array_equal(got.touched_rows, want.touched_rows)
    got_w, got_weights = dense_gradients(got, m)
    want_w, want_weights = dense_gradients(want, m)
    np.testing.assert_array_equal(got_w, want_w)
    np.testing.assert_array_equal(got_weights[0], want_weights[0])

    # one trained epoch under a shared seed, for both degenerate routes:
    # an edgeless graph, and an edged graph sampled at ratio 0
    space = FeatureSpace.from_cardinalities(["f"], [m])
    star = FeatureGraph(m, np.array([[0, j] for j in range(1, m)]))
    assert sample_neighbors(star, 0.0, seed=1).num_edges == 0
    config = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=1,
                         patience=1, dropout_ratio=0.2, seed=13)
    zero_ratio = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=1,
                             patience=1, dropout_ratio=0.2, seed=13,
                             sampling_ratio=0.0)
    val = batch.row_range(0, 40)
    base, base_report = train(batch, val, space, config, dim=d)
    for graph, cfg in ((edgeless, config), (star, zero_ratio)):
        got_params, got_report = train(batch, val, space, cfg, dim=d,
                                       num_layers=1, graph=graph)
        assert got_params.w0 == base.w0
        np.testing.assert_array_equal(got_params.w, base.w)
        np.testing.assert_array_equal(got_params.weights[0], base.weights[0])
        assert got_report.epochs[0].train_loss == base_report.epochs[0].train_loss


# 4. Parameter accounting at the published data scale: the table and
#    convolved variants report the same count, within 1% of 1.383M.

def test_criterion_4_parameter_count_at_published_scale():
    space = click_space(ClickDataConfig(num_users=957, num_items=4082, num_countries=80,
                                        num_cities=233))
    m = space.num_features
    assert abs(m - 5400) < 100  # ~5.4K features
    flat = ModelParams.initialize(m, 256, num_layers=0, seed=0)
    conv = ModelParams.initialize(m, 256, num_layers=1, seed=0)
    assert count_params(flat) == count_params(conv)
    published = 1_383_000
    assert abs(count_params(flat) - published) / published < 0.01


# 5 and 6 share one desk-scale benchmark: synthetic click data at reduced
# dimension, dropout tuned on validation for each model, matched budgets.

DESK_DROPOUTS = (0.0, 0.2, 0.4)


def _desk_train(bench, graph, num_layers, dropout, sampling_ratio=1.0):
    config = TrainConfig(optimizer="adam", learning_rate=0.002,
                         l2_lambda=1e-4, dropout_ratio=dropout,
                         batch_size=4096, max_epochs=150, patience=5,
                         sampling_ratio=sampling_ratio, seed=7)
    params, report = train(bench.train, bench.validation, bench.space, config,
                           dim=64, num_layers=num_layers,
                           graph=graph if num_layers else None)
    return params, report.epochs[report.best_epoch - 1].val_rmse


@pytest.fixture(scope="module")
def desk_scale():
    started = time.perf_counter()
    bench = click_benchmark(ClickDataConfig())
    graph = build_graph(bench.train_positives, bench.space,
                        included_fields=["user", "item"])
    norm = normalize(graph)
    test_packed = PackedInstances.from_instances(bench.test,
                                                 bench.space.num_features)
    results = {"bench": bench, "graph": graph, "norm": norm,
               "test_packed": test_packed}
    for name, layers in (("fm", 0), ("gem", 1)):
        best = None
        for dropout in DESK_DROPOUTS:
            params, val_rmse = _desk_train(bench, graph, layers, dropout)
            if best is None or val_rmse < best[0]:
                best = (val_rmse, dropout, params)
        val_rmse, dropout, params = best
        preds = predict_batch(test_packed, params, norm if layers else None)
        results[name] = {"dropout": dropout, "val_rmse": val_rmse,
                         "params": params,
                         "test_rmse": rmse(preds, test_packed.labels)}
    results["seconds"] = time.perf_counter() - started
    return results


def test_criterion_5_gem_beats_fm_at_desk_scale(desk_scale):
    fm_rmse = desk_scale["fm"]["test_rmse"]
    gem_rmse = desk_scale["gem"]["test_rmse"]
    assert gem_rmse < fm_rmse
    improvement = (fm_rmse - gem_rmse) / fm_rmse
    assert improvement >= 0.01, (
        f"relative improvement {improvement:.4f} below 1% "
        f"(fm={fm_rmse:.4f}, gem={gem_rmse:.4f})"
    )
    assert desk_scale["seconds"] < 45 * 60


def test_criterion_6_full_sampling_beats_sparse_sampling(desk_scale):
    started = time.perf_counter()
    dropout = desk_scale["gem"]["dropout"]
    sparse_params, _ = _desk_train(desk_scale["bench"], desk_scale["graph"],
                                   num_layers=1, dropout=dropout,
                                   sampling_ratio=0.1)
    packed = desk_scale["test_packed"]
    sparse_rmse = rmse(predict_batch(packed, sparse_params,
                                     desk_scale["norm"]), packed.labels)
    assert desk_scale["gem"]["test_rmse"] < sparse_rmse
    assert time.perf_counter() - started < 45 * 60


# 7. Property bundle: the invariants hold with no network access and no
#    real data (everything above is synthesized in-process too).

def test_criterion_7_property_bundle(tmp_path):
    rng = np.random.default_rng(77)

    # data round-trip
    for _ in range(200):
        inst = _random_instance(rng, 500, max_active=8, lo=-100.0, hi=100.0)
        save_libfm(packed_rows([inst]), tmp_path / "one.libfm")
        assert unpack(parse_libfm_line((tmp_path / "one.libfm").read_text())) == [inst]

    # normalization: symmetric, matches the dense oracle
    for _ in range(10):
        graph = _random_graph(rng, int(rng.integers(2, 40)), density=0.3)
        dense = normalize(graph).toarray()
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_allclose(
            dense, dense_normalized_adjacency(graph.num_nodes, graph.edges),
            rtol=0, atol=1e-15)

    # metric inequality
    for _ in range(30):
        p, y = rng.normal(size=12), rng.normal(size=12)
        assert mae(p, y) <= rmse(p, y) + 1e-12

    # early-stop contract and per-seed determinism on a toy regression
    truth = rng.normal(size=10)
    space = FeatureSpace.from_cardinalities(["u", "i"], [4, 6])

    def draw(seed, n):
        local = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            u = int(local.integers(0, 4))
            i = 4 + int(local.integers(0, 6))
            label = truth[u] + truth[i] + 0.5 * truth[u] * truth[i]
            out.append((float(label), ((u, 1.0), (i, 1.0))))
        return packed_rows(out)

    config = TrainConfig(learning_rate=0.4, batch_size=16, max_epochs=80,
                         patience=3, seed=0)
    params_a, report = train(draw(0, 120), draw(1, 40), space, config, dim=4)
    assert len(report.epochs) < config.max_epochs  # the plateau fired
    assert len(report.epochs) - report.best_epoch == config.patience
    curve = [e.val_rmse for e in report.epochs]
    assert curve[report.best_epoch - 1] == min(curve)

    params_b, _ = train(draw(0, 120), draw(1, 40), space, config, dim=4)
    assert params_a.w0 == params_b.w0
    np.testing.assert_array_equal(params_a.w, params_b.w)
    np.testing.assert_array_equal(params_a.weights[0], params_b.weights[0])
