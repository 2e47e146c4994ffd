"""Loss, analytic gradients, optimizers, dropout, the training loop."""

import hashlib
import importlib
import itertools
import math
import re
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from gemfm import (DataFormatError, FeatureGraph, FeatureSpace, ModelParams, TrainConfig,
                   TrainingDivergedError, build_graph, loss_and_grads, normalize,
                   predict_batch, train)
from gemfm.data import PackedInstances
from gemfm.datagen import ClickDataConfig, click_benchmark
from gemfm.metrics import rmse
from gemfm.model import _split, gcn_embed
from gemfm.train import (ADAM_BETA1, ADAM_BETA2, EPSILON, OPTIMIZERS, EpochRecord,
                         GradientSet, OptimizerState, RunReport, _full_l2, _update_rows,
                         optimizer_step)
from oracles import (adagrad_rows_reference, adam_rows_reference, decayed_dense_gradients,
                     dense_gcn_rows, dense_gradients, dense_normalized_adjacency,
                     finite_difference_gradients, gradient_agreement, packed_rows,
                     pairwise_score, unpack)


def _random_batch(rng, m, n, max_active=4):
    instances = []
    for _ in range(n):
        k = int(rng.integers(1, max_active + 1))
        idx = np.sort(rng.choice(m, size=k, replace=False))
        instances.append((
            float(rng.normal()),
            tuple((int(i), float(rng.uniform(-2, 2))) for i in idx),
        ))
    return PackedInstances.from_instances(packed_rows(instances), m)


def _random_graph(rng, m, density=0.3):
    mask = np.triu(rng.random((m, m)) < density, k=1)
    edges = np.argwhere(mask)
    return FeatureGraph(m, edges if len(edges) else np.zeros((0, 2), np.int64))


def _loss(*args, **kwargs):
    return loss_and_grads(*args, **kwargs)[0]


def _grads(*args, **kwargs):
    return loss_and_grads(*args, **kwargs)[1]


# --- loss ---

def test_loss_matches_brute_force_flat():
    rng = np.random.default_rng(0)
    m = 9
    batch = _random_batch(rng, m, 12)
    params = ModelParams(0.4, rng.normal(size=m), [rng.normal(size=(m, 3))])
    expected = sum(
        (pairwise_score(inst, params.weights[0], params.w, params.w0) - inst[0]) ** 2
        for inst in unpack(batch)
    )
    assert _loss(batch, params) == pytest.approx(expected, rel=1e-12)
    lam = 0.07
    with_l2 = expected + lam * _full_l2(params)
    assert _loss(batch, params, l2_lambda=lam) == pytest.approx(with_l2, rel=1e-12)


def test_loss_matches_brute_force_convolved():
    rng = np.random.default_rng(1)
    m = 10
    graph = _random_graph(rng, m)
    norm = normalize(graph)
    batch = _random_batch(rng, m, 8)
    params = ModelParams(0.1, rng.normal(size=m),
                         [rng.normal(size=(m, 3)), rng.normal(size=(3, 3))],
                         "relu", 2)
    rows = dense_gcn_rows(dense_normalized_adjacency(m, graph.edges),
                          params.weights, "relu", 2)
    total = 0.0
    for inst in unpack(batch):
        total += (pairwise_score(inst, rows, params.w, params.w0) - inst[0]) ** 2
    assert _loss(batch, params, norm) == pytest.approx(total, rel=1e-10)


def test_loss_input_contract():
    params = ModelParams.initialize(4, 2)
    conv = ModelParams.initialize(4, 2, num_layers=1)
    norm = normalize(FeatureGraph(4, np.array([[0, 1]])))
    batch = PackedInstances.from_instances(packed_rows([(1.0, ((0, 1.0),))]), 4)
    empty = PackedInstances.from_instances(packed_rows([]), 4)
    with pytest.raises(ValueError, match="empty"):
        loss_and_grads(empty, params)
    with pytest.raises(ValueError, match="iff"):
        loss_and_grads(batch, params, norm)
    with pytest.raises(ValueError, match="iff"):
        loss_and_grads(batch, conv)
    with pytest.raises(DataFormatError, match="outside"):
        loss_and_grads(packed_rows([(1.0, ((5, 1.0),))]), params)


# --- analytic gradients vs central differences ---

FD_CASES = [
    # (layers, activation, l2, dropout, nonzero_bias); with zero biases their
    # decay terms vanish from the loss and the gradient
    (0, "identity", 0.0, 0.0, True),
    (0, "identity", 0.02, 0.3, True),
    (1, "identity", 0.0, 0.0, True),
    (1, "relu", 0.01, 0.0, False),
    (2, "relu", 0.0, 0.25, True),
    (2, "identity", 0.03, 0.0, True),
    (3, "identity", 0.02, 0.0, True),
    (3, "relu", 0.02, 0.5, True),
]


@pytest.mark.parametrize("layers,activation,lam,ratio,nonzero_bias", FD_CASES)
def test_backward_matches_finite_differences(layers, activation, lam, ratio,
                                             nonzero_bias):
    rng = np.random.default_rng(layers * 17 + int(lam * 1000) + int(ratio * 10))
    m, d = 8, 3
    graph = _random_graph(rng, m)
    norm = normalize(graph) if layers else None
    batch = _random_batch(rng, m, 6)
    params = ModelParams.initialize(m, d, layers, activation,
                                    seed=int(rng.integers(1 << 30)), scale=0.5)
    if nonzero_bias:
        params.w0 = float(rng.normal())
        params.w = rng.normal(size=m)
    if activation == "relu":
        # keep pre-activations away from the kink so differences are clean
        view = gcn_embed(norm, params, np.unique(batch.indices))
        assert min(float(np.abs(c.pre).min()) for c in view.layers) > 1e-4

    # a fixed dropout seed fixes the mask, so the loss is deterministic
    kwargs = dict(l2_lambda=lam, dropout_ratio=ratio, dropout_seed=99)

    def loss_fn(p):
        return _loss(batch, p, norm, **kwargs)

    grads = _grads(batch, params, norm, **kwargs)
    d_w, d_weights = decayed_dense_gradients(grads, params, lam)
    fd_w0, fd_w, fd_weights = finite_difference_gradients(loss_fn, params)
    assert gradient_agreement(grads.d_w0, fd_w0) <= 1.0
    assert gradient_agreement(d_w, fd_w) <= 1.0
    for analytic, numeric in zip(d_weights, fd_weights):
        assert gradient_agreement(analytic, numeric) <= 1.0


def test_gradients_vanish_off_touched_sets():
    rng = np.random.default_rng(5)
    m = 12
    params = ModelParams(0.0, rng.normal(size=m), [rng.normal(size=(m, 3))])
    batch = PackedInstances.from_instances(
        packed_rows([(1.0, ((2, 1.0), (7, -1.0))),
                     (0.0, ((2, 0.5),))]), m)
    grads = _grads(batch, params)
    np.testing.assert_array_equal(grads.touched_features, [2, 7])
    np.testing.assert_array_equal(grads.touched_rows, [2, 7])
    # row-aligned: only the touched rows are stored at all
    assert grads.d_w.shape == (2,)
    assert grads.d_weights[0].shape == (2, 3)
    d_w, d_weights = dense_gradients(grads, m)
    untouched = np.setdiff1d(np.arange(m), [2, 7])
    assert not d_w[untouched].any()
    assert not d_weights[0][untouched].any()


def test_convolution_gradient_reaches_one_hop_rows():
    # batch activates only node 0; through edge (0, 1) the table rows of both
    # endpoints receive gradient, while the far component (2, 3) gets none
    rng = np.random.default_rng(6)
    m = 4
    graph = FeatureGraph(m, np.array([[0, 1], [2, 3]]))
    norm = normalize(graph)
    params = ModelParams(0.0, rng.normal(size=m), [rng.normal(size=(m, 2))],
                         "identity", 1)
    batch = PackedInstances.from_instances(packed_rows([(2.0, ((0, 1.5),))]), m)
    grads = _grads(batch, params, norm)
    np.testing.assert_array_equal(grads.touched_rows, [0, 1])
    _, d_weights = dense_gradients(grads, m)
    assert d_weights[0][[0, 1]].any()
    assert not d_weights[0][[2, 3]].any()


# --- optimizers ---

def _unit_grads(d, g=3.0):
    # gradient g on row 0 of w and of the table, row-aligned
    return GradientSet(g, np.array([g]), [np.full((1, d), g)],
                       np.array([0]), np.array([0]))


def test_adagrad_first_step_hand_calc():
    # first step divides by sqrt(g^2 + eps), so the move is almost exactly lr
    params = ModelParams(0.0, np.zeros(3), [np.zeros((3, 2))])
    state = OptimizerState.create(params, "adagrad")
    config = TrainConfig(optimizer="adagrad", learning_rate=0.1)
    optimizer_step(params, state, _unit_grads(2), config)
    expected = -0.1 * 3.0 / math.sqrt(9.0 + EPSILON)
    assert params.w0 == pytest.approx(expected, rel=1e-12)
    assert params.w[0] == pytest.approx(expected, rel=1e-12)
    assert params.w[1] == 0.0
    assert params.weights[0][1, 0] == 0.0
    assert state.accum[0][0] == 9.0    # w0
    assert state.accum[1][0] == 9.0
    assert state.accum[1][1] == 0.0


def test_adam_first_step_moves_by_learning_rate():
    params = ModelParams(0.0, np.zeros(3), [np.zeros((3, 2))])
    state = OptimizerState.create(params, "adam")
    config = TrainConfig(optimizer="adam", learning_rate=0.05)
    optimizer_step(params, state, _unit_grads(2, g=2.0), config)
    # bias correction makes the first step lr * g / (|g| + eps)
    assert params.w0 == pytest.approx(-0.05, rel=1e-7)
    assert params.w[0] == pytest.approx(-0.05, rel=1e-7)
    assert state.step_count == 1


def test_a_loaded_model_is_updated_in_place(tmp_path):
    # load's blocks are writable views of one array; a step lands in them with the
    # bits it has on the model that was saved
    d = 2
    params = ModelParams.initialize(3, d, num_layers=2, seed=1, scale=0.3)
    params.save(tmp_path / "model.bin")
    loaded = ModelParams.load(tmp_path / "model.bin")
    held = [loaded.w, *loaded.weights]
    before = [block.copy() for block in held]
    grads = GradientSet(1.5, np.array([1.5]), [np.full((1, d), 1.5), np.full((d, d), 1.5)],
                        np.array([0]), np.array([0]))
    config = TrainConfig(optimizer="adam", learning_rate=0.1)
    for model in (params, loaded):
        optimizer_step(model, OptimizerState.create(model, "adam"), grads, config)
    assert all(now is block for now, block in zip([loaded.w, *loaded.weights], held))
    assert all(not np.array_equal(now, old) for now, old in zip(held, before))
    assert _param_digest(loaded) == _param_digest(params)


def test_adam_step_count_is_global_across_disjoint_rows():
    m, d = 4, 2
    params = ModelParams(0.0, np.zeros(m), [np.zeros((m, d))])
    state = OptimizerState.create(params, "adam")
    config = TrainConfig(optimizer="adam", learning_rate=0.1)

    first = GradientSet(0.0, np.array([1.0]), [np.zeros((0, d))],
                        np.array([0]), np.array([], dtype=np.int64))
    optimizer_step(params, state, first, config)
    w0_after_first = params.w[0]

    second = GradientSet(0.0, np.array([1.0]), [np.zeros((0, d))],
                         np.array([1]), np.array([], dtype=np.int64))
    optimizer_step(params, state, second, config)

    assert state.step_count == 2
    assert params.w[0] == w0_after_first  # lazy: untouched row unchanged
    # row 1 saw its first gradient at global t = 2
    t = 2
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    mhat = (0.1 * 1.0) / c1
    vhat = (0.001 * 1.0) / c2
    expected = -0.1 * mhat / (math.sqrt(vhat) + EPSILON)
    assert params.w[1] == pytest.approx(expected, rel=1e-12)


def test_lazy_updates_leave_accumulators_untouched():
    rng = np.random.default_rng(8)
    m = 10
    for kind in ("adagrad", "adam"):
        params = ModelParams(0.0, rng.normal(size=m), [rng.normal(size=(m, 2))])
        state = OptimizerState.create(params, kind)
        before_w = params.w.copy()
        before_table = params.weights[0].copy()
        grads = _unit_grads(2)
        config = TrainConfig(optimizer=kind, learning_rate=0.1)
        optimizer_step(params, state, grads, config)
        rest = np.arange(1, m)
        np.testing.assert_array_equal(params.w[rest], before_w[rest])
        np.testing.assert_array_equal(params.weights[0][rest], before_table[rest])
        assert not state.accum[1][rest].any()
        assert not state.accum[2][rest].any()
        assert state.accum[0][0] != 0.0    # w0 is touched by every step


def test_weight_decay_shrinks_norm_on_perfect_predictions():
    # when every residual is zero the gradient is pure decay, so a small step
    # must strictly reduce the parameter norm
    rng = np.random.default_rng(9)
    m = 6
    params = ModelParams(0.3, rng.normal(size=m), [rng.normal(size=(m, 2))])
    instances = [(0.0, ((i, 1.0), (i + 3, 1.0))) for i in range(3)]
    scores = predict_batch(packed_rows(instances), params)
    batch = PackedInstances.from_instances(
        packed_rows([(float(s), entries)
                     for s, (_, entries) in zip(scores, instances)]), m)
    grads = _grads(batch, params, l2_lambda=0.5)
    every = np.arange(m)
    dense = GradientSet(grads.d_w0, *decayed_dense_gradients(grads, params, 0.5), every, every)
    state = OptimizerState.create(params, "adagrad")
    before = _full_l2(params)
    optimizer_step(params, state, dense,
                   TrainConfig(optimizer="adagrad", learning_rate=0.01))
    assert _full_l2(params) < before


# --- dropout ---

def _dropout_case(seed=10, m=6, d=4):
    rng = np.random.default_rng(seed)
    params = ModelParams(0.3, rng.normal(size=m), [rng.normal(size=(m, d))])
    return _random_batch(rng, m, 5), params


def test_dropout_ratio_zero_is_identity():
    batch, params = _dropout_case()
    value, grads = loss_and_grads(batch, params)
    for seed in (0, 5):
        again, same = loss_and_grads(batch, params, dropout_ratio=0.0, dropout_seed=seed)
        assert again == value
        np.testing.assert_array_equal(same.d_weights[0], grads.d_weights[0])


def test_dropout_mask_and_scaling_are_exact():
    # the keep mask is drawn over the batch's sorted node set; dropping those
    # table rows by hand must reproduce the dropped loss bit for bit
    batch, params = _dropout_case()
    ratio, seed = 0.4, 3
    nodes = np.unique(batch.indices)
    mask = (np.random.default_rng(seed).random((nodes.size, params.dim)) >= ratio)
    dropped = params.copy()
    dropped.weights[0][nodes] = params.weights[0][nodes] * (mask * (1.0 / (1.0 - ratio)))
    value = _loss(batch, params, dropout_ratio=ratio, dropout_seed=seed)
    assert value == _loss(batch, dropped)
    assert value == _loss(batch, params, dropout_ratio=ratio, dropout_seed=seed)
    assert value != _loss(batch, params, dropout_ratio=ratio, dropout_seed=seed + 1)


def test_dropout_keeps_expectation():
    # inverted scaling: with two active unit features, unit rows (d = 1) and
    # zero biases the score is r_0 * r_1, two independent dropped coordinates
    # of mean 1, and d_w0 = 2 * (score - 0)
    params = ModelParams(0.0, np.zeros(2), [np.ones((2, 1))])
    batch = packed_rows([(0.0, ((0, 1.0), (1, 1.0)))])
    ratio = 0.3
    n = 10_000
    total = 0.0
    for seed in range(n):
        total += 0.5 * _grads(batch, params, dropout_ratio=ratio, dropout_seed=seed).d_w0
    se = math.sqrt(1.0 / (1.0 - ratio) ** 2 - 1.0) / math.sqrt(n)
    assert abs(total / n - 1.0) < 3.0 * se


def test_dropout_rejects_bad_ratio():
    batch, params = _dropout_case()
    for ratio in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="ratio"):
            loss_and_grads(batch, params, dropout_ratio=ratio)


# --- the training loop ---

def _space():
    return FeatureSpace.from_cardinalities(["u", "i"], [6, 8])


# one ground truth shared by every draw, so train and validation agree
_TRUTH = np.random.default_rng(42).normal(size=14)


def _regression_data(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        u = int(rng.integers(0, 6))
        i = 6 + int(rng.integers(0, 8))
        label = (_TRUTH[u] + _TRUTH[i] + 0.5 * _TRUTH[u] * _TRUTH[i]
                 + 0.05 * rng.normal())
        out.append((float(label), ((u, 1.0), (i, 1.0))))
    return packed_rows(out)


def test_train_improves_and_reports_best_epoch():
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=30,
                         patience=5, seed=3)
    val = _regression_data(1, 60)
    params, report = train(_regression_data(0, 200), val, _space(), config, dim=4)
    curve = [e.val_rmse for e in report.epochs]
    # beat the all-zero predictor the parameters start from
    baseline = math.sqrt(np.mean(val.labels ** 2))
    assert min(curve) < baseline
    assert report.best_epoch == int(np.argmin(curve)) + 1
    # first strict minimum wins
    assert curve[report.best_epoch - 1] == min(curve)
    assert [e.epoch for e in report.epochs] == list(range(1, len(curve) + 1))


def test_returned_params_reproduce_best_validation_rmse():
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=15,
                         patience=4, seed=2)
    val = _regression_data(1, 60)
    params, report = train(_regression_data(0, 200), val, _space(), config, dim=4)
    packed = PackedInstances.from_instances(val, 14)
    recomputed = rmse(predict_batch(packed, params), packed.labels)
    assert recomputed == report.epochs[report.best_epoch - 1].val_rmse


def test_early_stopping_waits_exactly_patience_epochs():
    # drive validation to a plateau so the stop fires before max_epochs
    config = TrainConfig(learning_rate=0.4, batch_size=16, max_epochs=80,
                         patience=3, seed=0)
    params, report = train(_regression_data(0, 120), _regression_data(1, 40),
                           _space(), config, dim=4)
    assert len(report.epochs) < config.max_epochs
    assert len(report.epochs) - report.best_epoch == config.patience


def test_train_is_deterministic_per_seed():
    def run(seed):
        config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=6,
                             patience=6, dropout_ratio=0.2, seed=seed)
        return train(_regression_data(0, 150), _regression_data(1, 40),
                     _space(), config, dim=4)

    p1, r1 = run(5)
    p2, r2 = run(5)
    assert p1.w0 == p2.w0
    np.testing.assert_array_equal(p1.w, p2.w)
    np.testing.assert_array_equal(p1.weights[0], p2.weights[0])
    assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]

    p3, _ = run(6)
    assert not np.array_equal(p1.weights[0], p3.weights[0])


def test_train_with_convolution_and_sampling():
    data = _regression_data(0, 150)
    graph = build_graph(data, _space())
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=5,
                         patience=5, sampling_ratio=0.5, seed=1)
    params, report = train(data, _regression_data(1, 40), _space(), config,
                           dim=4, num_layers=1, graph=graph)
    assert params.num_layers == 1
    assert math.isfinite(report.epochs[-1].val_rmse)
    assert report.config["num_layers"] == "1"
    assert report.config["validation_graph"] == "full"
    assert report.config["validation_dropout"] == "off"


def test_train_diverged_raises():
    m = 14
    huge = ModelParams(0.0, np.full(m, 1e200), [np.zeros((m, 4))])
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=3,
                         patience=3, seed=0)
    with pytest.raises(TrainingDivergedError, match="epoch 1"):
        with np.errstate(over="ignore"):
            train(_regression_data(0, 60), _regression_data(1, 20), _space(),
                  config, dim=4, init_params=huge)


def test_train_refuses_init_params_of_another_activation():
    # the run report's activation is the trained model's
    config = TrainConfig(max_epochs=1, patience=1)
    data = _regression_data(0, 20)
    graph = FeatureGraph(14, np.array([[0, 6], [1, 7]]))
    relu = ModelParams.initialize(14, 4, num_layers=1, activation="relu", seed=2)
    with pytest.raises(ValueError, match="init_params"):
        train(data, data, _space(), config, dim=4, num_layers=1, graph=graph, init_params=relu)
    params, report = train(data, data, _space(), config, dim=4, num_layers=1,
                           activation="relu", graph=graph, init_params=relu)
    assert params.activation == report.config["activation"] == "relu"


@pytest.mark.parametrize("block", ["w0", "w", "weights[0]", "weights[1]"])
def test_optimizer_step_refuses_a_non_finite_parameter(block):
    params = ModelParams.initialize(6, 3, num_layers=2, seed=0)
    for kind in ("adagrad", "adam"):
        state = OptimizerState.create(params, kind)
        grads = GradientSet(0.5, np.ones(2), [np.ones((2, 3)), np.ones((3, 3))],
                            np.array([1, 4]), np.array([0, 5]))
        if block == "w0":
            grads.d_w0 = np.nan
        elif block == "w":
            grads.d_w[1] = np.inf
        else:
            grads.d_weights[int(block[-2])][1, 2] = np.nan
        with pytest.raises(TrainingDivergedError, match=re.escape(f"non-finite {block} ")):
            with np.errstate(invalid="ignore"):
                optimizer_step(params.copy(), state, grads, TrainConfig(optimizer=kind))


def test_train_names_the_step_whose_update_diverged(monkeypatch):
    # a gradient that turns a parameter non-finite while every batch loss is
    # still finite: the optimizer step itself must stop the run
    calls = []
    # the module, not the train function the package exports under its name
    module = importlib.import_module("gemfm.train")
    real = module._backward   # the gradients of every step train takes come from here

    def poisoned(*args, **kwargs):
        value, grads = real(*args, **kwargs)
        calls.append(value)
        if len(calls) == 5:     # 60 rows at 32 a batch: epoch 3, batch 0
            grads.d_weights[0][-1, 0] = np.inf
        return value, grads

    monkeypatch.setattr(module, "_backward", poisoned)
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=4, patience=4)
    with pytest.raises(TrainingDivergedError,
                       match=re.escape("non-finite weights[0] after the optimizer step "
                                       "in epoch 3, batch 0")):
        with np.errstate(invalid="ignore"):
            train(_regression_data(0, 60), _regression_data(1, 20), _space(), config, dim=4)


@pytest.mark.parametrize("touched", [0, 1, 511, 512, 513, 1500])
def test_row_updates_match_the_unfused_formulas(monkeypatch, touched):
    # the fused update walks the rows in blocks under either optimizer, whole or in the two
    # halves optimizer_step gives the calling thread and the worker; every bit must match
    # the whole-array formulas on either side of each block boundary and of the cut
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)

    def update(split, param, mom, accum, grad, rows, *at):
        _split(lambda lo, hi: _update_rows(param, mom, accum, grad[lo:hi], rows[lo:hi], *at),
               rows.size, rows.size // 2, split)

    rng = np.random.default_rng(touched)
    m = 1600
    rows = np.sort(rng.choice(m, size=touched, replace=False))
    for shape, split in itertools.product([(m,), (m, 5)], [False, True]):
        param, mom, accum = rng.normal(size=shape), rng.normal(size=shape), rng.random(shape)
        grad = rng.normal(size=(touched, *shape[1:]))
        got, want = [param.copy(), accum.copy()], [param.copy(), accum.copy()]
        update(split, got[0], None, got[1], grad, rows, 0.01, 1.0, 1.0, "w")
        adagrad_rows_reference(*want, grad, rows, 0.01)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        c1, c2 = 1.0 - ADAM_BETA1 ** 3, 1.0 - ADAM_BETA2 ** 3
        got, want = [param.copy(), mom.copy(), accum.copy()], [param.copy(), mom.copy(), accum.copy()]
        update(split, *got, grad, rows, 0.01, c1, c2, "w")
        adam_rows_reference(*want, grad, rows, 0.01, c1, c2)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_non_finite_validation_metric_raises():
    # feature 13 never occurs in training, so its huge bias leaves every batch
    # loss finite while every validation error with it squares to inf; a
    # non-finite metric must not pass for "no improvement" and return the
    # initial parameters (ModelParams refuses a NaN bias itself)
    m = 14
    data = _regression_data(0, 120)
    train_set = data.take(np.flatnonzero(data.indices[data.indptr[1:] - 1] != 13))
    val = _regression_data(1, 40)
    assert np.any(val.indices[val.indptr[1:] - 1] == 13)
    w = np.zeros(m)
    w[13] = 1e300
    init = ModelParams(0.0, w, [np.zeros((m, 4))])
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=3,
                         patience=3, seed=0)
    with pytest.raises(TrainingDivergedError, match="validation metric in epoch 1"):
        train(train_set, val, _space(), config, dim=4, init_params=init)


def test_train_input_validation():
    config = TrainConfig(max_epochs=2, patience=1)
    data = _regression_data(0, 20)
    with pytest.raises(ValueError, match="non-empty"):
        train(packed_rows([]), data, _space(), config, dim=4)
    with pytest.raises(ValueError, match="requires a co-occurrence graph"):
        train(data, data, _space(), config, dim=4, num_layers=1)
    graph = FeatureGraph(14, np.array([[0, 6]]))
    with pytest.raises(ValueError, match="no convolution layers"):
        train(data, data, _space(), config, dim=4, graph=graph)
    huge = FeatureGraph(999999999999999999, np.array([[0, 6]]))    # refused before normalize
    with pytest.raises(ValueError, match="adjacency over 999999999999999999 nodes does not "
                                         "match 14 features"):
        train(data, data, _space(), config, dim=4, num_layers=1, graph=huge)
    bad_init = ModelParams.initialize(14, 3)
    with pytest.raises(ValueError, match="init_params"):
        train(data, data, _space(), config, dim=4, init_params=bad_init)
    with_empty = data + packed_rows([(1.0, ())])
    with pytest.raises(ValueError, match="at least one active"):
        train(with_empty, data, _space(), config, dim=4)


@pytest.mark.parametrize("part", ["train", "validation"])
def test_train_refuses_a_negative_index_before_any_step(monkeypatch, part):
    def never(*args, **kwargs):
        raise AssertionError("a step ran before the indices were checked")

    # every step train takes starts by preparing its inputs
    monkeypatch.setattr(importlib.import_module("gemfm.train"), "_prepare", never)
    data = _regression_data(0, 20)
    indices = data.indices.copy()
    indices[0] = -3    # row 0 becomes (-3, item)
    with pytest.raises(DataFormatError, match="negative feature index -3"):
        # the pack refuses the index as it is made, so no step can see it
        bad = PackedInstances(data.labels, data.indptr, indices, data.values)
        sets = (bad, data) if part == "train" else (data, bad)
        train(*sets, _space(), TrainConfig(max_epochs=1), dim=4)


# --- the next step's inputs, prepared during this step's backward ---

class _WatchedWorker:
    """Stands in for gemfm.model._worker and keeps every future it hands out."""

    def __init__(self, worker):
        self._worker, self.futures = worker, []

    def submit(self, fn, *args):
        self.futures.append((fn.__name__, self._worker.submit(fn, *args)))
        return self.futures[-1][1]

    def pending(self):
        return [name for name, future in self.futures if not future.done()]

    def prepared(self):
        return sum(name == "prepare" for name, _ in self.futures)


@pytest.fixture
def watched_worker(monkeypatch):
    watched = _WatchedWorker(importlib.import_module("gemfm.model")._worker)
    monkeypatch.setattr("gemfm.model._worker", watched)
    return watched


def _train_ahead(layers):
    # 150 rows at 32 a batch: 5 steps an epoch, the last 4 prepared ahead
    data = _regression_data(0, 150)
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=2, patience=2,
                         dropout_ratio=0.3, sampling_ratio=0.5, seed=4)
    return train(data, _regression_data(1, 40), _space(), config, dim=4, num_layers=layers,
                 activation="relu", graph=build_graph(data, _space()) if layers else None)


@pytest.mark.filterwarnings("ignore:field:RuntimeWarning")
@pytest.mark.parametrize("layers", [0, 1, 2])
def test_preparing_ahead_on_the_worker_changes_no_bit(monkeypatch, tmp_path, watched_worker,
                                                      layers):
    module = importlib.import_module("gemfm.train")
    got = []
    for cpus in (1, 2):
        monkeypatch.setattr("gemfm.model._cpus", lambda cpus=cpus: cpus)
        # one second an epoch, so the report's seconds agree too
        clock = SimpleNamespace(perf_counter=itertools.count().__next__)
        monkeypatch.setattr(module, "time", clock)
        params, report = _train_ahead(layers)
        report.save(tmp_path / f"{cpus}.txt")
        got.append((_param_digest(params), (tmp_path / f"{cpus}.txt").read_bytes(),
                    watched_worker.prepared()))
    # products split or not, 4 steps of each epoch are prepared on the worker
    assert got[0][:2] == got[1][:2]
    assert (got[0][2], got[1][2]) == (2 * 4, 2 * 2 * 4)


@pytest.mark.filterwarnings("ignore:field:RuntimeWarning")
def test_every_update_finds_the_worker_idle(monkeypatch, every_product_split, watched_worker):
    module = importlib.import_module("gemfm.train")
    real, entered = module.optimizer_step, []

    def checked(*args):
        entered.append(watched_worker.pending())
        return real(*args)

    monkeypatch.setattr(module, "optimizer_step", checked)
    _train_ahead(1)
    assert entered == [[]] * (2 * 5)
    assert watched_worker.prepared() == 2 * 4
    # the split products took the worker too, before and after each preparation
    assert len(watched_worker.futures) > watched_worker.prepared()


@pytest.mark.parametrize("optimizer", ["adagrad", "adam"])
def test_split_updates_change_no_bit(monkeypatch, watched_worker, optimizer):
    # a click-sized table (3,290 x 64, 3,000 touched rows) splits its update at two CPUs;
    # w (one entry a row) and the d x d block are too narrow to, and one CPU splits nothing
    rng = np.random.default_rng(8)
    m, d = 3290, 64
    start = ModelParams.initialize(m, d, num_layers=2, seed=4, scale=0.1)
    rows, features = (np.sort(rng.choice(m, size, replace=False)) for size in (3000, 900))
    steps = [GradientSet(float(rng.normal()), rng.normal(size=features.size),
                         [rng.normal(size=(rows.size, d)), rng.normal(size=(d, d))], features, rows)
             for _ in range(3)]
    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # the threads trade the GIL as often as they can
    try:
        for cpus in (1, 2):
            monkeypatch.setattr("gemfm.model._cpus", lambda cpus=cpus: cpus)
            params, state = start.copy(), OptimizerState.create(start, optimizer)
            for grads in steps:
                optimizer_step(params, state, grads, TrainConfig(optimizer=optimizer))
            got.append((params, state, len(watched_worker.futures)))
    finally:
        sys.setswitchinterval(interval)
    (one, one_state, one_sent), (two, two_state, two_sent) = got
    assert (one_sent, two_sent) == (0, len(steps))   # the table's update, once a step
    assert watched_worker.pending() == []
    assert one.w0 == two.w0 and one_state.step_count == two_state.step_count == len(steps)
    blocks = [[p.w, *p.weights, *s.accum, *(s.momentum or [])]
              for p, s in ((one, one_state), (two, two_state))]
    assert len(blocks[0]) == (7 if optimizer == "adagrad" else 11)
    for a, b in zip(*blocks):
        assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")   # the caller's errstate holds there too
def test_a_non_finite_row_in_the_workers_half_stops_the_update(monkeypatch, watched_worker):
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)
    m, d = 3290, 64
    params = ModelParams.initialize(m, d, seed=4)
    rows = np.arange(0, m, 2)
    d_table = np.ones((rows.size, d))
    d_table[-1, 3] = np.inf   # the last touched row is the worker's
    grads = GradientSet(0.0, np.ones(2), [d_table], np.array([0, 1]), rows)
    for kind in OPTIMIZERS:
        with pytest.raises(TrainingDivergedError,
                           match=re.escape("non-finite weights[0] after the optimizer step")):
            with np.errstate(invalid="ignore"):
                optimizer_step(params.copy(), OptimizerState.create(params, kind), grads,
                               TrainConfig(optimizer=kind))
        assert watched_worker.pending() == []
    assert len(watched_worker.futures) == len(OPTIMIZERS)


@pytest.mark.parametrize("where", ["update", "backward", "preparation", "both"])
def test_a_step_that_raises_leaves_the_worker_idle(monkeypatch, watched_worker, where):
    # 60 rows at 32 a batch: the fifth step (epoch 3, batch 0) fails in its update or its
    # backward, or the preparation of the step after it fails on the worker, or both fail
    module = importlib.import_module("gemfm.train")
    real_backward, real_prepare = module._backward, module._prepare
    real_step = module.optimizer_step
    main, calls, worker_calls, updates = threading.get_ident(), [], [], []

    def slow_prepare(*args):   # still running when the backward returns
        if threading.get_ident() != main:
            time.sleep(0.2)
            worker_calls.append(args)
            if len(worker_calls) == 3 and where in ("preparation", "both"):
                raise ValueError("no room for the design")
        return real_prepare(*args)

    def poisoned(*args):
        value, grads = real_backward(*args)
        calls.append(value)
        if len(calls) == 5:
            if where in ("backward", "both"):
                raise MemoryError("no room for the gradient")
            if where == "update":
                grads.d_weights[0][-1, 0] = np.inf
        return value, grads

    def counted_step(*args):
        updates.append(len(calls))
        return real_step(*args)

    monkeypatch.setattr(module, "_prepare", slow_prepare)
    monkeypatch.setattr(module, "_backward", poisoned)
    monkeypatch.setattr(module, "optimizer_step", counted_step)
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=4, patience=4)
    raised, message = {"update": (TrainingDivergedError, "in epoch 3, batch 0"),
                       "backward": (MemoryError, "no room for the gradient"),
                       "preparation": (ValueError, "no room for the design"),
                       "both": (MemoryError, "no room for the gradient")}[where]
    with pytest.raises(raised, match=message) as caught:
        with np.errstate(invalid="ignore"):
            train(_regression_data(0, 60), _regression_data(1, 20), _space(), config, dim=4)
    assert watched_worker.prepared() == 3   # batch 1 of epochs 1 to 3
    assert watched_worker.pending() == []
    # a failed preparation raises where its step would start, after the update before it,
    # and never in place of an error the backward raised
    assert updates == [1, 2, 3, 4, 5][:4 if where in ("backward", "both") else 5]
    if where in ("backward", "both"):
        assert caught.value.__context__ is None


# --- the training stream, pinned bit for bit ---

@pytest.fixture(scope="module")
def small_clicks():
    bench = click_benchmark(ClickDataConfig(num_users=80, num_items=50,
                                            num_countries=5, num_cities=12,
                                            num_clusters=4, num_transactions=800,
                                            seed=5))
    graph = build_graph(bench.train_positives, bench.space,
                        included_fields=["user", "item"])
    return bench, graph


def _param_digest(params):
    h = hashlib.blake2b(digest_size=16)
    h.update(np.float64(params.w0).tobytes())
    for arr in (params.w, *params.weights):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# blake2b of the parameters after two epochs, recorded with numpy 2.4.6 and
# scipy 1.17.1 on x86-64 before gradients became row-aligned. Any change to
# the arithmetic of a training step (order of a reduction included) moves
# them; another BLAS build may round dense products differently. The
# sampled row was recorded again when neighbour sampling moved to one random
# key per directed edge (a new stream; the optimizer kept its bits). All four
# rows were recorded again when the score's square term came to sum each
# row's squared norm before the sparse product (a new reduction order: the
# parameters and losses of the old digests agree with these to 5e-16 in norm).
# The L = 2 weight-decay row was recorded before the backward pass began to
# drop each layer's cache once used, a change that kept every bit.
PINNED_STREAMS = [
    # (layers, optimizer, activation, dropout, l2, sampling ratio, digest)
    (0, "adam", "identity", 0.3, 0.0, 1.0, "7e6e5728f3be7e1bdefe2086d9def22c"),
    (1, "adam", "identity", 0.3, 1e-3, 1.0, "415b23840acb8c9677b7b7f32774f5f7"),
    (2, "adagrad", "relu", 0.0, 0.0, 0.5, "59430ecf228a832f24920ffbe59221b3"),
    (3, "adam", "relu", 0.3, 1e-3, 1.0, "d6b6511cbd422b20d40602b3f20d71bd"),
    # the scale benchmark's setting: L = 2, weight decay, sampling
    (2, "adagrad", "identity", 0.0, 1e-4, 0.5, "23adb82a7013ff6d15bf512da0675946"),
]


@pytest.mark.parametrize("layers,optimizer,activation,dropout,lam,ratio,digest",
                         PINNED_STREAMS)
def test_training_stream_is_pinned(small_clicks, layers, optimizer, activation,
                                   dropout, lam, ratio, digest):
    bench, graph = small_clicks
    config = TrainConfig(optimizer=optimizer, learning_rate=0.01, l2_lambda=lam,
                         dropout_ratio=dropout, batch_size=64, max_epochs=2,
                         patience=3, sampling_ratio=ratio, seed=11)
    params, report = train(bench.train, bench.validation, bench.space, config,
                           dim=8, num_layers=layers, activation=activation,
                           graph=graph if layers else None)
    assert report.best_epoch == 2  # the digest covers the whole stream
    assert _param_digest(params) == digest


@pytest.mark.parametrize("layers,optimizer,activation,dropout,lam,ratio,digest",
                         PINNED_STREAMS)
def test_training_stream_is_pinned_with_every_product_split(
        every_product_split, small_clicks, layers, optimizer, activation, dropout, lam,
        ratio, digest):
    test_training_stream_is_pinned(small_clicks, layers, optimizer, activation, dropout,
                                   lam, ratio, digest)


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_training_step_dedups_at_most_once(monkeypatch, small_clicks, layers):
    # time-free work counter: one step computes the batch's node set once and
    # stores gradients only for the rows it touched
    bench, graph = small_clicks
    m, d = bench.space.num_features, 8
    norm = normalize(graph) if layers else None
    params = ModelParams.initialize(m, d, layers, seed=1)
    config = TrainConfig(dropout_ratio=0.3, l2_lambda=1e-3, batch_size=64)
    batch = bench.train.take(np.arange(64))
    nodes = np.unique(batch.indices)
    reached = nodes
    for _ in range(layers):
        reached = np.unique(norm[reached].indices)

    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    _, grads = loss_and_grads(batch, params, norm, l2_lambda=config.l2_lambda,
                              dropout_ratio=config.dropout_ratio, dropout_seed=0)
    optimizer_step(params, OptimizerState.create(params, "adam"), grads, config)
    monkeypatch.undo()

    assert len(calls) <= 1
    np.testing.assert_array_equal(grads.touched_features, nodes)
    np.testing.assert_array_equal(grads.touched_rows, reached)
    assert grads.d_w.shape == (len(grads.touched_features),)
    assert grads.d_weights[0].shape == (len(grads.touched_rows), d)


@pytest.mark.parametrize("activation", ["identity", "relu"])
@pytest.mark.parametrize("layers", [2, 3])
def test_backward_drops_each_deeper_cache_before_layer_one(monkeypatch, small_clicks,
                                                           layers, activation):
    # reference counting frees a cache as soon as the backward lets go of it, so
    # weak references tell which caches live when layer 1's backward begins
    bench, graph = small_clicks
    module = importlib.import_module("gemfm.train")
    embed, local_columns = module.embed, module.local_columns
    caches, alive = [], []

    def watched_embed(*args):
        view = embed(*args)
        caches.extend(weakref.ref(cache) for cache in view.layers)
        return view

    def layer_one_columns(block):   # gcn_embed looks local_columns up in gemfm.model
        alive.append([ref() is not None for ref in caches])
        return local_columns(block)

    monkeypatch.setattr(module, "embed", watched_embed)
    monkeypatch.setattr(module, "local_columns", layer_one_columns)
    params = ModelParams.initialize(bench.space.num_features, 8, layers, activation, seed=1)
    loss_and_grads(bench.train.take(np.arange(64)), params, normalize(graph),
                   l2_lambda=1e-3, dropout_ratio=0.3, dropout_seed=2)
    assert alive == [[True] + [False] * (layers - 1)]
    assert all(ref() is None for ref in caches)


@pytest.mark.parametrize("kwargs", [
    {"optimizer": "sgd"},
    {"learning_rate": 0.0},
    {"learning_rate": float("nan")},   # it used to run a whole epoch first
    {"learning_rate": float("inf")},
    {"l2_lambda": -1.0},
    {"l2_lambda": float("nan")},
    {"l2_lambda": float("inf")},
    {"dropout_ratio": 1.0},
    {"dropout_ratio": -0.2},
    {"batch_size": 0},
    {"max_epochs": 0},
    {"patience": 0},
    {"sampling_ratio": 1.2},
    {"metric_for_stopping": "auc"},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_run_report_bytes_are_pinned(tmp_path):
    # the report is written, never read back: losses and metrics are spelled
    # by repr, which reads back to the same float (0.1 + 0.2 needs 17 digits),
    # and seconds to the millisecond
    report = RunReport({"optimizer": "adam", "dim": "4"},
                       [EpochRecord(1, 12.5, 0.9, 0.7, 1.5),
                        EpochRecord(2, 0.1 + 0.2, 0.8125, 1 / 3, 0.1235)],
                       best_epoch=2)
    path = tmp_path / "report.txt"
    report.save(path)
    assert path.read_bytes() == (
        b"config optimizer=adam\n"
        b"config dim=4\n"
        b"epoch 1 train_loss=12.5 val_rmse=0.9 val_mae=0.7 seconds=1.500\n"
        b"epoch 2 train_loss=0.30000000000000004 val_rmse=0.8125 "
        b"val_mae=0.3333333333333333 seconds=0.123\n"
        b"best_epoch 2\n"
    )
