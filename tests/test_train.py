"""Loss, analytic gradients, optimizers, dropout, the training loop."""

import hashlib
import math

import numpy as np
import pytest

from gemfm import (FeatureGraph, FeatureSpace, ModelParams, SparseInstance,
                   TrainConfig, TrainingDivergedError, backward, build_graph,
                   loss, normalize, predict_batch, train)
from gemfm.data import PackedInstances
from gemfm.datagen import ClickDataConfig, click_benchmark
from gemfm.metrics import rmse
from gemfm.model import gcn_embed, lookup_embed
from gemfm.train import (EPSILON, EpochRecord, GradientSet, OptimizerState,
                         RunReport, _draw_mask, _full_l2, _loss_and_grads,
                         apply_dropout, optimizer_step)
from oracles import (dense_gcn_rows, dense_gradients, dense_normalized_adjacency,
                     finite_difference_gradients, gradient_agreement,
                     pairwise_score)


def _random_batch(rng, m, n, max_active=4):
    instances = []
    for _ in range(n):
        k = int(rng.integers(1, max_active + 1))
        idx = np.sort(rng.choice(m, size=k, replace=False))
        instances.append(SparseInstance(
            float(rng.normal()),
            tuple((int(i), float(rng.uniform(-2, 2))) for i in idx),
        ))
    return PackedInstances.from_instances(instances, m)


def _random_graph(rng, m, density=0.3):
    mask = np.triu(rng.random((m, m)) < density, k=1)
    edges = np.argwhere(mask)
    return FeatureGraph(m, edges if len(edges) else np.zeros((0, 2), np.int64))


# --- loss ---

def test_loss_matches_brute_force_flat():
    rng = np.random.default_rng(0)
    m = 9
    batch = _random_batch(rng, m, 12)
    params = ModelParams(0.4, rng.normal(size=m), [rng.normal(size=(m, 3))])
    instances = [SparseInstance(float(batch.labels[i]),
                                tuple(zip(batch.indices[batch.indptr[i]:batch.indptr[i + 1]].tolist(),
                                          batch.values[batch.indptr[i]:batch.indptr[i + 1]].tolist())))
                 for i in range(len(batch))]
    expected = sum(
        (pairwise_score(inst, params.weights[0], params.w, params.w0) - inst.label) ** 2
        for inst in instances
    )
    assert loss(batch, params) == pytest.approx(expected, rel=1e-12)
    lam = 0.07
    with_l2 = expected + lam * _full_l2(params, include_bias=True)
    assert loss(batch, params, l2_lambda=lam) == pytest.approx(with_l2, rel=1e-12)
    no_bias = expected + lam * _full_l2(params, include_bias=False)
    assert loss(batch, params, l2_lambda=lam,
                l2_includes_bias=False) == pytest.approx(no_bias, rel=1e-12)


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
    for i in range(len(batch)):
        entries = tuple(zip(batch.indices[batch.indptr[i]:batch.indptr[i + 1]].tolist(),
                            batch.values[batch.indptr[i]:batch.indptr[i + 1]].tolist()))
        inst = SparseInstance(float(batch.labels[i]), entries)
        total += (pairwise_score(inst, rows, params.w, params.w0) - inst.label) ** 2
    assert loss(batch, params, norm) == pytest.approx(total, rel=1e-10)


def test_loss_input_contract():
    params = ModelParams.initialize(4, 2)
    conv = ModelParams.initialize(4, 2, num_layers=1)
    norm = normalize(FeatureGraph(4, np.array([[0, 1]])))
    batch = PackedInstances.from_instances([SparseInstance(1.0, ((0, 1.0),))], 4)
    empty = PackedInstances.from_instances([], 4)
    with pytest.raises(ValueError, match="empty"):
        loss(empty, params)
    with pytest.raises(ValueError, match="iff"):
        loss(batch, params, norm)
    with pytest.raises(ValueError, match="iff"):
        loss(batch, conv)
    with pytest.raises(ValueError, match="empty"):
        backward(empty, params)


# --- analytic gradients vs central differences ---

FD_CASES = [
    # (layers, activation, l2, dropout, include_bias)
    (0, "identity", 0.0, 0.0, True),
    (0, "identity", 0.02, 0.3, True),
    (1, "identity", 0.0, 0.0, True),
    (1, "relu", 0.01, 0.0, False),
    (2, "relu", 0.0, 0.25, True),
    (2, "identity", 0.03, 0.0, True),
]


@pytest.mark.parametrize("layers,activation,lam,ratio,include_bias", FD_CASES)
def test_backward_matches_finite_differences(layers, activation, lam, ratio,
                                             include_bias):
    rng = np.random.default_rng(layers * 17 + int(lam * 1000) + int(ratio * 10))
    m, d = 8, 3
    graph = _random_graph(rng, m)
    norm = normalize(graph) if layers else None
    batch = _random_batch(rng, m, 6)
    params = ModelParams.initialize(m, d, layers, activation,
                                    seed=int(rng.integers(1 << 30)), scale=0.5)
    params.w0 = float(rng.normal())
    params.w = rng.normal(size=m)
    if activation == "relu":
        # keep pre-activations away from the kink so differences are clean
        view = gcn_embed(norm, params, np.unique(batch.indices))
        assert min(float(np.abs(c.pre).min()) for c in view.layers) > 1e-4

    mask = None
    if ratio > 0.0:
        nodes = np.unique(batch.indices)
        mask = _draw_mask((nodes.size, d), ratio, seed=99)

    def loss_fn(p):
        return loss(batch, p, norm, lam, dropout_mask=mask,
                    dropout_ratio=ratio, l2_includes_bias=include_bias)

    grads = backward(batch, params, norm, lam, dropout_mask=mask,
                     dropout_ratio=ratio, l2_includes_bias=include_bias,
                     exact_l2=True)
    fd_w0, fd_w, fd_weights = finite_difference_gradients(loss_fn, params)
    d_w, d_weights = dense_gradients(grads, m)
    assert gradient_agreement(grads.d_w0, fd_w0) <= 1.0
    assert gradient_agreement(d_w, fd_w) <= 1.0
    for analytic, numeric in zip(d_weights, fd_weights):
        assert gradient_agreement(analytic, numeric) <= 1.0


def test_gradients_vanish_off_touched_sets():
    rng = np.random.default_rng(5)
    m = 12
    params = ModelParams(0.0, rng.normal(size=m), [rng.normal(size=(m, 3))])
    batch = PackedInstances.from_instances(
        [SparseInstance(1.0, ((2, 1.0), (7, -1.0))),
         SparseInstance(0.0, ((2, 0.5),))], m)
    grads = backward(batch, params)
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
    batch = PackedInstances.from_instances(
        [SparseInstance(2.0, ((0, 1.5),))], m)
    grads = backward(batch, params, norm)
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
    assert state.accum.w[0] == 9.0
    assert state.accum.w[1] == 0.0


def test_adam_first_step_moves_by_learning_rate():
    params = ModelParams(0.0, np.zeros(3), [np.zeros((3, 2))])
    state = OptimizerState.create(params, "adam")
    config = TrainConfig(optimizer="adam", learning_rate=0.05)
    optimizer_step(params, state, _unit_grads(2, g=2.0), config)
    # bias correction makes the first step lr * g / (|g| + eps)
    assert params.w0 == pytest.approx(-0.05, rel=1e-7)
    assert params.w[0] == pytest.approx(-0.05, rel=1e-7)
    assert state.step_count == 1


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
        assert not state.accum.w[rest].any()
        assert not state.accum.weights[0][rest].any()


def test_weight_decay_shrinks_norm_on_perfect_predictions():
    # when every residual is zero the gradient is pure decay, so a small step
    # must strictly reduce the parameter norm
    rng = np.random.default_rng(9)
    m = 6
    params = ModelParams(0.3, rng.normal(size=m), [rng.normal(size=(m, 2))])
    instances = [SparseInstance(0.0, ((i, 1.0), (i + 3, 1.0))) for i in range(3)]
    scores = predict_batch(instances, params)
    batch = PackedInstances.from_instances(
        [SparseInstance(float(s), inst.entries)
         for s, inst in zip(scores, instances)], m)
    grads = backward(batch, params, l2_lambda=0.5, exact_l2=True)
    state = OptimizerState.create(params, "adagrad")
    before = _full_l2(params, include_bias=True)
    optimizer_step(params, state, grads,
                   TrainConfig(optimizer="adagrad", learning_rate=0.01))
    assert _full_l2(params, include_bias=True) < before


# --- dropout ---

def test_dropout_ratio_zero_is_identity():
    view = lookup_embed(ModelParams.initialize(4, 3, seed=1), [0, 2])
    dropped, mask = apply_dropout(view, 0.0, seed=5)
    assert dropped is view
    np.testing.assert_array_equal(mask, np.ones((2, 3)))


def test_dropout_mask_and_scaling_are_exact():
    rng = np.random.default_rng(10)
    params = ModelParams(0.0, np.zeros(6), [rng.normal(size=(6, 4))])
    view = lookup_embed(params, np.arange(6))
    ratio = 0.4
    dropped, mask = apply_dropout(view, ratio, seed=3)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    np.testing.assert_array_equal(dropped.rows,
                                  view.rows * (mask * (1.0 / (1.0 - ratio))))
    again, mask2 = apply_dropout(view, ratio, seed=3)
    np.testing.assert_array_equal(mask, mask2)
    _, mask3 = apply_dropout(view, ratio, seed=4)
    assert not np.array_equal(mask, mask3)


def test_dropout_keeps_expectation():
    # inverted scaling: E[dropped coordinate] equals the raw coordinate
    view = lookup_embed(ModelParams(0.0, np.zeros(1), [np.ones((1, 1))]), [0])
    ratio = 0.3
    n = 10_000
    total = 0.0
    for seed in range(n):
        dropped, _ = apply_dropout(view, ratio, seed=seed)
        total += float(dropped.rows[0, 0])
    se = math.sqrt(ratio / (1.0 - ratio)) / math.sqrt(n)
    assert abs(total / n - 1.0) < 3.0 * se


def test_dropout_rejects_bad_ratio():
    view = lookup_embed(ModelParams.initialize(2, 2), [0])
    for ratio in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="ratio"):
            apply_dropout(view, ratio, seed=0)


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
        out.append(SparseInstance(float(label), ((u, 1.0), (i, 1.0))))
    return out


def test_train_improves_and_reports_best_epoch():
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=30,
                         patience=5, seed=3)
    val = _regression_data(1, 60)
    params, report = train(_regression_data(0, 200), val, _space(), config, dim=4)
    curve = [e.val_rmse for e in report.epochs]
    # beat the all-zero predictor the parameters start from
    baseline = math.sqrt(np.mean([inst.label ** 2 for inst in val]))
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
    graph = build_graph(data, _space(), low_cardinality_threshold=0)
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


def test_non_finite_validation_metric_raises():
    # feature 13 never occurs in training, so its NaN bias leaves every batch
    # loss finite while every validation score with it is NaN; a NaN metric
    # must not pass for "no improvement" and return the initial parameters
    m = 14
    train_set = [inst for inst in _regression_data(0, 120)
                 if inst.entries[-1][0] != 13]
    val = _regression_data(1, 40)
    assert any(inst.entries[-1][0] == 13 for inst in val)
    w = np.zeros(m)
    w[13] = np.nan
    init = ModelParams(0.0, w, [np.zeros((m, 4))])
    config = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=3,
                         patience=3, seed=0)
    with pytest.raises(TrainingDivergedError, match="validation metric in epoch 1"):
        train(train_set, val, _space(), config, dim=4, init_params=init)


def test_train_input_validation():
    config = TrainConfig(max_epochs=2, patience=1)
    data = _regression_data(0, 20)
    with pytest.raises(ValueError, match="non-empty"):
        train([], data, _space(), config, dim=4)
    with pytest.raises(ValueError, match="requires a co-occurrence graph"):
        train(data, data, _space(), config, dim=4, num_layers=1)
    graph = FeatureGraph(14, np.array([[0, 6]]))
    with pytest.raises(ValueError, match="no convolution layers"):
        train(data, data, _space(), config, dim=4, graph=graph)
    bad_init = ModelParams.initialize(14, 3)
    with pytest.raises(ValueError, match="init_params"):
        train(data, data, _space(), config, dim=4, init_params=bad_init)
    with_empty = data + [SparseInstance(1.0, ())]
    with pytest.raises(ValueError, match="at least one active"):
        train(with_empty, data, _space(), config, dim=4)


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
# them; another BLAS build may round dense products differently.
PINNED_STREAMS = [
    # (layers, optimizer, activation, dropout, l2, sampling ratio, digest)
    (0, "adam", "identity", 0.3, 0.0, 1.0, "68e2e955cf6fb8683a9a1352163befc0"),
    (1, "adam", "identity", 0.3, 1e-3, 1.0, "831a70797028c00742a2768ffb6a3532"),
    (2, "adagrad", "relu", 0.0, 0.0, 0.5, "c7900ef464c2b29124dbc147953808d5"),
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


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_training_step_dedups_at_most_once(monkeypatch, small_clicks, layers):
    # time-free work counter: one step computes the batch's node set once and
    # stores gradients only for the rows it touched
    bench, graph = small_clicks
    m, d = bench.space.num_features, 8
    norm = normalize(graph) if layers else None
    params = ModelParams.initialize(m, d, layers, seed=1)
    config = TrainConfig(dropout_ratio=0.3, l2_lambda=1e-3, batch_size=64)
    batch = PackedInstances.from_instances(bench.train[:64], m)
    nodes = np.unique(batch.indices)
    reached = nodes
    for _ in range(layers):
        reached = np.unique(norm.matrix[reached].indices)

    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    _, grads = _loss_and_grads(batch, params, norm, config, mask_seed=0)
    optimizer_step(params, OptimizerState.create(params, "adam"), grads, config)
    monkeypatch.undo()

    assert len(calls) <= 1
    np.testing.assert_array_equal(grads.touched_features, nodes)
    np.testing.assert_array_equal(grads.touched_rows, reached)
    assert grads.d_w.shape == (len(grads.touched_features),)
    assert grads.d_weights[0].shape == (len(grads.touched_rows), d)


@pytest.mark.parametrize("kwargs", [
    {"optimizer": "sgd"},
    {"learning_rate": 0.0},
    {"l2_lambda": -1.0},
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


def test_run_report_round_trip():
    report = RunReport({"optimizer": "adam", "dim": "4"},
                       [EpochRecord(1, 12.5, 0.9, 0.7, 1.5),
                        EpochRecord(2, 10.25, 0.8125, 0.625, 0.125)],
                       best_epoch=2)
    parsed = RunReport.from_text(report.to_text())
    assert parsed.config == report.config
    assert parsed.best_epoch == 2
    assert [(e.epoch, e.train_loss, e.val_rmse, e.val_mae, e.seconds)
            for e in parsed.epochs] == \
           [(e.epoch, e.train_loss, e.val_rmse, e.val_mae, e.seconds)
            for e in report.epochs]


def test_run_report_file_round_trip(tmp_path):
    report = RunReport({"seed": "0"}, [EpochRecord(1, 3.0, 1.0, 0.5, 0.25)], 1)
    path = tmp_path / "report.txt"
    report.save(path)
    parsed = RunReport.from_text(path.read_text())
    assert parsed.config == {"seed": "0"}
    assert parsed.epochs[0].train_loss == 3.0
