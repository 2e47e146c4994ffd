"""Every refused argument is a ConfigError, which ``except ValueError`` also catches."""

import numpy as np
import pytest

from gemfm import (ConfigError, FeatureSpace, GemfmError, ModelParams, TrainConfig,
                   build_graph, derive_seed, loss_and_grads, negative_sample,
                   predict_batch, rmse, sample_neighbors, save_libfm, split_dataset, train)
from oracles import packed_rows

SPACE = FeatureSpace.from_cardinalities(["u", "i"], [3, 4])
TUPLES = [(1.0, ((u, 1.0), (3 + i, 1.0))) for u in range(3) for i in range(4)]
ROWS = packed_rows(TUPLES)
GRAPH = build_graph(ROWS, SPACE, included_fields=["u", "i"])


@pytest.mark.parametrize("call", [
    lambda: TrainConfig(batch_size=0),
    lambda: build_graph(ROWS, SPACE, included_fields=["u", "u"]),
    lambda: train(packed_rows(TUPLES + [(1.0, ())]), ROWS, SPACE, TrainConfig(), dim=2),
    lambda: split_dataset(ROWS, (0.5, 0.5)),
    lambda: ModelParams.initialize(SPACE.num_features, 2, num_layers=-1),
    lambda: rmse([], []),
    # an embedding size below 1 (the CLI's --dim 0 reaches the same check)
    lambda: ModelParams.initialize(7, 0),
    lambda: ModelParams.initialize(0, 4),
    lambda: ModelParams.initialize(7, -1),
    lambda: ModelParams(0.0, np.zeros(0), [np.zeros((0, 3))]),
    lambda: train(ROWS, ROWS, SPACE, TrainConfig(max_epochs=2), dim=0),
    # a field id outside [0, num_fields): -1 used to mean the last field
    lambda: SPACE.field_range(9),
    lambda: SPACE.field_range(-1),
    lambda: negative_sample(ROWS, SPACE, item_field=9, k=1),
    lambda: negative_sample(ROWS, SPACE, item_field=-1, k=1),
    # a draw count that is not an integer
    lambda: negative_sample(ROWS, SPACE, item_field=1, k=2.5),
    lambda: negative_sample(ROWS, SPACE, item_field=1, k="2"),
    # a seed that is not a non-negative integer, refused where the generator is made
    lambda: negative_sample(ROWS, SPACE, item_field=1, k=1, seed=-1),
    lambda: negative_sample(ROWS, SPACE, item_field=1, k=1, seed=1.5),
    lambda: split_dataset(ROWS, seed=-1),
    lambda: split_dataset(ROWS, seed=1.5),
    lambda: sample_neighbors(GRAPH, 0.5, seed=-1),
    lambda: sample_neighbors(GRAPH, 1.0, seed=1.5),
    lambda: ModelParams.initialize(7, 2, seed=-1),
    lambda: TrainConfig(seed=-1),
    lambda: TrainConfig(seed=2.5),
    lambda: loss_and_grads(ROWS, ModelParams.initialize(7, 2), dropout_ratio=0.5,
                           dropout_seed=-1),
    lambda: derive_seed(-5, "x"),
    lambda: derive_seed(1.9, "x"),
    lambda: derive_seed(True, "x"),
    # loop sizes that are not integers, rates that are not real numbers
    lambda: TrainConfig(batch_size=2.5),
    lambda: TrainConfig(max_epochs=3.0),
    lambda: TrainConfig(patience="5"),
    lambda: TrainConfig(learning_rate="x"),
    lambda: TrainConfig(l2_lambda=None),
    lambda: TrainConfig(dropout_ratio="0.1"),
    lambda: TrainConfig(sampling_ratio=0.5j),
    # a graph where its normalized adjacency belongs
    lambda: predict_batch(ROWS, ModelParams.initialize(7, 2, num_layers=1), GRAPH),
    # a negative or NaN weight decay and initial scale
    lambda: loss_and_grads(ROWS, ModelParams.initialize(7, 2), l2_lambda=-1.0),
    lambda: loss_and_grads(ROWS, ModelParams.initialize(7, 2), l2_lambda=float("nan")),
    lambda: ModelParams.initialize(7, 2, scale=-1.0),
    lambda: ModelParams.initialize(7, 2, scale=float("nan")),
    # a field id, a layer count, a size or a rate of the wrong type
    lambda: SPACE.field_range(1.5),
    lambda: negative_sample(ROWS, SPACE, item_field=1.5, k=1),
    lambda: ModelParams(0.0, np.zeros(2), [np.zeros((2, 2))], num_layers=1.0),
    lambda: ModelParams.initialize(7, 2.5),
    lambda: ModelParams.initialize(7, 2, 1.5),
    lambda: train(ROWS, ROWS, SPACE, TrainConfig(max_epochs=2), dim=2.5),
    lambda: sample_neighbors(GRAPH, "0.5"),
    lambda: loss_and_grads(ROWS, ModelParams.initialize(7, 2), dropout_ratio="0.1"),
    # parameters that are not finite
    lambda: ModelParams(0.0, np.array([np.nan, 0.0]), [np.zeros((2, 2))]),
    lambda: ModelParams(float("inf"), np.zeros(2), [np.zeros((2, 2))]),
    lambda: ModelParams(0.0, np.zeros(2), [np.full((2, 2), -np.inf)]),
    # an integer beyond float range, once an OverflowError from math.isfinite
    lambda: TrainConfig(learning_rate=10**400),
    lambda: TrainConfig(learning_rate=np.float32("inf")),
    # ratios of the wrong type, once a TypeError
    lambda: split_dataset(ROWS, ("0.8", 0.1, 0.1)),
    lambda: split_dataset(ROWS, 0.5),
    # a bool is an Integral, yet neither a count nor a rate
    lambda: TrainConfig(batch_size=True),
    lambda: TrainConfig(max_epochs=True),
    lambda: TrainConfig(learning_rate=True),
    lambda: ModelParams.initialize(True, True),
], ids=["train_config", "build_graph", "train", "split_dataset", "model_params", "rmse",
        "dim_0", "no_features", "dim_negative", "empty_table", "train_dim_0",
        "field_range_9", "field_range_negative", "negative_sample_item_9",
        "negative_sample_item_negative", "negative_sample_k_float", "negative_sample_k_str",
        "negative_sample_seed_negative",
        "negative_sample_seed_float", "split_seed_negative", "split_seed_float",
        "sample_neighbors_seed_negative", "sample_neighbors_seed_float",
        "initialize_seed_negative", "train_config_seed_negative", "train_config_seed_float",
        "dropout_seed_negative", "derive_seed_negative", "derive_seed_float",
        "derive_seed_bool",
        "batch_size_float", "max_epochs_float", "patience_str", "learning_rate_str",
        "l2_lambda_none", "dropout_ratio_str", "sampling_ratio_complex",
        "predict_batch_graph_as_norm", "l2_lambda_negative", "l2_lambda_nan",
        "initialize_scale_negative", "initialize_scale_nan",
        "field_range_float", "negative_sample_item_float", "model_params_layers_float",
        "initialize_dim_float", "initialize_layers_float", "train_dim_float",
        "sample_neighbors_ratio_str", "dropout_ratio_str_in_loss", "model_params_nan_w",
        "model_params_inf_w0", "model_params_inf_table", "learning_rate_beyond_float",
        "learning_rate_float32_inf",
        "split_ratio_str", "split_ratios_scalar", "batch_size_bool", "max_epochs_bool",
        "learning_rate_bool", "initialize_bool"])
def test_refused_arguments_raise_config_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, ConfigError) and isinstance(info.value, GemfmError)


@pytest.mark.parametrize("call", [
    lambda rows, path: train(rows, ROWS, SPACE, TrainConfig(), dim=2),
    lambda rows, path: train(ROWS, rows, SPACE, TrainConfig(), dim=2),
    lambda rows, path: predict_batch(rows, ModelParams.initialize(7, 2)),
    lambda rows, path: loss_and_grads(rows, ModelParams.initialize(7, 2)),
    lambda rows, path: build_graph(rows, SPACE),
    lambda rows, path: split_dataset(rows),
    lambda rows, path: negative_sample(rows, SPACE, item_field=1, k=1),
    lambda rows, path: save_libfm(rows, path),
    lambda rows, path: ROWS + rows,
], ids=["train", "train_validation", "predict_batch", "loss_and_grads", "build_graph",
        "split_dataset", "negative_sample", "save_libfm", "concatenation"])
def test_instances_that_are_not_a_pack_are_refused(call, tmp_path):
    # a list of (label, entries) tuples raised an AttributeError when the
    # functions still packed lists
    with pytest.raises(GemfmError, match="must be a PackedInstances, got list"):
        call(TUPLES, tmp_path / "rows.libfm")
    assert not (tmp_path / "rows.libfm").exists()


# a float32 checked against the largest float64 must not overflow it in the cast
@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
def test_numpy_integers_and_floats_are_accepted():
    config = TrainConfig(batch_size=np.int64(8), max_epochs=np.int32(2), patience=np.uint8(3),
                         learning_rate=np.float32(0.01), dropout_ratio=np.float64(0.1))
    assert config.batch_size == 8
    assert np.array_equal(split_dataset(ROWS, seed=np.int64(4)).test.indices,
                          split_dataset(ROWS, seed=4).test.indices)
    same = negative_sample(ROWS, SPACE, item_field=1, k=np.int64(1), seed=np.uint32(2))
    assert np.array_equal(same.indices, negative_sample(ROWS, SPACE, 1, 1, seed=2).indices)
    assert np.array_equal(sample_neighbors(GRAPH, 0.5, seed=np.int16(1)).edges,
                          sample_neighbors(GRAPH, 0.5, seed=1).edges)
    params = ModelParams.initialize(np.int64(7), np.int32(2), np.uint8(2), seed=np.int64(1),
                                    scale=np.float32(0.1))
    assert (params.num_features, params.dim, params.num_layers) == (7, 2, 2)
    assert len(ModelParams.initialize(7, 2, np.uint8(0)).weights) == 1   # no 0 - 1 wrap-around
    assert ModelParams(0.0, np.zeros(2), [np.zeros((2, 2))], num_layers=np.int64(1)).num_layers == 1
    assert SPACE.field_range(np.int64(1)) == SPACE.field_range(1) == (3, 7)


@pytest.mark.parametrize("call,message", [
    (lambda: negative_sample(ROWS, SPACE, item_field=1, k=0), "k must be >= 1, got 0"),
    (lambda: TrainConfig(learning_rate=0.0), "learning_rate must be > 0, got 0.0"),
    (lambda: sample_neighbors(GRAPH, 1.5), "sampling ratio 1.5 outside [0, 1]"),
    (lambda: SPACE.field_range(2), "field id 2 outside [0, 2)"),
    (lambda: ModelParams.initialize(7, 2.5), "dim must be an integer, got 2.5"),
    (lambda: loss_and_grads(ROWS, ModelParams.initialize(7, 2), dropout_ratio="0.1"),
     "dropout_ratio must be a real number, got '0.1'"),
    (lambda: TrainConfig(l2_lambda=float("inf")), "l2_lambda must be a real number, got inf"),
    (lambda: TrainConfig(optimizer="sgd"), "unknown optimizer 'sgd'"),
    (lambda: ModelParams(0.0, np.array([np.nan, 0.0]), [np.zeros((2, 2))]),
     "w0, w and every weight matrix must be finite"),
], ids=["at_least", "above", "closed_range", "half_open_range", "integer", "real_number",
        "real_number_inf", "unknown_choice", "non_finite_parameters"])
def test_refusal_messages_name_the_argument(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message
