"""Every refused argument is a ConfigError, which ``except ValueError`` also catches."""

import numpy as np
import pytest

from gemfm import (ConfigError, FeatureSpace, GemfmError, ModelParams, SparseInstance,
                   TrainConfig, build_graph, loss_and_grads, negative_sample, predict_batch,
                   rmse, sample_neighbors, split_dataset, train)

SPACE = FeatureSpace.from_cardinalities(["u", "i"], [3, 4])
ROWS = [SparseInstance(1.0, ((u, 1.0), (3 + i, 1.0))) for u in range(3) for i in range(4)]
LABEL_ONLY = SparseInstance(1.0, ())
GRAPH = build_graph(ROWS, SPACE, included_fields=["u", "i"])


@pytest.mark.parametrize("call", [
    lambda: TrainConfig(batch_size=0),
    lambda: build_graph(ROWS, SPACE, included_fields=["u", "u"]),
    lambda: train(ROWS + [LABEL_ONLY], ROWS, SPACE, TrainConfig(), dim=2),
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
    lambda: loss_and_grads(ROWS, ModelParams.initialize(7, 2), dropout_ratio=0.5,
                           dropout_seed=-1),
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
], ids=["train_config", "build_graph", "train", "split_dataset", "model_params", "rmse",
        "dim_0", "no_features", "dim_negative", "empty_table", "train_dim_0",
        "field_range_9", "field_range_negative", "negative_sample_item_9",
        "negative_sample_item_negative", "negative_sample_k_float", "negative_sample_k_str",
        "negative_sample_seed_negative",
        "negative_sample_seed_float", "split_seed_negative", "split_seed_float",
        "sample_neighbors_seed_negative", "sample_neighbors_seed_float",
        "initialize_seed_negative", "dropout_seed_negative",
        "batch_size_float", "max_epochs_float", "patience_str", "learning_rate_str",
        "l2_lambda_none", "dropout_ratio_str", "sampling_ratio_complex",
        "predict_batch_graph_as_norm"])
def test_refused_arguments_raise_config_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, ConfigError) and isinstance(info.value, GemfmError)


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
