"""Every refused argument is a ConfigError, which ``except ValueError`` also catches."""

import numpy as np
import pytest

from gemfm import (ConfigError, FeatureSpace, GemfmError, ModelParams, SparseInstance,
                   TrainConfig, build_graph, negative_sample, rmse, split_dataset, train)

SPACE = FeatureSpace.from_cardinalities(["u", "i"], [3, 4])
ROWS = [SparseInstance(1.0, ((u, 1.0), (3 + i, 1.0))) for u in range(3) for i in range(4)]
LABEL_ONLY = SparseInstance(1.0, ())


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
], ids=["train_config", "build_graph", "train", "split_dataset", "model_params", "rmse",
        "dim_0", "no_features", "dim_negative", "empty_table", "train_dim_0",
        "field_range_9", "field_range_negative", "negative_sample_item_9",
        "negative_sample_item_negative"])
def test_refused_arguments_raise_config_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, ConfigError) and isinstance(info.value, GemfmError)
