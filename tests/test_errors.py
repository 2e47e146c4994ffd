"""Every refused argument is a ConfigError, which ``except ValueError`` also catches."""

import pytest

from gemfm import (ConfigError, FeatureSpace, GemfmError, ModelParams, SparseInstance,
                   TrainConfig, build_graph, rmse, split_dataset, train)

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
], ids=["train_config", "build_graph", "train", "split_dataset", "model_params", "rmse"])
def test_refused_arguments_raise_config_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, ConfigError) and isinstance(info.value, GemfmError)
