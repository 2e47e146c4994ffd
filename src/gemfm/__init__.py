"""Factorization-machine scoring and training with graph-convolved feature embeddings.

``gemfm.train`` is the function; its module is ``importlib.import_module("gemfm.train")``."""

from .data import (DatasetSplit, FeatureSpace, PackedInstances, format_field_map,
                   load_field_map, load_libfm, negative_sample, parse_libfm_line,
                   save_libfm, split_dataset)
from .errors import (CheckpointError, ConfigError, DataFormatError, GemfmError,
                     GraphFormatError, TrainingDivergedError)
from .graph import FeatureGraph, build_graph, normalize, sample_neighbors
from .metrics import count_params, mae, rmse
from .model import (EmbeddingView, ModelParams, gcn_embed, lookup_embed,
                    predict_batch)
from .seeding import derive_seed
from .train import (EpochRecord, GradientSet, OptimizerState, RunReport,
                    TrainConfig, loss_and_grads, optimizer_step, train)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "ConfigError", "DataFormatError", "DatasetSplit",
    "EmbeddingView", "EpochRecord", "FeatureGraph", "FeatureSpace",
    "GemfmError", "GradientSet", "GraphFormatError", "ModelParams",
    "OptimizerState", "PackedInstances", "RunReport", "TrainConfig",
    "TrainingDivergedError", "build_graph", "count_params", "derive_seed",
    "format_field_map", "gcn_embed", "load_field_map", "load_libfm", "lookup_embed",
    "loss_and_grads", "mae", "negative_sample", "normalize", "optimizer_step",
    "parse_libfm_line", "predict_batch", "rmse", "sample_neighbors", "save_libfm",
    "split_dataset", "train",
]
