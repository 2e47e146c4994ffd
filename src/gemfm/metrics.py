"""Regression metrics and parameter accounting."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import ModelParams


def _paired(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ConfigError(f"predictions and labels must be 1-d and aligned, "
                          f"got {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ConfigError("metrics of an empty set are undefined")
    return p, y


def rmse(predictions, labels) -> float:
    p, y = _paired(predictions, labels)
    return float(np.sqrt(np.mean((p - y) ** 2)))


def mae(predictions, labels) -> float:
    p, y = _paired(predictions, labels)
    return float(np.mean(np.abs(p - y)))


def count_params(params: ModelParams) -> int:
    """Number of trainable scalars: 1 + m + m*d, plus d*d per layer past the first."""
    return 1 + params.w.size + sum(W.size for W in params.weights)
