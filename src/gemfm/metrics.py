"""Regression metrics and parameter accounting."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class MetricReport:
    rmse: float
    mae: float
    n: int
    param_count: int


def metric_report(predictions, labels, param_count: int,
                  clip_to_unit: bool = False) -> MetricReport:
    """Bundle rmse/mae over a prediction set.

    clip_to_unit clamps predictions into [0, 1] first (off by default; an
    ablation switch for binary-target runs).
    """
    p, y = _paired(predictions, labels)
    if clip_to_unit:
        p = np.clip(p, 0.0, 1.0)
    return MetricReport(rmse(p, y), mae(p, y), int(p.size), int(param_count))


def format_report(report: MetricReport) -> str:
    return (f"rmse={report.rmse!r} mae={report.mae!r} "
            f"n={report.n} params={report.param_count}")
