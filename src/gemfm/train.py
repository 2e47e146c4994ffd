"""Mini-batch training: summed squared loss with L2, analytic gradients,
Adagrad/Adam with lazy row updates, inverted dropout, early stopping.

The batch objective is sum over the batch of (score - label)^2 plus
lambda * ||Theta||^2. The reported loss always uses the full parameter norm;
the gradient applies weight decay only to rows the batch touched unless
``exact_l2`` asks for the dense decay (used by finite-difference checks).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import PackedInstances
from .errors import TrainingDivergedError
from .graph import (FeatureGraph, NormalizedAdjacency, local_columns, normalize,
                    sample_neighbors)
from .metrics import mae, rmse
from .model import (EmbeddingView, ModelParams, activation_gradient, batch_design,
                    gcn_embed, lookup_embed, predict_batch)
from .seeding import derive_rng, derive_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and the single run seed."""

    optimizer: str = "adam"
    learning_rate: float = 0.001
    l2_lambda: float = 0.0
    dropout_ratio: float = 0.0
    batch_size: int = 4096
    max_epochs: int = 100
    patience: int = 5
    sampling_ratio: float = 1.0
    seed: int = 0
    metric_for_stopping: str = "rmse"
    l2_includes_bias: bool = True
    exact_l2: bool = False

    def __post_init__(self):
        if self.optimizer not in ("adagrad", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be non-negative")
        if not 0.0 <= self.dropout_ratio < 1.0:
            raise ValueError("dropout_ratio must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, patience must be >= 1")
        if not 0.0 <= self.sampling_ratio <= 1.0:
            raise ValueError("sampling_ratio must lie in [0, 1]")
        if self.metric_for_stopping not in ("rmse", "mae"):
            raise ValueError(f"unknown stopping metric {self.metric_for_stopping!r}")


@dataclass(eq=False)
class ParamStats:
    """Float accumulators shaped exactly like ModelParams."""

    w0: float
    w: np.ndarray
    weights: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "ParamStats":
        return cls(0.0, np.zeros_like(params.w),
                   [np.zeros_like(W) for W in params.weights])


@dataclass(eq=False)
class OptimizerState:
    """Adagrad squared-gradient sums, or Adam moments with a global step count."""

    kind: str
    accum: ParamStats
    momentum: ParamStats | None = None
    step_count: int = 0

    @classmethod
    def create(cls, params: ModelParams, kind: str) -> "OptimizerState":
        if kind not in ("adagrad", "adam"):
            raise ValueError(f"unknown optimizer {kind!r}")
        momentum = ParamStats.zeros_like(params) if kind == "adam" else None
        return cls(kind, ParamStats.zeros_like(params), momentum)


@dataclass(eq=False)
class GradientSet:
    """Gradients mirroring ModelParams, row-aligned where they are sparse.

    d_w has one entry per touched_features id and d_weights[0] one row per
    touched_rows id (both sorted); entries of other rows are exactly zero
    and not stored. Optimizers update only the touched slices.
    """

    d_w0: float
    d_w: np.ndarray
    d_weights: list[np.ndarray]
    touched_features: np.ndarray
    touched_rows: np.ndarray


def _scaled_mask(mask: np.ndarray, ratio: float) -> np.ndarray:
    return mask * (1.0 / (1.0 - ratio))


def _draw_mask(shape, ratio: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random(shape) >= ratio).astype(np.float64)


def apply_dropout(view: EmbeddingView, ratio: float, seed: int) -> tuple[EmbeddingView, np.ndarray]:
    """Inverted dropout on embedding rows.

    Zeroes each coordinate independently with probability ratio and scales
    survivors by 1/(1-ratio), so the expectation of every coordinate equals
    its input. Returns the dropped view and the 0/1 keep mask (all ones for
    ratio 0). Validation and prediction never call this.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must lie in [0, 1), got {ratio}")
    if ratio == 0.0:
        return view, np.ones_like(view.rows)
    mask = _draw_mask(view.rows.shape, ratio, seed)
    rows = view.rows * _scaled_mask(mask, ratio)
    return EmbeddingView(view.nodes, rows, view.layers), mask


def _full_l2(params: ModelParams, include_bias: bool) -> float:
    total = sum(float(np.sum(W * W)) for W in params.weights)
    if include_bias:
        total += params.w0 * params.w0 + float(np.dot(params.w, params.w))
    return total


@dataclass(eq=False)
class _Forward:
    design: tuple   # (nodes, x, x2) from batch_design
    view: EmbeddingView
    scale: np.ndarray | None
    rows_used: np.ndarray
    summed: np.ndarray
    scores: np.ndarray


def _forward(design, params: ModelParams, norm: NormalizedAdjacency | None,
             mask: np.ndarray | None, ratio: float) -> _Forward:
    nodes, x, x2 = design
    if params.num_layers >= 1:
        view = gcn_embed(norm, params, nodes)
    else:
        view = lookup_embed(params, nodes)
    rows = view.rows
    scale = _scaled_mask(mask, ratio) if mask is not None and ratio > 0.0 else None
    if scale is not None:
        rows = rows * scale
    summed = x @ rows
    sq = x2 @ (rows * rows)
    interaction = 0.5 * (summed * summed - sq).sum(axis=1)
    scores = params.w0 + (x @ params.w[nodes]) + interaction
    return _Forward(design, view, scale, rows, summed, scores)


def _as_packed(batch, num_features: int) -> PackedInstances:
    if isinstance(batch, PackedInstances):
        return batch
    return PackedInstances.from_instances(batch, num_features)


def _checked_batch(batch, params: ModelParams, norm, what: str) -> PackedInstances:
    packed = _as_packed(batch, params.num_features)
    if len(packed) == 0:
        raise ValueError(f"{what} of an empty batch is undefined")
    if (norm is None) != (params.num_layers == 0):
        raise ValueError("norm must be provided iff the model has convolution layers")
    return packed


def loss(batch, params: ModelParams, norm: NormalizedAdjacency | None = None,
         l2_lambda: float = 0.0, *, dropout_mask: np.ndarray | None = None,
         dropout_ratio: float = 0.0, l2_includes_bias: bool = True) -> float:
    """Summed squared error over the batch plus l2_lambda * ||Theta||^2.

    A fixed dropout_mask (from apply_dropout or _draw_mask over the batch's
    node set) makes the value deterministic, which is what gradient checks
    difference against.
    """
    packed = _checked_batch(batch, params, norm, "loss")
    fwd = _forward(batch_design(packed), params, norm, dropout_mask, dropout_ratio)
    err = fwd.scores - packed.labels
    value = float(err @ err)
    if l2_lambda:
        value += l2_lambda * _full_l2(params, l2_includes_bias)
    return value


def backward(batch, params: ModelParams, norm: NormalizedAdjacency | None = None,
             l2_lambda: float = 0.0, *, dropout_mask: np.ndarray | None = None,
             dropout_ratio: float = 0.0, l2_includes_bias: bool = True,
             exact_l2: bool = False) -> GradientSet:
    """Analytic gradients of ``loss`` for the same arguments.

    With exact_l2 the weight decay is applied to every parameter (matching
    ``loss`` exactly); otherwise decay touches only the rows the batch
    activated, which is what training uses.
    """
    packed = _checked_batch(batch, params, norm, "backward")
    fwd = _forward(batch_design(packed), params, norm, dropout_mask, dropout_ratio)
    return _grads_from_forward(packed, params, fwd, l2_lambda,
                               l2_includes_bias, exact_l2)


def _grads_from_forward(packed, params, fwd, l2_lambda, l2_includes_bias,
                        exact_l2) -> GradientSet:
    nodes, x, x2 = fwd.design
    g = 2.0 * (fwd.scores - packed.labels)
    d_w0 = float(np.sum(g))
    d_w = x.T @ g
    # interaction gradient wrt the (possibly dropped) embedding rows
    d_rows = x.T @ (g[:, None] * fwd.summed) - fwd.rows_used * (x2.T @ g)[:, None]
    if fwd.scale is not None:
        d_rows = d_rows * fwd.scale

    d_table = d_out = d_rows
    d_deep = [np.zeros_like(W) for W in params.weights[1:]]
    touched_rows = nodes
    for l in range(params.num_layers, 0, -1):
        cache = fwd.view.layers[l - 1]
        d_pre = (d_out if params.activation == "identity"
                 else d_out * activation_gradient(params.activation, cache.pre))
        if l == 1:
            # table rows reached through the layer-1 adjacency, in local ids
            touched_rows, adj = local_columns(cache.adj)
            d_table = adj.T @ d_pre
        else:
            d_deep[l - 2] += cache.prop_in.T @ d_pre
            d_out = cache.adj.T @ (d_pre @ params.weights[l - 1].T)

    touched_features = nodes
    if l2_lambda:
        lam2 = 2.0 * l2_lambda
        if exact_l2:
            dense_w, dense_table = np.zeros_like(params.w), np.zeros_like(params.weights[0])
            dense_w[touched_features], dense_table[touched_rows] = d_w, d_table
            d_w, d_table = dense_w, dense_table
            touched_features = touched_rows = np.arange(params.num_features)
        if l2_includes_bias:
            d_w0 += lam2 * params.w0
            d_w += lam2 * params.w[touched_features]
        d_table += lam2 * params.weights[0][touched_rows]
        for W, dW in zip(params.weights[1:], d_deep):
            dW += lam2 * W
    return GradientSet(d_w0, d_w, [d_table, *d_deep], touched_features, touched_rows)


def _loss_and_grads(batch: PackedInstances, params, norm, config: TrainConfig,
                    mask_seed: int) -> tuple[float, GradientSet]:
    design = batch_design(batch)
    mask = (_draw_mask((design[0].size, params.dim), config.dropout_ratio, mask_seed)
            if config.dropout_ratio > 0.0 else None)
    fwd = _forward(design, params, norm, mask, config.dropout_ratio)
    err = fwd.scores - batch.labels
    value = float(err @ err)
    if config.l2_lambda:
        value += config.l2_lambda * _full_l2(params, config.l2_includes_bias)
    grads = _grads_from_forward(batch, params, fwd, config.l2_lambda,
                                config.l2_includes_bias, config.exact_l2)
    return value, grads


def optimizer_step(params: ModelParams, state: OptimizerState,
                   grads: GradientSet, config: TrainConfig) -> None:
    """One in-place update; rows outside the touched sets stay untouched,
    including their accumulators (lazy sparse updates)."""
    lr = config.learning_rate
    if state.kind == "adagrad":
        state.accum.w0 += grads.d_w0 ** 2
        params.w0 -= lr * grads.d_w0 / math.sqrt(state.accum.w0 + EPSILON)
        _adagrad_rows(params.w, state.accum.w, grads.d_w, grads.touched_features, lr)
        _adagrad_rows(params.weights[0], state.accum.weights[0], grads.d_weights[0],
                      grads.touched_rows, lr)
        for W, acc, dW in zip(params.weights[1:], state.accum.weights[1:],
                              grads.d_weights[1:]):
            acc += dW ** 2
            W -= lr * dW / np.sqrt(acc + EPSILON)
        state.step_count += 1
        return
    # adam: global step count, bias-corrected moments, lazy rows
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    state.momentum.w0 = ADAM_BETA1 * state.momentum.w0 + (1 - ADAM_BETA1) * grads.d_w0
    state.accum.w0 = ADAM_BETA2 * state.accum.w0 + (1 - ADAM_BETA2) * grads.d_w0 ** 2
    params.w0 -= lr * (state.momentum.w0 / c1) / (math.sqrt(state.accum.w0 / c2) + EPSILON)
    _adam_rows(params.w, state.momentum.w, state.accum.w, grads.d_w,
               grads.touched_features, lr, c1, c2)
    _adam_rows(params.weights[0], state.momentum.weights[0], state.accum.weights[0],
               grads.d_weights[0], grads.touched_rows, lr, c1, c2)
    for W, mom, acc, dW in zip(params.weights[1:], state.momentum.weights[1:],
                               state.accum.weights[1:], grads.d_weights[1:]):
        mom *= ADAM_BETA1
        mom += (1 - ADAM_BETA1) * dW
        acc *= ADAM_BETA2
        acc += (1 - ADAM_BETA2) * dW ** 2
        W -= lr * (mom / c1) / (np.sqrt(acc / c2) + EPSILON)


def _adagrad_rows(param, accum, grad, rows, lr):
    if rows.size == 0:
        return
    acc = accum[rows] + grad ** 2
    accum[rows] = acc
    param[rows] = param[rows] - lr * grad / np.sqrt(acc + EPSILON)


def _adam_rows(param, mom, accum, grad, rows, lr, c1, c2):
    if rows.size == 0:
        return
    m = ADAM_BETA1 * mom[rows] + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * accum[rows] + (1 - ADAM_BETA2) * grad ** 2
    mom[rows], accum[rows] = m, v
    param[rows] = param[rows] - lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse: float
    val_mae: float
    seconds: float


@dataclass
class RunReport:
    """Per-epoch history plus the effective configuration, as written to disk."""

    config: dict[str, str]
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    def to_text(self) -> str:
        lines = [f"config {key}={value}" for key, value in self.config.items()]
        for r in self.epochs:
            lines.append(
                f"epoch {r.epoch} train_loss={r.train_loss!r} "
                f"val_rmse={r.val_rmse!r} val_mae={r.val_mae!r} "
                f"seconds={r.seconds:.3f}"
            )
        lines.append(f"best_epoch {self.best_epoch}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        config: dict[str, str] = {}
        epochs: list[EpochRecord] = []
        best = 0
        for line in text.splitlines():
            if line.startswith("config "):
                key, _, value = line[len("config "):].partition("=")
                config[key] = value
            elif line.startswith("epoch "):
                parts = line.split()
                fields = dict(p.split("=", 1) for p in parts[2:])
                epochs.append(EpochRecord(int(parts[1]),
                                          float(fields["train_loss"]),
                                          float(fields["val_rmse"]),
                                          float(fields["val_mae"]),
                                          float(fields["seconds"])))
            elif line.startswith("best_epoch "):
                best = int(line.split()[1])
        return cls(config, epochs, best)


def train(train_set, val_set, space, config: TrainConfig, *, dim: int,
          num_layers: int = 0, activation: str = "identity",
          graph: FeatureGraph | None = None,
          init_params: ModelParams | None = None,
          extra_metadata: dict | None = None) -> tuple[ModelParams, RunReport]:
    """Fit by mini-batch gradient descent with validation early stopping.

    Stops after ``config.patience`` consecutive epochs without strict
    improvement of the stopping metric and returns the parameters of the
    best epoch. Validation always scores on the full graph with dropout off.
    Neighbor sampling (when enabled) is redrawn once per epoch.

    Raises TrainingDivergedError as soon as a batch loss or a validation
    metric goes non-finite.
    """
    if not len(train_set) or not len(val_set):
        raise ValueError("train and validation sets must be non-empty")
    if num_layers >= 1 and graph is None:
        raise ValueError("num_layers >= 1 requires a co-occurrence graph")
    if num_layers == 0 and graph is not None:
        raise ValueError("graph given but the model has no convolution layers")
    m = space.num_features
    tr = _as_packed(train_set, m)
    va = _as_packed(val_set, m)
    if np.any(np.diff(tr.indptr) == 0):
        raise ValueError("training instances must have at least one active feature")

    if init_params is not None:
        if (init_params.num_features, init_params.dim,
                init_params.num_layers) != (m, dim, num_layers):
            raise ValueError("init_params shape does not match requested model")
        params = init_params.copy()
    else:
        params = ModelParams.initialize(m, dim, num_layers, activation,
                                        seed=derive_seed(config.seed, "init"))
    full_norm = normalize(graph) if num_layers >= 1 else None
    state = OptimizerState.create(params, config.optimizer)

    meta = {
        "optimizer": config.optimizer,
        "learning_rate": repr(config.learning_rate),
        "l2_lambda": repr(config.l2_lambda),
        "dropout_ratio": repr(config.dropout_ratio),
        "batch_size": str(config.batch_size),
        "max_epochs": str(config.max_epochs),
        "patience": str(config.patience),
        "sampling_ratio": repr(config.sampling_ratio),
        "seed": str(config.seed),
        "metric_for_stopping": config.metric_for_stopping,
        "dim": str(dim),
        "num_layers": str(num_layers),
        "activation": activation,
        "num_train": str(len(tr)),
        "num_validation": str(len(va)),
        "loss": "sum_squared_error_plus_l2",
        "validation_graph": "full",
        "validation_dropout": "off",
    }
    if extra_metadata:
        meta.update({str(k): str(v) for k, v in extra_metadata.items()})
    report = RunReport(meta)

    n = len(tr)
    best_metric = math.inf
    best_params = params.copy()
    best_epoch = 0
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        if num_layers >= 1 and config.sampling_ratio < 1.0:
            sampled = sample_neighbors(graph, config.sampling_ratio,
                                       derive_seed(config.seed, "sampling", epoch))
            epoch_norm = normalize(sampled)
        else:
            epoch_norm = full_norm
        order = derive_rng(config.seed, "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        for batch_index, lo in enumerate(range(0, n, config.batch_size)):
            batch = tr.take(order[lo:lo + config.batch_size])
            mask_seed = derive_seed(config.seed, "dropout", epoch, batch_index)
            value, grads = _loss_and_grads(batch, params, epoch_norm, config, mask_seed)
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch}, batch {batch_index}"
                )
            epoch_loss += value
            optimizer_step(params, state, grads, config)
        val_scores = predict_batch(va, params, full_norm)
        val_rmse = rmse(val_scores, va.labels)
        val_mae = mae(val_scores, va.labels)
        report.epochs.append(EpochRecord(epoch, epoch_loss, val_rmse, val_mae,
                                         time.perf_counter() - started))
        if not (math.isfinite(val_rmse) and math.isfinite(val_mae)):
            raise TrainingDivergedError(f"non-finite validation metric in epoch {epoch}")
        metric = val_rmse if config.metric_for_stopping == "rmse" else val_mae
        if metric < best_metric:
            best_metric = metric
            best_params = params.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    report.best_epoch = best_epoch
    return best_params, report
