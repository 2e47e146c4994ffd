"""Mini-batch training: summed squared loss with L2, analytic gradients,
Adagrad/Adam with lazy row updates, inverted dropout, early stopping.

The batch objective is sum over the batch of (score - label)^2 plus
lambda * ||Theta||^2. The reported loss takes the full norm, one BLAS dot per
block (its last bits follow the BLAS build); the gradient decays only the
rows the batch touched, and every row of the deeper layers' weights.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import wait
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse

from . import model as _model
from .data import PackedInstances
from .errors import ConfigError, TrainingDivergedError, check
from .graph import FeatureGraph, check_nodes, local_columns, node_set, normalize, sample_neighbors
from .metrics import mae, rmse
from .model import ModelParams, _node_terms, batch_design, embed, predict_batch, scores_from_design
# benchmarks/bench_trace.py patches every namespace a traced name may be
# looked up in, this one included, so these stay importable from here
from .model import gcn_embed, lookup_embed  # noqa: F401
from .seeding import derive_seed, seeded_rng

OPTIMIZERS = ("adagrad", "adam")
STOPPING_METRICS = ("rmse", "mae")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
EPSILON = 1e-8
# rows per gather/update/scatter: a block's temporaries stay in cache
_ROW_BLOCK = 512
# entries in each half's first row block from which optimizer_step splits a block's update
_SPLIT_ENTRIES = 1 << 15


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

    def __post_init__(self):
        check("optimizer", self.optimizer, OPTIMIZERS)
        check("learning_rate", self.learning_rate, float, above=0)
        check("l2_lambda", self.l2_lambda, float, 0)
        check("dropout_ratio", self.dropout_ratio, float, 0, below=1)
        for key in ("batch_size", "max_epochs", "patience"):
            check(key, getattr(self, key), int, 1)
        check("sampling_ratio", self.sampling_ratio, float, 0, 1)
        check("stopping metric", self.metric_for_stopping, STOPPING_METRICS)
        check("seed", self.seed, int, 0)


@dataclass(eq=False)
class OptimizerState:
    """One array per parameter block [w0, w, *weights]: Adagrad's squared-gradient
    sums in ``accum``, or Adam's second moments in ``accum`` and first moments in
    ``momentum`` (Adam is the state that has them) with a global step count."""

    accum: list[np.ndarray]
    momentum: list[np.ndarray] | None = None
    step_count: int = 0

    @classmethod
    def create(cls, params: ModelParams, kind: str) -> "OptimizerState":
        check("optimizer", kind, OPTIMIZERS)
        blocks = [np.array([params.w0]), params.w, *params.weights]
        momentum = [np.zeros_like(b) for b in blocks] if kind == "adam" else None
        return cls([np.zeros_like(b) for b in blocks], momentum)


@dataclass(eq=False)
class GradientSet:
    """Gradients mirroring ModelParams, row-aligned where they are sparse.

    d_w has one entry per touched_features id and d_weights[0] one row per
    touched_rows id (both sorted and distinct); entries of other rows are exactly
    zero and not stored. Optimizers update only the touched slices.
    """

    d_w0: float
    d_w: np.ndarray
    d_weights: list[np.ndarray]
    touched_features: np.ndarray
    touched_rows: np.ndarray


def _full_l2(params: ModelParams) -> float:
    total = sum(float(np.vdot(W, W)) for W in params.weights)
    return total + (params.w0 * params.w0 + float(np.dot(params.w, params.w)))


def loss_and_grads(batch, params: ModelParams, norm: sparse.csr_array | None = None,
                   *, l2_lambda: float = 0.0, dropout_ratio: float = 0.0,
                   dropout_seed: int = 0) -> tuple[float, GradientSet]:
    """Summed squared error over the batch plus l2_lambda * ||Theta||^2, and
    its analytic gradients.

    Inverted dropout zeroes each coordinate of the batch's embedding rows
    with probability ``dropout_ratio`` and scales survivors by
    1/(1 - ratio); the keep mask is drawn from ``dropout_seed`` over the
    batch's sorted node set, so a fixed seed gives a deterministic value.
    The weight decay gradient covers only the rows the batch activated (the
    lazy decay training uses); on every other row of w and the table the
    gradient of the reported loss is 2 * l2_lambda times the parameter.

    Memory: scores, dropout scale and interaction temporaries end with _forward.
    The backward holds one gradient in flight and the caches still to undo, each
    dropped (deepest first) once its gradients exist; the decay reads _ROW_BLOCK rows.
    """
    check("dropout_ratio", dropout_ratio, float, 0, below=1)
    check("l2_lambda", l2_lambda, float, 0)
    packed = PackedInstances.from_instances(batch, params.num_features)
    if len(packed) == 0:
        raise ConfigError("loss of an empty batch is undefined")
    forward = _forward(params, norm, dropout_ratio, *_prepare(   # design and mask end here
        packed, params.num_features, params.dim, dropout_ratio, dropout_seed))
    return _backward(params, l2_lambda, forward)


def _prepare(packed, num_features, dim, dropout_ratio, dropout_seed):
    """A step's inputs, none read from the parameters: labels, sorted node set, design
    matrices and the dropout keep mask over (nodes, dim), None without dropout."""
    nodes, x, x2 = batch_design(packed, *node_set(packed.indices, num_features))
    keep = (seeded_rng(dropout_seed).random((nodes.size, dim)) >= dropout_ratio
            if dropout_ratio > 0.0 else None)
    return packed.labels, nodes, x, x2, keep


def _forward(params, norm, dropout_ratio, labels, nodes, x, x2, keep):
    """[squared error, d_w0, d_w, gradient at the embedding rows, nodes, layer caches]."""
    view = embed(params, norm, nodes)
    rows, scale = view.rows, None
    if keep is not None:
        scale = keep * (1.0 / (1.0 - dropout_ratio))
        rows = rows * scale
    scores, summed = scores_from_design(params, x, x2, *_node_terms(params, nodes, rows))
    err = scores - labels
    g = 2.0 * err
    # interaction gradient wrt the (possibly dropped) embedding rows
    summed *= g[:, None]
    d_rows = x.T @ summed
    del summed
    d_rows -= rows * (x2.T @ g)[:, None]
    if scale is not None:
        d_rows *= scale
    return [float(err @ err), float(np.sum(g)), x.T @ g, d_rows, nodes, list(view.layers)]


def _backward(params, l2_lambda, forward):
    """(loss, GradientSet) from _forward's list, emptied so each gradient goes once replaced."""
    value, d_w0, d_w, d_rows, nodes, layers = forward
    forward.clear()
    if l2_lambda:
        value += l2_lambda * _full_l2(params)

    d_deep, touched_rows = [], nodes   # d_rows ends at the touched table rows
    for W in params.weights[:0:-1]:
        dW, d_rows, adj = _deep_backward(layers.pop(), W, d_rows, params.activation)
        d_deep.insert(0, dW)
        d_rows = adj.T @ d_rows
    if layers:   # layer 1: table rows reached through its adjacency, in local ids
        touched_rows, adj = local_columns(layers[0].adj)
        d_rows = adj.T @ _relu_masked(layers.pop(), d_rows, params.activation)

    if l2_lambda:
        lam2 = 2.0 * l2_lambda
        d_w0 += lam2 * params.w0
        d_w += lam2 * params.w[nodes]
        for lo in range(0, touched_rows.size, _ROW_BLOCK):
            d_rows[lo:lo + _ROW_BLOCK] += lam2 * params.weights[0][touched_rows[lo:lo + _ROW_BLOCK]]
        for W, dW in zip(params.weights[1:], d_deep):
            dW += lam2 * W
    return value, GradientSet(d_w0, d_w, [d_rows, *d_deep], nodes, touched_rows)


def _deep_backward(cache, W, d_out, activation):
    """A deeper layer's weight gradient, d_out carried back through W, and its adjacency."""
    d_pre = _relu_masked(cache, d_out, activation)
    return cache.prop_in.T @ d_pre, d_pre @ W.T, cache.adj


def _relu_masked(cache, d_out, activation):
    return d_out * (cache.pre > 0.0) if activation == "relu" else d_out


def optimizer_step(params: ModelParams, state: OptimizerState,
                   grads: GradientSet, config: TrainConfig) -> None:
    """One in-place update of the touched rows only, accumulators included (lazy sparse updates).
    They are sorted and distinct, so a large block's halves run on two threads (_split) with the
    same bits. Raises TrainingDivergedError naming a block the update would leave non-finite."""
    blocks = [np.array([params.w0]), params.w, *params.weights]   # w0 as a one-row block
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count    # Adam's bias corrections
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    for param, mom, accum, grad, rows, block in zip(
            blocks, state.momentum or [None] * len(blocks), state.accum,
            [np.array([grads.d_w0]), grads.d_w, *grads.d_weights],
            [np.array([0]), grads.touched_features, grads.touched_rows,
             *(np.arange(W.shape[0]) for W in params.weights[1:])],
            ["w0", "w", *(f"weights[{l}]" for l in range(len(params.weights)))]):
        half, at = rows.size // 2, (config.learning_rate, c1, c2, block)
        _model._split(lambda lo, hi: _update_rows(param, mom, accum, grad[lo:hi], rows[lo:hi], *at),
                      rows.size, half, min(half, _ROW_BLOCK) * param[0].size >= _SPLIT_ENTRIES)
    params.w0 = float(blocks[0][0])


def _update_rows(param, mom, accum, grad, rows, lr, c1, c2, block):
    """Adam on the touched ``rows`` of one block when ``mom`` holds its first
    moments, Adagrad otherwise, gathered and scattered _ROW_BLOCK rows at a time."""
    for lo in range(0, rows.size, _ROW_BLOCK):
        at, g = rows[lo:lo + _ROW_BLOCK], grad[lo:lo + _ROW_BLOCK]
        acc = accum[at]
        if mom is None:
            acc += g * g
            accum[at] = acc
            step = lr * g
            step /= np.sqrt(np.add(acc, EPSILON, out=acc), out=acc)
        else:
            m = mom[at]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            acc *= ADAM_BETA2
            acc += (1 - ADAM_BETA2) * (g * g)
            mom[at], accum[at] = m, acc
            step = lr * (m / c1)
            acc /= c2
            step /= np.add(np.sqrt(acc, out=acc), EPSILON, out=acc)
        updated = param[at]
        updated -= step
        if not np.isfinite(updated).all():
            raise TrainingDivergedError(f"non-finite {block} after the optimizer step")
        param[at] = updated
        del updated    # freed now, so the next block's gathers can reuse its cached memory


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse: float
    val_mae: float
    seconds: float


@dataclass
class RunReport:
    """Per-epoch history and the effective configuration: written, never read back."""

    config: dict[str, str]
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    def save(self, path) -> None:
        lines = [f"config {key}={value}" for key, value in self.config.items()]
        for r in self.epochs:
            lines.append(
                f"epoch {r.epoch} train_loss={r.train_loss!r} "
                f"val_rmse={r.val_rmse!r} val_mae={r.val_mae!r} "
                f"seconds={r.seconds:.3f}"
            )
        lines.append(f"best_epoch {self.best_epoch}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def train(train_set, val_set, space, config: TrainConfig, *, dim: int,
          num_layers: int = 0, activation: str = "identity",
          graph: FeatureGraph | None = None, norm: sparse.csr_array | None = None,
          init_params: ModelParams | None = None) -> tuple[ModelParams, RunReport]:
    """Fit by mini-batch gradient descent with validation early stopping.

    Stops after ``config.patience`` consecutive epochs without strict
    improvement of the stopping metric and returns the parameters of the
    best epoch. Validation scores on the full graph (``norm``, if given, must be
    ``normalize(graph)``) with dropout off. Sampling is redrawn once per epoch.

    The worker of model._split prepares each next step's inputs (none read from the
    parameters) during a backward, and is idle when each update starts. Same bits.

    Raises TrainingDivergedError as soon as a batch loss or a validation
    metric goes non-finite.
    """
    if not len(train_set) or not len(val_set):
        raise ConfigError("train and validation sets must be non-empty")
    if num_layers >= 1 and graph is None:
        raise ConfigError("num_layers >= 1 requires a co-occurrence graph")
    if num_layers == 0 and (graph is not None or norm is not None):
        raise ConfigError("graph given but the model has no convolution layers")
    m = space.num_features
    if graph is not None:
        check_nodes(graph, m)
    tr = PackedInstances.from_instances(train_set, m)
    va = PackedInstances.from_instances(val_set, m)
    if np.any(np.diff(tr.indptr) == 0):
        raise ConfigError("training instances must have at least one active feature")

    if init_params is not None:
        if (init_params.num_features, init_params.dim, init_params.num_layers,
                init_params.activation) != (m, dim, num_layers, activation):
            raise ConfigError("init_params shape or activation does not match requested model")
        params = init_params.copy()
    else:
        params = ModelParams.initialize(m, dim, num_layers, activation,
                                        seed=derive_seed(config.seed, "init"))
    full_norm = normalize(graph) if norm is None and num_layers >= 1 else norm
    state = OptimizerState.create(params, config.optimizer)

    meta = {key: str(value) for key, value in asdict(config).items()}
    meta.update({
        "dim": str(dim),
        "num_layers": str(num_layers),
        "activation": activation,
        "num_train": str(len(tr)),
        "num_validation": str(len(va)),
        "loss": "sum_squared_error_plus_l2",
        "validation_graph": "full",
        "validation_dropout": "off",
    })
    report = RunReport(meta)

    def prepare(epoch, order, lo):   # reads no parameter, so it can run a step ahead
        return _prepare(tr.take(order[lo:lo + config.batch_size]), m, dim, config.dropout_ratio,
                        derive_seed(config.seed, "dropout", epoch, lo // config.batch_size))

    n = len(tr)
    best_metric = math.inf
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        if num_layers >= 1 and config.sampling_ratio < 1.0:
            sampled = sample_neighbors(graph, config.sampling_ratio,
                                       derive_seed(config.seed, "sampling", epoch))
            epoch_norm = normalize(sampled)
        else:
            epoch_norm = full_norm
        order = seeded_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        epoch_loss, ahead = 0.0, None
        for batch_index, lo in enumerate(range(0, n, config.batch_size)):
            forward = _forward(params, epoch_norm, config.dropout_ratio,
                               *(ahead.result() if ahead else prepare(epoch, order, lo)))
            # the next step's inputs, made on the worker during this backward
            ahead = (_model._worker.submit(prepare, epoch, order, lo + config.batch_size)
                     if lo + config.batch_size < n else None)
            try:
                value, grads = _backward(params, config.l2_lambda, forward)
            finally:   # idle before the update; a failed preparation raises in the next step
                wait([ahead] if ahead else [])
            try:
                if not math.isfinite(value):
                    raise TrainingDivergedError("non-finite loss")
                optimizer_step(params, state, grads, config)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"{exc} in epoch {epoch}, batch {batch_index}") from None
            epoch_loss += value
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
            report.best_epoch = epoch
        elif epoch - report.best_epoch >= config.patience:
            break
    return best_params, report
