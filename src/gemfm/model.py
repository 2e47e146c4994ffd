"""Second-order sparse interaction scoring with lookup or graph-convolved embeddings.

A score is w0 + sum_i w_i x_i + sum_{i<j} x_i x_j <e_i, e_j>, where e_i is
either row i of the embedding table (num_layers == 0) or the output of
num_layers rounds of graph convolution over the normalized co-occurrence
adjacency. The pairwise sum is evaluated through the squared-sum identity
0.5 * (||sum_i x_i e_i||^2 - sum_i x_i^2 ||e_i||^2), whose square term needs
one number per node, so scoring stays linear in the number of active features.
predict_batch takes each distinct node's embedding, squared norm and weight once per call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import PackedInstances
from .errors import CheckpointError, ConfigError, DataFormatError, check
from .graph import local_columns, node_set
from .seeding import seeded_rng

ACTIVATIONS = ("identity", "relu")

CHECKPOINT_MAGIC = b"GEMFM\x00\x00\x01"
# rows predict_batch scores per batch_design
_PREDICT_CHUNK = 8192


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    return np.maximum(z, 0.0)


@dataclass(eq=False)
class ModelParams:
    """Trainable state: global bias, per-feature bias, embedding and layer weights.

    weights[0] is the m x d embedding table. For num_layers >= 2,
    weights[1...] are the d x d transforms of the deeper convolution layers.
    With num_layers == 0 the table is read directly (plain lookup); with
    num_layers == 1 the table is the sole convolution weight.
    """

    w0: float
    w: np.ndarray
    weights: list[np.ndarray]
    activation: str = "identity"
    num_layers: int = 0

    def __post_init__(self):
        self.w0 = float(self.w0)
        self.w = np.asarray(self.w, dtype=np.float64)
        self.weights = [np.asarray(W, dtype=np.float64) for W in self.weights]
        check("activation", self.activation, ACTIVATIONS)
        check("num_layers", self.num_layers, int, 0)
        if len(self.weights) != max(1, self.num_layers):
            raise ConfigError(
                f"expected {max(1, self.num_layers)} weight matrices for "
                f"num_layers={self.num_layers}, got {len(self.weights)}"
            )
        if self.w.ndim != 1 or self.weights[0].ndim != 2:
            raise ConfigError("w must be 1-d and weights[0] 2-d")
        m, d = self.weights[0].shape
        if m < 1 or d < 1:
            raise ConfigError(f"num_features and dim must be >= 1, got {m} and {d}")
        if self.w.shape[0] != m:
            raise ConfigError(f"w has {self.w.shape[0]} entries but table has {m} rows")
        for layer, W in enumerate(self.weights[1:], start=2):
            if W.shape != (d, d):
                raise ConfigError(f"layer {layer} weight must be ({d}, {d}), got {W.shape}")
        if not all(np.isfinite(block).all() for block in [self.w0, self.w, *self.weights]):
            raise ConfigError("w0, w and every weight matrix must be finite")

    @property
    def num_features(self) -> int:
        return self.weights[0].shape[0]

    @property
    def dim(self) -> int:
        return self.weights[0].shape[1]

    @classmethod
    def initialize(cls, num_features: int, dim: int, num_layers: int = 0,
                   activation: str = "identity", seed: int = 0,
                   scale: float = 0.01) -> "ModelParams":
        """Gaussian(0, scale) weight matrices, zero biases."""
        check("num_features", num_features, int, 1)
        check("dim", dim, int, 1)
        check("num_layers", num_layers, int, 0)
        check("scale", scale, float, 0)
        rng = seeded_rng(seed)
        weights = [rng.normal(0.0, scale, size=(num_features, dim))]
        for _ in range(1, num_layers):
            weights.append(rng.normal(0.0, scale, size=(dim, dim)))
        return cls(0.0, np.zeros(num_features), weights, activation, num_layers)

    def copy(self) -> "ModelParams":
        return ModelParams(self.w0, self.w.copy(), [W.copy() for W in self.weights],
                           self.activation, self.num_layers)

    def save(self, path) -> None:
        """Binary checkpoint: magic, dims, activation name, float64 LE blocks."""
        act = self.activation.encode()
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<qqqq", self.num_features, self.dim,
                                 self.num_layers, len(act)))
            fh.write(act)
            for block in [np.array([self.w0]), self.w, *self.weights]:
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ModelParams":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a model checkpoint")
        offset = len(CHECKPOINT_MAGIC)
        try:
            m, d, layers, act_len = struct.unpack_from("<qqqq", blob, offset)
        except struct.error:
            raise CheckpointError(f"{path}: truncated header") from None
        offset += 32
        if m < 1 or d < 1 or layers < 0 or not 0 < act_len <= 64:
            raise CheckpointError(f"{path}: implausible header ({m}, {d}, {layers})")
        act = blob[offset:offset + act_len].decode("ascii", errors="replace")
        offset += act_len
        if act not in ACTIVATIONS:
            raise CheckpointError(f"{path}: unknown activation {act!r}")
        # arithmetic, not a list per layer: a corrupt layer count can be huge
        expected = offset + 8 * (1 + m + m * d + d * d * max(0, layers - 1))
        if len(blob) != expected:
            raise CheckpointError(
                f"{path}: expected {expected} bytes, found {len(blob)}"
            )
        flat = np.frombuffer(blob, dtype="<f8", offset=offset)
        if not np.isfinite(flat).all():
            raise CheckpointError(f"{path}: non-finite parameter value")
        blocks, pos = [], 0
        for shape in [(1,), (m,), (m, d), *[(d, d)] * max(0, layers - 1)]:
            blocks.append(flat[pos:pos + np.prod(shape)].reshape(shape).copy())
            pos += blocks[-1].size
        w0, w, *weights = blocks
        return cls(w0[0], w, weights, act, layers)


@dataclass(eq=False)
class GcnLayerCache:
    """Forward intermediates of one convolution layer, kept for backprop.

    frontier: node ids whose outputs this layer produced.
    pre: pre-activation rows, aligned with frontier.
    adj: the adjacency slice used (rows = frontier; columns are global for
         layer 1, previous-frontier-local for deeper layers).
    prop_in: adj @ previous-layer output (None for layer 1, whose weight
             gradient comes from adj directly).
    """

    frontier: np.ndarray
    pre: np.ndarray
    adj: sparse.csr_array
    prop_in: np.ndarray | None


@dataclass(eq=False)
class EmbeddingView:
    """Embedding rows for the nodes asked for, in the order asked, plus per-layer caches."""

    rows: np.ndarray
    layers: tuple[GcnLayerCache, ...] = ()


def _as_node_array(nodes, num_features: int) -> np.ndarray:
    arr = np.asarray(nodes, dtype=np.int64).ravel()
    bad = arr[(arr < 0) | (arr >= num_features)]
    if bad.size:
        raise DataFormatError(f"node index {int(bad[0])} outside [0, {num_features})")
    return arr


def lookup_embed(params: ModelParams, nodes) -> EmbeddingView:
    """Plain table rows for the given nodes (the num_layers == 0 path)."""
    return EmbeddingView(params.weights[0][_as_node_array(nodes, params.num_features)])


def gcn_embed(norm: sparse.csr_array, params: ModelParams, nodes) -> EmbeddingView:
    """Graph-convolved embedding rows for the given nodes.

    Computes only the L-hop in-neighborhood of the requested nodes: frontier
    l-1 is the set of columns reachable from frontier l, so untouched parts
    of the graph never enter the matmuls.
    """
    if params.num_layers < 1:
        raise ConfigError("gcn_embed requires a model with num_layers >= 1")
    if not sparse.issparse(norm):
        raise ConfigError(f"norm must be a scipy sparse matrix, got {type(norm).__name__}")
    if norm.shape[0] != params.num_features:
        raise ConfigError(f"adjacency over {norm.shape[0]} nodes does not match "
                          f"{params.num_features} features")
    frontiers, blocks = [_as_node_array(nodes, params.num_features)], []
    for _ in range(params.num_layers - 1):
        reached, block = local_columns(norm[frontiers[0]])
        frontiers.insert(0, reached)
        blocks.insert(0, block)
    # layer 1: the one-hot input makes the table its weight
    adj = norm[frontiers[0]]
    pre = adj @ params.weights[0]
    out = activate(params.activation, pre)
    caches = [GcnLayerCache(frontiers[0], pre, adj, None)]
    for frontier, adj, W in zip(frontiers[1:], blocks, params.weights[1:]):
        prop_in = adj @ out
        pre = prop_in @ W
        out = activate(params.activation, pre)
        caches.append(GcnLayerCache(frontier, pre, adj, prop_in))
    return EmbeddingView(out, tuple(caches))


def embed(params: ModelParams, norm: sparse.csr_array | None, nodes) -> EmbeddingView:
    """The model's embedding rows for the given nodes: table rows when it has
    no convolution layers, graph-convolved rows over ``norm`` otherwise.

    ``norm`` must be given exactly when the model has convolution layers.
    """
    if (norm is None) != (params.num_layers == 0):
        raise ConfigError("norm must be provided iff the model has convolution layers")
    if norm is None:
        return lookup_embed(params, nodes)
    return gcn_embed(norm, params, nodes)


def batch_design(packed: PackedInstances, nodes: np.ndarray,
                 position: np.ndarray) -> tuple[np.ndarray, sparse.csr_array, sparse.csr_array]:
    """Design matrices of ``packed``'s rows over a node set holding all their
    features, with each feature's place in it (``graph.node_set``'s pair).

    Returns (nodes, X, X2): X the (rows, len(nodes)) value matrix, column j
    for node nodes[j], X2 the same with squared values; entry order is kept.
    """
    local = position[packed.indices]
    shape = (len(packed), nodes.size)
    x = sparse.csr_array((packed.values, local, packed.indptr), shape=shape)
    x2 = sparse.csr_array((packed.values ** 2, local, packed.indptr), shape=shape)
    return nodes, x, x2


def _node_terms(params: ModelParams, nodes: np.ndarray, rows: np.ndarray) -> tuple:
    """Per-node terms of a score: embedding rows aligned with ``nodes``, their
    squared norms (numpy sums, not BLAS) and the nodes' linear weights."""
    return rows, (rows * rows).sum(axis=1), params.w[nodes]


def scores_from_design(params: ModelParams, x: sparse.csr_array, x2: sparse.csr_array,
                       rows: np.ndarray, squares: np.ndarray,
                       w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the rows of a design over a node set, given that set's
    ``_node_terms``, and the weighted row sums ``x @ rows`` the interaction
    gradient reuses. Only per-row work is done here."""
    summed = x @ rows
    interaction = 0.5 * ((summed * summed).sum(axis=1) - x2 @ squares)
    linear = x @ w
    return params.w0 + linear + interaction, summed


def predict_batch(instances, params: ModelParams,
                  norm: sparse.csr_array | None = None) -> np.ndarray:
    """Deterministic batch scoring (dropout never applies here) of a PackedInstances.

    Once per call: the input's node set, its embedding (distinct nodes x d floats) and
    ``_node_terms``. Once per _PREDICT_CHUNK rows: their design over that node set, and scores.
    ``norm`` must be given exactly when the model has convolution layers."""
    packed = PackedInstances.from_instances(instances, params.num_features)
    nodes, position = node_set(packed.indices, params.num_features)
    terms = _node_terms(params, nodes, embed(params, norm, nodes).rows)
    out = np.empty(len(packed), dtype=np.float64)
    for lo in range(0, len(packed), _PREDICT_CHUNK):
        chunk = packed.row_range(lo, lo + _PREDICT_CHUNK)
        _, x, x2 = batch_design(chunk, nodes, position)
        out[lo:lo + len(chunk)] = scores_from_design(params, x, x2, *terms)[0]
    return out
