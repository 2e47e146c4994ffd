"""Second-order sparse interaction scoring with lookup or graph-convolved embeddings.

A score is w0 + sum_i w_i x_i + sum_{i<j} x_i x_j <e_i, e_j>, where e_i is
either row i of the embedding table (num_layers == 0) or the output of
num_layers rounds of graph convolution over the normalized co-occurrence
adjacency. The pairwise sum is evaluated through the squared-sum identity,
so scoring stays linear in the number of active features.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import PackedInstances, SparseInstance
from .errors import CheckpointError, DataFormatError
from .graph import NormalizedAdjacency, local_columns, node_set

ACTIVATIONS = ("identity", "relu")

CHECKPOINT_MAGIC = b"GEMFM\x00\x00\x01"


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {name!r}")


def activation_gradient(name: str, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative at pre-activation z (relu uses 0 at z == 0)."""
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    raise ValueError(f"unknown activation {name!r}")


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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {self.num_layers}")
        if len(self.weights) != max(1, self.num_layers):
            raise ValueError(
                f"expected {max(1, self.num_layers)} weight matrices for "
                f"num_layers={self.num_layers}, got {len(self.weights)}"
            )
        if self.w.ndim != 1 or self.weights[0].ndim != 2:
            raise ValueError("w must be 1-d and weights[0] 2-d")
        m, d = self.weights[0].shape
        if self.w.shape[0] != m:
            raise ValueError(f"w has {self.w.shape[0]} entries but table has {m} rows")
        for layer, W in enumerate(self.weights[1:], start=2):
            if W.shape != (d, d):
                raise ValueError(f"layer {layer} weight must be ({d}, {d}), got {W.shape}")

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
        rng = np.random.default_rng(seed)
        weights = [rng.normal(0.0, scale, size=(num_features, dim))]
        for _ in range(max(0, num_layers - 1)):
            weights.append(rng.normal(0.0, scale, size=(dim, dim)))
        return cls(0.0, np.zeros(num_features), weights, activation, num_layers)

    def copy(self) -> "ModelParams":
        return ModelParams(self.w0, self.w.copy(), [W.copy() for W in self.weights],
                           self.activation, self.num_layers)

    def save(self, path) -> None:
        """Binary checkpoint: magic, dims, activation name, float64 LE arrays."""
        act = self.activation.encode("ascii")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<qqqq", self.num_features, self.dim,
                                 self.num_layers, len(act)))
            fh.write(act)
            fh.write(struct.pack("<d", self.w0))
            fh.write(np.ascontiguousarray(self.w, dtype="<f8").tobytes())
            for W in self.weights:
                fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())

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
        counts = [1, m, m * d] + [d * d] * max(0, layers - 1)
        expected = offset + 8 * sum(counts)
        if len(blob) != expected:
            raise CheckpointError(
                f"{path}: expected {expected} bytes, found {len(blob)}"
            )
        flat = np.frombuffer(blob, dtype="<f8", offset=offset)
        w0 = float(flat[0])
        w = flat[1:1 + m].copy()
        pos = 1 + m
        weights = [flat[pos:pos + m * d].reshape(m, d).copy()]
        pos += m * d
        for _ in range(max(0, layers - 1)):
            weights.append(flat[pos:pos + d * d].reshape(d, d).copy())
            pos += d * d
        return cls(w0, w, weights, act, layers)


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
    """Embedding rows for a sorted set of nodes, plus per-layer caches."""

    nodes: np.ndarray
    rows: np.ndarray
    layers: tuple[GcnLayerCache, ...] = ()

    def positions(self, node_ids) -> np.ndarray:
        ids = np.asarray(node_ids, dtype=np.int64)
        pos = np.searchsorted(self.nodes, ids)
        if np.any(pos >= self.nodes.size) or np.any(self.nodes[np.minimum(pos, self.nodes.size - 1)] != ids):
            raise KeyError("node not materialized in this view")
        return pos

    def row(self, node: int) -> np.ndarray:
        return self.rows[self.positions([node])[0]]

    def take(self, node_ids) -> np.ndarray:
        return self.rows[self.positions(node_ids)]


def _as_node_array(nodes, num_features: int) -> np.ndarray:
    arr = np.asarray(list(nodes) if not isinstance(nodes, np.ndarray) else nodes, dtype=np.int64)
    if arr.ndim != 1 or np.any(arr[1:] <= arr[:-1]):  # not yet sorted and distinct
        arr = np.unique(arr)
    if arr.size and (arr[0] < 0 or arr[-1] >= num_features):
        bad = int(arr[0]) if arr[0] < 0 else int(arr[-1])
        raise DataFormatError(f"node index {bad} outside [0, {num_features})")
    return arr


def lookup_embed(params: ModelParams, nodes) -> EmbeddingView:
    """Plain table rows for the given nodes (the num_layers == 0 path)."""
    arr = _as_node_array(nodes, params.num_features)
    return EmbeddingView(arr, params.weights[0][arr])


def gcn_embed(norm: NormalizedAdjacency, params: ModelParams, nodes) -> EmbeddingView:
    """Graph-convolved embedding rows for the given nodes.

    Computes only the L-hop in-neighborhood of the requested nodes: frontier
    l-1 is the set of columns reachable from frontier l, so untouched parts
    of the graph never enter the matmuls.
    """
    if params.num_layers < 1:
        raise ValueError("gcn_embed requires a model with num_layers >= 1")
    if norm.num_nodes != params.num_features:
        raise ValueError(
            f"adjacency over {norm.num_nodes} nodes does not match "
            f"{params.num_features} features"
        )
    target = _as_node_array(nodes, params.num_features)
    L = params.num_layers
    frontiers: list[np.ndarray | None] = [None] * (L + 1)
    blocks: list[sparse.csr_array | None] = [None] * (L + 1)
    frontiers[L] = target
    for l in range(L, 1, -1):
        frontiers[l - 1], blocks[l] = local_columns(norm.matrix[frontiers[l]])
    caches = []
    out = None
    for l in range(1, L + 1):
        frontier = frontiers[l]
        if l == 1:
            adj = norm.matrix[frontier]
            pre = adj @ params.weights[0]
            prop_in = None
        else:
            adj = blocks[l]
            prop_in = adj @ out
            pre = prop_in @ params.weights[l - 1]
        out = activate(params.activation, pre)
        caches.append(GcnLayerCache(frontier, pre, adj, prop_in))
    return EmbeddingView(target, out, tuple(caches))


def fm_interaction(instance: SparseInstance, embed) -> float:
    """Pairwise interaction sum_{i<j} x_i x_j <e_i, e_j> via the squared-sum
    identity, O(active * dim); ``embed`` maps a feature index to its vector.

    The identity is evaluated so that a single active feature yields exactly
    0.0, not a rounding residue.
    """
    if not instance.entries:
        return 0.0
    rows = np.asarray([embed(i) for i, _ in instance.entries], dtype=np.float64)
    x = np.asarray(instance.values, dtype=np.float64)
    weighted = rows * x[:, None]
    summed = weighted.sum(axis=0)
    return 0.5 * float(np.sum(summed * summed - np.sum(weighted * weighted, axis=0)))


def _linear_term(instance: SparseInstance, params: ModelParams) -> float:
    total = params.w0
    for i, v in instance.entries:
        total += params.w[i] * v
    return float(total)


def _check_instance(instance: SparseInstance, num_features: int) -> None:
    if instance.entries and instance.entries[-1][0] >= num_features:
        raise DataFormatError(
            f"feature index {instance.entries[-1][0]} outside [0, {num_features})"
        )


def fm_score(instance: SparseInstance, params: ModelParams) -> float:
    """Score with embeddings read straight from the table."""
    _check_instance(instance, params.num_features)
    table = params.weights[0]
    return _linear_term(instance, params) + fm_interaction(instance, lambda i: table[i])


def gem_score(instance: SparseInstance, norm: NormalizedAdjacency,
              params: ModelParams) -> float:
    """Score with graph-convolved embeddings (num_layers >= 1)."""
    _check_instance(instance, params.num_features)
    view = gcn_embed(norm, params, [i for i, _ in instance.entries] or [])
    return _linear_term(instance, params) + fm_interaction(instance, view.row)


def batch_design(packed: PackedInstances) -> tuple[np.ndarray, sparse.csr_array, sparse.csr_array]:
    """Batch design matrices over the batch's own node set.

    Returns (nodes, X, X2): nodes is the sorted unique active features, X the
    (batch, len(nodes)) value matrix, X2 the same with squared values. This
    is the one place a batch's node set is computed.
    """
    indices = packed.indices
    if indices.size and indices.min() < 0:
        raise DataFormatError(f"negative feature index {int(indices.min())}")
    nodes, local = node_set(indices, int(indices.max(initial=-1)) + 1)
    local = local[indices]
    shape = (len(packed), nodes.size)
    x = sparse.csr_array((packed.values, local, packed.indptr), shape=shape)
    x2 = sparse.csr_array((packed.values ** 2, local, packed.indptr), shape=shape)
    return nodes, x, x2


def scores_from_design(params: ModelParams, nodes: np.ndarray,
                       x: sparse.csr_array, x2: sparse.csr_array,
                       rows: np.ndarray) -> np.ndarray:
    """Batch scores given embedding rows aligned with ``nodes``."""
    summed = x @ rows
    sq = x2 @ (rows * rows)
    interaction = 0.5 * (summed * summed - sq).sum(axis=1)
    linear = x @ params.w[nodes]
    return params.w0 + linear + interaction


def predict_batch(instances, params: ModelParams,
                  norm: NormalizedAdjacency | None = None, *,
                  chunk_size: int = 8192) -> np.ndarray:
    """Deterministic batch scoring (dropout never applies here).

    ``norm`` must be given exactly when the model has convolution layers.
    Accepts a list of instances or a PackedInstances.
    """
    if (norm is None) != (params.num_layers == 0):
        raise ValueError("norm must be provided iff the model has convolution layers")
    if isinstance(instances, PackedInstances):
        packed = instances
        if packed.indices.size and int(packed.indices.max()) >= params.num_features:
            raise DataFormatError(
                f"feature index {int(packed.indices.max())} outside "
                f"[0, {params.num_features})"
            )
    else:
        packed = PackedInstances.from_instances(instances, params.num_features)
    n = len(packed)
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, chunk_size):
        chunk = packed.take(np.arange(lo, min(lo + chunk_size, n)))
        nodes, x, x2 = batch_design(chunk)
        if params.num_layers >= 1:
            view = gcn_embed(norm, params, nodes)
        else:
            view = lookup_embed(params, nodes)
        out[lo:lo + len(chunk)] = scores_from_design(params, nodes, x, x2, view.rows)
    return out
