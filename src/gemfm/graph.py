"""Feature co-occurrence graphs: construction, normalization, neighbor sampling.

Nodes are feature indices. Two features are linked when they appear together
in at least one transaction (optionally restricted to listed field pairs);
edges are binary and undirected, stored once in canonical (i < j) order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .data import FeatureSpace
from .errors import GraphFormatError


@dataclass(frozen=True, eq=False)
class FeatureGraph:
    """Undirected feature graph over ``num_nodes`` feature indices.

    ``edges`` is an (E, 2) int64 array, each row i < j, rows unique and
    lexicographically sorted. ``included_fields`` records which field ids
    contributed nodes when the graph was built from data (None when unknown,
    e.g. after loading from a file).
    """

    num_nodes: int
    edges: np.ndarray
    included_fields: frozenset | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if self.num_nodes < 1:
            raise GraphFormatError(f"graph needs at least one node, got {self.num_nodes}")
        if edges.size:
            i, j = edges[:, 0], edges[:, 1]
            if i.min() < 0 or j.max() >= self.num_nodes:
                raise GraphFormatError("edge endpoint outside [0, num_nodes)")
            if np.any(i >= j):
                raise GraphFormatError("edges must satisfy i < j (no self-edges)")
            key = i * self.num_nodes + j
            if np.any(np.diff(key) <= 0):
                raise GraphFormatError("edges must be unique and sorted")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Plain adjacency degree per node (self-loops not counted)."""
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes)

    @cached_property
    def neighbor_lists(self) -> list[np.ndarray]:
        """Sorted neighbor array per node."""
        m = self.num_nodes
        if not self.edges.size:
            return [np.empty(0, dtype=np.int64)] * m
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        order = np.lexsort((dst, src))
        counts = np.bincount(src, minlength=m)
        return np.split(dst[order], np.cumsum(counts)[:-1])

    def save(self, path) -> None:
        """Write ``nodes m`` then one ``i j`` line per edge."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"nodes {self.num_nodes}\n")
            for i, j in self.edges:
                fh.write(f"{i} {j}\n")

    @classmethod
    def load(cls, path) -> "FeatureGraph":
        """Read an edge list written by save; re-validates every invariant."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        header = None
        pairs = []
        for lineno, line in enumerate(lines, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if header is None:
                parts = body.split()
                if len(parts) != 2 or parts[0] != "nodes" or not parts[1].isdigit():
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 'nodes <count>' header, got {body!r}"
                    )
                header = int(parts[1])
                continue
            parts = body.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'i j', got {body!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer endpoint in {body!r}"
                ) from None
            if a == b:
                raise GraphFormatError(f"{path}:{lineno}: self-edge {a}")
            if not (0 <= a < header and 0 <= b < header):
                raise GraphFormatError(
                    f"{path}:{lineno}: endpoint outside [0, {header})"
                )
            pairs.append((min(a, b), max(a, b)))
        if header is None:
            raise GraphFormatError(f"{path}: missing 'nodes <count>' header")
        if pairs:
            arr = np.array(pairs, dtype=np.int64)
            edges = np.unique(arr, axis=0)
            if len(edges) != len(arr):
                raise GraphFormatError(f"{path}: duplicate edges in file")
        else:
            edges = np.empty((0, 2), dtype=np.int64)
        return cls(header, edges, None)


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _TRIU_CACHE.get(k)
    if cached is None:
        cached = _TRIU_CACHE[k] = np.triu_indices(k, k=1)
    return cached


def build_graph(instances, space: FeatureSpace, mode: str = "all_pairs",
                included_fields=None, field_pairs=None, *,
                low_cardinality_threshold: int = 10) -> FeatureGraph:
    """Build the binary co-occurrence graph from transactions.

    mode "all_pairs" links every pair of features co-occurring in an instance
    whose fields are both included; "pair_list" links only pairs whose
    unordered field pair appears in ``field_pairs``. Fields may be given by id
    or name. Including a field with fewer features than
    ``low_cardinality_threshold`` emits a RuntimeWarning, since near-universal
    features (a 2-value flag, say) end up adjacent to most of the graph.
    """
    if mode not in ("all_pairs", "pair_list"):
        raise ValueError(f"unknown graph mode {mode!r}")
    m = space.num_features
    if included_fields is None:
        included = list(range(space.num_fields))
    else:
        included = [_resolve_field(space, f) for f in included_fields]
    if len(set(included)) != len(included):
        raise ValueError("included_fields has duplicates")

    pair_codes = None
    if mode == "pair_list":
        if not field_pairs:
            raise ValueError("pair_list mode requires a non-empty field_pairs")
        codes = set()
        for a, b in field_pairs:
            fa, fb = _resolve_field(space, a), _resolve_field(space, b)
            if fa not in included or fb not in included:
                raise ValueError(
                    f"field pair ({a!r}, {b!r}) uses a field outside included_fields"
                )
            lo, hi = min(fa, fb), max(fa, fb)
            codes.add(lo * space.num_fields + hi)
        pair_codes = np.array(sorted(codes), dtype=np.int64)

    for fid in included:
        if space.cardinality(fid) < low_cardinality_threshold:
            warnings.warn(
                f"field {space.field_names[fid]!r} has only "
                f"{space.cardinality(fid)} features; its nodes will be adjacent "
                f"to most of the graph",
                RuntimeWarning,
                stacklevel=2,
            )

    include_mask = np.zeros(space.num_fields, dtype=bool)
    include_mask[included] = True
    num_fields = space.num_fields

    src_parts, dst_parts = [], []
    for pos, inst in enumerate(instances):
        idx = np.array(inst.indices, dtype=np.int64)
        if idx.size and idx[-1] >= m:
            raise GraphFormatError(
                f"instance {pos}: feature index {int(idx[-1])} outside [0, {m})"
            )
        fields = space.field_of_array(idx)
        keep = include_mask[fields]
        selected = idx[keep]
        if selected.size < 2:
            continue
        a, b = _triu_pairs(selected.size)
        u, v = selected[a], selected[b]
        if pair_codes is not None:
            fsel = fields[keep]
            fu, fv = fsel[a], fsel[b]
            code = np.minimum(fu, fv) * num_fields + np.maximum(fu, fv)
            allowed = np.isin(code, pair_codes)
            u, v = u[allowed], v[allowed]
        if u.size:
            src_parts.append(u)
            dst_parts.append(v)

    if src_parts:
        stacked = np.stack(
            [np.concatenate(src_parts), np.concatenate(dst_parts)], axis=1
        )
        edges = np.unique(stacked, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return FeatureGraph(m, edges, frozenset(included))


def _resolve_field(space: FeatureSpace, f) -> int:
    if isinstance(f, str):
        return space.field_id(f)
    fid = int(f)
    if not 0 <= fid < space.num_fields:
        raise ValueError(f"field id {fid} outside [0, {space.num_fields})")
    return fid


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops, in CSR form.

    Entry (i, j) holds 1/sqrt(d_i * d_j) where d is degree + 1, for every
    edge in both directions and every self-loop. An edgeless graph therefore
    normalizes to the identity matrix exactly.
    """

    matrix: sparse.csr_array
    degrees: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def coefficient(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def expand(self, nodes: np.ndarray) -> np.ndarray:
        """All column indices reachable from the given rows (includes nodes)."""
        sub = self.matrix[np.asarray(nodes, dtype=np.int64)]
        return node_set(sub.indices, self.num_nodes)[0]


def node_set(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``ids`` (all in [0, size)) and a size-long table of
    their positions, from a presence mask: no sort, unlike np.unique."""
    present = np.zeros(size, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), np.cumsum(present) - 1


def local_columns(block: sparse.csr_array) -> tuple[np.ndarray, sparse.csr_array]:
    """The sorted columns ``block`` uses, and ``block`` with each column
    renumbered to its position among them (entry order unchanged)."""
    columns, local = node_set(block.indices, block.shape[1])
    return columns, sparse.csr_array((block.data, local[block.indices], block.indptr),
                                     shape=(block.shape[0], columns.size))


def normalize(graph: FeatureGraph) -> NormalizedAdjacency:
    """Self-loop augmented symmetric normalization of the co-occurrence graph."""
    m = graph.num_nodes
    deg = graph.degrees()
    dtil = (deg + 1).astype(np.int64)
    loops = np.arange(m, dtype=np.int64)
    if graph.num_edges:
        e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
        rows = np.concatenate([e0, e1, loops])
        cols = np.concatenate([e1, e0, loops])
    else:
        rows = cols = loops
    # the integer product is exact, so perfect squares normalize exactly
    data = 1.0 / np.sqrt((dtil[rows] * dtil[cols]).astype(np.float64))
    matrix = sparse.csr_array((data, (rows, cols)), shape=(m, m))
    matrix.sort_indices()
    return NormalizedAdjacency(matrix, dtil)


def sample_neighbors(graph: FeatureGraph, ratio: float, seed: int = 0) -> FeatureGraph:
    """Per-node uniform neighbor subsampling; an edge survives if either
    endpoint keeps it.

    Each node keeps ceil(ratio * degree) of its neighbors, drawn without
    replacement. ratio 1 returns the input graph unchanged; ratio 0 drops
    every edge. Deterministic for a given (graph, ratio, seed).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"sampling ratio must lie in [0, 1], got {ratio}")
    if ratio == 1.0:
        return graph
    if ratio == 0.0 or graph.num_edges == 0:
        return FeatureGraph(graph.num_nodes, np.empty((0, 2), dtype=np.int64),
                            graph.included_fields)
    rng = np.random.default_rng(seed)
    src_parts, dst_parts = [], []
    for node, neighbors in enumerate(graph.neighbor_lists):
        n = neighbors.size
        if n == 0:
            continue
        # guard against float creep pushing an exact multiple over the ceiling
        count = min(n, max(1, math.ceil(ratio * n - 1e-9)))
        kept = neighbors if count == n else rng.choice(neighbors, size=count, replace=False)
        src_parts.append(np.full(kept.size, node, dtype=np.int64))
        dst_parts.append(kept.astype(np.int64))
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return FeatureGraph(graph.num_nodes, edges, graph.included_fields)
