"""Feature co-occurrence graphs: construction, normalization, neighbor sampling.

Nodes are feature indices. Two features are linked when they appear together
in at least one transaction (optionally restricted to listed field pairs);
edges are binary and undirected, stored once in canonical (i < j) order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import (FeatureSpace, PackedInstances, ascii_tokens, bulk_bytes, content_lines,
                   parse_index, parse_indices, spell_integers)
from .errors import ConfigError, GraphFormatError, check
from .seeding import seeded_rng

# edges FeatureGraph.save spells per write
_SAVE_EDGES = 1 << 16
# build_graph warns about each linked field with fewer features than this
_LOW_CARDINALITY = 10


@dataclass(frozen=True, eq=False)
class FeatureGraph:
    """Undirected feature graph over ``num_nodes`` feature indices.

    ``edges`` is an (E, 2) int64 array, each row i < j, rows unique and
    lexicographically sorted.
    """

    num_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        check("graph node count", self.num_nodes, int, error=GraphFormatError)
        edges = np.asarray(self.edges)
        if edges.size and edges.dtype.kind not in "iu":
            raise GraphFormatError(f"edge endpoints must be integers, got {edges.dtype} values")
        edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if self.num_nodes < 1:
            raise GraphFormatError(f"graph needs at least one node, got {self.num_nodes}")
        if edges.size:
            i, j = edges[:, 0], edges[:, 1]
            if i.min() < 0 or j.max() >= self.num_nodes:
                raise GraphFormatError("edge endpoint outside [0, num_nodes)")
            if np.any(i >= j):
                raise GraphFormatError("edges must satisfy i < j (no self-edges)")
            # row by row, not by a combined key that overflows int64
            di, dj = np.diff(i), np.diff(j)
            if np.any((di < 0) | ((di == 0) & (dj <= 0))):
                raise GraphFormatError("edges must be unique and sorted")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Plain adjacency degree per node (self-loops not counted)."""
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes)

    def save(self, path) -> None:
        """Write ``nodes m`` then one ``i j`` line per edge, a block of edges
        per write, spelled as uint8 rows (spell_integers) with NULs dropped."""
        with open(path, "wb") as fh:
            fh.write(b"nodes %d\n" % self.num_nodes)
            for lo in range(0, self.num_edges, _SAVE_EDGES):
                i, j = self.edges[lo:lo + _SAVE_EDGES].T
                space, newline = (np.full((i.size, 1), c, dtype=np.uint8) for c in b" \n")
                text = np.hstack([spell_integers(i), space, spell_integers(j), newline])
                fh.write(text.tobytes().translate(None, b"\0"))

    @classmethod
    def load(cls, path) -> "FeatureGraph":
        """Read an edge list written by save; re-validates every invariant.

        The text is tokenized in bulk; a file that fails a check there is
        read again line by line, which names the faulty line."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        header, pairs = _edge_arrays(text) or _edge_lines(text.split("\n"), path)
        edges, repeated = _sorted_edges(pairs)
        if repeated.any():
            raise GraphFormatError(f"{path}: duplicate edges in file")
        return cls(header, edges)


def _sorted_edges(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` sorted by (i, j), and a mask of the rows equal to the row before."""
    edges = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    repeated = np.zeros(len(edges), dtype=bool)
    repeated[1:] = (edges[1:] == edges[:-1]).all(axis=1)
    return edges, repeated


def _edge_arrays(text: str):
    """The node count and (i < j) endpoint pairs of an edge list, read with
    array operations, or None when any check fails."""
    if (buf := bulk_bytes(text)) is None:
        return None
    starts, ends, first = ascii_tokens(buf)
    # two tokens a line: 'nodes m', then 'i j'
    if (not starts.size or starts.size % 2 or not first[::2].all() or first[1::2].any()
            or buf[starts[0]:ends[0]].tobytes() != b"nodes"):
        return None
    numbers = parse_indices(buf, starts[1:], ends[1:])
    if numbers is None:
        return None
    header, a, b = int(numbers[0]), numbers[1::2], numbers[2::2]
    low, high = np.minimum(a, b), np.maximum(a, b)
    if np.any(low == high) or np.any(high >= header):
        return None
    return header, np.stack([low, high], axis=1)


def _edge_lines(lines, path):
    """_edge_arrays line by line: raises GraphFormatError naming the first
    faulty line."""
    header = None
    pairs = []
    for lineno, body in content_lines(lines):
        parts = body.split()
        if header is None:
            if len(parts) != 2 or parts[0] != "nodes" or parse_index(parts[1]) is None:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'nodes <count>' header, got {body!r}"
                )
            header = parse_index(parts[1])
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'i j', got {body!r}")
        a, b = parse_index(parts[0]), parse_index(parts[1])
        if a is None or b is None:
            raise GraphFormatError(
                f"{path}:{lineno}: non-integer endpoint in {body!r}"
            )
        if a == b:
            raise GraphFormatError(f"{path}:{lineno}: self-edge {a}")
        if max(a, b) >= header:
            raise GraphFormatError(
                f"{path}:{lineno}: endpoint outside [0, {header})"
            )
        pairs.append((min(a, b), max(a, b)))
    if header is None:
        raise GraphFormatError(f"{path}: missing 'nodes <count>' header")
    return header, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def build_graph(instances, space: FeatureSpace, included_fields=None,
                field_pairs=None) -> FeatureGraph:
    """Build the binary co-occurrence graph from transactions.

    Links every pair of features co-occurring in an instance whose fields
    are both included (all fields by default); given ``field_pairs``, only
    pairs whose unordered field pair is listed there. Fields may be given
    by id or name. Linking a field with fewer than 10 features emits a
    RuntimeWarning, since near-universal features (a 2-value flag, say) end
    up adjacent to most of the graph.
    """
    m = space.num_features
    named = range(space.num_fields) if included_fields is None else included_fields
    included = [space.field_id(f) for f in named]
    if len(set(included)) != len(included):
        raise ConfigError("the graph's field list names a field twice")

    # linked[f, g]: the graph links features of field f to those of field g
    linked = np.zeros((space.num_fields, space.num_fields), dtype=bool)
    if field_pairs is None:
        linked[np.ix_(included, included)] = True
    elif not field_pairs:
        raise ConfigError("the graph's field pair list is empty")
    for a, b in field_pairs or ():
        fa, fb = space.field_id(a), space.field_id(b)
        if fa not in included or fb not in included:
            raise ConfigError(
                f"field pair ({a!r}, {b!r}) uses a field outside the graph's fields"
            )
        linked[fa, fb] = linked[fb, fa] = True

    linked_fields = linked.any(axis=1)
    for fid in np.flatnonzero(linked_fields).tolist():
        if space.cardinality(fid) < _LOW_CARDINALITY:
            warnings.warn(f"field {space.field_names[fid]!r} has only {space.cardinality(fid)} "
                          "features; its nodes will be adjacent to most of the graph",
                          RuntimeWarning, stacklevel=2)

    packed = PackedInstances.from_instances(instances)
    idx = packed.indices
    outside = np.flatnonzero(idx >= m)
    if outside.size:
        pos = int(np.searchsorted(packed.indptr, outside[0], side="right")) - 1
        raise GraphFormatError(
            f"instance {pos}: feature index {int(idx[outside[0]])} outside [0, {m})"
        )
    fields = space.field_of_array(idx)
    keep = linked_fields[fields]
    selected, fields = idx[keep], fields[keep]
    # a row's selected entries are contiguous: rows with k of them form a
    # (rows, k) block whose i < j column pairs are the row's edges
    before = np.r_[0, np.cumsum(keep)][packed.indptr]   # selected before each row
    counts = np.diff(before)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for k in np.unique(counts[counts >= 2]).tolist():
        at = before[:-1][counts == k][:, None] + np.arange(k)
        a, b = np.triu_indices(k, 1)
        pairs = np.stack([selected[at[:, a]].ravel(), selected[at[:, b]].ravel()], axis=1)
        pairs = pairs[linked[fields[at[:, a]].ravel(), fields[at[:, b]].ravel()]]
        edges.append(pairs)
    edges, repeated = _sorted_edges(np.concatenate(edges))
    return FeatureGraph(m, edges[~repeated])


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


def check_nodes(graph: FeatureGraph, num_features: int) -> FeatureGraph:
    """``graph``, if it has a node per feature: checked before any per-node work."""
    if graph.num_nodes != num_features:
        raise ConfigError(f"adjacency over {graph.num_nodes} nodes does not match "
                          f"{num_features} features")
    return graph


def normalize(graph: FeatureGraph) -> sparse.csr_array:
    """Self-loop augmented symmetric normalization of the co-occurrence graph,
    D^-1/2 (A + I) D^-1/2, as an (m, m) CSR array with sorted indices.

    Entry (i, j) holds 1/sqrt(d_i * d_j) where d is degree + 1, for every
    edge in both directions and every self-loop. An edgeless graph therefore
    normalizes to the identity matrix exactly.
    """
    m = graph.num_nodes
    deg = graph.degrees()
    dtil = (deg + 1).astype(np.int64)
    loops = np.arange(m, dtype=np.int64)
    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    rows = np.concatenate([e0, e1, loops])
    cols = np.concatenate([e1, e0, loops])
    # the integer product is exact, so perfect squares normalize exactly
    data = 1.0 / np.sqrt((dtil[rows] * dtil[cols]).astype(np.float64))
    norm = sparse.csr_array((data, (rows, cols)), shape=(m, m))
    norm.sort_indices()
    return norm


def sample_neighbors(graph: FeatureGraph, ratio: float, seed: int = 0) -> FeatureGraph:
    """Per-node uniform neighbor subsampling; an edge survives if either
    endpoint keeps it.

    Each node keeps the ceil(ratio * degree) neighbors with the smallest of
    one uniform random key per directed edge: a draw without replacement.
    ratio 1 returns the input graph unchanged; ratio 0 drops every edge.
    Deterministic for a given (graph, ratio, seed).
    """
    check("sampling ratio", ratio, float, 0, 1)
    rng = seeded_rng(seed)
    if ratio == 1.0:
        return graph
    e = graph.num_edges
    src = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    keys = rng.random(2 * e)
    kept = np.zeros(e, dtype=bool)
    kept[_kept_directed_edges(src, keys, ratio, graph.num_nodes) % e] = True
    # a mask keeps the sorted, unique order of graph.edges
    return FeatureGraph(graph.num_nodes, graph.edges[kept])


def _kept_directed_edges(src: np.ndarray, keys: np.ndarray, ratio: float,
                         num_nodes: int) -> np.ndarray:
    """Positions of the directed edges (sources ``src``) their source keeps: the
    ceil(ratio * deg) with the smallest ``keys``, at least one if ratio > 0."""
    deg = np.bincount(src, minlength=num_nodes)
    # guard against float creep pushing an exact multiple over the ceiling
    count = np.minimum(deg, np.maximum(ratio > 0, np.ceil(ratio * deg - 1e-9)))
    order = np.lexsort((keys, src))    # by node, then by key
    run_start = np.cumsum(deg) - deg
    return order[np.arange(src.size) < (run_start + count)[src[order]]]
