"""Independent reference implementations the tests check the library against.

Everything here is written the slow, obvious way (double loops, dense
matrices) so a bug in the library's vectorized paths cannot hide in a shared
shortcut.
"""

import numpy as np

from gemfm import DataFormatError, PackedInstances, parse_libfm_line
from gemfm.train import ADAM_BETA1, ADAM_BETA2, EPSILON


def pairwise_interaction(values, rows):
    """sum_{i<j} x_i x_j <v_i, v_j> by explicit double loop."""
    total = 0.0
    k = len(values)
    for i in range(k):
        for j in range(i + 1, k):
            total += values[i] * values[j] * float(np.dot(rows[i], rows[j]))
    return total


def pairwise_score(instance, embedding_rows, w, w0):
    """Full model score of a (label, entries) row with the naive pairwise sum."""
    _, entries = instance
    idx = [i for i, _ in entries]
    vals = [v for _, v in entries]
    rows = [embedding_rows[i] for i in idx]
    linear = w0 + sum(w[i] * v for i, v in entries)
    return linear + pairwise_interaction(vals, rows)


def dense_normalized_adjacency(num_nodes, edges):
    """D^-1/2 (A + I) D^-1/2 built with explicit loops."""
    a = np.zeros((num_nodes, num_nodes))
    for i, j in edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    for i in range(num_nodes):
        a[i, i] = 1.0
    dtil = a.sum(axis=1)
    out = np.zeros_like(a)
    for i in range(num_nodes):
        for j in range(num_nodes):
            if a[i, j]:
                out[i, j] = 1.0 / np.sqrt(dtil[i] * dtil[j])
    return out


def dense_gcn_rows(adj_dense, weights, activation, num_layers):
    """Full dense propagation: layer 1 is act(A @ W1), deeper layers
    act(A @ G @ W_l). Returns the final (m, d) embedding matrix."""

    def act(z):
        if activation == "identity":
            return z
        if activation == "relu":
            return np.maximum(z, 0.0)
        raise ValueError(activation)

    out = act(adj_dense @ weights[0])
    for l in range(2, num_layers + 1):
        out = act(adj_dense @ out @ weights[l - 1])
    return out


def finite_difference_gradients(loss_fn, params, h=1e-5):
    """Central differences of loss_fn(params) for every coordinate.

    loss_fn must be deterministic (fix any dropout mask before calling).
    Mutates one coordinate at a time and restores it, so params is unchanged
    on return. Returns (d_w0, d_w, [d_W...]).
    """

    def probe(assign, restore):
        assign(h)
        up = loss_fn(params)
        restore()
        assign(-h)
        down = loss_fn(params)
        restore()
        return (up - down) / (2.0 * h)

    base_w0 = params.w0

    def set_w0(delta):
        params.w0 = base_w0 + delta

    def reset_w0():
        params.w0 = base_w0

    d_w0 = probe(set_w0, reset_w0)

    d_w = np.zeros_like(params.w)
    for i in range(params.w.size):
        base = params.w[i]

        def set_wi(delta, i=i, base=base):
            params.w[i] = base + delta

        def reset_wi(i=i, base=base):
            params.w[i] = base

        d_w[i] = probe(set_wi, reset_wi)

    d_weights = []
    for li, mat in enumerate(params.weights):
        grad = np.zeros_like(mat)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            pos = it.multi_index
            base = mat[pos]

            def set_m(delta, mat=mat, pos=pos, base=base):
                mat[pos] = base + delta

            def reset_m(mat=mat, pos=pos, base=base):
                mat[pos] = base

            grad[pos] = probe(set_m, reset_m)
        d_weights.append(grad)
    return d_w0, d_w, d_weights


def gradient_agreement(analytic, numeric, rel=1e-4, floor=1e-6):
    """Max violation of |a - n| <= max(rel * max(|a|, |n|), floor), as a
    ratio of the allowance (<= 1 means all coordinates agree)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    allow = np.maximum(rel * np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / allow)) if a.size else 0.0


def scatter_rows(values, rows, num_rows):
    """Dense (num_rows, ...) array with ``values[k]`` at row ``rows[k]`` and
    zeros elsewhere: the dense form of a row-aligned gradient block."""
    values = np.asarray(values, dtype=np.float64)
    dense = np.zeros((num_rows,) + values.shape[1:])
    dense[np.asarray(rows, dtype=np.int64)] = values
    return dense


def dense_gradients(grads, num_features):
    """(d_w, d_weights) of a GradientSet with the row-aligned blocks
    (d_w on touched_features, d_weights[0] on touched_rows) scattered into
    dense arrays over all num_features rows."""
    d_w = scatter_rows(grads.d_w, grads.touched_features, num_features)
    d_table = scatter_rows(grads.d_weights[0], grads.touched_rows, num_features)
    return d_w, [d_table, *grads.d_weights[1:]]


def decayed_dense_gradients(grads, params, l2_lambda):
    """(d_w, d_weights) of the reported loss over every parameter: the
    row-aligned blocks scattered into dense arrays, plus the weight decay
    2 * l2_lambda * Theta on each row of w and the table that the batch did
    not touch (training decays only touched rows)."""
    d_w, d_weights = dense_gradients(grads, params.num_features)
    lam2 = 2.0 * l2_lambda
    for dense, param, touched in ((d_w, params.w, grads.touched_features),
                                  (d_weights[0], params.weights[0], grads.touched_rows)):
        untouched = np.setdiff1d(np.arange(params.num_features), touched)
        dense[untouched] += lam2 * param[untouched]
    return d_w, d_weights


def adagrad_rows_reference(param, accum, grad, rows, lr):
    """Lazy Adagrad on ``rows``: whole-array temporaries, one gather and
    one scatter per array, in the formula's own order."""
    acc = accum[rows] + grad ** 2
    accum[rows] = acc
    param[rows] = param[rows] - lr * grad / np.sqrt(acc + EPSILON)


def adam_rows_reference(param, mom, accum, grad, rows, lr, c1, c2):
    """Lazy Adam on ``rows`` with bias corrections c1, c2, as above."""
    m = ADAM_BETA1 * mom[rows] + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * accum[rows] + (1 - ADAM_BETA2) * grad ** 2
    mom[rows], accum[rows] = m, v
    param[rows] = param[rows] - lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)


def packed_rows(rows):
    """A PackedInstances straight from (label, [(index, value), ...]) rows."""
    rows = list(rows)
    entries = [entry for _, row in rows for entry in row]
    return PackedInstances(np.array([label for label, _ in rows], dtype=np.float64),
                           np.cumsum([0] + [len(row) for _, row in rows], dtype=np.int64),
                           np.array([i for i, _ in entries], dtype=np.int64),
                           np.array([v for _, v in entries], dtype=np.float64))


def unpack(packed):
    """The rows of a PackedInstances as (label, ((index, value), ...)) tuples, in order."""
    bounds = packed.indptr.tolist()
    indices, values = packed.indices.tolist(), packed.values.tolist()
    return [(label, tuple(zip(indices[a:b], values[a:b])))
            for label, a, b in zip(packed.labels.tolist(), bounds, bounds[1:])]


def load_libfm_reference(path):
    """The line-by-line libFM reader: parse_libfm_line on every line that is
    not blank or a comment, then one pack of all their rows."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.split("#", 1)[0].strip():
                    continue
                try:
                    rows += unpack(parse_libfm_line(line))
                except DataFormatError as exc:
                    raise DataFormatError(f"{path}: {exc} (line {lineno})") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return packed_rows(rows)


def packed_equal(a, b):
    """Whether two PackedInstances hold the same rows, bit for bit."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.labels, b.labels), (a.indptr, b.indptr),
                            (a.indices, b.indices), (a.values, b.values)))


def negative_sample_reference(positives, space, item_field, k, seed=0):
    """Per-instance negative sampling over a list of (label, entries) rows:
    keys each context by its tuple of (index, value) entries, draws with the
    same RNG calls in the same order, and builds each negative as a row of
    sorted entries. Returns (negatives, number of positives that came up short)."""
    start, end = space.field_range(item_field)
    contexts, clicked = [], {}
    for _, entries in positives:
        (item,) = [i for i, _ in entries if start <= i < end]
        context = tuple(e for e in entries if not start <= e[0] < end)
        item_value = next(v for i, v in entries if i == item)
        contexts.append((context, item_value))
        clicked.setdefault(context, set()).add(item)
    rng = np.random.default_rng(seed)
    negatives, short = [], 0
    for context, item_value in contexts:
        taken = clicked[context]
        eligible = (end - start) - len(taken)
        take = min(k, eligible)
        short += take < k
        if take == 0:
            continue
        if eligible >= 8 * k:
            draws = []
            while len(draws) < take:
                candidate = int(rng.integers(start, end))
                if candidate not in taken and candidate not in draws:
                    draws.append(candidate)
        else:
            pool = np.setdiff1d(np.arange(start, end, dtype=np.int64),
                                np.array(sorted(taken), dtype=np.int64))
            draws = [int(d) for d in rng.choice(pool, size=take, replace=False)]
        for drawn in draws:
            negatives.append((0.0, tuple(sorted(context + ((drawn, item_value),)))))
    return negatives, short


def save_libfm_reference(instances, path):
    """The line-at-a-time libFM writer: one ``label idx:value ...`` string per
    row, each number spelled by repr of a Python float."""
    packed = PackedInstances.from_instances(instances)
    bounds = packed.indptr.tolist()
    entries = list(zip(packed.indices.tolist(), packed.values.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        for label, a, b in zip(packed.labels.tolist(), bounds, bounds[1:]):
            parts = [repr(float(label))] + [f"{i}:{float(v)!r}" for i, v in entries[a:b]]
            fh.write(" ".join(parts) + "\n")


def graph_save_reference(graph, path):
    """The line-at-a-time edge-list writer: ``nodes m``, then ``i j`` per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {graph.num_nodes}\n")
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")
