"""Independent reference implementations the tests check the library against.

Everything here is written the slow, obvious way (double loops, dense
matrices) so a bug in the library's vectorized paths cannot hide in a shared
shortcut.
"""

import numpy as np


def pairwise_interaction(values, rows):
    """sum_{i<j} x_i x_j <v_i, v_j> by explicit double loop."""
    total = 0.0
    k = len(values)
    for i in range(k):
        for j in range(i + 1, k):
            total += values[i] * values[j] * float(np.dot(rows[i], rows[j]))
    return total


def pairwise_score(instance, embedding_rows, w, w0):
    """Full model score with the naive pairwise sum."""
    idx = [i for i, _ in instance.entries]
    vals = [v for _, v in instance.entries]
    rows = [embedding_rows[i] for i in idx]
    linear = w0 + sum(w[i] * v for i, v in instance.entries)
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
