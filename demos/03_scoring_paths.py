"""Scoring: squared-sum identity, convolved embeddings, exact degradation.

Run: python demos/03_scoring_paths.py
"""

import numpy as np

from gemfm import (FeatureGraph, ModelParams, PackedInstances, normalize, parse_libfm_line,
                   predict_batch)


def naive_score(entries, table, w, w0):
    total = w0 + sum(w[i] * v for i, v in entries)
    for a, (i, xi) in enumerate(entries):
        for j, xj in entries[a + 1:]:
            total += xi * xj * float(table[i] @ table[j])
    return total


def main():
    rng = np.random.default_rng(0)
    m, d = 30, 8
    params = ModelParams(0.2, rng.normal(size=m), [rng.normal(size=(m, d))])
    inst = parse_libfm_line("1.0 2:1.0 11:0.5 25:-1.5")

    # the library evaluates sum_{i<j} x_i x_j <v_i, v_j> through
    # 0.5 (||sum x_i v_i||^2 - sum ||x_i v_i||^2), linear in active features
    fast = predict_batch(inst, params)[0]
    entries = list(zip(inst.indices.tolist(), inst.values.tolist()))
    slow = naive_score(entries, params.weights[0], params.w, params.w0)
    print(f"squared-sum identity: {fast:.12f}")
    print(f"naive pairwise sum:   {slow:.12f}")
    print(f"difference:           {abs(fast - slow):.2e}")

    # with layers >= 1 each embedding row is replaced by its graph
    # convolution before the same interaction formula
    mask = np.triu(rng.random((m, m)) < 0.15, k=1)
    graph = FeatureGraph(m, np.argwhere(mask))
    norm = normalize(graph)
    conv = ModelParams(params.w0, params.w.copy(), [params.weights[0].copy()],
                       "identity", 1)
    print(f"\nplain score:     {fast:.6f}")
    print(f"convolved score: {predict_batch(inst, conv, norm)[0]:.6f} "
          f"(neighbors mixed in, {graph.num_edges} edges)")

    # degradation guarantee: no edges + identity activation means the
    # convolution IS the identity, bit for bit, not approximately
    edgeless = normalize(FeatureGraph(m, np.zeros((0, 2), dtype=np.int64)))
    pairs = np.sort(rng.integers(0, m, size=(5, 2)), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    instances = inst + PackedInstances(np.zeros(len(pairs)), np.arange(0, pairs.size + 1, 2),
                                       pairs.ravel(), np.ones(pairs.size))
    flat = predict_batch(instances, params)
    degraded = predict_batch(instances, conv, edgeless)
    print(f"\nedgeless degradation, {len(instances)} instances:")
    print(f"  plain:     {np.array2string(flat, precision=6)}")
    print(f"  bitwise equal: {np.array_equal(flat, degraded)}")


if __name__ == "__main__":
    main()
