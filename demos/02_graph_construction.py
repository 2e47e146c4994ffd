"""Co-occurrence graphs: construction, normalization, neighbor sampling.

Run: python demos/02_graph_construction.py
"""

import warnings

import numpy as np

from gemfm import (FeatureGraph, FeatureSpace, SparseInstance, build_graph,
                   normalize, sample_neighbors)


def main():
    # four tiny transactions over user/item fields
    space = FeatureSpace.from_cardinalities(["user", "item"], [3, 4])
    rows = [(0, 3), (0, 4), (1, 4), (2, 6)]
    transactions = [SparseInstance(1.0, ((u, 1.0), (i, 1.0))) for u, i in rows]
    with warnings.catch_warnings():
        # toy fields of 3 and 4 features draw the low-cardinality warning
        warnings.simplefilter("ignore", RuntimeWarning)
        graph = build_graph(transactions, space)
    print(f"{len(transactions)} transactions -> {graph.num_edges} edges "
          f"over {graph.num_nodes} feature nodes")
    for i, j in graph.edges:
        print(f"  {i} -- {j}")
    print(f"degrees: {graph.degrees().tolist()}")

    # symmetric normalization with self-loops: entry (i, j) is
    # 1/sqrt((deg_i + 1) (deg_j + 1)); rows stay symmetric and an isolated
    # node keeps an exact 1.0 self-loop
    norm = normalize(graph)
    print("\nnormalized coefficients")
    print(f"  c(0, 4) = {norm[0, 4]:.6f}  "
          f"(degrees {graph.degrees()[0]} and {graph.degrees()[4]})")
    print(f"  c(4, 0) = {norm[4, 0]:.6f}  (symmetric)")
    print(f"  c(5, 5) = {norm[5, 5]:.6f}  (isolated node 5)")

    # neighbor sampling keeps ceil(ratio * degree) neighbors per node and an
    # edge survives if either endpoint kept it, so leaves never lose their
    # only link
    star = FeatureGraph(7, np.array([[0, j] for j in range(1, 7)]))
    survived = sample_neighbors(star, 0.2, seed=3)
    print(f"\nstar graph, ratio 0.2: {star.num_edges} edges -> "
          f"{survived.num_edges} (each leaf keeps its single neighbor)")

    rng = np.random.default_rng(1)
    mask = np.triu(rng.random((40, 40)) < 0.3, k=1)
    dense = FeatureGraph(40, np.argwhere(mask))
    for ratio in (1.0, 0.5, 0.1):
        sampled = sample_neighbors(dense, ratio, seed=5)
        print(f"denser graph, ratio {ratio}: kept "
              f"{sampled.num_edges}/{dense.num_edges} edges")


if __name__ == "__main__":
    main()
