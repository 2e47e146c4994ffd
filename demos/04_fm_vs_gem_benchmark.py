"""The headline comparison: plain FM vs convolved embeddings (GEM) on the
synthetic click benchmark, matched budgets, dropout at each model's tuned
value. Takes half a minute of CPU.

The acceptance suite (tests/test_acceptance.py) runs the full protocol,
tuning dropout over {0.0, 0.2, 0.4} on validation for each model; at this
benchmark's pinned seeds both models select 0.4, so the demo trains just
those two runs.

Run: python demos/04_fm_vs_gem_benchmark.py
"""

import time

from gemfm import (TrainConfig, build_graph, count_params, normalize,
                   predict_batch, rmse, train)
from gemfm.datagen import ClickDataConfig, click_benchmark


def main():
    started = time.perf_counter()
    bench = click_benchmark(ClickDataConfig())
    print(f"benchmark: {len(bench.train)} train / {len(bench.validation)} val"
          f" / {len(bench.test)} test instances,"
          f" {bench.space.num_features} features")

    # item-item signal travels through shared users, so the graph links just
    # the user and item fields; context hubs would blur every neighborhood
    graph = build_graph(bench.train_positives, bench.space,
                        included_fields=["user", "item"])
    norm = normalize(graph)
    print(f"co-occurrence graph over user+item: {graph.num_edges} edges")

    test = bench.test
    results = {}
    for name, layers in (("FM", 0), ("GEM", 1)):
        config = TrainConfig(optimizer="adam", learning_rate=0.002,
                             l2_lambda=1e-4, dropout_ratio=0.4,
                             batch_size=4096, max_epochs=150, patience=5,
                             seed=7)
        params, report = train(bench.train, bench.validation, bench.space,
                               config, dim=64, num_layers=layers,
                               graph=graph if layers else None)
        preds = predict_batch(test, params, norm if layers else None)
        results[name] = rmse(preds, test.labels)
        best = report.epochs[report.best_epoch - 1]
        print(f"{name}: {len(report.epochs)} epochs, best epoch "
              f"{report.best_epoch} (val rmse {best.val_rmse:.4f}), "
              f"{count_params(params)} parameters")

    gain = (results["FM"] - results["GEM"]) / results["FM"]
    print(f"\ntest RMSE  FM  {results['FM']:.4f}")
    print(f"test RMSE  GEM {results['GEM']:.4f}")
    print(f"relative improvement: {100 * gain:+.2f}% "
          f"({time.perf_counter() - started:.0f}s total)")


if __name__ == "__main__":
    main()
