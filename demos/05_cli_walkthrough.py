"""The four CLI commands end to end in a scratch directory: build-graph,
train, evaluate, predict.

Run: python demos/05_cli_walkthrough.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from gemfm import PackedInstances, format_field_map, save_libfm
from gemfm.data import FeatureSpace


def run(label, args):
    print(f"\n$ gemfm {' '.join(args)}")
    proc = subprocess.run([sys.executable, "-m", "gemfm.cli", *args],
                          capture_output=True, text=True)
    for stream in (proc.stdout, proc.stderr):
        for line in stream.splitlines():
            print(f"  {line}")
    if proc.returncode != 0:
        raise SystemExit(f"{label} failed with exit code {proc.returncode}")


def main():
    rng = np.random.default_rng(0)
    space = FeatureSpace.from_cardinalities(["user", "item"], [25, 40])
    truth = rng.normal(size=space.num_features)
    labels, indices = [], []
    for _ in range(600):
        u = int(rng.integers(0, 25))
        i = 25 + int(rng.integers(0, 40))
        labels.append(truth[u] + truth[i] + 0.5 * truth[u] * truth[i] + 0.1 * rng.normal())
        indices += [u, i]
    instances = PackedInstances(np.array(labels), np.arange(0, 1201, 2), np.array(indices),
                                np.ones(1200))

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # pre-split files: the graph sees the training rows only
        parts = {"train": instances.row_range(0, 480), "val": instances.row_range(480, 540),
                 "test": instances.row_range(540, 600)}
        files = {name: root / f"{name}.libfm" for name in parts}
        for name, rows in parts.items():
            save_libfm(rows, files[name])
        fmap = root / "fields.tsv"
        fmap.write_text(format_field_map(space))
        print("wrote " + ", ".join(f"{len(rows)} transactions to {files[name].name}"
                                   for name, rows in parts.items()))

        graph = root / "graph.txt"
        run("build-graph", ["build-graph", "--data", str(files["train"]),
                            "--field-map", str(fmap), "--out", str(graph)])

        model = root / "model.bin"
        report = root / "report.txt"
        run("train", ["train", "--train", str(files["train"]), "--val", str(files["val"]),
                      "--test", str(files["test"]), "--field-map", str(fmap),
                      "--dim", "8", "--layers", "1", "--graph", str(graph),
                      "--learning-rate", "0.02", "--batch-size", "64",
                      "--max-epochs", "30", "--patience", "4", "--seed", "1",
                      "--model", str(model), "--report", str(report)])

        run("evaluate", ["evaluate", "--data", str(files["test"]),
                         "--model", str(model), "--graph", str(graph)])

        preds = root / "preds.txt"
        run("predict", ["predict", "--data", str(files["test"]), "--model", str(model),
                        "--graph", str(graph), "--out", str(preds)])
        head = preds.read_text().splitlines()[:3]
        print(f"\nfirst predictions: {head}")
        print(f"run report lines:  {report.read_text().splitlines()[:2]}")


if __name__ == "__main__":
    main()
