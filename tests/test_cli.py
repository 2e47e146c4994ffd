"""End-to-end command-line runs against small on-disk fixtures."""

import subprocess
import sys

import numpy as np
import pytest

from gemfm import (FeatureGraph, FeatureSpace, ModelParams, SparseInstance,
                   build_graph, count_params, format_report, load_libfm,
                   metric_report, normalize, predict_batch, save_libfm)
from gemfm.cli import main
from gemfm.train import RunReport


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    truth = rng.normal(size=9)
    instances = []
    for _ in range(80):
        u = int(rng.integers(0, 4))
        i = 4 + int(rng.integers(0, 5))
        label = truth[u] + truth[i] + 0.5 * truth[u] * truth[i] + 0.05 * rng.normal()
        instances.append(SparseInstance(float(label), ((u, 1.0), (i, 1.0))))
    data = tmp_path / "data.libfm"
    save_libfm(instances, data)
    fmap = tmp_path / "fields.tsv"
    fmap.write_text("user\t0\t4\nitem\t4\t9\n")
    return tmp_path, data, fmap, instances


def _train_args(data, fmap, tmp_path, *extra):
    return ["train", "--data", str(data), "--field-map", str(fmap),
            "--dim", "3", "--layers", "0", "--batch-size", "16",
            "--max-epochs", "3", "--patience", "3",
            "--learning-rate", "0.05",
            "--model", str(tmp_path / "model.bin"),
            "--report", str(tmp_path / "report.txt"), *extra]


def test_build_graph_writes_file_and_summary(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    out = tmp_path / "graph.txt"
    rc = main(["build-graph", "--data", str(data), "--field-map", str(fmap),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "nodes 9" in captured.out
    assert "degree histogram" in captured.out
    # both toy fields sit under the cardinality threshold
    assert "warning:" in captured.err

    loaded = FeatureGraph.load(out)
    space = FeatureSpace.from_cardinalities(["user", "item"], [4, 5])
    with pytest.warns(RuntimeWarning):
        expected = build_graph(instances, space)
    np.testing.assert_array_equal(loaded.edges, expected.edges)
    assert f"edges {expected.num_edges}" in captured.out


def test_train_single_file_writes_model_and_report(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    rc = main(_train_args(data, fmap, tmp_path))
    captured = capsys.readouterr()
    assert rc == 0
    assert "validation rmse=" in captured.out
    assert "test rmse=" in captured.out
    assert "best_epoch" in captured.out

    params = ModelParams.load(tmp_path / "model.bin")
    assert params.dim == 3
    assert params.num_layers == 0
    report = RunReport.from_text((tmp_path / "report.txt").read_text())
    assert report.config["dim"] == "3"
    assert 1 <= len(report.epochs) <= 3


def test_train_is_reproducible_at_the_command_line(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    main(_train_args(data, fmap, tmp_path, "--seed", "4"))
    first = (tmp_path / "model.bin").read_bytes()
    main(_train_args(data, fmap, tmp_path, "--seed", "4"))
    assert (tmp_path / "model.bin").read_bytes() == first
    capsys.readouterr()


def test_train_presplit_with_prebuilt_graph(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    for name, chunk in (("tr", instances[:60]), ("va", instances[60:70]),
                        ("te", instances[70:])):
        save_libfm(chunk, tmp_path / f"{name}.libfm")
    space = FeatureSpace.from_cardinalities(["user", "item"], [4, 5])
    with pytest.warns(RuntimeWarning):
        graph = build_graph(instances[:60], space)
    graph.save(tmp_path / "graph.txt")

    rc = main(["train", "--train", str(tmp_path / "tr.libfm"),
               "--val", str(tmp_path / "va.libfm"),
               "--test", str(tmp_path / "te.libfm"),
               "--field-map", str(fmap), "--dim", "3", "--layers", "1",
               "--graph", str(tmp_path / "graph.txt"),
               "--batch-size", "16", "--max-epochs", "3", "--patience", "3",
               "--model", str(tmp_path / "gem.bin")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "test rmse=" in captured.out
    assert ModelParams.load(tmp_path / "gem.bin").num_layers == 1


def test_train_input_source_is_exclusive(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    rc = main(["train", "--data", str(data), "--train", str(data),
               "--val", str(data), "--test", str(data),
               "--field-map", str(fmap), "--dim", "2"])
    assert rc == 1
    assert "not both" in capsys.readouterr().err

    rc = main(["train", "--field-map", str(fmap), "--dim", "2"])
    assert rc == 1
    assert "no input data" in capsys.readouterr().err


def test_train_layers_require_a_graph_source(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    rc = main(["train", "--data", str(data), "--field-map", str(fmap),
               "--dim", "2", "--layers", "1", "--max-epochs", "1"])
    assert rc == 1
    assert "--graph" in capsys.readouterr().err


def test_evaluate_matches_library_metrics(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    main(_train_args(data, fmap, tmp_path))
    capsys.readouterr()
    rc = main(["evaluate", "--data", str(data),
               "--model", str(tmp_path / "model.bin")])
    captured = capsys.readouterr()
    assert rc == 0

    params = ModelParams.load(tmp_path / "model.bin")
    preds = predict_batch(instances, params)
    labels = [inst.label for inst in instances]
    expected = format_report(metric_report(preds, labels, count_params(params)))
    assert captured.out.strip() == expected


def test_evaluate_clip_tightens_binary_errors(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    binary = [SparseInstance(float(k % 2), inst.entries)
              for k, inst in enumerate(instances)]
    bdata = tmp_path / "binary.libfm"
    save_libfm(binary, bdata)
    main(_train_args(bdata, fmap, tmp_path))
    capsys.readouterr()

    def run(clip):
        rc = main(["evaluate", "--data", str(bdata),
                   "--model", str(tmp_path / "model.bin"), "--clip", clip])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        return float(line.split()[0].split("=")[1])

    assert run("1") <= run("0")


def test_predict_round_trips_exact_values(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    main(_train_args(data, fmap, tmp_path))
    out = tmp_path / "preds.txt"
    rc = main(["predict", "--data", str(data),
               "--model", str(tmp_path / "model.bin"), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert f"wrote {len(instances)} predictions" in captured.out

    written = [float(line) for line in out.read_text().splitlines()]
    params = ModelParams.load(tmp_path / "model.bin")
    expected = predict_batch(instances, params)
    np.testing.assert_array_equal(written, expected)  # repr is lossless
    assert out.read_text() == "".join(f"{float(v)!r}\n" for v in expected)


def test_config_file_feeds_defaults_but_flags_win(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    config = tmp_path / "run.conf"
    config.write_text(
        "# training options\n"
        "dim = 2\n"
        "max-epochs = 2\n"         # hyphenated keys normalize
        "learning-rate = 0.05\n"
        "batch-size = 16\n"
        "patience = 2\n"
        "layers = 0\n"
    )
    model = tmp_path / "model.bin"
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--field-map", str(fmap), "--model", str(model)])
    capsys.readouterr()
    assert rc == 0
    assert ModelParams.load(model).dim == 2

    rc = main(["train", "--config", str(config), "--data", str(data),
               "--field-map", str(fmap), "--model", str(model), "--dim", "3"])
    capsys.readouterr()
    assert rc == 0
    assert ModelParams.load(model).dim == 3


def test_bad_config_lines_fail_cleanly(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    config = tmp_path / "broken.conf"
    config.write_text("dim 2\n")
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--field-map", str(fmap)])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


def test_missing_files_exit_nonzero(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    rc = main(["evaluate", "--data", str(data),
               "--model", str(tmp_path / "nope.bin")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    rc = main(["train", "--data", str(tmp_path / "missing.libfm"),
               "--field-map", str(fmap), "--dim", "2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_no_subcommand_prints_help_to_stderr():
    proc = subprocess.run([sys.executable, "-m", "gemfm.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage:" in proc.stderr


def test_flat_and_convolved_agree_on_an_edgeless_graph(workspace, capsys):
    # end-to-end version of the degradation guarantee: identity activation on
    # a graph with no edges must reproduce the plain model bit for bit
    tmp_path, data, fmap, instances = workspace
    edgeless = tmp_path / "edgeless.txt"
    FeatureGraph(9, np.zeros((0, 2), dtype=np.int64)).save(edgeless)

    outputs = {}
    for label, layer_args in (
        ("flat", ["--layers", "0"]),
        ("conv", ["--layers", "1", "--graph", str(edgeless)]),
    ):
        model = tmp_path / f"{label}.bin"
        rc = main(["train", "--data", str(data), "--field-map", str(fmap),
                   "--dim", "3", "--batch-size", "16", "--max-epochs", "2",
                   "--patience", "2", "--seed", "11", "--activation",
                   "identity", *layer_args, "--model", str(model)])
        assert rc == 0
        preds = tmp_path / f"{label}.preds"
        predict_args = ["predict", "--data", str(data), "--model", str(model),
                        "--out", str(preds)]
        if label == "conv":
            predict_args += ["--graph", str(edgeless)]
        assert main(predict_args) == 0
        outputs[label] = preds.read_bytes()
    capsys.readouterr()
    assert outputs["flat"] == outputs["conv"]
