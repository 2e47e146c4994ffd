"""End-to-end command-line runs against small on-disk fixtures."""

import dataclasses
import importlib
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfm import (DataFormatError, FeatureGraph, FeatureSpace, GemfmError, ModelParams,
                   build_graph, count_params, load_libfm, mae, TrainConfig, normalize,
                   predict_batch, rmse, save_libfm)
from gemfm.datagen import ClickDataConfig, click_benchmark
import gemfm.cli
from gemfm.cli import _OPTIONS, _settings, _train_config, build_parser, main
from gemfm.data import PackedInstances
from oracles import packed_rows, unpack


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    truth = rng.normal(size=9)
    instances = []
    for _ in range(80):
        u = int(rng.integers(0, 4))
        i = 4 + int(rng.integers(0, 5))
        label = truth[u] + truth[i] + 0.5 * truth[u] * truth[i] + 0.05 * rng.normal()
        instances.append((float(label), ((u, 1.0), (i, 1.0))))
    instances = packed_rows(instances)
    data = tmp_path / "data.libfm"
    save_libfm(instances, data)
    fmap = tmp_path / "fields.tsv"
    fmap.write_text("user\t0\t4\nitem\t4\t9\n")
    return tmp_path, data, fmap, instances


def _train_args(data, fmap, tmp_path, *extra):
    """``data`` is a --data file, or a list of --train/--val/--test flags."""
    source = data if isinstance(data, list) else ["--data", str(data)]
    return ["train", *source, "--field-map", str(fmap),
            "--dim", "3", "--layers", "0", "--batch-size", "16",
            "--max-epochs", "3", "--patience", "3",
            "--learning-rate", "0.05",
            "--model", str(tmp_path / "model.bin"),
            "--report", str(tmp_path / "report.txt"), *extra]


def _presplit(tmp_path, instances):
    """--train/--val/--test flags of the workspace's rows 0-60, 60-70 and 70-80, saved."""
    flags = []
    for flag, lo, hi in (("--train", 0, 60), ("--val", 60, 70), ("--test", 70, 80)):
        path = tmp_path / f"{flag[2:]}.libfm"
        save_libfm(instances.row_range(lo, hi), path)
        flags += [flag, str(path)]
    return flags


def _report(preds, labels, params):
    """The metric line of `gemfm evaluate`, and of `gemfm train` after a part's name."""
    return (f"rmse={rmse(preds, labels)!r} mae={mae(preds, labels)!r} "
            f"n={len(labels)} params={count_params(params)}")


def _best_epoch(report_path):
    return next(line for line in report_path.read_text().splitlines()
                if line.startswith("best_epoch "))


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
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "config dim=3" in lines
    assert 1 <= sum(line.startswith("epoch ") for line in lines) <= 3


def test_train_is_reproducible_at_the_command_line(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    main(_train_args(data, fmap, tmp_path, "--seed", "4"))
    first = (tmp_path / "model.bin").read_bytes()
    main(_train_args(data, fmap, tmp_path, "--seed", "4"))
    assert (tmp_path / "model.bin").read_bytes() == first
    capsys.readouterr()


def test_train_presplit_with_prebuilt_graph(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    space = FeatureSpace.from_cardinalities(["user", "item"], [4, 5])
    with pytest.warns(RuntimeWarning):
        graph = build_graph(instances.row_range(0, 60), space)
    graph.save(tmp_path / "graph.txt")

    rc = main(["train", *_presplit(tmp_path, instances),
               "--field-map", str(fmap), "--dim", "3", "--layers", "1",
               "--graph", str(tmp_path / "graph.txt"),
               "--batch-size", "16", "--max-epochs", "3", "--patience", "3",
               "--model", str(tmp_path / "gem.bin"), "--report", str(tmp_path / "report.txt")])
    captured = capsys.readouterr()
    assert rc == 0
    params = ModelParams.load(tmp_path / "gem.bin")
    assert params.num_layers == 1
    norm = normalize(FeatureGraph.load(tmp_path / "graph.txt"))
    assert captured == ("".join(
        f"{name} {_report(predict_batch(part, params, norm), part.labels, params)}\n"
        for name, part in (("validation", instances.row_range(60, 70)),
                           ("test", instances.row_range(70, 80))))
        + _best_epoch(tmp_path / "report.txt") + "\n", "")


def test_train_prints_no_test_line_for_a_test_file_without_rows(workspace, capsys):
    tmp_path, _, fmap, instances = workspace
    source = _presplit(tmp_path, instances)
    (tmp_path / "test.libfm").write_text("# no rows\n")
    assert main(_train_args(source, fmap, tmp_path)) == 0
    params = ModelParams.load(tmp_path / "model.bin")
    validation = instances.row_range(60, 70)
    line = _report(predict_batch(validation, params), validation.labels, params)
    assert capsys.readouterr() == (
        f"validation {line}\n{_best_epoch(tmp_path / 'report.txt')}\n", "")


def test_train_normalizes_the_full_graph_once(workspace, capsys, monkeypatch):
    # train() validates and the CLI scores the validation and test parts
    # through one normalized matrix
    tmp_path, data, fmap, _ = workspace
    normalized = []

    def counted(graph):
        normalized.append(graph.num_edges)
        return normalize(graph)

    for module in ("gemfm.graph", "gemfm.train", "gemfm.cli"):
        monkeypatch.setattr(importlib.import_module(module), "normalize", counted)
    rc = main(_train_args(data, fmap, tmp_path, "--layers", "1",
                          "--graph-fields", "user,item"))
    assert rc == 0
    assert "test rmse=" in capsys.readouterr().out
    assert len(normalized) == 1 and normalized[0] > 0


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

    rc = main(["train", "--train", str(data), "--val", str(data),
               "--field-map", str(fmap), "--dim", "2"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: pre-split input needs all of --train, --val, --test\n"


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
    assert captured.out == _report(preds, instances.labels, params) + "\n"


def test_evaluate_clip_tightens_binary_errors(workspace, capsys):
    tmp_path, data, fmap, instances = workspace
    binary = packed_rows((float(k % 2), entries)
                         for k, (_, entries) in enumerate(unpack(instances)))
    bdata = tmp_path / "binary.libfm"
    save_libfm(binary, bdata)
    # fit to the real-valued labels, the model scores some rows outside [0, 1],
    # where clipping moves each score closer to its binary label
    main(_train_args(data, fmap, tmp_path))
    capsys.readouterr()

    def run(clip):
        rc = main(["evaluate", "--data", str(bdata),
                   "--model", str(tmp_path / "model.bin"), "--clip", clip])
        assert rc == 0
        return capsys.readouterr().out

    params = ModelParams.load(tmp_path / "model.bin")
    preds = predict_batch(binary, params)
    clipped = np.clip(preds, 0.0, 1.0)
    assert not np.array_equal(clipped, preds)
    assert run("0") == _report(preds, binary.labels, params) + "\n"
    assert run("1") == _report(clipped, binary.labels, params) + "\n"
    assert rmse(clipped, binary.labels) < rmse(preds, binary.labels)


@pytest.mark.parametrize("clip, line", [
    ("0", "rmse=0.4330127018922193 mae=0.375 n=4 params=5"),
    ("1", "rmse=0.25 mae=0.125 n=4 params=5"),
])
def test_evaluate_prints_one_pinned_line(tmp_path, capsys, clip, line):
    # every score is w0 = 1.25, against labels 1, 1, 1 and 0.5: errors 0.25 (x3) and
    # 0.75, or, clipped to 1, 0 (x3) and 0.5; 1 + 2 + 2 x 1 parameters
    model, data = tmp_path / "model.bin", tmp_path / "data.libfm"
    ModelParams(1.25, np.zeros(2), [np.zeros((2, 1))]).save(model)
    data.write_text("1 0:1\n1 1:1\n1 0:1 1:1\n0.5 0:1\n")
    assert main(["evaluate", "--data", str(data), "--model", str(model), "--clip", clip]) == 0
    assert capsys.readouterr() == (line + "\n", "")


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


def test_a_graph_pair_without_a_colon_is_refused(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    config = tmp_path / "pairs.conf"
    config.write_text("graph-pairs = user:item, user\n")
    assert main(_train_args(data, fmap, tmp_path, "--config", str(config))) == 1
    assert capsys.readouterr().err == \
        f"error: {config}:1: invalid graph_pairs value 'user:item, user': " \
        "graph pair 'user' must look like fieldA:fieldB\n"
    with pytest.raises(SystemExit) as exc:
        main(_train_args(data, fmap, tmp_path, "--graph-pairs", "user:item,user"))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --graph-pairs: graph pair 'user' must look like fieldA:fieldB\n")
    assert not (tmp_path / "model.bin").exists()


def test_bad_config_lines_fail_cleanly(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    config = tmp_path / "broken.conf"
    config.write_text("dim 2\n")
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--field-map", str(fmap)])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("line,flags", [
    ("dim=x", ["train", "--dim", "x"]),
    ("learning_rate=abc", ["train", "--learning-rate", "abc"]),
    ("activation=tanh", ["train", "--activation", "tanh"]),
    ("optimizer=sgd", ["train", "--optimizer", "sgd"]),
    ("metric=auc", ["train", "--metric", "auc"]),
    ("clip=yes", ["evaluate", "--clip", "yes"]),
    ("graph_mode=pair_list", ["train", "--graph-mode", "pair_list"]),
    ("lerning_rate=0.1", ["train", "--lerning-rate", "0.1"]),
])
def test_config_values_are_checked_as_their_flags_are(workspace, capsys, line, flags):
    tmp_path, data, fmap, _ = workspace
    config = tmp_path / "run.conf"
    config.write_text(f"# options\nlayers = 0\n{line}\n")
    rc = main(_train_args(data, fmap, tmp_path, "--config", str(config)))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:3: ") and err.count("\n") == 1
    assert not (tmp_path / "model.bin").exists()
    with pytest.raises(SystemExit) as exc:
        main(flags)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("key,value,least", [("dim", "-3", 1), ("dim", "0", 1),
                                             ("layers", "-1", 0)])
def test_bad_model_sizes_fail_before_the_graph_is_built(workspace, capsys, key, value, least):
    # both workspace fields have under 10 features: building their graph warns
    tmp_path, data, fmap, _ = workspace
    config = tmp_path / "sizes.conf"
    config.write_text(f"{key} = {value}\n")
    args = ["train", "--data", str(data), "--field-map", str(fmap),
            "--graph-fields", "user,item", "--model", str(tmp_path / "model.bin")]
    for extra in ([f"--{key}", value], ["--config", str(config)]):
        assert main([*args, *extra]) == 1
        assert capsys.readouterr().err == f"error: --{key} must be >= {least}, got {value}\n"
    assert not (tmp_path / "model.bin").exists()


def test_every_train_config_field_has_an_option():
    # a TrainConfig field no option sets would keep its default, or fail here
    values = {}
    for key, (kind, choices, default, _) in _OPTIONS.items():
        if choices:
            values[key] = next(c for c in choices if c != default)
        elif kind in (int, float):
            values[key] = default + 1 if kind is int else default / 2 + 0.25
    config, default = _train_config(_settings(values)), TrainConfig()
    assert [f.name for f in dataclasses.fields(TrainConfig)
            if getattr(config, f.name) == getattr(default, f.name)] == []


def test_run_report_config_lines_are_pinned(workspace, capsys):
    tmp_path, data, fmap, _ = workspace
    rc = main(_train_args(data, fmap, tmp_path, "--seed", "4", "--l2-lambda", "1e-4",
                          "--dropout", "0.1", "--optimizer", "adagrad", "--metric", "mae",
                          "--sampling-ratio", "0.3"))
    capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("config ")] == [
        "config optimizer=adagrad", "config learning_rate=0.05", "config l2_lambda=0.0001",
        "config dropout_ratio=0.1", "config batch_size=16", "config max_epochs=3",
        "config patience=3", "config sampling_ratio=0.3", "config seed=4",
        "config metric_for_stopping=mae", "config dim=3", "config num_layers=0",
        "config activation=identity", "config num_train=64", "config num_validation=8",
        "config loss=sum_squared_error_plus_l2", "config validation_graph=full",
        "config validation_dropout=off",
    ]


def test_graph_pairs_alone_build_the_pair_list_graph(tmp_path, capsys):
    # item-item co-occurrences are linked by default, not by the pair user:item
    space = FeatureSpace.from_cardinalities(["user", "item"], [4, 5])
    instances = packed_rows((1.0, ((u, 1.0), (4 + i, 1.0), (5 + i, 1.0)))
                            for u in range(4) for i in range(0, 4, 2))
    data, fmap, out = tmp_path / "data.libfm", tmp_path / "fields.tsv", tmp_path / "graph.txt"
    save_libfm(instances, data)
    fmap.write_text("user\t0\t4\nitem\t4\t9\n")
    rc = main(["build-graph", "--data", str(data), "--field-map", str(fmap),
               "--graph-pairs", "user:item", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    expected = build_graph(instances, space, field_pairs=[("user", "item")])
    np.testing.assert_array_equal(FeatureGraph.load(out).edges, expected.edges)
    assert expected.num_edges < build_graph(instances, space).num_edges


@pytest.mark.parametrize("command", ["build-graph", "train"])
@pytest.mark.parametrize("flags,fragment", [
    (["--graph-fields", "user", "--graph-pairs", "user:item"], "outside the graph's fields"),
    (["--graph-fields", "user,item,user"], "names a field twice"),
    (["--graph-pairs", ","], "pair list is empty"),
])
def test_bad_graph_field_lists_fail_cleanly(workspace, capsys, command, flags, fragment):
    tmp_path, data, fmap, _ = workspace
    out = tmp_path / "graph.txt"
    rc = main([command, "--data", str(data), "--field-map", str(fmap), *flags,
               *(["--out", str(out)] if command == "build-graph" else
                 ["--layers", "1", "--model", str(tmp_path / "model.bin")])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("flags,layers,message", [
    (["--layers", "0", "--graph-pairs", "user:bogus"], 0,
     "ignoring --graph-pairs: --layers 0 trains plain FM"),
    (["--layers", "1", "--graph", "EDGELESS", "--graph-pairs", "user:bogus"], 1,
     "ignoring --graph-pairs: the graph is read from --graph"),
    (["--layers", "0", "--sampling-ratio", "0.3", "--activation", "relu"], 0,
     "ignoring --sampling-ratio, --activation: --layers 0 trains plain FM"),
    # a config file cannot unset a key, so --layers 0 over it still trains FM
    (["--config", "GEM_CONFIG", "--layers", "0"], 0,
     "ignoring --graph-fields, --sampling-ratio: --layers 0 trains plain FM"),
])
def test_ignored_training_options_are_named(workspace, capsys, flags, layers, message):
    tmp_path, data, fmap, _ = workspace
    edgeless, config = tmp_path / "edgeless.txt", tmp_path / "gem.cfg"
    FeatureGraph(9, np.zeros((0, 2), dtype=np.int64)).save(edgeless)
    config.write_text("layers = 1\ngraph-fields = user,item\nsampling-ratio = 0.5\n")
    paths = {"EDGELESS": str(edgeless), "GEM_CONFIG": str(config)}
    rc = main(_train_args(data, fmap, tmp_path, *(paths.get(f, f) for f in flags)))
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: " + message) and err.count("\n") == 1
    assert ModelParams.load(tmp_path / "model.bin").num_layers == layers


@pytest.mark.parametrize("flags, messages", [
    (["--ratios", "0.5,0.25,0.25"], ["ignoring --ratios: the data is pre-split"]),
    (["--ratios", "0.5,0.25,0.25", "--activation", "relu"],
     ["ignoring --ratios: the data is pre-split",
      "ignoring --activation: --layers 0 trains plain FM, without a graph"]),
])
def test_ratios_are_named_when_the_data_is_presplit(workspace, capsys, flags, messages):
    tmp_path, _, fmap, instances = workspace
    assert main(_train_args(_presplit(tmp_path, instances), fmap, tmp_path, *flags)) == 0
    assert capsys.readouterr().err == "".join(f"warning: {m}\n" for m in messages)


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_scoring_names_a_graph_the_model_does_not_read(workspace, capsys, command):
    # the graph file is never opened: it need not exist
    tmp_path, data, _, _ = workspace
    model, out = tmp_path / "fm.bin", tmp_path / "preds.txt"
    ModelParams.initialize(9, 3, num_layers=0, seed=5).save(model)
    args = [command, "--data", str(data), "--model", str(model)]
    args += ["--out", str(out)] if command == "predict" else []
    assert main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main([*args, "--graph", str(tmp_path / "missing" / "graph.txt")]) == 0
    assert capsys.readouterr() == (
        plain.out, "warning: ignoring --graph: the model has no convolution layers\n")


@pytest.mark.parametrize("text,fragment", [
    ("user\t0\t4\nitem\t4\t6\nitem\t6\t9\n", "field 'item' is named twice"),
    ("user\t0\tx\n", "field map line 1: non-integer bound"),
])
def test_bad_field_maps_name_their_file(workspace, capsys, text, fragment):
    # a repeated field used to load, and --graph-fields item took its first range
    tmp_path, data, _, _ = workspace
    fmap = tmp_path / "bad-fields.tsv"
    fmap.write_text(text)
    out = tmp_path / "graph.txt"
    rc = main(["build-graph", "--data", str(data), "--field-map", str(fmap),
               "--graph-fields", "item", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fmap}: {fragment}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("presplit", [False, True])
def test_label_only_training_rows_fail_cleanly(workspace, capsys, presplit):
    tmp_path, data, fmap, _ = workspace
    bad = tmp_path / "bad.libfm"
    bad.write_text(data.read_text() + "1.5\n" * 20)
    source = (["--train", str(bad), "--val", str(data), "--test", str(data)] if presplit
              else ["--data", str(bad)])
    rc = main(["train", *source, "--field-map", str(fmap), "--dim", "2", "--layers", "0",
               "--model", str(tmp_path / "model.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: training instances must have at least one active feature\n"
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("command,flag", [
    ("build-graph", "--seed"), ("evaluate", "--seed"), ("predict", "--seed"),
    ("evaluate", "--field-map"), ("predict", "--field-map"),
])
def test_commands_take_only_the_flags_they_read(workspace, capsys, command, flag):
    tmp_path, data, fmap, _ = workspace
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(data), flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags,fragment", [
    (["--ratios", "0.8,0.1,0.2"], "sum to 1"),
    (["--ratios", "nan,0.5,0.5"], "finite"),      # used to fail in math.floor
    (["--ratios", "0.5,0.5"], "three"),
    (["--ratios", "0.8,x,0.1"], "'x'"),
    (["--learning-rate", "nan"], "learning_rate"),
    (["--learning-rate", "inf"], "learning_rate"),
    (["--l2-lambda", "nan"], "l2_lambda"),
    (["--dim", "0"], "dim must be >= 1"),          # checked as the options resolve
])
def test_bad_ratios_and_rates_fail_cleanly(workspace, capsys, flags, fragment):
    tmp_path, data, fmap, _ = workspace
    rc = main(_train_args(data, fmap, tmp_path, *flags))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and err.count("\n") == 1
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("key", ["batch_size", "max_epochs", "patience"])
def test_bad_loop_sizes_fail_before_any_file_is_read(workspace, capsys, key):
    # the message names the one bad field, not a missing data file
    tmp_path, _, fmap, _ = workspace
    rc = main(["train", "--data", str(tmp_path / "missing.libfm"), "--field-map", str(fmap),
               "--" + key.replace("_", "-"), "0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {key} must be >= 1, got 0\n"


@pytest.mark.parametrize("presplit", [False, True])
def test_too_few_rows_to_train_fail_cleanly(workspace, capsys, presplit):
    # 3 rows at 0.8,0.1,0.1 leave the validation part empty, and so does an
    # empty --val file; unlike train()'s own check, the message gives each part's size
    tmp_path, data, fmap, instances = workspace
    if presplit:
        (tmp_path / "empty.libfm").write_text("# no rows\n")
        source = ["--train", str(data), "--val", str(tmp_path / "empty.libfm"),
                  "--test", str(data)]
        sizes = "80 train, 0 validation and 80 test rows"
    else:
        save_libfm(instances.row_range(0, 3), tmp_path / "three.libfm")
        source = ["--data", str(tmp_path / "three.libfm")]
        sizes = "3 train, 0 validation and 0 test rows"
    rc = main(["train", *source, "--field-map", str(fmap), "--dim", "2", "--layers", "0",
               "--model", str(tmp_path / "model.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and sizes in err and err.count("\n") == 1
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_a_graph_one_node_short_fails_cleanly(workspace, capsys, command):
    # the node count is checked against the model's features before any
    # per-node work, so a count too large to allocate fails as cleanly
    tmp_path, data, fmap, _ = workspace
    short = tmp_path / "short.txt"
    model, out = tmp_path / "model.bin", tmp_path / "preds.txt"
    for nodes in (8, 999999999999999999):
        FeatureGraph(nodes, np.array([[0, 4]])).save(short)
        if command == "train":
            args = _train_args(data, fmap, tmp_path, "--layers", "1", "--graph", str(short))
        else:
            ModelParams.initialize(9, 3, num_layers=1).save(model)
            args = [command, "--data", str(data), "--model", str(model), "--graph", str(short)]
            args += ["--out", str(out)] if command == "predict" else []
        assert main(args) == 1
        assert capsys.readouterr().err == \
            f"error: adjacency over {nodes} nodes does not match 9 features\n"
        assert model.exists() == (command != "train") and not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_scoring_an_empty_file_fails_cleanly(workspace, capsys, command, text):
    tmp_path, data, fmap, _ = workspace
    main(_train_args(data, fmap, tmp_path))
    capsys.readouterr()
    empty = tmp_path / "empty.libfm"
    empty.write_text(text)
    out = tmp_path / "preds.txt"
    extra = ["--out", str(out)] if command == "predict" else []
    rc = main([command, "--data", str(empty), "--model", str(tmp_path / "model.bin"), *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {empty}: no instances\n"
    assert not out.exists()


_CONFIG_KEYS = ["optimizer", "learning-rate", "learning_rate", "l2_lambda", "dropout",
                "batch-size", "max_epochs", "patience", "sampling_ratio", "metric",
                "seed", "dim", "layers", ""]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["adam", "adagrad", "rmse", "mae", "0", "1", "-1", "0.5", "1e999",
                     "nan", "inf", "-inf", "1_0", "\u0663", "\u00b2", "9" * 5000, ""]),
    st.text(alphabet="0123456789.-+e_n#=\u0663 ", max_size=8))
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES).map(" = ".join),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12))


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.conf"


@given(st.lists(_CONFIG_LINE, max_size=6).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_config_file_to_train_config_fuzz(config_file, text):
    # read and converted as cmd_train does: it may only work or raise a GemfmError
    config_file.write_text(text, encoding="utf-8")
    try:
        given = vars(build_parser().parse_args(["train", "--config", str(config_file)]))
        del given["func"]
        _train_config(_settings(given))
    except GemfmError:
        pass


@pytest.mark.parametrize("command, error", [
    ("build-graph", "missing required option 'out'"),
    ("train", "layers >= 1 needs --graph or --graph-fields/--graph-pairs"),
    ("predict", "missing required option 'out'"),
    ("evaluate", "missing required option 'data'"),
])
def test_a_missing_option_is_reported_before_any_file_is_read(workspace, capsys, command, error):
    # every file named but the field map is missing, and so is one option
    tmp_path, _, fmap, _ = workspace
    missing = str(tmp_path / "missing")
    given = {"build-graph": ["--data", missing, "--field-map", str(fmap)],
             "train": ["--data", missing, "--field-map", str(fmap), "--layers", "1"],
             "predict": ["--data", missing, "--model", missing],
             "evaluate": ["--model", missing]}
    assert main([command, *given[command]]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


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


@pytest.mark.parametrize("corrupt", ["data", "field_map", "graph", "config"])
def test_non_utf8_input_files_fail_cleanly(workspace, capsys, corrupt):
    tmp_path, data, fmap, _ = workspace
    graph = tmp_path / "graph.txt"
    FeatureGraph(9, np.array([[0, 4]])).save(graph)
    config = tmp_path / "run.conf"
    config.write_text("dim = 2\nmax-epochs = 1\n")
    files = {"data": data, "field_map": fmap, "graph": graph, "config": config}
    bad = files[corrupt]
    bad.write_bytes(bad.read_bytes() + b"# caf\xe9\n")
    rc = main(["train", "--data", str(data), "--field-map", str(fmap),
               "--graph", str(graph), "--config", str(config), "--layers", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad.name in err


def test_no_subcommand_prints_help_to_stderr(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: gemfm")
    # pyproject's pythonpath reaches pytest's own process, not a child's
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gemfm.cli"],
                          env=env, capture_output=True, text=True)
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


# -- predict and evaluate read and score a file a chunk at a time ------------

def _served(tmp_path):
    """A GEM L=1 checkpoint and its graph file over the workspace's 9 features."""
    model, graph = tmp_path / "gem.bin", tmp_path / "gem-graph.txt"
    ModelParams.initialize(9, 3, num_layers=1, seed=5).save(model)
    FeatureGraph(9, np.array([[0, 4], [0, 8], [1, 5], [2, 6], [3, 7], [4, 5]])).save(graph)
    return model, graph


def _scoring_args(command, data, model, graph, out):
    args = [command, "--data", str(data), "--model", str(model), "--graph", str(graph)]
    return args + ["--out", str(out)] if command == "predict" else args


def _one_call(data, model, graph):
    """The rows of ``data`` and their scores from one in-memory call."""
    rows = load_libfm(data)
    params = ModelParams.load(model)
    return rows, params, predict_batch(rows, params, normalize(FeatureGraph.load(graph)))


@pytest.mark.parametrize("chunk_chars, block", [(40, 3), (64, 8), (200, 16), (1 << 18, 8192)])
def test_streamed_predict_and_evaluate_match_one_call(workspace, capsys, monkeypatch,
                                                      chunk_chars, block):
    tmp_path, saved, _, _ = workspace
    # comments, blank lines, CRLF, a non-ASCII comment and a 40-character
    # value: only the value sends its chunk to the line-by-line parser
    lines = saved.read_text().splitlines()
    lines[3] += " # café"
    lines[30] = lines[30].replace(":1.0", ":1." + "0" * 38, 1)
    lines[50:50] = ["# a comment line", "", "   "]
    data = tmp_path / "mixed.libfm"
    data.write_bytes(("# header\r\n" + "\r\n".join(lines[:40]) + "\r\n"
                      + "\n".join(lines[40:]) + "\n").encode("utf-8"))
    model, graph = _served(tmp_path)
    rows, params, expected = _one_call(data, model, graph)
    assert len(rows) == 80
    report = _report(expected, rows.labels, params)

    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", chunk_chars)
    monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", block)
    out = tmp_path / "preds.txt"
    assert main(_scoring_args("predict", data, model, graph, out)) == 0
    assert out.read_text() == "".join(f"{v!r}\n" for v in expected.tolist())
    assert main(_scoring_args("evaluate", data, model, graph, out)) == 0
    assert capsys.readouterr().out == f"wrote 80 predictions to {out}\n{report}\n"


# line index: what is appended to it
_FAULTS = {"first": {0: " x:2"}, "middle": {1500: " x:2"}, "last": {2999: " x:2"},
           "undecodable": {2900: " # caf\udce9"},
           # the bad entry's chunk is read before the undecodable byte's, so
           # the entry is reported, numbered from its own line
           "both": {1899: " x:2", 2299: " # caf\udce9"}}


def _faulty_file(path, fault):
    """3,000 rows over 9 features, 12 bytes a line, with the faults of
    _FAULTS[fault]; a byte that is not UTF-8 lies past the decoder's first
    8 kB."""
    lines = [f"{k % 2} {k % 4}:1 {4 + k % 5}:0.5" for k in range(3000)]
    for at, tail in _FAULTS[fault].items():
        lines[at] += tail
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_fault_in_any_chunk_leaves_no_output(tmp_path, capsys, monkeypatch, fault,
                                               existing):
    data = tmp_path / "data.libfm"
    _faulty_file(data, fault)
    with pytest.raises(DataFormatError) as raised:
        load_libfm(data)
    model, graph = _served(tmp_path)
    out = tmp_path / "preds.txt"
    if existing:
        out.write_bytes(b"earlier predictions\n")
    before = sorted(tmp_path.iterdir())
    # chunks of about 340 rows, each scored as it is read (predict_batch
    # in blocks of 100): chunks are scored before a fault in a later one is met
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 4096)
    monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", 100)
    for command in ("predict", "evaluate"):
        assert main(_scoring_args(command, data, model, graph, out)) == 1
        assert capsys.readouterr() == ("", f"error: {raised.value}\n")
        assert sorted(tmp_path.iterdir()) == before
    assert out.exists() == existing
    assert not existing or out.read_bytes() == b"earlier predictions\n"


def test_an_index_past_the_model_is_reported_from_the_first_block_holding_one(
        tmp_path, capsys, monkeypatch):
    # rows meet the model a chunk at a time, in file order: the first chunk
    # with an index past it is reported, naming that chunk's largest index,
    # before a larger index or a faulty line further on is read
    data = tmp_path / "data.libfm"
    lines = [f"{k % 2} {k % 4}:1 {4 + k % 5}:0.5" for k in range(3000)]
    for at, tail in {150: " 11:1", 160: " 10:1", 1500: " 12:1", 2999: " x:2"}.items():
        lines[at] += tail
    data.write_text("\n".join(lines) + "\n")
    model, graph = _served(tmp_path)
    out = tmp_path / "preds.txt"
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 4096)
    monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", 100)
    for command in ("predict", "evaluate"):
        assert main(_scoring_args(command, data, model, graph, out)) == 1
        assert capsys.readouterr() == ("", "error: feature index 11 outside [0, 9)\n")
        assert sorted(tmp_path.iterdir()) == before


def test_each_chunk_read_is_scored_by_one_call(workspace, capsys, monkeypatch):
    tmp_path, _, _, _ = workspace
    data = tmp_path / "data.libfm"
    lines = [f"{k % 2} {k % 4}:1 {4 + k % 5}:0.5" for k in range(3000)]
    # the first chunk holds comments alone, and no rows to score
    data.write_text("# note\n" * 700 + "\n".join(lines) + "\n")
    model, graph = _served(tmp_path)
    expected = _one_call(data, model, graph)[2]
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 4096)
    read, score = gemfm.cli.read_libfm, gemfm.cli.predict_batch
    chunks, scored = [], []
    monkeypatch.setattr("gemfm.cli.read_libfm",
                        lambda path: (chunks.append(len(p)) or p for p in read(path)))
    monkeypatch.setattr("gemfm.cli.predict_batch",
                        lambda part, *rest: scored.append(len(part)) or score(part, *rest))
    monkeypatch.setattr(PackedInstances, "__add__", None)    # rows are not copied into a carry
    out = tmp_path / "preds.txt"
    for command in ("predict", "evaluate"):
        chunks.clear()
        scored.clear()
        assert main(_scoring_args(command, data, model, graph, out)) == 0
        assert chunks[0] == 0 and len(chunks) > 5
        assert scored == chunks[1:]
    assert out.read_text() == "".join(f"{v!r}\n" for v in expected.tolist())


def test_predictions_get_the_mode_open_gives(workspace, capsys):
    tmp_path, data, _, _ = workspace
    model, graph = _served(tmp_path)
    old = os.umask(0o027)
    try:
        with open(tmp_path / "reference.txt", "w"):
            pass
        assert main(_scoring_args("predict", data, model, graph, tmp_path / "preds.txt")) == 0
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "preds.txt").st_mode
    assert mode == os.stat(tmp_path / "reference.txt").st_mode
    assert stat.S_IMODE(mode) == 0o640
    # an existing --out is written in place: it keeps its stricter mode
    os.chmod(tmp_path / "preds.txt", 0o600)
    assert main(_scoring_args("predict", data, model, graph, tmp_path / "preds.txt")) == 0
    assert stat.S_IMODE(os.stat(tmp_path / "preds.txt").st_mode) == 0o600


def test_an_unwritable_out_is_named_in_the_error(workspace, capsys):
    tmp_path, data, _, _ = workspace
    model, graph = _served(tmp_path)
    for out in (tmp_path / "missing" / "preds.txt", tmp_path):
        with pytest.raises(OSError) as refused:
            open(out, "w")
        before = sorted(tmp_path.iterdir())
        assert main(_scoring_args("predict", data, model, graph, out)) == 1
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")
        assert sorted(tmp_path.iterdir()) == before


def test_predictions_go_through_a_symlink_and_into_a_pipe(workspace, capsys):
    tmp_path, data, _, instances = workspace
    model, graph = _served(tmp_path)
    expected = "".join(f"{v!r}\n" for v in _one_call(data, model, graph)[2].tolist())
    (tmp_path / "elsewhere").mkdir()
    link = tmp_path / "link.txt"
    link.symlink_to(tmp_path / "elsewhere" / "preds.txt")
    assert main(_scoring_args("predict", data, model, graph, link)) == 0
    assert link.is_symlink() and link.read_text() == expected

    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_text()), daemon=True)
    reader.start()
    assert main(_scoring_args("predict", data, model, graph, pipe)) == 0
    reader.join(timeout=60)
    assert not reader.is_alive() and read == [expected]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def _peak_kb_of_predict(tmp_path, rows, model, graph) -> int:
    """VmHWM, the resident high-water mark, of a child process that runs
    `gemfm predict` over ``rows``. Unlike getrusage's ru_maxrss, it starts
    afresh at exec, so the forking process's own peak does not show."""
    data = tmp_path / f"{len(rows)}.libfm"
    save_libfm(rows, data)
    code = ("import sys\nfrom gemfm.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(next(line for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')).split()[1])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code,
                           *_scoring_args("predict", data, model, graph, tmp_path / "out.txt")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_predict_memory_does_not_grow_with_the_file(tmp_path):
    bench = click_benchmark(ClickDataConfig(seed=3))
    rows = bench.train + bench.validation + bench.test
    model, graph = tmp_path / "model.bin", tmp_path / "graph.txt"
    ModelParams.initialize(bench.space.num_features, 16, num_layers=1).save(model)
    build_graph(bench.train_positives, bench.space, included_fields=("user", "item")).save(graph)
    small = _peak_kb_of_predict(tmp_path, rows.take(np.arange(20_000)), model, graph)
    large = _peak_kb_of_predict(tmp_path, rows.take(np.arange(80_000)), model, graph)
    assert large - small < 5 * 1024, (small, large)
