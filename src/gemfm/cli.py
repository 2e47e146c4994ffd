"""Command-line entry points: build-graph, train, evaluate, predict.

Every option is declared once, in ``_OPTIONS``: its type, allowed values,
default and help. That entry makes the ``--flag`` of each command that
reads it and converts and checks the same key in a ``key=value`` config
file (# comments allowed). Options resolve in three layers: the defaults,
then the config file, then explicit flags. Exit status is 0 only on
success; errors print to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

import numpy as np

from . import model
from .data import (DatasetSplit, _no_rows, content_lines, load_field_map, load_libfm,
                   read_libfm, split_dataset)
from .errors import ConfigError, DataFormatError, GemfmError, check
from .graph import FeatureGraph, build_graph, normalize
from .metrics import count_params, format_report, metric_report
from .model import ACTIVATIONS, ModelParams, predict_batch
from .seeding import derive_seed
from .train import OPTIMIZERS, STOPPING_METRICS, TrainConfig, train


def _field_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _pair_list(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in _field_list(text):
        left, sep, right = chunk.partition(":")
        if not sep or not left.strip() or not right.strip():
            raise argparse.ArgumentTypeError(f"graph pair {chunk!r} must look like fieldA:fieldB")
        pairs.append((left.strip(), right.strip()))
    return pairs


_TRAIN = TrainConfig()
# option keys that name a TrainConfig field differently
_TRAIN_FIELDS = {"dropout": "dropout_ratio", "metric": "metric_for_stopping"}

# key: (type, allowed values, default, help); the flag is --key, with - for _
_OPTIONS = {
    "data": (str, None, None, "libFM data file"),
    "field_map": (str, None, None, "field map: name, start, end per line"),
    "graph_fields": (_field_list, None, None, "comma-separated fields the graph links"),
    "graph_pairs": (_pair_list, None, None,
                    "comma-separated fieldA:fieldB pairs; the graph links only these"),
    "out": (str, None, None, "output path"),
    "ratios": (str, None, "0.8,0.1,0.1", "train,val,test fractions of --data"),
    "train": (str, None, None, "pre-split train file"),
    "val": (str, None, None, "pre-split validation file"),
    "test": (str, None, None, "pre-split test file"),
    "dim": (int, None, 64, "embedding size"),
    "layers": (int, None, 1, "graph convolution layers, 0 for plain FM"),
    "activation": (str, ACTIVATIONS, "identity", "activation of each layer"),
    "graph": (str, None, None, "edge-list file"),
    "optimizer": (str, OPTIMIZERS, _TRAIN.optimizer, "optimizer"),
    "learning_rate": (float, None, _TRAIN.learning_rate, "step size"),
    "l2_lambda": (float, None, _TRAIN.l2_lambda, "weight of the squared-norm penalty"),
    "dropout": (float, None, _TRAIN.dropout_ratio, "dropout ratio of the embedding rows"),
    "batch_size": (int, None, _TRAIN.batch_size, "rows per step"),
    "max_epochs": (int, None, _TRAIN.max_epochs, "epoch limit"),
    "patience": (int, None, _TRAIN.patience, "epochs without improvement before stopping"),
    "sampling_ratio": (float, None, _TRAIN.sampling_ratio, "neighbours kept per epoch"),
    "metric": (str, STOPPING_METRICS, _TRAIN.metric_for_stopping, "early-stopping metric"),
    "seed": (int, None, _TRAIN.seed, "run seed"),
    "model": (str, None, None, "checkpoint path"),
    "report": (str, None, None, "run report output path"),
    "clip": (str, ("0", "1"), "0", "clip predictions to [0, 1]"),
}


def _read_config_file(path) -> dict:
    """The typed values of a key=value file, checked as their flags are."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, body in content_lines(lines):
        key, sep, value = body.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {body!r}")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        kind, choices = _OPTIONS[key][:2]
        try:
            out[key] = kind(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"{path}:{lineno}: invalid {key} value {value!r}") from None
        if choices and out[key] not in choices:
            raise ConfigError(f"{path}:{lineno}: invalid {key} value {value!r} "
                              f"(choose from {', '.join(choices)})")
    return out


def _settings(given: dict) -> argparse.Namespace:
    """Defaults < config file < the flags in ``given``."""
    settings = {key: entry[2] for key, entry in _OPTIONS.items()}
    if "config" in given:
        settings.update(_read_config_file(given.pop("config")))
    settings.update(given)
    for key, least in (("dim", 1), ("layers", 0)):    # checked before any data is read
        check(f"--{key}", settings[key], int, least)
    return argparse.Namespace(**settings)


def _require(opts, key):
    value = getattr(opts, key)
    if not value:
        raise ConfigError(f"missing required option {key!r}")
    return value


def _load_space(opts):
    path = _require(opts, "field_map")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_field_map(fh.read())
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def cmd_build_graph(opts) -> int:
    space = _load_space(opts)
    graph = build_graph(load_libfm(_require(opts, "data")), space, opts.graph_fields,
                        opts.graph_pairs)
    graph.save(_require(opts, "out"))
    deg = graph.degrees()
    print(f"nodes {graph.num_nodes}")
    print(f"edges {graph.num_edges}")
    print("degree histogram (bucket: count)")
    for label, count in _degree_histogram(deg):
        print(f"  {label}: {count}")
    return 0


def _degree_histogram(deg: np.ndarray) -> list[tuple[str, int]]:
    buckets = [(0, 0), (1, 1), (2, 2), (3, 4), (5, 8), (9, 16), (17, 32),
               (33, 64), (65, 128), (129, 256), (257, 1 << 62)]
    out = []
    for lo, hi in buckets:
        count = int(np.sum((deg >= lo) & (deg <= hi)))
        if count:
            label = str(lo) if lo == hi else (f"{lo}+" if hi >= 1 << 61 else f"{lo}-{hi}")
            out.append((label, count))
    return out


def _resolve_splits(opts) -> DatasetSplit:
    presplit = [opts.train, opts.val, opts.test]
    single = opts.data
    if any(presplit) and single:
        raise ConfigError("give either --data with --ratios or --train/--val/--test, not both")
    if any(presplit):
        if not all(presplit):
            raise ConfigError("pre-split input needs all of --train, --val, --test")
        return DatasetSplit(load_libfm(presplit[0]), load_libfm(presplit[1]),
                            load_libfm(presplit[2]))
    if not single:
        raise ConfigError("no input data: give --data or --train/--val/--test")
    seed = derive_seed(opts.seed, "split")
    try:
        ratios = tuple(float(p) for p in opts.ratios.split(","))
        return split_dataset(load_libfm(single), ratios, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"cannot split {single} by ratios {opts.ratios!r}: {exc}") from None


def _train_config(opts) -> TrainConfig:
    values = {_TRAIN_FIELDS.get(key, key): value for key, value in vars(opts).items()}
    return TrainConfig(**{f.name: values[f.name] for f in dataclasses.fields(TrainConfig)})


def cmd_train(opts) -> int:
    train_config = _train_config(opts)    # refuses a bad value before any file is read
    space = _load_space(opts)
    split = _resolve_splits(opts)
    if not len(split.train) or not len(split.validation):
        raise ConfigError(
            f"training needs rows in both the train and the validation part, got "
            f"{len(split.train)} train, {len(split.validation)} validation and "
            f"{len(split.test)} test rows"
        )
    # a warning, not an error: a config file cannot unset a key
    unread = ("graph", "graph_fields", "graph_pairs", "sampling_ratio", "activation")
    if opts.layers:
        unread = ("graph_fields", "graph_pairs") if opts.graph else ()
    ignored = ["--" + key.replace("_", "-") for key in unread
               if getattr(opts, key) != _OPTIONS[key][2]]
    if ignored:
        warnings.warn(f"ignoring {', '.join(ignored)}: " + ("the graph is read from --graph"
                      if opts.layers else "--layers 0 trains plain FM, without a graph"))

    graph = None
    if opts.layers >= 1:
        if opts.graph:
            graph = FeatureGraph.load(opts.graph)
        elif opts.graph_fields is not None or opts.graph_pairs is not None:
            graph = build_graph(split.train, space, opts.graph_fields, opts.graph_pairs)
        else:
            raise ConfigError("layers >= 1 needs --graph or --graph-fields/--graph-pairs")

    norm = normalize(graph) if graph is not None else None
    params, report = train(split.train, split.validation, space, train_config,
                           dim=opts.dim, num_layers=opts.layers,
                           activation=opts.activation, graph=graph, norm=norm)
    if opts.model:
        params.save(opts.model)
    if opts.report:
        report.save(opts.report)

    for name, part in (("validation", split.validation), ("test", split.test)):
        if not part:
            continue
        preds = predict_batch(part, params, norm)
        rep = metric_report(preds, part.labels, count_params(params))
        print(f"{name} {format_report(rep)}")
    print(f"best_epoch {report.best_epoch}")
    return 0


def _load_model_and_graph(opts):
    params = ModelParams.load(_require(opts, "model"))
    norm = None
    if params.num_layers >= 1:
        norm = normalize(FeatureGraph.load(_require(opts, "graph")))
    return params, norm


def _scored_blocks(path, params, norm):
    """(labels, predictions) of a data file's rows, read a chunk at a time and
    scored in predict_batch's own blocks of _PREDICT_CHUNK rows, so the bits
    are those of one call over the file. A file with no rows is an error."""
    rows, size, scored = _no_rows(), model._PREDICT_CHUNK, 0
    for part in read_libfm(path):
        rows += part
        full = len(rows) - len(rows) % size
        if full:
            yield rows.labels[:full], predict_batch(rows.row_range(0, full), params, norm)
            rows, scored = rows.row_range(full, len(rows)), scored + full
    if len(rows):
        yield rows.labels, predict_batch(rows, params, norm)
    elif not scored:
        raise DataFormatError(f"{path}: no instances")


def cmd_evaluate(opts) -> int:
    params, norm = _load_model_and_graph(opts)
    labels, preds = map(np.concatenate,
                        zip(*_scored_blocks(_require(opts, "data"), params, norm)))
    rep = metric_report(preds, labels, count_params(params), clip_to_unit=opts.clip == "1")
    print(format_report(rep))
    return 0


def cmd_predict(opts) -> int:
    params, norm = _load_model_and_graph(opts)
    data, out, size = _require(opts, "data"), _require(opts, "out"), model._PREDICT_CHUNK
    # every row parses and scores before --out is opened, so a faulty file
    # writes nothing; of the rows, only their predictions are held
    preds = np.concatenate([p for _, p in _scored_blocks(data, params, norm)])
    with open(out, "w", encoding="utf-8") as fh:
        for lo in range(0, len(preds), size):
            fh.write("\n".join(map(repr, preds[lo:lo + size].tolist())) + "\n")
    print(f"wrote {len(preds)} predictions to {out}")
    return 0


# command: (function, help, the option keys it reads)
_COMMANDS = {
    "build-graph": (cmd_build_graph, "build and save a co-occurrence graph",
                    "data field_map graph_fields graph_pairs out"),
    "train": (cmd_train, "fit a model",
              "data ratios train val test field_map dim layers activation graph "
              "graph_fields graph_pairs optimizer learning_rate l2_lambda dropout "
              "batch_size max_epochs patience sampling_ratio metric seed model report"),
    "evaluate": (cmd_evaluate, "score a labeled file against a checkpoint",
                 "data model graph clip"),
    "predict": (cmd_predict, "write one prediction per input line", "data model graph out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemfm",
        description="Factorization machines with graph-convolved embeddings",
    )
    parser.set_defaults(func=None)
    subs = parser.add_subparsers()
    for name, (func, help_text, keys) in _COMMANDS.items():
        # only the flags typed appear in the namespace
        p = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value options file; flags override it")
        for key in keys.split():
            kind, choices, default, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, choices=choices,
                           help=text if default is None else f"{text} (default {default})")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    func = given.pop("func")
    if func is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            return func(_settings(given))
    except (GemfmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
