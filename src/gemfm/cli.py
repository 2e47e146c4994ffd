"""Command-line entry points: build-graph, train, evaluate, predict.

Options resolve in three layers: built-in defaults, then a ``key=value``
config file (# comments allowed), then explicit command-line flags. Exit
status is 0 only on success; errors print to stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .data import (DatasetSplit, PackedInstances, load_field_map, load_libfm,
                   split_dataset)
from .errors import ConfigError, DataFormatError, GemfmError
from .graph import FeatureGraph, build_graph, normalize
from .metrics import count_params, format_report, metric_report
from .model import ModelParams, predict_batch
from .seeding import derive_seed
from .train import TrainConfig, train


def _read_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {body!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_DEFAULTS = {
    "seed": "0",
    "ratios": "0.8,0.1,0.1",
    "graph_mode": "all_pairs",
    "dim": "64",
    "layers": "1",
    "activation": "identity",
    "optimizer": "adam",
    "learning_rate": "0.001",
    "l2_lambda": "0.0",
    "dropout": "0.0",
    "batch_size": "4096",
    "max_epochs": "100",
    "patience": "5",
    "sampling_ratio": "1.0",
    "metric": "rmse",
}


def _merge(args: argparse.Namespace) -> dict[str, str]:
    # defaults < config file < explicit flags (argparse defaults are SUPPRESS,
    # so only flags the user actually typed appear in the namespace)
    merged = dict(_DEFAULTS)
    explicit = {k: v for k, v in vars(args).items()
                if k not in ("command", "func") and v is not None}
    config_path = explicit.pop("config", None)
    if config_path:
        merged.update(_read_config_file(config_path))
    merged.update({k: str(v) for k, v in explicit.items()})
    return merged


def _get_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except (KeyError, ValueError):
        raise ConfigError(f"option {key!r} must be an integer, "
                          f"got {cfg.get(key)!r}") from None


def _get_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError):
        raise ConfigError(f"option {key!r} must be a number, "
                          f"got {cfg.get(key)!r}") from None


def _require(cfg, key) -> str:
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"missing required option {key!r}")
    return value


def _load_space(cfg):
    path = _require(cfg, "field_map")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return load_field_map(text)


def _parse_fields(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep or not left.strip() or not right.strip():
            raise ConfigError(f"graph pair {chunk!r} must look like fieldA:fieldB")
        pairs.append((left.strip(), right.strip()))
    return pairs


def _build_graph_from_cfg(cfg, instances, space) -> FeatureGraph:
    mode = cfg["graph_mode"]
    fields = _parse_fields(cfg["graph_fields"]) if cfg.get("graph_fields") else None
    pairs = _parse_pairs(cfg["graph_pairs"]) if cfg.get("graph_pairs") else None
    return build_graph(instances, space, mode, fields, pairs)


def _echo_warnings(caught) -> None:
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)


def cmd_build_graph(cfg) -> int:
    space = _load_space(cfg)
    instances = load_libfm(_require(cfg, "data"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = _build_graph_from_cfg(cfg, instances, space)
    _echo_warnings(caught)
    graph.save(_require(cfg, "out"))
    deg = graph.degrees()
    print(f"nodes {graph.num_nodes}")
    print(f"edges {graph.num_edges}")
    print("degree histogram (bucket: count)")
    edges_hist = _degree_histogram(deg)
    for label, count in edges_hist:
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


def _resolve_splits(cfg) -> DatasetSplit:
    presplit = [cfg.get("train"), cfg.get("val"), cfg.get("test")]
    single = cfg.get("data")
    if any(presplit) and single:
        raise ConfigError("give either --data with --ratios or --train/--val/--test, not both")
    if any(presplit):
        if not all(presplit):
            raise ConfigError("pre-split input needs all of --train, --val, --test")
        return DatasetSplit(load_libfm(presplit[0]), load_libfm(presplit[1]),
                            load_libfm(presplit[2]))
    if not single:
        raise ConfigError("no input data: give --data or --train/--val/--test")
    seed = derive_seed(_get_int(cfg, "seed"), "split")
    try:
        ratios = tuple(float(p) for p in cfg["ratios"].split(","))
        return split_dataset(load_libfm(single), ratios, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"cannot split {single} by ratios {cfg['ratios']!r}: {exc}") from None


def _train_config(cfg) -> TrainConfig:
    try:
        return TrainConfig(
            optimizer=cfg["optimizer"],
            learning_rate=_get_float(cfg, "learning_rate"),
            l2_lambda=_get_float(cfg, "l2_lambda"),
            dropout_ratio=_get_float(cfg, "dropout"),
            batch_size=_get_int(cfg, "batch_size"),
            max_epochs=_get_int(cfg, "max_epochs"),
            patience=_get_int(cfg, "patience"),
            sampling_ratio=_get_float(cfg, "sampling_ratio"),
            seed=_get_int(cfg, "seed"),
            metric_for_stopping=cfg["metric"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(cfg) -> int:
    space = _load_space(cfg)
    split = _resolve_splits(cfg)
    if not len(split.train) or not len(split.validation):
        raise ConfigError(
            f"training needs rows in both the train and the validation part, got "
            f"{len(split.train)} train, {len(split.validation)} validation and "
            f"{len(split.test)} test rows"
        )
    dim = _get_int(cfg, "dim")
    layers = _get_int(cfg, "layers")
    if dim < 1 or layers < 0:
        raise ConfigError("dim must be >= 1 and layers >= 0")
    train_config = _train_config(cfg)

    graph = None
    if layers >= 1:
        if cfg.get("graph"):
            graph = FeatureGraph.load(cfg["graph"])
            if graph.num_nodes != space.num_features:
                raise ConfigError(
                    f"graph has {graph.num_nodes} nodes but the field map "
                    f"describes {space.num_features} features"
                )
        elif cfg.get("graph_fields") or cfg.get("graph_pairs"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                graph = _build_graph_from_cfg(cfg, split.train, space)
            _echo_warnings(caught)
        else:
            raise ConfigError("layers >= 1 needs --graph or --graph-fields/--graph-pairs")

    params, report = train(split.train, split.validation, space, train_config,
                           dim=dim, num_layers=layers,
                           activation=cfg["activation"], graph=graph)
    if cfg.get("model"):
        params.save(cfg["model"])
    if cfg.get("report"):
        report.save(cfg["report"])

    norm = normalize(graph) if layers >= 1 else None
    for name, part in (("validation", split.validation), ("test", split.test)):
        if not part:
            continue
        preds = predict_batch(part, params, norm)
        rep = metric_report(preds, part.labels, count_params(params))
        print(f"{name} {format_report(rep)}")
    print(f"best_epoch {report.best_epoch}")
    return 0


def _load_model_and_graph(cfg):
    params = ModelParams.load(_require(cfg, "model"))
    norm = None
    if params.num_layers >= 1:
        graph = FeatureGraph.load(_require(cfg, "graph"))
        if graph.num_nodes != params.num_features:
            raise ConfigError(
                f"graph has {graph.num_nodes} nodes but the model expects "
                f"{params.num_features}"
            )
        norm = normalize(graph)
    return params, norm


def _scored_rows(path) -> PackedInstances:
    """The rows evaluate and predict score: a file with none is an error."""
    rows = load_libfm(path)
    if not len(rows):
        raise DataFormatError(f"{path}: no instances")
    return rows


def cmd_evaluate(cfg) -> int:
    params, norm = _load_model_and_graph(cfg)
    instances = _scored_rows(_require(cfg, "data"))
    preds = predict_batch(instances, params, norm)
    rep = metric_report(preds, instances.labels, count_params(params),
                        clip_to_unit=cfg.get("clip") == "1")
    print(format_report(rep))
    return 0


def cmd_predict(cfg) -> int:
    params, norm = _load_model_and_graph(cfg)
    # the packed rows are freed once scored, before the output text is built
    preds = predict_batch(_scored_rows(_require(cfg, "data")), params, norm)
    out = _require(cfg, "out")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, preds.tolist())) + "\n")
    print(f"wrote {len(preds)} predictions to {out}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value options file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--field-map", dest="field_map")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemfm",
        description="Factorization machines with graph-convolved embeddings",
    )
    parser.set_defaults(func=None)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("build-graph", help="build and save a co-occurrence graph",
                        argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--data", help="libFM transactions")
    p.add_argument("--graph-mode", dest="graph_mode", choices=["all_pairs", "pair_list"])
    p.add_argument("--graph-fields", dest="graph_fields",
                   help="comma-separated field names to include")
    p.add_argument("--graph-pairs", dest="graph_pairs",
                   help="comma-separated fieldA:fieldB pairs (pair_list mode)")
    p.add_argument("--out", help="edge-list output path")
    p.set_defaults(func=cmd_build_graph)

    p = subs.add_parser("train", help="fit a model", argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--data", help="single libFM file, split by --ratios")
    p.add_argument("--ratios", help="train,val,test fractions (default 0.8,0.1,0.1)")
    p.add_argument("--train", help="pre-split train file")
    p.add_argument("--val", help="pre-split validation file")
    p.add_argument("--test", help="pre-split test file")
    p.add_argument("--dim", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--activation", choices=["identity", "relu"])
    p.add_argument("--graph", help="prebuilt edge-list file")
    p.add_argument("--graph-mode", dest="graph_mode", choices=["all_pairs", "pair_list"])
    p.add_argument("--graph-fields", dest="graph_fields")
    p.add_argument("--graph-pairs", dest="graph_pairs")
    p.add_argument("--optimizer", choices=["adagrad", "adam"])
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--sampling-ratio", dest="sampling_ratio", type=float)
    p.add_argument("--metric", choices=["rmse", "mae"])
    p.add_argument("--model", help="checkpoint output path")
    p.add_argument("--report", help="run report output path")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="score a labeled file against a checkpoint",
                        argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--model")
    p.add_argument("--graph")
    p.add_argument("--clip", choices=["0", "1"], help="clip predictions to [0, 1]")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("predict", help="write one prediction per input line",
                        argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--model")
    p.add_argument("--graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(_merge(args))
    except GemfmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
