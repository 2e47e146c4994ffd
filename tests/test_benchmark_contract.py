"""The benchmark's tracer and clock patch gemfm names by string: each must
still resolve, and be looked up where the benchmark expects, or a traced
run breaks or its in-call clock calibration silently stops."""

import importlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gemfm import (FeatureSpace, PackedInstances, TrainConfig, build_graph, load_libfm,
                   normalize, predict_batch, save_libfm)
from gemfm.datagen import ClickDataConfig, click_benchmark
from oracles import packed_equal, packed_rows

TINY = ClickDataConfig(num_users=20, num_items=16, num_countries=3, num_cities=6,
                       num_clusters=2, num_transactions=200, seed=1)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("bench_trace"), importlib.import_module("bench_clock")
    finally:
        sys.path.remove(str(BENCHMARKS))


class _CountingKernel:
    """Stands in for a reference kernel; Ticks keeps one reading per tick."""

    def tick(self) -> float:
        return 0.0


def _data(seed, n):
    rng = np.random.default_rng(seed)
    return packed_rows((float(rng.normal()),
                        ((int(rng.integers(0, 5)), 1.0), (5 + int(rng.integers(0, 6)), 1.0)))
                       for _ in range(n))


def test_traced_names_resolve_and_count_one_l1_epoch(bench, tmp_path, monkeypatch):
    bench_trace, bench_clock = bench
    space = FeatureSpace.from_cardinalities(["u", "i"], [5, 6])
    train_set, val_set = _data(0, 100), _data(1, 30)
    graph = build_graph(train_set, space)
    config = TrainConfig(batch_size=32, max_epochs=1, patience=1, dropout_ratio=0.2)
    steps = 4   # ceil(100 / 32)

    # called through its module, as the benchmark does, so the tracer sees it
    gm_train = importlib.import_module("gemfm.train")
    tracer = bench_trace.Tracer()
    with tracer, bench_clock.Ticks(_CountingKernel(), "gemfm.train", "optimizer_step") as ticks:
        params, _ = gm_train.train(train_set, val_set, space, config, dim=3, num_layers=1,
                                   graph=graph)
    counts = tracer.counts()
    # a step's window runs from its data.take to the next optimizer_step's close; train
    # takes step k + 1's rows before step k's update, so each window ends one update
    # early and the epoch's last step, whose rows come first, has none
    assert counts["train.unique_calls_per_step"] == [0] * (steps - 1)
    assert len(counts["train.touched_rows"]) == steps - 1
    batch_designs = [s for s in tracer.spans if s.name == "model.batch_design"]
    assert len(counts["model.batch_nodes"]) == len(batch_designs) == steps + 1  # + validation
    assert counts["model.frontier_l1_nodes"]
    assert len(ticks.ticks) == steps

    norm = normalize(graph)
    monkeypatch.setattr("gemfm.model._PREDICT_CHUNK", 8)
    with bench_clock.Ticks(_CountingKernel(), "gemfm.model", "scores_from_design") as ticks:
        predict_batch(val_set, params, norm)
    assert len(ticks.ticks) == 4   # one per chunk: ceil(30 / 8)

    path = tmp_path / "val.libfm"
    save_libfm(val_set, path)
    # load_libfm calls parse_libfm_line only to re-read a chunk that fails a
    # bulk check: a valid file gets no tick inside the call, commented or not
    with bench_clock.Ticks(_CountingKernel(), "gemfm.data", "parse_libfm_line") as ticks:
        load_libfm(path)
    assert ticks.ticks == []
    commented = tmp_path / "commented.libfm"
    commented.write_text("# validation rows\n" + path.read_text())
    with bench_clock.Ticks(_CountingKernel(), "gemfm.data", "parse_libfm_line") as ticks:
        load_libfm(commented)
    assert ticks.ticks == []


def test_traced_sampled_runs_count_alike_and_trace_on_one_thread_at_a_time(bench, monkeypatch):
    # the next step's take and design run on the worker thread while this step's
    # backward runs: the tracer keeps one span stack, so no traced call of the
    # calling thread may be open meanwhile, and two runs must count alike
    bench_trace, _ = bench
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)
    space = FeatureSpace.from_cardinalities(["u", "i"], [5, 6])
    train_set, val_set = _data(0, 100), _data(1, 30)
    graph = build_graph(train_set, space)
    config = TrainConfig(batch_size=32, max_epochs=2, patience=2, dropout_ratio=0.2,
                         sampling_ratio=0.5)
    gm_train = importlib.import_module("gemfm.train")
    main = threading.get_ident()
    runs = []
    for _ in range(2):
        tracer = bench_trace.Tracer()

        def opened(name, tracer=tracer, open_span=tracer._open):
            span = open_span(name)
            span.info["thread"] = threading.get_ident()
            return span

        monkeypatch.setattr(tracer, "_open", opened)
        with tracer:
            gm_train.train(train_set, val_set, space, config, dim=3, num_layers=2,
                           activation="relu", graph=graph)
        ahead = [s for s in tracer.spans if s.info["thread"] != main]
        assert {s.name for s in ahead} == {"data.take", "model.batch_design"}
        for span in ahead:
            assert [s.name for s in tracer.spans if s.info["thread"] == main
                    and s.name != "train.train" and s.start < span.end and span.start < s.end] == []
        runs.append(tracer.counts())
    assert runs[0] == runs[1]
    assert len(runs[0]["train.touched_rows"]) == 2 * 3   # 2 epochs of 4 steps, one each unseen
    assert len(runs[0]["graph.sampled_edges"]) == 2


def test_setup_calls_work_on_a_tiny_config(bench, tmp_path):
    # what the workloads' set-up does with click_benchmark's parts
    bench_workloads = importlib.import_module("bench_workloads")
    data = click_benchmark(TINY)
    m = data.space.num_features
    rows = data.train + data.validation + data.test
    assert len(rows) == len(data.train) + len(data.validation) + len(data.test)
    assert packed_equal(rows.take(np.arange(len(data.train))), data.train)
    assert PackedInstances.from_instances(rows, m) is rows
    path = tmp_path / "rows.libfm"
    save_libfm(rows, path)
    assert packed_equal(load_libfm(path), rows)
    graph = build_graph(data.train_positives, data.space,
                        included_fields=bench_workloads.GRAPH_FIELDS)
    assert graph.num_edges

    # and a training workload's own set-up and export, at this size
    workload = bench_workloads.TrainingWorkload(
        {k: v for k, v in vars(TINY).items() if k != "seed"}, 1, "adam", 0.002, 0.4, 1.0,
        epochs=1)
    fx = workload.setup(TINY.seed, tmp_path, lambda: None)
    assert packed_equal(fx.train, data.train) and packed_equal(fx.scored, data.test)
    np.testing.assert_array_equal(fx.graph.edges, graph.edges)
    workload.export(fx)
    assert packed_equal(load_libfm(fx.paths.data), data.test)


def test_committed_bench_files_name_their_run_and_hold_every_gated_metric():
    # BENCH_<sha>.json at the repo root is what benchmarks/spread.py --out writes
    spec = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    files = sorted(BENCHMARKS.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        env = bench["env"]
        assert env["git_sha"].startswith(path.stem[len("BENCH_"):]), path.name
        assert env["cores"] >= 1 and env["numpy"] and env["scipy"]
        assert set(env["blas_threads"].values()) == {"1"}, path.name
        assert bench["workloads"] and set(bench["workloads"]) <= workloads, path.name
        for workload, metrics in bench["workloads"].items():
            for metric in spec["end_to_end"]:
                entry = metrics[metric["name"]]
                assert len(entry["values"]) == len(bench["seeds"]), (path.name, workload)
                assert entry["q1"] <= entry["median"] <= entry["q3"], (path.name, workload)
