"""The four benchmark workloads: set-up, timed rounds and output checks.

Every call into gemfm goes through a module attribute looked up at call
time (``gm_train.train``, not a name imported once), so a ``Tracer``
installed around a call sees it. Every time reported is in reference
seconds (see ``bench_clock``): training epochs and in-memory scoring against
the array kernel, set-up and the CLI against the Python kernel. See
README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_clock import ArrayKernel, PythonKernel, ReferenceKernel, Ticks, bracketed
from bench_trace import Tracer, summarize

gm_cli = importlib.import_module("gemfm.cli")
gm_data = importlib.import_module("gemfm.data")
gm_datagen = importlib.import_module("gemfm.datagen")
gm_graph = importlib.import_module("gemfm.graph")
gm_metrics = importlib.import_module("gemfm.metrics")
gm_model = importlib.import_module("gemfm.model")
gm_seeding = importlib.import_module("gemfm.seeding")
gm_train = importlib.import_module("gemfm.train")

DIM = 64
BATCH_SIZE = 4096
L2_LAMBDA = 1e-4
GRAPH_FIELDS = ("user", "item")
SETUP_REPEATS = 3      # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 2         # timed rounds per run, at least, however long they take
PREDICT_REPEATS = 5    # in-memory predict_batch calls per round
LINES_PER_TICK = 2048  # libFM lines parsed between two reference-kernel runs


class Ledger:
    """Counts operations attempted and failed; a failed check is a failed op.
    Also holds the run's two reference kernels, which every timed call reads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.array = ArrayKernel()
        self.python = PythonKernel()

    def timed(self, fn, *args, **kwargs):
        """(seconds, result) of one call; a raise counts as a failure.

        The heap is collected first, so every call starts with the same
        garbage-collector state and pays only for the collections its own
        allocations trigger."""
        self.attempted += 1
        gc.collect()
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        return time.perf_counter() - started, result

    def timed_ref(self, kernel: ReferenceKernel, fn, *args,
                  inside: tuple[str, str, int] | None = None, **kwargs):
        """(reference seconds, result) of one call, with ``kernel`` run just
        before and just after it. With ``inside=(module, name, every)`` it
        also runs after every ``every``-th call of that name during the
        call, and its seconds there are taken out again."""
        ticks: list[float] = []
        with bracketed(kernel, ticks):
            if inside is None:
                seconds, result = self.timed(fn, *args, **kwargs)
            else:
                with Ticks(kernel, *inside) as within:
                    seconds, result = self.timed(fn, *args, **kwargs)
                seconds -= sum(within.ticks)
                ticks.extend(within.ticks)
        return kernel.to_reference(seconds, ticks), result

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


def rows_per_second(rows: int, seconds: list[float]) -> float:
    """Rows over the median seconds of one call."""
    return rows / float(np.median(seconds))


class SetupTimer:
    """Times one set-up in reference seconds of the Python kernel.
    ``phase()`` between the steps of a set-up runs the kernel there, so a
    set-up of a few seconds is measured against the machine's speed all
    along, not only at its two ends; the kernel's own seconds are taken out
    again."""

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self.ticks: list[float] = []

    def phase(self) -> None:
        self.ticks.append(self.kernel.tick())

    def run(self, ledger: Ledger, setup, *args):
        """(reference seconds, fixture) of ``setup(*args, self.phase)``."""
        self.ticks.clear()
        self.phase()
        seconds, fixture = ledger.timed(setup, *args, self.phase)
        inside = sum(self.ticks[1:])
        self.phase()
        return self.kernel.to_reference(seconds - inside, self.ticks), fixture


def train_epochs(ledger: Ledger, ticks_inside: bool, *args, **kwargs):
    """(params, report, reference seconds of each epoch) of one ``train`` call.

    The array kernel runs just before and just after the call. With
    ``ticks_inside`` it also runs after every optimizer step, so each epoch
    is measured against the machine's speed during that very epoch, and the
    kernel's seconds are taken out of the epoch's again. Traced rounds,
    whose spans must not hold the kernel, go without."""
    around: list[float] = []
    with bracketed(ledger.array, around):
        with Ticks(ledger.array if ticks_inside else None, "gemfm.train",
                   "optimizer_step") as steps:
            _, (params, report) = ledger.timed(gm_train.train, *args, **kwargs)
    epochs = report.epochs
    if steps.ticks and len(steps.ticks) % len(epochs) == 0:
        k = len(steps.ticks) // len(epochs)
        per_epoch = [steps.ticks[i * k:(i + 1) * k] for i in range(len(epochs))]
        return params, report, [ledger.array.to_reference(r.seconds - sum(ticks), ticks)
                                for r, ticks in zip(epochs, per_epoch)]
    # no ticks, or steps no longer split evenly into epochs: one speed for all
    inside = sum(steps.ticks) / len(epochs)
    return params, report, [ledger.array.to_reference(r.seconds - inside,
                                                      around + steps.ticks)
                            for r in epochs]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(*arrays) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _pack(instances, m):
    return gm_data.PackedInstances.from_instances(instances, m)


def _same_params(a, b) -> bool:
    return a.w0 == b.w0 and all(x.tobytes() == y.tobytes()
                                for x, y in zip([a.w, *a.weights], [b.w, *b.weights]))


# -- what every workload shares ----------------------------------------------

class CliPaths:
    """The files `gemfm predict` reads and writes, inside the run's workdir."""

    def __init__(self, workdir: Path):
        self.data = workdir / "clicks.libfm"
        self.field_map = workdir / "fields.tsv"
        self.graph = workdir / "graph.txt"
        self.model = workdir / "model.bin"
        self.out = workdir / "predictions.txt"

    def argv(self, with_graph: bool) -> list[str]:
        argv = ["predict", "--data", str(self.data), "--model", str(self.model),
                "--out", str(self.out)]
        return argv + ["--graph", str(self.graph)] if with_graph else argv


def _cli_call(paths: CliPaths, with_graph: bool, reference: np.ndarray,
              ledger: Ledger, ticks_inside: bool) -> float:
    """Reference seconds of one in-process `gemfm predict`; its output file
    must parse back bitwise equal to ``reference``. With ``ticks_inside``,
    the Python kernel also runs every LINES_PER_TICK parsed lines."""
    inside = ("gemfm.data", "parse_libfm_line", LINES_PER_TICK) if ticks_inside else None
    with contextlib.redirect_stdout(io.StringIO()):
        seconds, status = ledger.timed_ref(ledger.python, gm_cli.main,
                                           paths.argv(with_graph), inside=inside)
    ledger.check(status == 0, f"gemfm predict exited with {status}")
    with open(paths.out, "r", encoding="utf-8") as fh:
        written = np.array([float(line) for line in fh], dtype=np.float64)
    ledger.check(written.tobytes() == reference.tobytes(),
                 "gemfm predict output differs from in-memory predict_batch")
    return seconds


@dataclass(eq=False)
class Fixture:
    """What set-up builds. ``scored`` holds the rows that predict_batch and
    the CLI score; ``served`` is the checkpoint the CLI reads (cli-predict)."""

    paths: CliPaths
    space: object
    train: object
    validation: object
    scored: object
    graph: object
    norm: object
    init: object = None
    served: object = None
    rows_written: list | None = None

    def fingerprint(self) -> str:
        params = self.served if self.served is not None else self.init
        edges = self.graph.edges if self.graph is not None else np.empty(0)
        return _fingerprint(self.train.indices, self.train.labels, self.scored.indices,
                            self.scored.labels, edges, params.weights[0])


@dataclass(eq=False)
class Round:
    """Reference seconds of each timed call of one round."""

    epoch_seconds: list[float]
    predict_seconds: list[float]
    cli_seconds: list[float]
    predictions: np.ndarray


# -- training workloads ------------------------------------------------------

@dataclass(frozen=True)
class TrainingWorkload:
    """Train a fixed number of epochs per round (patience exceeds them, so
    every epoch runs), score the test split in memory, then serve the
    trained model through `gemfm predict` over the test split."""

    data: dict
    num_layers: int
    optimizer: str
    learning_rate: float
    dropout_ratio: float
    sampling_ratio: float
    epochs: int
    traced_op = "epoch"    # the operation whose tracing overhead is reported

    def train_config(self, seed: int):
        return gm_train.TrainConfig(
            optimizer=self.optimizer, learning_rate=self.learning_rate,
            l2_lambda=L2_LAMBDA, dropout_ratio=self.dropout_ratio,
            batch_size=BATCH_SIZE, max_epochs=self.epochs, patience=self.epochs + 1,
            sampling_ratio=self.sampling_ratio, seed=seed)

    def setup(self, seed: int, workdir: Path, phase) -> Fixture:
        """Datagen, packing, build_graph, normalize and init; ``phase()``
        runs between the steps."""
        bench = gm_datagen.click_benchmark(gm_datagen.ClickDataConfig(seed=seed, **self.data))
        phase()
        space = bench.space
        m = space.num_features
        train, validation, test = (_pack(part, m) for part in
                                   (bench.train, bench.validation, bench.test))
        phase()
        graph = norm = None
        if self.num_layers:
            graph = gm_graph.build_graph(bench.train_positives, space,
                                         included_fields=GRAPH_FIELDS)
            norm = gm_graph.normalize(graph)
            phase()
        # the same initial parameters train() would draw from this seed
        init = gm_model.ModelParams.initialize(
            m, DIM, self.num_layers, seed=gm_seeding.derive_seed(seed, "init"))
        return Fixture(CliPaths(workdir), space, train, validation, test, graph, norm,
                       init=init, rows_written=bench.test)

    def export(self, fx: Fixture) -> None:
        """Write the CLI's input files (not part of set-up), then release the
        row objects so they do not slow every later garbage collection."""
        gm_data.save_libfm(fx.rows_written, fx.paths.data)
        fx.rows_written = None
        if fx.graph is not None:
            fx.graph.save(fx.paths.graph)

    def round(self, fx: Fixture, seed: int, ledger: Ledger, ticks_inside: bool) -> Round:
        params, _, epochs = train_epochs(
            ledger, ticks_inside, fx.train, fx.validation, fx.space,
            self.train_config(seed), dim=DIM, num_layers=self.num_layers, graph=fx.graph,
            init_params=fx.init)
        predict_seconds, predictions = _score(fx, params, ledger, ticks_inside)
        params.save(fx.paths.model)
        cli_seconds = _cli_call(fx.paths, fx.graph is not None, predictions, ledger,
                                ticks_inside)
        return Round(epochs, predict_seconds, [cli_seconds], predictions)


def _score(fx: Fixture, params, ledger: Ledger, ticks_inside: bool):
    """(reference seconds of each call, predictions) of PREDICT_REPEATS
    in-memory ``predict_batch`` calls over the scored rows. With
    ``ticks_inside``, the array kernel also runs after every chunk scored."""
    inside = ("gemfm.model", "scores_from_design", 1) if ticks_inside else None
    seconds = []
    for _ in range(PREDICT_REPEATS):
        spent, predictions = ledger.timed_ref(ledger.array, gm_model.predict_batch,
                                              fx.scored, params, fx.norm, inside=inside)
        seconds.append(spent)
    return seconds, predictions


# -- cli-predict -------------------------------------------------------------

class CliWorkload:
    """Serve a GEM L=1 checkpoint over all 108,000 default-scale rows. Each
    round retrains the served model (which must reproduce the checkpoint
    bitwise), scores every row in memory 5 times, and runs `gemfm predict`
    twice: a call takes seconds, and its rate is this workload's purpose."""

    model = TrainingWorkload({}, 1, "adam", 0.002, 0.4, 1.0, epochs=1)
    traced_op = "cli"
    cli_repeats = 2

    def _train_args(self, fx: Fixture, seed: int):
        return ((fx.train, fx.validation, fx.space, self.model.train_config(seed)),
                {"dim": DIM, "num_layers": 1, "graph": fx.graph})

    def setup(self, seed: int, workdir: Path, phase) -> Fixture:
        """Write the libFM rows, field map, graph file and checkpoint;
        ``phase()`` runs between the steps."""
        bench = gm_datagen.click_benchmark(gm_datagen.ClickDataConfig(seed=seed))
        phase()
        space = bench.space
        m = space.num_features
        paths = CliPaths(workdir)
        rows = bench.train + bench.validation + bench.test
        gm_data.save_libfm(rows, paths.data)
        paths.field_map.write_text(gm_data.format_field_map(space), encoding="utf-8")
        phase()
        graph = gm_graph.build_graph(bench.train_positives, space,
                                     included_fields=GRAPH_FIELDS)
        graph.save(paths.graph)
        fx = Fixture(paths, space, _pack(bench.train, m), _pack(bench.validation, m),
                     _pack(rows, m), graph, gm_graph.normalize(graph))
        phase()
        args, kwargs = self._train_args(fx, seed)
        fx.served, _ = gm_train.train(*args, **kwargs)
        fx.served.save(paths.model)
        return fx

    def export(self, fx: Fixture) -> None:
        """Set-up already wrote every file."""

    def round(self, fx: Fixture, seed: int, ledger: Ledger, ticks_inside: bool) -> Round:
        args, kwargs = self._train_args(fx, seed)
        params, _, epochs = train_epochs(ledger, ticks_inside, *args, **kwargs)
        ledger.check(_same_params(params, fx.served), "retraining changed the served model")
        predict_seconds, predictions = _score(fx, fx.served, ledger, ticks_inside)
        cli_seconds = [_cli_call(fx.paths, True, predictions, ledger, ticks_inside)
                       for _ in range(self.cli_repeats)]
        return Round(epochs, predict_seconds, cli_seconds, predictions)


WORKLOADS = {
    "click-gem1-adam": TrainingWorkload({}, 1, "adam", 0.002, 0.4, 1.0, epochs=2),
    "click-fm-adam": TrainingWorkload({}, 0, "adam", 0.002, 0.4, 1.0, epochs=2),
    "scale-gem2-sampled-adagrad": TrainingWorkload(
        {"num_users": 20000, "num_items": 10000}, 2, "adagrad", 0.01, 0.0, 0.5, epochs=1),
    "cli-predict": CliWorkload(),
}


# -- running -----------------------------------------------------------------

def _rounds(w, fx: Fixture, seed: int, seconds: float, ledger: Ledger,
            tracers: list[Tracer] | None = None) -> list[Round]:
    """Rounds until ``seconds`` have passed, at least MIN_ROUNDS of them.
    With ``tracers``, each round is followed by the same round under a fresh
    Tracer (appended to ``tracers``): the result alternates untraced, traced,
    and the reference kernels run around calls, not inside them."""
    done = []
    ticks_inside = tracers is None
    started = time.perf_counter()
    for count in itertools.count():
        if count >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
            return done
        done.append(w.round(fx, seed, ledger, ticks_inside))
        if tracers is not None:
            tracers.append(Tracer())
            with tracers[-1]:
                done.append(w.round(fx, seed, ledger, ticks_inside))


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 ledger: Ledger) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Metrics as {name: (value, unit)} plus readable report lines."""
    w = WORKLOADS[name]
    if trace:
        return _run_traced(w, seed, seconds, workdir, ledger)
    return _run_untraced(w, seed, seconds, workdir, ledger)


def _run_untraced(w, seed, seconds, workdir, ledger):
    setup_seconds, fingerprints = [], []
    timer = SetupTimer(ledger.python)
    fx = None
    for _ in range(SETUP_REPEATS):
        fx = None   # drop the previous fixture so peak memory holds one
        spent, fx = timer.run(ledger, w.setup, seed, workdir)
        w.export(fx)
        setup_seconds.append(spent)
        fingerprints.append(fx.fingerprint())
    ledger.check(len(set(fingerprints)) == 1, "repeated set-up built different inputs")

    done = _rounds(w, fx, seed, seconds, ledger)
    rmses = [gm_metrics.rmse(r.predictions, fx.scored.labels) for r in done]
    ledger.check(len(set(rmses)) == 1, f"test RMSE differs between rounds: {rmses}")
    ledger.check(math.isfinite(rmses[0]), "test RMSE is not finite")
    epochs = [s for r in done for s in r.epoch_seconds]
    predicts = [s for r in done for s in r.predict_seconds]
    cli_calls = [s for r in done for s in r.cli_seconds]

    scored = len(fx.scored)
    metrics = {
        "setup_s": (float(np.median(setup_seconds)), "s"),
        "train_rows_per_s": (rows_per_second(len(fx.train), epochs), "1/s"),
        "predict_rows_per_s": (rows_per_second(scored, predicts), "1/s"),
        "cli_predict_rows_per_s": (rows_per_second(scored, cli_calls), "1/s"),
        "test_rmse": (rmses[0], "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [f"rounds {len(done)}  epochs {len(epochs)}  predict calls {len(predicts)}  "
             f"cli calls {len(cli_calls)}  scored rows {scored}",
             ledger.array.describe(), ledger.python.describe()]
    return metrics, lines


def _run_traced(w, seed, seconds, workdir, ledger):
    """Set up once under a tracer, then alternate untraced and traced rounds."""
    setup_tracer = Tracer()
    with setup_tracer:
        _, fx = ledger.timed(w.setup, seed, workdir, lambda: None)
    w.export(fx)
    tracers: list[Tracer] = []
    done = _rounds(w, fx, seed, seconds, ledger, tracers)
    first = tracers[0].counts()
    for other in tracers[1:]:
        ledger.check(other.counts() == first,
                     "exact counts differ between two traced rounds of the same work")

    if w.traced_op == "epoch":
        rows, op_seconds = len(fx.train), lambda r: r.epoch_seconds
    else:
        rows, op_seconds = len(fx.scored), lambda r: r.cli_seconds
    plain = rows_per_second(rows, [s for r in done[0::2] for s in op_seconds(r)])
    with_trace = rows_per_second(rows, [s for r in done[1::2] for s in op_seconds(r)])
    metrics, lines = summarize([setup_tracer, *tracers])
    metrics["trace.untraced_rows_per_s"] = (plain, "1/s")
    metrics["trace.traced_rows_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain - with_trace) / plain, "%")
    lines.append(f"rounds {len(done) // 2} untraced + {len(tracers)} traced")
    return metrics, lines
