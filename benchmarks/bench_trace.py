"""Spans and exact counters recorded around calls into gemfm's public API.

Nothing inside ``gemfm`` is changed: while a ``Tracer`` is installed, each
traced name is replaced by a wrapper in every namespace that looks it up
(``train`` and ``cli`` import several functions by name), and the originals
are put back on exit. A span holds its name, start, end and the index of the
span that was open when it started. Spans stay in memory until the
benchmark summarizes them.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# span name -> [(module, attribute)]: every namespace that looks the name up
FUNCTIONS = {
    "datagen.click_benchmark": [("gemfm.datagen", "click_benchmark")],
    "data.load_libfm": [("gemfm.data", "load_libfm"), ("gemfm.cli", "load_libfm")],
    "graph.build_graph": [("gemfm.graph", "build_graph"), ("gemfm.cli", "build_graph")],
    "graph.normalize": [("gemfm.graph", "normalize"), ("gemfm.train", "normalize"),
                        ("gemfm.cli", "normalize")],
    "graph.sample_neighbors": [("gemfm.graph", "sample_neighbors"),
                               ("gemfm.train", "sample_neighbors")],
    "model.batch_design": [("gemfm.model", "batch_design"), ("gemfm.train", "batch_design")],
    "model.gcn_embed": [("gemfm.model", "gcn_embed"), ("gemfm.train", "gcn_embed")],
    "model.lookup_embed": [("gemfm.model", "lookup_embed"), ("gemfm.train", "lookup_embed")],
    "model.predict_batch": [("gemfm.model", "predict_batch"), ("gemfm.train", "predict_batch"),
                            ("gemfm.cli", "predict_batch")],
    "train.train": [("gemfm.train", "train"), ("gemfm.cli", "train")],
    "train.optimizer_step": [("gemfm.train", "optimizer_step")],
    "cli.main": [("gemfm.cli", "main")],
}

# span name -> (module, class, attribute) for methods and classmethods
METHODS = {
    "data.from_instances": ("gemfm.data", "PackedInstances", "from_instances"),
    "data.take": ("gemfm.data", "PackedInstances", "take"),
    "graph.load": ("gemfm.graph", "FeatureGraph", "load"),
    "model.params_load": ("gemfm.model", "ModelParams", "load"),
    # marks the end of train()'s set-up, so epoch windows can be told apart
    "train.optimizer_create": ("gemfm.train", "OptimizerState", "create"),
}

# per-call timings reported by summarize(): metric name -> span name
TIMED_SPANS = {
    "datagen.click_benchmark_s": "datagen.click_benchmark",
    "data.from_instances_s": "data.from_instances",
    "data.take_s": "data.take",
    "data.load_libfm_s": "data.load_libfm",
    "graph.build_graph_s": "graph.build_graph",
    "graph.normalize_s": "graph.normalize",
    "graph.sample_neighbors_s": "graph.sample_neighbors",
    "graph.load_s": "graph.load",
    "model.batch_design_s": "model.batch_design",
    "model.gcn_embed_s": "model.gcn_embed",
    "model.lookup_embed_s": "model.lookup_embed",
    "model.params_load_s": "model.params_load",
    "train.optimizer_step_s": "train.optimizer_step",
}

# timings derived from span structure rather than read off one span
DERIVED_TIMINGS = ("train.validation_s", "train.self_s", "cli.self_s")

TIMINGS = tuple(sorted([*TIMED_SPANS, *DERIVED_TIMINGS]))

# exact counts: reported as the median per step or call, compared in full
COUNTS = ("train.unique_calls_per_step", "train.touched_rows", "model.batch_nodes",
          "model.frontier_l1_nodes", "graph.sampled_edges")


_RAISED = object()   # stands in for the result of a call that raised


@dataclass(eq=False)
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.steps: list[tuple[int, int]] = []   # (unique calls, touched rows)
        self._stack: list[int] = []
        self._unique_calls = 0
        self._step_base: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        if name == "data.take" and self._parent_name(span) == "train.train":
            self._step_base = self._unique_calls
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, args, result) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        name = span.name
        if result is _RAISED:
            return
        if name == "model.batch_design":
            span.info["nodes"] = int(result[0].size)
        elif name == "model.gcn_embed":
            span.info["frontier_l1"] = int(result.layers[0].frontier.size)
        elif name == "graph.sample_neighbors":
            span.info["edges"] = int(result.num_edges)
        elif name == "train.train":
            span.info["epoch_seconds"] = [r.seconds for r in result[1].epochs]
        elif name == "train.optimizer_step" and self._step_base is not None:
            grads = args[2]
            self.steps.append((self._unique_calls - self._step_base,
                               int(grads.touched_rows.size)))
            self._step_base = None

    def _parent_name(self, span: Span) -> str | None:
        return self.spans[span.parent].name if span.parent >= 0 else None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, args, _RAISED)
                raise
            self._close(span, args, result)
            return result
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                mod = importlib.import_module(module)
                self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))
        original_unique = np.unique

        @functools.wraps(original_unique)
        def counted_unique(*args, **kwargs):
            self._unique_calls += 1
            return original_unique(*args, **kwargs)

        self._patch(np, "unique", counted_unique)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def counts(self) -> dict[str, list[int]]:
        """Every exact count in call order; identical work gives identical lists."""
        return {
            "train.unique_calls_per_step": [u for u, _ in self.steps],
            "train.touched_rows": [t for _, t in self.steps],
            "model.batch_nodes": self._info("model.batch_design", "nodes"),
            "model.frontier_l1_nodes": self._info("model.gcn_embed", "frontier_l1"),
            "graph.sampled_edges": self._info("graph.sample_neighbors", "edges"),
        }

    def _info(self, name: str, key: str) -> list[int]:
        return [s.info[key] for s in self.spans if s.name == name and key in s.info]

    def timings(self) -> dict[str, list[float]]:
        """Per-call seconds for every name in TIMINGS."""
        out = {metric: [s.seconds for s in self.spans if s.name == span_name]
               for metric, span_name in TIMED_SPANS.items()}
        out["train.validation_s"] = [
            s.seconds for s in self.spans
            if s.name == "model.predict_batch" and self._parent_name(s) == "train.train"]
        out["train.self_s"] = self._epoch_self_seconds()
        out["cli.self_s"] = [s.seconds - sum(c.seconds for c in self._children(i))
                             for i, s in enumerate(self.spans) if s.name == "cli.main"]
        return out

    def _children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def _epoch_self_seconds(self) -> list[float]:
        """Epoch seconds (from the RunReport) minus the child spans inside
        the epoch. An epoch ends with its validation predict_batch; the
        first one starts after train()'s optimizer state is created."""
        out = []
        for index, span in enumerate(self.spans):
            if span.name != "train.train" or "epoch_seconds" not in span.info:
                continue
            children = self._children(index)
            boundary = next(c.end for c in children if c.name == "train.optimizer_create")
            ends = [c.end for c in children if c.name == "model.predict_batch"]
            for seconds, end in zip(span.info["epoch_seconds"], ends):
                inside = sum(c.seconds for c in children
                             if c.start >= boundary and c.end <= end)
                out.append(seconds - inside)
                boundary = end
        return out


def tail_percentile(n: int) -> float:
    """The highest of 50/75/90/95/99/99.9 with at least ten samples beyond
    it, or 100 (the maximum) when fewer than 20 samples exist."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 100.0


def describe(values) -> tuple[float, float, float, int]:
    """(median, tail value, tail percentile, count); zeros for no samples."""
    n = len(values)
    if not n:
        return 0.0, 0.0, 0.0, 0
    arr = np.asarray(values, dtype=np.float64)
    q = tail_percentile(n)
    return float(np.median(arr)), float(np.percentile(arr, q)), q, n


def summarize(tracers) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics over the given tracers, plus readable table lines.

    Each timing gives ``<name>`` (median seconds per call), ``<name>.tail``
    and ``<name>.n``; each count gives its median per step or call.
    """
    timings: dict[str, list[float]] = {name: [] for name in TIMINGS}
    counts: dict[str, list[int]] = {name: [] for name in COUNTS}
    for tracer in tracers:
        for name, values in tracer.timings().items():
            timings[name].extend(values)
        for name, values in tracer.counts().items():
            counts[name].extend(values)
    metrics: dict[str, tuple[float, str]] = {}
    lines = []
    for name in TIMINGS:
        median, tail, q, n = describe(timings[name])
        metrics[name] = (median, "s")
        metrics[name + ".tail"] = (tail, "s")
        metrics[name + ".n"] = (n, "count")
        lines.append(f"{name:32s} median {median * 1e3:10.3f} ms  "
                     f"p{q:g} {tail * 1e3:10.3f} ms  n {n}")
    for name in COUNTS:
        values = counts[name]
        median = float(np.median(values)) if values else 0.0
        metrics[name] = (median, "count")
        span = f"min {min(values)} max {max(values)}" if values else "no samples"
        lines.append(f"{name:32s} median {median:12g}  {span}  n {len(values)}")
    return metrics, lines
