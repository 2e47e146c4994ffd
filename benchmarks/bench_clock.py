"""Fixed reference kernels that tell how fast the machine runs right now.

The box the benchmark was tuned on is a 2-vCPU VM whose speed drifts by up
to 40 % within seconds and from minute to minute, without any steal time
the guest can see: the same code takes a different number of seconds
depending on what the host is doing. A kernel below runs fixed code on
fixed inputs, so its own cost never changes: every change in its seconds
is the machine's.

The drift does not slow all code alike. Array code (sparse and dense
products, ``numpy.unique``) and interpreted Python (text parsing, building
and formatting objects) drift apart by up to 25 % against each other, so
there are two kernels: ``ArrayKernel`` for training epochs and in-memory
scoring, ``PythonKernel`` for set-up and the CLI, which are mostly
interpreted Python.

The benchmark runs a kernel right beside the work it times (before and
after every timed call, and inside the long ones: after every optimizer
step of ``train`` and every few thousand lines ``load_libfm`` parses) and
reports the work in *reference seconds*: measured seconds times the
kernel's ``reference_seconds`` over its mean measured seconds around the
work. A reference second is a wall-clock second on the tuning box at its
fast speed; on a slowed-down box both the work and the kernel take longer
and the ratio stays put. The kernel's own seconds are never counted as the
work's.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import statistics
import time

import numpy as np
import scipy.sparse as sp


class ReferenceKernel:
    """Runs a fixed kernel and returns how long it took."""

    name = ""
    # The kernel's seconds on the tuning box (Intel Xeon VM at 2.0 GHz,
    # Python 3.11, numpy 2.4.6, scipy 1.17.1, one BLAS thread) at its fast
    # speed. It only fixes the scale: both sides of a comparison divide by
    # the same constant.
    reference_seconds = 0.0

    def __init__(self):
        for _ in range(20):   # warm caches and allocator before the first reading
            self._kernel()
        self.readings: list[float] = []

    def _kernel(self) -> object:
        raise NotImplementedError

    def tick(self) -> float:
        """Seconds of one kernel run; every reading is kept in ``readings``.

        The garbage collector is off meanwhile: the kernel frees everything
        it allocates, and a collection that the work's own objects are due
        (traversing, say, 108,000 parsed rows) must not land in a kernel run
        and read as a slow machine."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._kernel()
            seconds = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.readings.append(seconds)
        return seconds

    def to_reference(self, seconds: float, ticks) -> float:
        """``seconds`` of work, measured while the kernel took ``ticks``,
        expressed in reference seconds."""
        return seconds * self.reference_seconds / statistics.fmean(ticks)

    def describe(self) -> str:
        """How fast the machine ran, over every reading so far."""
        if not self.readings:
            return f"{self.name} kernel: no readings"
        p10, median, p90 = np.percentile(self.readings, [10, 50, 90])
        return (f"{self.name} kernel: {len(self.readings)} runs, median {median * 1e3:.3f} ms "
                f"(p10 {p10 * 1e3:.3f}, p90 {p90 * 1e3:.3f}); a reference run takes "
                f"{self.reference_seconds * 1e3:.3f} ms")


class ArrayKernel(ReferenceKernel):
    """A sparse-by-dense product, a dense BLAS product and ``numpy.unique``.

    It reads a few MB per run, as gemfm's scoring and training do; a kernel
    that stays in cache did not slow down with them."""

    name = "array"
    reference_seconds = 0.0055

    def __init__(self):
        rng = np.random.default_rng(20200216)
        nodes, dim = 4000, 64
        self._adj = sp.random(nodes, nodes, density=0.002, format="csr",
                              random_state=rng, dtype=np.float64)
        self._x = rng.standard_normal((nodes, dim))
        self._w = rng.standard_normal((dim, dim))
        self._ids = rng.integers(0, nodes + nodes // 4, size=40000)
        super().__init__()

    def _kernel(self) -> float:
        y = (self._adj @ self._x) @ self._w
        nodes = np.unique(self._ids)
        acc = 0
        for i in range(3000):
            acc += i
        return float(y[0, 0]) + nodes.size + acc


class PythonKernel(ReferenceKernel):
    """Parses fixed ``label idx:value`` lines into sorted entries and
    formats one number per line back into text."""

    name = "python"
    reference_seconds = 0.0047

    def __init__(self):
        rng = np.random.default_rng(20200217)
        self._lines = []
        for _ in range(400):
            indices = rng.choice(5000, size=10, replace=False)
            label = int(rng.integers(0, 2))
            self._lines.append(f"{label} " + " ".join(f"{i}:1" for i in indices))
        super().__init__()

    def _kernel(self) -> int:
        parsed = []
        for line in self._lines:
            tokens = line.split()
            label = float(tokens[0])
            entries = []
            for token in tokens[1:]:
                index, _, value = token.partition(":")
                entries.append((int(index), float(value)))
            entries.sort()
            parsed.append((label, entries))
        text = "\n".join(repr(label + len(entries) / 7.0) for label, entries in parsed)
        return len(text)


class Ticks:
    """While installed, runs the kernel after every ``every``-th call of
    ``module.name`` and keeps each run's seconds in ``ticks``.

    gemfm looks these names up in the module's namespace on every call
    (``train`` calls ``optimizer_step`` once per step, ``load_libfm`` calls
    ``parse_libfm_line`` once per line), so replacing that one attribute
    reaches every call; the original is put back on exit. A long call is
    then measured against the machine's speed all along, not only at its
    two ends. Without a kernel, or if the module no longer has the name,
    nothing is replaced and no kernel runs."""

    def __init__(self, kernel: ReferenceKernel | None, module: str, name: str,
                 every: int = 1):
        self.kernel = kernel
        self.ticks: list[float] = []
        self._module = importlib.import_module(module)
        self._name = name
        self._every = every
        self._original = None

    def __enter__(self) -> "Ticks":
        if self.kernel is None or not hasattr(self._module, self._name):
            return self
        original = self._original = getattr(self._module, self._name)
        ticks, tick, every = self.ticks, self.kernel.tick, self._every
        calls = [0]

        def ticking(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[0] += 1
            if calls[0] == every:
                calls[0] = 0
                ticks.append(tick())
            return result

        setattr(self._module, self._name, ticking)
        return self

    def __exit__(self, *exc) -> None:
        if self._original is not None:
            setattr(self._module, self._name, self._original)


@contextlib.contextmanager
def bracketed(kernel: ReferenceKernel, ticks: list[float]):
    """Run the kernel just before and just after the block, appending both
    readings to ``ticks``."""
    ticks.append(kernel.tick())
    try:
        yield
    finally:
        ticks.append(kernel.tick())
