"""Run one gemfm benchmark workload, or all of them, and print its metrics.

    python3 benchmarks/run.py --workload click-gem1-adam --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run it from anywhere; it imports gemfm from ``src/`` next to this directory
and writes scratch files only under ``.bench_build/``. Each workload runs in
its own single process with BLAS pinned to one thread. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
separately traced run. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"   # must precede the first numpy import

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha(root: Path) -> str:
    """HEAD's commit read straight from .git, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def import_workloads():
    """The workloads module, over the gemfm in src/ and no other."""
    if not (SRC / "gemfm" / "__init__.py").is_file():
        raise SystemExit(f"error: no gemfm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gemfm
    if Path(gemfm.__file__).resolve().parent != (SRC / "gemfm").resolve():
        raise SystemExit(f"error: imported gemfm from {gemfm.__file__}, not {SRC}")
    import bench_workloads
    return bench_workloads


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_one(args) -> int:
    bench_workloads = import_workloads()
    if args.workload not in bench_workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(bench_workloads.WORKLOADS)} or all")
    print("env " + json.dumps({**environment(), "workload": args.workload,
                               "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace}))
    ledger = bench_workloads.Ledger()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="gemfm-bench-", dir=build))
    metrics, crashed = {}, False
    try:
        metrics, lines = bench_workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, ledger)
        for line in lines:
            print(line)
    except Exception:
        traceback.print_exc()
        crashed = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    # a crash inside a timed call is already counted; one elsewhere counts once
    failed = max(ledger.failed, int(crashed))
    correct = failed == 0
    print(result_line(correct, max(ledger.attempted, failed, 1), failed, metrics))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in import_workloads().WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {proc.returncode})", file=sys.stderr)
            correct, failed, attempted = False, failed + 1, attempted + 1
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = (entry["value"], entry["unit"])
    print(result_line(correct, max(attempted, 1), failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the timed part of a run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
