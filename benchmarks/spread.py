"""Run every workload over several seeds and report how far each end-to-end
metric spreads, against the bounds in BENCHMARK.json.

    python3 benchmarks/spread.py --seeds 1-10 --out benchmarks/results/first.json
    python3 benchmarks/spread.py --seeds 11-20 --compare benchmarks/results/first.json

The spread of a metric is the distance between the first and third quartile
of its per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median. ``--compare`` also checks that no median got worse than the
earlier summary's by more than the metric's bound. Runs are sequential, each
in its own process. Exit status is 0 only if every run was correct and
every spread (setup_s excepted) and comparison stayed within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict | None, float]:
    """(result line, env line, wall seconds) of one untraced run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        return json.loads(lines[-1]), env, wall
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, env, wall


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def worsening(metric: dict, old: float, new: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--compare", help="an earlier summary whose medians must hold")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    ok = True
    env = None
    summary = {}
    for workload in workloads:
        values = {name: [] for name in metrics}
        walls = []
        for seed in seeds:
            result, run_env, wall = run(workload, seed, seconds)
            walls.append(wall)
            env = env or run_env
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            for name in metrics:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
        summary[workload] = {"wall_s": walls}
        print(f"{workload:28s} runs took {min(walls):.1f} to {max(walls):.1f} s", flush=True)
        for name, metric in metrics.items():
            if len(values[name]) < 2:
                print(f"{workload:28s} {name:24s} too few values: {values[name]}")
                ok = False
                continue
            entry = summarize(values[name])
            summary[workload][name] = entry
            bound = metric["bound"]
            flag = ""
            if name != "setup_s" and entry["spread"] > bound:
                flag, ok = "  SPREAD OVER BOUND", False
            elif name != "setup_s" and entry["spread"] > bound / 3:
                flag = "  spread over a third of bound"
            old = earlier.get(workload, {}).get(name)
            if old:
                worse = worsening(metric, old["median"], entry["median"])
                flag += f"  vs earlier {worse:+.2%}"
                if worse > bound:
                    flag, ok = flag + " WORSE THAN BOUND", False
            print(f"{workload:28s} {name:24s} median {entry['median']:14.6g} "
                  f"spread {entry['spread']:7.2%} (bound {bound:.0%}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seconds": seconds, "seeds": seeds, "workloads": summary},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
