"""Measure the benchmark's baseline and write bench/baseline.json.

    python3 bench/baseline.py --seconds 25 --sets 401 501 --runs 10

For every workload and every seed set (seeds first, first + 1, ...),
runs ``bench/run.py --trace 0`` once per seed, one run at a time, and
records each end-to-end metric's median, quartiles and spread
((q3 - q1) / median, with ``statistics.quantiles(values, n=4)``). Then
one traced run per workload with seed 1 gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, _child_env, _environment, _load_program  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 6), "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--sets", type=int, nargs="+", default=[401, 501])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    _load_program()
    from workloads import WORKLOADS

    seed_sets = {f"S{first}": list(range(first, first + args.runs)) for first in args.sets}
    end_to_end = {}
    for workload in WORKLOADS:
        per_set = {}
        for label, seeds in seed_sets.items():
            runs = [one_run(workload, seed, args.seconds, 0) for seed in seeds]
            per_set[label] = {name: summary([r[name] for r in runs]) for name in runs[0]}
            print(workload, label, {k: v["spread"] for k, v in per_set[label].items()}, flush=True)
        end_to_end[workload] = {
            name: {label: per_set[label][name] for label in seed_sets}
            for name in per_set[next(iter(seed_sets))]
        }
    per_layer = {
        workload: {k: round(v, 6) for k, v in one_run(workload, 1, args.seconds, 1).items()}
        for workload in WORKLOADS
    }
    environment = _environment()
    environment["cpu"] = platform.processor() or platform.machine()
    (HERE / "baseline.json").write_text(json.dumps({
        "what": "Baseline of the benchmark: per workload and end-to-end metric, the median, "
                "quartiles and spread ((q3-q1)/median) of one run per seed for each set of "
                "seeds; and the per-layer metrics of one traced run per workload (seed 1).",
        "environment": environment,
        "run_seconds": args.seconds,
        "seed_sets": seed_sets,
        "end_to_end": end_to_end,
        "per_layer_seed1": per_layer,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
