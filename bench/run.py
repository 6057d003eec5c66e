"""Seeded closed-loop benchmark for exact amplitudes.

    python3 bench/run.py --workload z2-amplitude --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
One client sends queries back to back: each query starts from circuit
text, and the next starts when the previous one has been answered and
checked against the dense simulator. With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs the same query
sequence untraced and then traced, prints the per-layer metrics, and
writes spans and one record per query under ``bench/out/``. The last
line of standard output is one JSON object. The exit code is 0 when
every query was correct, 1 when any failed, 2 on a usage or set-up
error. See bench/README.md for the metric definitions.

Query times are process CPU seconds (``time.process_time``, all
threads), not wall seconds: on a shared virtual machine the wall time of
a fixed loop can vary threefold from one second to the next. CPU time
still drifts with the host's load, so on the workloads whose queries run
mostly in the interpreter each query's CPU time is scaled by the machine
speed a reference loop measured around it (bench/speed.py). With the
default of one thread CPU and wall time agree on an idle machine;
unscaled CPU and wall-clock figures are printed alongside. ``setup_s``
is wall time: numpy's start-up threads make the CPU time of an import
larger than its wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_LAUNCHES = 11
TAIL_SAMPLES = 10  # queries that must lie beyond the reported tail
MAX_RUN_SECONDS = 120.0  # stop waiting for TAIL_SAMPLES + 1 queries after this
LAYERS = ("parse", "compile", "reduce", "enumerate")


def _load_program() -> None:
    """Import pathsum from this checkout's src/, never from elsewhere."""
    if not (SRC / "pathsum" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC / 'pathsum'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pathsum

    if Path(pathsum.__file__).resolve().parent != SRC / "pathsum":
        print(f"bench: imported pathsum from {pathsum.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PATHSUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(launches: int = SETUP_LAUNCHES) -> float:
    """Median wall seconds for a fresh interpreter to ``import pathsum``."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import pathsum"], env=_child_env(), check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def direct(layer, fn, *args):
    """The untraced layer call."""
    return fn(*args)


class Tracer:
    """Spans and counters at the layer calls, kept in memory.

    Called as ``tracer(layer, fn, *args)`` in place of ``direct``. A span
    is (id, name, start, end, cpu_start, cpu_end, parent, query): wall
    and CPU clocks at both ends; layer spans are children of the span of
    the query that made them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: Counter = Counter()
        self.per_query: Counter = Counter()
        self.log2_paths_max = 0
        self.max_degree = 0
        self._query: tuple[int, int] | None = None  # (span id, query id)
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def query(self, qid: int, run, *args):
        span_id = self._new_id()
        self._query = (span_id, qid)
        self.per_query = Counter()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            return run(*args)
        finally:
            self.spans.append((span_id, "query", start, time.perf_counter(),
                               cpu, time.process_time(), None, qid))
            self._query = None

    def __call__(self, layer, fn, *args):
        span_id, (parent, qid) = self._new_id(), self._query
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out = fn(*args)
        finally:
            end, cpu_end = time.perf_counter(), time.process_time()
            self.spans.append((span_id, layer, start, end, cpu, cpu_end, parent, qid))
        self._count(layer, fn.__name__, args, out, end - start, cpu_end - cpu)
        return out

    def _add(self, key: str, value) -> None:
        self.totals[key] += value
        self.per_query[key] += value

    def _count(self, layer, name, args, out, wall, cpu) -> None:
        self._add(f"{layer}.s", cpu)
        if name == "parse_circuit":
            self._add("parse.gates", len(out.gates))
        elif name in ("compile_circuit", "compile_mixed"):
            phase = out.phase if name == "compile_circuit" else out.phase.terms
            self._add("compile.h", out.num_path_vars)
            self._add("compile.output_terms", sum(len(p) for p in out.outputs))
            self._add("compile.phase_terms", len(phase))
            degrees = [p.degree for p in out.outputs] + [out.phase.degree]
            self.max_degree = max(self.max_degree, *degrees)
        elif name == "eliminate":
            self._add("reduce.calls", 1)
            if out is None:
                self._add("reduce.refuted", 1)
            else:
                self._add("reduce.free_vars", len(out.free_vars))
                self._add("reduce.phase_terms", len(out.phase.terms))
        elif layer == "enumerate":
            if name == "amplitude_mixed":
                k, terms = len(args[1]), sum(len(f) for _, f in args[0].terms)
            else:
                system = args[0]
                k = system.num_path_vars
                terms = sum(len(p) for p in system.outputs) + len(system.phase)
            self._add("enumerate.calls", 1)
            self._add("enumerate.paths", 1 << k)
            self._add("enumerate.term_evals", (1 << k) * terms)
            self._add("enumerate.wall_s", wall)
            self.per_query["enumerate.k_max"] = max(self.per_query["enumerate.k_max"], k)
            self.log2_paths_max = max(self.log2_paths_max, k)

    def self_cpu(self) -> dict[str, float]:
        """Summed CPU self time per span name: CPU time minus child spans'."""
        child = Counter()
        for span in self.spans:
            if span[6] is not None:
                child[span[6]] += span[5] - span[4]
        out = Counter()
        for span in self.spans:
            out[span[1]] += span[5] - span[4] - child[span[0]]
        return dict(out)

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "cpu_start", "cpu_end", "parent", "query")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass
class Loop:
    """What ``closed_loop`` saw. Per checked query: CPU seconds and wall
    seconds of ``send``, CPU seconds of send and check together, and the
    wall clock at the query's middle. Failures are (query id, message,
    True for a wrong value and False for a raised error)."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    busy: list[float] = field(default_factory=list)
    at: list[float] = field(default_factory=list)
    failures: list[tuple[int, str, bool]] = field(default_factory=list)


def closed_loop(pool, seconds, send, check, limit=None, on_query=None, speed=None):
    """Send queries one after another until ``seconds`` of wall time have
    passed (and at least TAIL_SAMPLES + 1 have been sent, up to
    MAX_RUN_SECONDS), or exactly ``limit`` queries when given.
    ``send(qid, query)`` answers a query; ``check(query, value)`` returns
    None or what is wrong. Between queries, outside their timing,
    ``speed`` (a MachineSpeed) samples the machine's speed when due.
    """
    loop = Loop()
    if speed is not None:
        speed.sample()
    start = time.perf_counter()
    qid = 0
    while True:
        elapsed = time.perf_counter() - start
        if limit is not None:
            if qid >= limit:
                break
        elif elapsed >= seconds and (qid > TAIL_SAMPLES or elapsed >= MAX_RUN_SECONDS):
            break
        q = pool[qid % len(pool)]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = send(qid, q)
        except Exception as exc:  # a failed query must not end the run
            loop.failures.append((qid, f"{type(exc).__name__}: {exc}", False))
        else:
            c1, t1 = time.process_time(), time.perf_counter()
            error = check(q, value)
            if error is None:
                loop.cpu.append(c1 - c0)
                loop.wall.append(t1 - t0)
                loop.busy.append(time.process_time() - c0)
                loop.at.append((t0 + t1) / 2)
                if on_query is not None:
                    on_query(qid, q, value)
            else:
                loop.failures.append((qid, error, True))
        qid += 1
        if speed is not None and speed.due():
            speed.sample()
    if speed is not None:
        speed.sample()
    return loop


def latency_metrics(times: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest sample
    with at least TAIL_SAMPLES samples above it, or the maximum when
    there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_SAMPLES - 1, 0) if n > TAIL_SAMPLES else n - 1
    return statistics.median(ordered), ordered[rank], 100.0 * (rank + 1) / n


def layer_metrics(tracer: Tracer, queries: int, untraced_s: float, traced_s: float,
                  refsim_s: float, mismatches: int) -> dict[str, float]:
    self_s = tracer.self_cpu()
    total = sum(span[5] - span[4] for span in tracer.spans if span[1] == "query")
    t = tracer.totals
    consistent = max(t["reduce.calls"] - t["reduce.refuted"], 1)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = self_s.get(layer, 0.0) / queries
        if layer != "parse":
            out[f"{layer}.share"] = self_s.get(layer, 0.0) / total
    out.update({
        "parse.gates": t["parse.gates"] / queries,
        "compile.h": t["compile.h"] / queries,
        "compile.output_terms": t["compile.output_terms"] / queries,
        "compile.phase_terms": t["compile.phase_terms"] / queries,
        "compile.max_degree": tracer.max_degree,
        "reduce.calls": t["reduce.calls"] / queries,
        "reduce.refuted": t["reduce.refuted"] / queries,
        "reduce.free_vars": t["reduce.free_vars"] / consistent,
        "reduce.phase_terms": t["reduce.phase_terms"] / consistent,
        "enumerate.calls": t["enumerate.calls"] / queries,
        "enumerate.paths": t["enumerate.paths"] / queries,
        "enumerate.log2_paths_max": tracer.log2_paths_max,
        "enumerate.term_evals": t["enumerate.term_evals"] / queries,
        "enumerate.ns_per_path_term": 1e9 * t["enumerate.s"] / t["enumerate.term_evals"],
        "enumerate.paths_per_s": t["enumerate.paths"] / t["enumerate.s"],
        "enumerate.threads": t["enumerate.s"] / t["enumerate.wall_s"],
        "refsim.s": refsim_s,
        "refsim.mismatches": mismatches,
        "trace.overhead": traced_s / untraced_s - 1.0,
    })
    return out


def _units() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json, which lists every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "PATHSUM_THREADS": "unset (program default: 1 thread)",
        "platform": platform.platform(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        per_stratum: int | None = None, setup_launches: int = SETUP_LAUNCHES,
        cap: int | None = None) -> tuple[dict, list[str]]:
    """One benchmark run. Returns (result object, failure messages)."""
    from pathsum import DEFAULT_CAP
    from speed import MachineSpeed
    from workloads import WORKLOADS, build_pool

    workload = WORKLOADS[workload_name]
    units = _units()
    cap = DEFAULT_CAP if cap is None else cap
    pool, refsim_s = build_pool(workload, seed, per_stratum)

    def untraced(qid, q):
        return workload.run(q, direct, cap)

    try:  # warm-up, untimed; a failure here shows again in the loop
        untraced(-1, pool[0])
    except Exception:
        pass

    metrics: dict[str, float] = {}
    if not trace:
        setup_s = measure_setup(setup_launches)
        speed = MachineSpeed() if workload.scaled else None
        loop = closed_loop(pool, seconds, untraced, workload.check, speed=speed)
        failures = loop.failures
        if loop.cpu:
            scales = [speed.scale(at) if speed else 1.0 for at in loop.at]
            p50, tail, pct = latency_metrics([c * k for c, k in zip(loop.cpu, scales)])
            cpu_p50, cpu_tail, _ = latency_metrics(loop.cpu)
            wall_p50, wall_tail, _ = latency_metrics(loop.wall)
            reference = "not scaled" if speed is None else (
                f"reference loop median {statistics.median(c for _, c in speed.samples):.6g} s "
                f"of {len(speed.samples)} samples")
            print(f"tail: p{pct:.1f} of {len(loop.cpu)} checked queries; unscaled CPU: "
                  f"p50 {cpu_p50:.6g} s, tail {cpu_tail:.6g} s; wall clock: "
                  f"p50 {wall_p50:.6g} s, tail {wall_tail:.6g} s; {reference}")
            metrics = {
                "query_p50_s": p50,
                "query_tail_s": tail,
                "throughput_qps": len(loop.cpu) / sum(b * k for b, k in zip(loop.busy, scales)),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        attempted = len(loop.cpu) + len(failures)
    else:
        plain = closed_loop(pool, seconds / 2, untraced, workload.check)
        cpu, failures = plain.cpu, plain.failures
        sent = len(cpu) + len(failures)
        tracer = Tracer()
        records = []

        def traced(qid, q):
            return tracer.query(qid, workload.run, q, tracer, cap)

        def record(qid, q, value):
            per = tracer.per_query
            records.append({
                "query": qid, "workload": workload.name, "params": workload.params,
                "seed": seed, "pool_index": qid % len(pool),
                "input": "".join(map(str, q.input_bits)),
                "output": None if q.output_bits is None else "".join(map(str, q.output_bits)),
                "h": per["compile.h"],
                "terms": per["compile.output_terms"] + per["compile.phase_terms"],
                "k_max": per["enumerate.k_max"],
                "seconds": {layer: per[f"{layer}.s"] for layer in LAYERS},
                "amplitude": workload.exact(value),
            })

        replay = closed_loop(pool, 0.0, traced, workload.check, limit=sent, on_query=record)
        failures += replay.failures
        attempted = 2 * sent
        if records:
            mismatches = sum(1 for f in failures if f[2])
            metrics = layer_metrics(tracer, len(records), sum(cpu), sum(replay.cpu),
                                    refsim_s, mismatches)
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload.name}-seed{seed}"
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        stem.with_suffix(".json").write_text(json.dumps({
            "workload": workload.name, "params": workload.params,
            "seed": seed, "environment": _environment(), "metrics": metrics,
            "records": records,
        }, indent=1))
    result = {
        "correct": not failures and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, [f"query {qid}: {msg}" for qid, msg, _ in failures]


def _print_result(workload: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_ratio {ratio:g}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")


def _run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=_child_env(), capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        _print_result(name, json.loads(lines[-1]))
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    threads = os.environ.pop("PATHSUM_THREADS", None)
    if threads is not None:
        print(f"bench: ignoring PATHSUM_THREADS={threads}; the program runs at its default",
              file=sys.stderr)
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, messages = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
