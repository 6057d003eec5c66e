"""Self-tests for the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench

bench._load_program()

from pathsum import (  # noqa: E402
    CountPair,
    CyclotomicValue,
    RealAmplitude,
    compile_mixed,
    eliminate,
    index_to_bits,
    normalize,
    parse_circuit,
    simulate,
)
from speed import NOMINAL_S, MachineSpeed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_pool,
    draw_gates,
    mixed_shape,
    normalized_h,
    render,
)

END_TO_END = {"query_p50_s", "query_tail_s", "throughput_qps", "setup_s", "peak_rss_mb"}
BENCH_JSON = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    """Runs that stop after two queries instead of eleven."""
    monkeypatch.setattr(bench, "TAIL_SAMPLES", 1)


def _answer(name, seed=3):
    workload = WORKLOADS[name]
    query = build_pool(workload, seed, per_stratum=1)[0][0]
    return workload, query, workload.run(query, bench.direct, 30)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_correct_answer_passes_and_wrong_expected_is_flagged(name):
    workload, query, value = _answer(name)
    assert workload.check(query, value) is None
    skewed = dataclasses.replace(query, expected=query.expected + 1e-3)
    assert workload.check(skewed, value) is not None


def test_wrong_values_are_flagged():
    workload, query, value = _answer("z2-amplitude")
    assert workload.check(query, RealAmplitude(value.gap + 2, value.half_power)) is not None
    assert workload.check(query, RealAmplitude(0, value.half_power)) is not None

    workload, query, value = _answer("mixed-amplitude")
    c0, c1, c2, c3 = value.coeffs
    wrong = CyclotomicValue((c0, c1, c2, c3 + 1), value.half_power)
    assert workload.check(query, wrong) is not None

    workload, query, pairs = _answer("z2-compile")
    bits, pair = next((b, p) for b, p in pairs.items() if p.gap)
    wrong = {**pairs, bits: CountPair(pair.count1, pair.count0, pair.h)}
    assert workload.check(query, wrong) is not None

    workload, query, values = _answer("mixed-distribution")
    bits = next(b for b, v in values.items() if not v.is_zero)
    assert workload.check(query, {b: v for b, v in values.items() if b != bits}) is not None


def test_wrong_value_in_the_loop_counts_as_failed():
    workload, query, value = _answer("z2-amplitude")
    wrong = RealAmplitude(value.gap + 2, value.half_power)
    loop = bench.closed_loop([query], 0.0, lambda qid, q: wrong, workload.check, limit=3)
    assert loop.cpu == [] and len(loop.failures) == 3 and all(f[2] for f in loop.failures)


def test_cap_exceeded_counts_as_failed_without_ending_the_run(quick):
    result, messages = bench.run("z2-amplitude", 5, 0.01, trace=False,
                                 per_stratum=1, setup_launches=1, cap=5)
    assert result["failed"] == result["attempted"] >= 2
    assert not result["correct"]
    assert all("CapExceededError" in m for m in messages)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_every_workload(quick, name):
    plain, _ = bench.run(name, 11, 0.01, trace=False, per_stratum=1, setup_launches=1)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced, _ = bench.run(name, 11, 0.01, trace=True, per_stratum=1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in BENCH_JSON["per_layer"]}
    record = json.loads((bench.OUT / f"{name}-seed11.json").read_text())
    assert len(record["records"]) >= 2


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH_JSON["workloads"]] == list(WORKLOADS)


def test_same_seed_same_inputs():
    workload = WORKLOADS["mixed-distribution"]
    first = [q.text for q in build_pool(workload, 4, per_stratum=3)[0]]
    again = [q.text for q in build_pool(workload, 4, per_stratum=3)[0]]
    other = [q.text for q in build_pool(workload, 5, per_stratum=3)[0]]
    assert first == again != other


def test_cost_models_agree_with_the_program():
    rng = np.random.default_rng(0)
    zeros = (0,) * 6
    for _ in range(30):
        gates = draw_gates(rng, 6, 20, ("h", "ccx"), 6)
        circuit = parse_circuit(render("z2", 6, gates))
        assert normalized_h(gates) == normalize(circuit).num_hadamards

        gates = draw_gates(rng, 6, 30, ("cx", "h", "p", "x"), 8)
        circuit = parse_circuit(render("mixed", 6, gates))
        system = compile_mixed(circuit, zeros)
        reachable = np.flatnonzero(np.abs(simulate(circuit, zeros)) > 1e-9)
        reduced = eliminate(system, index_to_bits(int(reachable[0]), 6))
        assert mixed_shape(gates, 6) == (system.num_path_vars, len(reduced.free_vars))


def test_scaling_follows_the_reference_loop_near_each_query():
    speed = MachineSpeed()
    nominal = NOMINAL_S
    speed.samples = [(0.0, 2 * nominal), (1.0, 2 * nominal), (10.0, nominal / 2)]
    assert speed.scale(0.5) == 0.5  # machine twice as slow: times halved
    assert speed.scale(10.5) == 2.0
    assert speed.scale(5.0) == 0.5  # no sample within the window: nearest one


def test_tail_has_ten_samples_beyond_it():
    p50, tail, percentile = bench.latency_metrics([float(i) for i in range(1, 101)])
    assert (p50, tail, percentile) == (50.5, 90.0, 90.0)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "z2-amplitude", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
