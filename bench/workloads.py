"""Seeded inputs, queries and correctness checks for the four workloads.

Inputs are drawn by the benchmark itself, not by ``pathsum.random_circuit``
or ``pathsum.normalize``, so a later change to the program cannot change
what a seed produces. Each workload keeps only circuits whose cost driver
falls in a fixed band, split into strata that are spread evenly over
the pool, so that any prefix of the pool has the same mix and the median
and tail of a run land in the same stratum whatever the seed. The cost drivers
are computed by small models here (Hadamard count after normalisation,
product count of the z2 wire algebra, rank of the affine mixed outputs),
again independent of the program.

Every expected value comes from the dense simulator ``pathsum.refsim``,
which shares no code with the path-sum layers; it runs while the pool
is built, outside the timed region.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pathsum import (
    Circuit,
    CountPair,
    CyclotomicValue,
    Gate,
    GateKind,
    Mode,
    RealAmplitude,
    all_basis_strings,
    amplitude_mixed,
    bits_to_index,
    compile_circuit,
    compile_mixed,
    count,
    count_all,
    eliminate,
    format_bits,
    index_to_bits,
    normalize,
    parse_circuit,
    refsim,
)

# Largest |program - refsim| accepted for one amplitude. Both sides are
# within a few ulps of exact values of magnitude <= 1.
TOLERANCE = 1e-9

_ARITY = {"x": 1, "cx": 2, "ccx": 3, "h": 1, "p": 1}
_Z2_KINDS = ("ccx", "cx", "h", "x")
_MIXED_KINDS = ("cx", "h", "p", "x")

# Gates as (name, qubits, power); power is None except for "p".
GateSpec = tuple[str, tuple[int, ...], "int | None"]


@dataclass
class Query:
    """One generated input: circuit text plus basis input/output and the
    reference value the program's answer is checked against."""

    text: str
    input_bits: tuple[int, ...]
    output_bits: tuple[int, ...] | None
    expected: complex | np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    # stratum -> number of pool entries drawn into it
    strata: dict[int, int]
    # True: one amplitude <b|U|a> per query; False: every output b
    one_output: bool
    # draw(rng) -> (gates, input bits, stratum), or None to reject
    draw: Callable[[np.random.Generator], tuple[list[GateSpec], tuple[int, ...], int] | None]
    run: Callable
    check: Callable[[Query, object], str | None]
    exact: Callable[[object], object]
    # True: query CPU times are scaled by the machine speed (bench/speed.py),
    # for workloads whose queries run mostly in the interpreter
    scaled: bool


# --- circuit drawing ------------------------------------------------------


def draw_gates(
    rng: np.random.Generator, n: int, num_gates: int, kinds: tuple[str, ...], max_h: int
) -> list[GateSpec]:
    """Uniform gate kind from ``kinds``, distinct uniform operands, at most
    ``max_h`` Hadamards; the same distribution as ``random_circuit``. The
    random numbers are drawn in bulk: operands are the first entries of a
    uniform random permutation of the qubits."""
    picks = rng.random(num_gates)
    operands = np.argsort(rng.random((num_gates, n)), axis=1)[:, :3].tolist()
    powers = rng.integers(0, 8, num_gates).tolist()
    without_h = tuple(k for k in kinds if k != "h")
    gates: list[GateSpec] = []
    used_h = 0
    for i in range(num_gates):
        usable = kinds if used_h < max_h else without_h
        kind = usable[int(picks[i] * len(usable))]
        qubits = tuple(operands[i][: _ARITY[kind]])
        gates.append((kind, qubits, powers[i] if kind == "p" else None))
        used_h += kind == "h"
    return gates


def render(mode: str, n: int, gates: list[GateSpec]) -> str:
    lines = [f"mode {mode}", f"qubits {n}"]
    for kind, qubits, power in gates:
        head = f"p {power}" if kind == "p" else kind
        lines.append(" ".join([head, *map(str, qubits)]))
    return "\n".join(lines) + "\n"


def to_circuit(mode: str, n: int, gates: list[GateSpec]) -> Circuit:
    """The reference simulator's circuit, built without the text parser."""
    return Circuit(
        n, tuple(Gate(GateKind(k), q, p) for k, q, p in gates), Mode(mode)
    )


def random_bits(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, n))


# --- cost models ----------------------------------------------------------


def normalized_h(gates: list[GateSpec]) -> int:
    """Hadamard count after ``normalize``: two more per TOFFOLI whose
    target is next touched by anything but an H on that target alone."""
    h = sum(kind == "h" for kind, _, _ in gates)
    for i, (kind, qubits, _) in enumerate(gates):
        if kind != "ccx":
            continue
        target = qubits[2]
        follower = next((g for g in gates[i + 1 :] if target in g[1]), None)
        if follower is None or follower[0] != "h":
            h += 2
    return h


def z2_products(gates: list[GateSpec], input_bits: tuple[int, ...], limit: int) -> int | None:
    """Monomial pairs multiplied at TOFFOLIs by the z2 wire algebra, or
    None once the count passes ``limit``. A wire is a parity vector over
    monomial bitmasks: bit j > 0 is the j-th Hadamard's variable and
    mask 0 is the constant 1."""
    size = 2 << sum(kind == "h" for kind, _, _ in gates)
    constant = np.zeros(size, dtype=bool)
    constant[0] = True
    wires = [constant if bit else np.zeros(size, dtype=bool) for bit in input_bits]
    products = h = 0
    for kind, qubits, _ in gates:
        target = qubits[-1]
        if kind == "x":
            wires[target] = wires[target] ^ constant
        elif kind == "cx":
            wires[target] = wires[target] ^ wires[qubits[0]]
        elif kind == "ccx":
            left = np.flatnonzero(wires[qubits[0]])
            right = np.flatnonzero(wires[qubits[1]])
            products += len(left) * len(right)
            if products > limit:
                return None
            masks = np.bitwise_or.outer(left, right).ravel()
            wires[target] = wires[target] ^ (np.bincount(masks, minlength=size) & 1).astype(bool)
        else:
            h += 1
            wires[target] = np.zeros(size, dtype=bool)
            wires[target][1 << h] = True
    return products


def mixed_shape(gates: list[GateSpec], n: int) -> tuple[int, int]:
    """(h, free variables left by elimination) of a mixed circuit. Wires
    are affine, so free = h - rank of the outputs' linear parts, for
    every input and every consistent output."""
    wires = [0] * n
    h = 0
    for kind, qubits, _ in gates:
        if kind == "cx":
            wires[qubits[1]] ^= wires[qubits[0]]
        elif kind == "h":
            h += 1
            wires[qubits[0]] = 1 << h
    basis: list[int] = []
    for row in wires:
        for pivot in basis:
            row = min(row, row ^ pivot)
        if row:
            basis.append(row)
    return h, h - len(basis)


# --- generators -----------------------------------------------------------


def _draw_z2_amplitude(rng):
    gates = draw_gates(rng, 10, 18, ("h", "ccx"), 10)
    h = normalized_h(gates)
    if not 20 <= h <= 22:
        return None
    return gates, random_bits(rng, 10), h


_PRODUCT_BAND = (200_000, 400_000)


def _draw_z2_compile(rng):
    gates = draw_gates(rng, 8, 200, _Z2_KINDS, 10)
    a = random_bits(rng, 8)
    products = z2_products(gates, a, _PRODUCT_BAND[1])
    if products is None or products < _PRODUCT_BAND[0]:
        return None
    third = (_PRODUCT_BAND[1] - _PRODUCT_BAND[0]) / 3
    return gates, a, min(int((products - _PRODUCT_BAND[0]) // third), 2)


def _draw_mixed_amplitude(rng):
    gates = draw_gates(rng, 16, 160, _MIXED_KINDS, 34)
    h, free = mixed_shape(gates, 16)
    if h != 34 or not 19 <= free <= 21:
        return None
    return gates, random_bits(rng, 16), free


def _draw_mixed_distribution(rng):
    gates = draw_gates(rng, 10, 140, _MIXED_KINDS, 18)
    h, free = mixed_shape(gates, 10)
    if h != 18 or free != 11:
        return None
    return gates, random_bits(rng, 10), free


# --- queries: each runs one layer call through ``call(layer, fn, *args)`` --


def run_z2_amplitude(q: Query, call, cap: int) -> RealAmplitude:
    circuit = call("parse", parse_circuit, q.text)
    circuit = call("compile", normalize, circuit)
    system = call("compile", compile_circuit, circuit, q.input_bits)
    pair = call("enumerate", count, system, q.output_bits, cap)
    return RealAmplitude(pair.gap, pair.h)


def run_z2_distribution(q: Query, call, cap: int) -> dict[tuple[int, ...], CountPair]:
    circuit = call("parse", parse_circuit, q.text)
    system = call("compile", compile_circuit, circuit, q.input_bits)
    return call("enumerate", count_all, system, cap)


def run_mixed_amplitude(q: Query, call, cap: int) -> CyclotomicValue:
    circuit = call("parse", parse_circuit, q.text)
    system = call("compile", compile_mixed, circuit, q.input_bits)
    reduced = call("reduce", eliminate, system, q.output_bits)
    if reduced is None:
        return CyclotomicValue.zero(system.num_path_vars)
    return call(
        "enumerate", amplitude_mixed, reduced.phase, reduced.free_vars, system.num_path_vars, cap
    )


def run_mixed_distribution(q: Query, call, cap: int) -> dict[tuple[int, ...], CyclotomicValue]:
    """As ``pathsum distribution`` does it: one elimination and, when
    consistent, one enumeration per output basis string."""
    circuit = call("parse", parse_circuit, q.text)
    system = call("compile", compile_mixed, circuit, q.input_bits)
    values = {}
    for bits in all_basis_strings(circuit.num_qubits):
        reduced = call("reduce", eliminate, system, bits)
        if reduced is not None:
            values[bits] = call(
                "enumerate", amplitude_mixed, reduced.phase, reduced.free_vars,
                system.num_path_vars, cap,
            )
    return values


# --- correctness gate -----------------------------------------------------


def check_z2_amplitude(q: Query, value: RealAmplitude) -> str | None:
    if abs(value.as_float() - q.expected) > TOLERANCE:
        return f"amplitude {value} = {value.as_float():.12g}, refsim {q.expected:.12g}"
    scaled = round(q.expected.real * math.sqrt(2.0 ** value.half_power))
    if scaled != value.gap:
        return f"gap {value.gap} != refsim * 2^(h/2) = {scaled}"
    return None


def _unit_norm(squares: list[tuple[int, int, int]]) -> str | None:
    """Exact check that sum |amplitude|^2 = 1, given for every output the
    squared numerator as (a, b) meaning a + b*sqrt(2), over 2^h."""
    top = max((h for _, _, h in squares), default=0)
    rational = sum(a << (top - h) for a, _, h in squares)
    radical = sum(b << (top - h) for _, b, h in squares)
    if (rational, radical) != (1 << top, 0):
        return f"sum of squared numerators = ({rational}, {radical}), expected (2^{top}, 0)"
    return None


def check_z2_distribution(q: Query, pairs: dict) -> str | None:
    error = _unit_norm([(p.gap * p.gap, 0, p.h) for p in pairs.values()])
    if error is not None:
        return error
    amps = np.zeros(len(q.expected))
    for bits, pair in pairs.items():
        amps[bits_to_index(bits)] = pair.gap / math.sqrt(2.0 ** pair.h)
    return _compare_vector(amps, q.expected)


def check_mixed_amplitude(q: Query, value: CyclotomicValue) -> str | None:
    if abs(value.as_complex() - q.expected) > TOLERANCE:
        return f"amplitude {value} = {value.as_complex():.12g}, refsim {q.expected:.12g}"
    return None


def check_mixed_distribution(q: Query, values: dict) -> str | None:
    error = _unit_norm([(*v.mag_squared(), v.half_power) for v in values.values()])
    if error is not None:
        return error
    amps = np.zeros(len(q.expected), dtype=complex)
    for bits, value in values.items():
        amps[bits_to_index(bits)] = value.as_complex()
    return _compare_vector(amps, q.expected)


def _compare_vector(got: np.ndarray, expected: np.ndarray) -> str | None:
    errors = np.abs(got - expected)
    worst = int(np.argmax(errors))
    if errors[worst] > TOLERANCE:
        return f"output {worst}: {got[worst]:.12g}, refsim {expected[worst]:.12g}"
    return None


def exact_amplitude(value) -> str:
    return str(value)


def exact_distribution(values: dict) -> dict[str, str]:
    """Nonzero entries of a distribution as exact strings keyed by output."""
    out = {}
    for bits, value in values.items():
        if isinstance(value, CountPair):
            if value.gap:
                out[format_bits(bits)] = str(RealAmplitude(value.gap, value.h))
        elif not value.is_zero:
            out[format_bits(bits)] = str(value)
    return out


# Why each workload is there: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "z2-amplitude",
            {"mode": "z2", "qubits": 10, "gates": 18, "kinds": ["h", "ccx"], "max_hadamards": 10,
             "normalize": True, "h": [20, 21, 22]},
            {20: 40, 21: 40, 22: 40}, True,
            _draw_z2_amplitude, run_z2_amplitude, check_z2_amplitude, exact_amplitude,
            scaled=False,
        ),
        Workload(
            "z2-compile",
            {"mode": "z2", "qubits": 8, "gates": 200, "kinds": list(_Z2_KINDS), "max_hadamards": 10,
             "normalize": False, "products": list(_PRODUCT_BAND)},
            {0: 64, 1: 64, 2: 64}, False,
            _draw_z2_compile, run_z2_distribution, check_z2_distribution, exact_distribution,
            scaled=True,
        ),
        Workload(
            "mixed-amplitude",
            {"mode": "mixed", "qubits": 16, "gates": 160, "kinds": list(_MIXED_KINDS), "max_hadamards": 34,
             "h": 34, "free_vars": [19, 20, 21]},
            {19: 32, 20: 96, 21: 48}, True,
            _draw_mixed_amplitude, run_mixed_amplitude, check_mixed_amplitude, exact_amplitude,
            scaled=False,
        ),
        Workload(
            "mixed-distribution",
            {"mode": "mixed", "qubits": 10, "gates": 140, "kinds": list(_MIXED_KINDS), "max_hadamards": 18,
             "h": 18, "free_vars": 11},
            {11: 96}, False,
            _draw_mixed_distribution, run_mixed_distribution, check_mixed_distribution,
            exact_distribution, scaled=True,
        ),
    )
}

_MAX_DRAWS = 200_000


def build_pool(
    workload: Workload, seed: int, per_stratum: int | None = None
) -> tuple[list[Query], float]:
    """Draw the workload's inputs from ``seed`` by rejection into its
    strata, interleave the strata, and compute each reference value.

    Returns the pool and the CPU seconds spent in the reference simulator.
    ``per_stratum`` shrinks every stratum (used by the smoke tests).
    """
    rng = np.random.default_rng(seed)
    targets = {
        s: per_stratum if per_stratum is not None else size
        for s, size in workload.strata.items()
    }
    mode = workload.params["mode"]
    buckets: dict[int, list[Query]] = {s: [] for s in targets}
    refsim_s = 0.0
    for _ in range(_MAX_DRAWS):
        if all(len(buckets[s]) >= n for s, n in targets.items()):
            break
        drawn = workload.draw(rng)
        if drawn is None:
            continue
        gates, input_bits, stratum = drawn
        if len(buckets.get(stratum, ())) >= targets.get(stratum, 0):
            continue
        n = len(input_bits)
        start = time.process_time()
        state = refsim.simulate(to_circuit(mode, n, gates), input_bits)
        refsim_s += time.process_time() - start
        output_bits, expected = None, state
        if workload.one_output:
            support = np.flatnonzero(np.abs(state) > TOLERANCE)
            index = int(support[int(rng.integers(0, len(support)))])
            output_bits, expected = index_to_bits(index, n), complex(state[index])
        buckets[stratum].append(
            Query(render(mode, n, gates), input_bits, output_bits, expected)
        )
    else:
        raise RuntimeError(f"{workload.name}: strata not filled after {_MAX_DRAWS} draws")
    # Each stratum spread evenly over the pool: entry i of a stratum of n
    # sits at position (i + 1/2) / n, ties in stratum order.
    placed = sorted(
        ((i + 0.5) / len(bucket), s, i)
        for s, bucket in buckets.items()
        for i in range(len(bucket))
    )
    pool = [buckets[s][i] for _, s, i in placed]
    return pool, refsim_s
