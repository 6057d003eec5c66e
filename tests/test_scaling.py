"""Tests that the reduce layer and normalize scale with their input.

eliminate reduces each output row only by the pivots it holds and
back-substitutes once, so an H layer of n qubits (n one-variable rows)
eliminates in about linear time, and it substitutes all pivots into
each phase term in one visit, so a z2 phase is not rescanned per pivot. normalize finds each TOFFOLI target's
next gate in one backward pass; its output must equal the old rule,
kept here as a reference loop.
"""

from __future__ import annotations

import time

import numpy as np

from pathsum import (
    Circuit,
    Gate,
    GateKind,
    Mode,
    all_basis_strings,
    compile_circuit,
    compile_mixed,
    eliminate,
    normalize,
    random_circuit,
)


def normalize_by_scanning(circuit: Circuit) -> Circuit:
    """The old rule: for each TOFFOLI, scan the rest of the gate list for
    the target's next gate, and add an H pair unless it is an H there."""
    gates = []
    originals = circuit.gates
    for i, gate in enumerate(originals):
        gates.append(gate)
        if gate.kind is not GateKind.TOFFOLI:
            continue
        target = gate.qubits[2]
        follower = next((g for g in originals[i + 1 :] if target in g.qubits), None)
        if follower is None or follower.kind is not GateKind.H or follower.qubits != (target,):
            gates += (Gate.h(target), Gate.h(target))
    return Circuit(circuit.num_qubits, tuple(gates), circuit.mode)


def test_normalize_equals_the_scanning_rule():
    rng = np.random.default_rng(31)
    inserted = 0
    for _ in range(300):
        circuit = random_circuit(int(rng.integers(3, 8)), int(rng.integers(0, 40)), Mode.Z2, rng)
        expected = normalize_by_scanning(circuit)
        assert normalize(circuit) == expected
        inserted += len(expected.gates) - len(circuit.gates)
    assert inserted > 100


def test_normalize_is_linear_in_toffolis_on_fresh_targets():
    n = 20_000
    circuit = Circuit(n + 2, tuple(Gate.toffoli(0, 1, k) for k in range(2, n + 2)), Mode.Z2)
    start = time.perf_counter()
    normalized = normalize(circuit)
    assert time.perf_counter() - start < 5.0  # the scanning rule took 2.6 s at 8,000 gates, growing quadratically
    assert len(normalized.gates) == 3 * n


def test_eliminate_is_linear_on_a_20000_qubit_h_layer():
    n = 20_000
    system = compile_mixed(Circuit(n, tuple(Gate.h(q) for q in range(n)), Mode.MIXED), (0,) * n)
    start = time.perf_counter()
    reduced = eliminate(system, (1,) * n)
    assert time.perf_counter() - start < 5.0  # reducing by every pivot took 15 s at 8,000 qubits
    assert reduced.free_vars == () and not reduced.phase.terms


def test_eliminate_substitutes_a_large_z2_phase_in_one_pass():
    # h q; h q on every qubit: the z2 phase x_q * x_(n+q) has n monomials, one pivot each.
    n = 8_000
    gates = tuple(Gate.h(q) for q in range(n)) * 2
    system = compile_circuit(Circuit(n, gates, Mode.Z2), (0,) * n)
    start = time.perf_counter()
    reduced = eliminate(system, (0,) * n)
    assert time.perf_counter() - start < 5.0  # a scan of the whole phase per pivot took 25 s
    assert len(reduced.free_vars) == n and not reduced.phase


def test_eliminate_solves_dense_rows_exactly():
    # H on every qubit, then a CNOT ladder: the rows are prefix XORs.
    n = 6
    gates = tuple(Gate.h(q) for q in range(n)) + tuple(Gate.cnot(q, q + 1) for q in range(n - 1))
    system = compile_circuit(Circuit(n, gates, Mode.Z2), (1,) * n)
    for b in all_basis_strings(n):
        reduced = eliminate(system, b)
        assert reduced.free_vars == ()
        # Output j is x1 + ... + x(j+1), so x(j+1) = b_j + b_(j-1).
        point = sum((b[j] ^ (b[j - 1] if j else 0)) << (j + 1) for j in range(n))
        assert reduced.phase.evaluate_mask(0) == system.phase.evaluate_mask(point)
