"""Tests that the reduce layer and normalize scale with their input.

eliminate reduces each output row only by the pivots it holds and
back-substitutes once, so an H layer of n qubits (n one-variable rows)
eliminates in about linear time, and it substitutes all pivots into
each phase term in one visit, so a z2 phase is not rescanned per pivot.
A system is row-reduced at most twice, however many outputs it is
eliminated at, and what it keeps for that stays small.
The XOR expansion of the canonical Z8 map costs about its output, k +
C(k,2) + C(k,3) terms for k monomials, and the cap is checked before
the phase is substituted. normalize finds each TOFFOLI target's next
gate in one backward pass; its output must equal the old rule, kept
here as a reference loop.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from pathsum import (
    Circuit,
    Gate,
    GateKind,
    GF2Poly,
    MixedPhase,
    Mode,
    all_basis_strings,
    compile_circuit,
    compile_mixed,
    eliminate,
    normalize,
    random_circuit,
    render_circuit,
)
from pathsum import counting
from pathsum.cli import main


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


def test_a_20000_qubit_h_layer_eliminated_twice_keeps_little():
    n = 20_000
    system = compile_mixed(Circuit(n, tuple(Gate.h(q) for q in range(n)), Mode.MIXED), (0,) * n)
    tracemalloc.start()
    try:
        for b in ((1,) * n, (0,) * n):  # the second call reduces with symbolic right-hand sides
            start = time.perf_counter()
            reduced = eliminate(system, b)
            assert time.perf_counter() - start < 5.0
            assert reduced.free_vars == () and not reduced.phase.terms
        del reduced
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(vars(system)[counting._ECHELON], counting._Echelon)
    # One elimination peaked at 31 MB, with the system itself 33 MB; keeping
    # n-bit dependency masks beside the pivot rows kept 86 MB and peaked at 115 MB.
    assert peak <= 62e6
    assert kept <= 31e6


def test_all_outputs_of_a_10_qubit_system_row_reduce_at_most_twice(monkeypatch):
    reductions = []
    row_reduce = counting._row_reduce

    def spy(system, seeds):
        reductions.append(system)
        return row_reduce(system, seeds)

    monkeypatch.setattr(counting, "_row_reduce", spy)
    rng = np.random.default_rng(10)
    circuit = random_circuit(10, 60, Mode.MIXED, rng, max_hadamards=14)
    system = compile_mixed(circuit, (0,) * 10)
    results = [eliminate(system, b) for b in all_basis_strings(10)]
    assert 0 < sum(r is None for r in results) < len(results)
    assert len(reductions) <= 2


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


@pytest.mark.parametrize(
    "coeff, k, terms, seconds",
    [
        (1, 60, 60 + 1770 + 34220, 2.0),  # the recursive merge of halves took 22 s
        # A pair weighs -2*coeff and a triple 4*coeff, 0 mod 8 here: adding
        # the 2 million pairs or the 1.3 million triples anyway took over 1 s.
        (4, 2000, 2000, 0.25),
        (2, 200, 200 + 19900, 0.25),
    ],
)
def test_canonicalize_costs_about_its_output(coeff, k, terms, seconds):
    # c * 1[x1 xor ... xor xk]: the monomials, the pairs unless 4 | c, the triples if c is odd.
    phase = MixedPhase(((coeff, GF2Poly(1 << v for v in range(1, k + 1))),))
    start = time.perf_counter()
    canonical = phase.canonicalize()
    assert time.perf_counter() - start < seconds
    assert len(canonical.terms) == terms


def test_cap_is_checked_before_the_phase_is_substituted(tmp_path, capsys):
    # An H layer, the chain cx q q+1 and one T, then H again: elimination
    # leaves n free variables and a phase with a term per triple of them.
    n = 300
    gates = (
        tuple(Gate.h(q) for q in range(n))
        + tuple(Gate.cnot(q, q + 1) for q in range(n - 1))
        + (Gate.t(n - 1),)
        + tuple(Gate.h(q) for q in range(n))
    )
    path = tmp_path / "chain.circ"
    path.write_text(render_circuit(Circuit(n, gates, Mode.MIXED)), encoding="utf-8")
    start = time.perf_counter()
    code = main(["amplitude", str(path), "--in", "0" * n, "--out", "0" * n])
    assert time.perf_counter() - start < 5.0  # substituting first took about 2 minutes
    assert code == 3
    assert "300 path variables to enumerate, h = 600" in capsys.readouterr().err
