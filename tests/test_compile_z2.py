"""Tests for the Z2-mode compiler, normalization, and bound checks."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pathsum import (
    BoundViolationError,
    Circuit,
    Gate,
    GateKind,
    GF2Poly,
    Mode,
    PathSystem,
    all_basis_strings,
    bits_to_index,
    compile_circuit,
    count_all,
    gf2poly,
    normalize,
    parse_circuit,
    path_count_check,
    random_circuit,
    simulate,
)

from conftest import random_bits, set_loop_product


def var(i: int) -> GF2Poly:
    return GF2Poly.variable(i)


class TestWireRules:
    def test_empty_circuit_keeps_input_constants(self):
        c = Circuit(2, (), Mode.Z2)
        ps = compile_circuit(c, (0, 1))
        assert ps.num_path_vars == 0
        assert ps.outputs == (GF2Poly.zero(), GF2Poly.one())
        assert ps.phase == GF2Poly.zero()
        assert ps.input_bits == (0, 1)

    def test_x_flips_wire(self):
        c = Circuit(1, (Gate.x(0),), Mode.Z2)
        assert compile_circuit(c, (0,)).outputs == (GF2Poly.one(),)
        assert compile_circuit(c, (1,)).outputs == (GF2Poly.zero(),)

    def test_cnot_adds_control_wire(self):
        c = Circuit(2, (Gate.h(0), Gate.cnot(0, 1)), Mode.Z2)
        ps = compile_circuit(c, (0, 1))
        assert ps.outputs == (var(1), GF2Poly.one() + var(1))

    def test_toffoli_adds_control_product(self):
        c = Circuit(3, (Gate.h(0), Gate.h(1), Gate.toffoli(0, 1, 2)), Mode.Z2)
        ps = compile_circuit(c, (0, 0, 0))
        assert ps.outputs[2] == var(1) * var(2)

    def test_hadamard_allocates_in_gate_order(self):
        c = Circuit(2, (Gate.h(1), Gate.h(0), Gate.h(1)), Mode.Z2)
        ps = compile_circuit(c, (0, 0))
        assert ps.num_path_vars == 3
        assert ps.outputs == (var(2), var(3))
        # phase picks up old-wire * fresh-variable for each H
        assert ps.phase == var(1) * var(3)

    def test_hadamard_phase_uses_wire_before_replacement(self):
        c = Circuit(1, (Gate.h(0),), Mode.Z2)
        assert compile_circuit(c, (1,)).phase == var(1)
        assert compile_circuit(c, (0,)).phase == GF2Poly.zero()

    def test_mode_and_length_validation(self):
        mixed = Circuit(1, (), Mode.MIXED)
        with pytest.raises(ValueError):
            compile_circuit(mixed, (0,))
        c = Circuit(2, (), Mode.Z2)
        with pytest.raises(ValueError):
            compile_circuit(c, (0,))

    def test_compile_is_pure(self, golden_circuit):
        one = compile_circuit(golden_circuit, (1, 0, 1))
        two = compile_circuit(golden_circuit, (1, 0, 1))
        assert one == two


class TestGoldenSystem:
    def test_symbolic_forms_at_all_inputs(self, golden_circuit):
        for a in all_basis_strings(3):
            ps = compile_circuit(golden_circuit, a)
            assert ps.num_path_vars == 4
            assert ps.outputs == (var(3) + var(2) * var(4), var(2), var(4))
            expected_phase = (
                a[0] * var(1)
                + a[1] * var(2)
                + var(1) * var(3)
                + var(4) * (a[2] + var(1) * var(2))
            )
            assert ps.phase == expected_phase

    def test_rendered_strings_pinned(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        assert [str(p) for p in ps.outputs] == ["x3 + x2*x4", "x2", "x4"]
        assert str(ps.phase) == "x1*x3 + x1*x2*x4"


class TestNormalize:
    def test_inserts_h_pair_when_target_reused(self):
        c = Circuit(
            3,
            (Gate.toffoli(0, 1, 2), Gate.toffoli(0, 1, 2)),
            Mode.Z2,
        )
        gates = normalize(c).gates
        assert gates == (
            Gate.toffoli(0, 1, 2),
            Gate.h(2),
            Gate.h(2),
            Gate.toffoli(0, 1, 2),
            Gate.h(2),
            Gate.h(2),
        )

    def test_no_insertion_before_existing_h(self):
        c = Circuit(3, (Gate.toffoli(0, 1, 2), Gate.h(2)), Mode.Z2)
        assert normalize(c) == c

    def test_insertion_when_target_read_by_other_gate(self):
        c = Circuit(3, (Gate.toffoli(0, 1, 2), Gate.cnot(2, 0)), Mode.Z2)
        gates = normalize(c).gates
        assert gates[1] == Gate.h(2) and gates[2] == Gate.h(2)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            c = random_circuit(int(rng.integers(3, 6)), int(rng.integers(0, 30)), Mode.Z2, rng)
            once = normalize(c)
            assert normalize(once) == once

    def test_preserves_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(3, 6))
            c = random_circuit(n, int(rng.integers(0, 25)), Mode.Z2, rng)
            nc = normalize(c)
            for _ in range(4):
                a = random_bits(rng, n)
                assert np.allclose(simulate(c, a), simulate(nc, a), atol=1e-12)

    def test_rejects_mixed_mode(self):
        with pytest.raises(ValueError):
            normalize(Circuit(1, (), Mode.MIXED))


class TestPathCountCheck:
    def test_bounds_hold_for_normalized_h_toffoli_circuits(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            c = random_circuit(
                n, int(rng.integers(0, 40)), Mode.Z2, rng,
                kinds=(GateKind.H, GateKind.TOFFOLI),
            )
            report = path_count_check(compile_circuit(normalize(c), random_bits(rng, n)))
            assert max(report.output_degrees, default=0) <= 2
            assert max(report.output_terms, default=0) <= 2
            assert report.phase_degree <= 3
            assert report.phase_terms <= 2 * report.num_path_vars

    def test_unnormalized_toffoli_reuse_violates_degree(self):
        # reading a dirty Toffoli target as a control grows the degree to 3
        gates = (
            Gate.h(0), Gate.h(1), Gate.h(2),
            Gate.toffoli(0, 1, 3), Gate.toffoli(2, 3, 0),
        )
        c = Circuit(4, gates, Mode.Z2)
        ps = compile_circuit(c, (0, 0, 0, 0))
        assert ps.outputs[0].degree == 3
        with pytest.raises(BoundViolationError, match="deg"):
            path_count_check(ps)

    def test_cnot_chain_violates_term_bound(self):
        gates = (Gate.h(0), Gate.h(1), Gate.h(2), Gate.cnot(0, 2), Gate.cnot(1, 2))
        ps = compile_circuit(Circuit(3, gates, Mode.Z2), (0, 0, 0))
        with pytest.raises(BoundViolationError, match="terms"):
            path_count_check(ps)

    def test_chained_toffolis_violate_the_phase_degree(self):
        gates = (
            Gate.h(0), Gate.h(1), Gate.h(2),
            Gate.toffoli(0, 1, 3), Gate.toffoli(2, 3, 4), Gate.h(4),
        )
        ps = compile_circuit(Circuit(5, gates, Mode.Z2), (0,) * 5)
        with pytest.raises(BoundViolationError, match=r"deg\(phase\) = 4 > 3"):
            path_count_check(ps)

    def test_wide_parities_violate_the_phase_term_bound(self):
        # Qubits 10 and 11 hold the parities of x1..x5 and x6..x10; the
        # Toffoli's product of the two has 25 terms, and the last H puts
        # them in the phase.
        gates = (
            tuple(Gate.h(q) for q in range(10))
            + tuple(Gate.cnot(q, 10) for q in range(5))
            + tuple(Gate.cnot(q, 11) for q in range(5, 10))
            + (Gate.toffoli(10, 11, 12), Gate.h(12))
        )
        ps = compile_circuit(Circuit(13, gates, Mode.Z2), (0,) * 13)
        with pytest.raises(BoundViolationError, match=r"terms\(phase\) = 25 > 2h = 22"):
            path_count_check(ps)


class TestSerialization:
    def test_dict_round_trip(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (1, 1, 0))
        doc = ps.to_dict()
        assert doc["h"] == 4
        assert doc["input"] == "110"
        assert PathSystem.from_dict(doc) == ps

    def test_json_round_trip(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (0, 1, 0))
        assert PathSystem.from_dict(json.loads(ps.to_json())) == ps


class TestVectorisedProduct:
    def test_compiled_systems_match_the_set_loop_and_refsim(self, monkeypatch):
        # TOFFOLI chains without normalize: wire products reach the numpy path.
        rng = np.random.default_rng(13)
        kinds = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.H)
        cases = [
            (random_circuit(8, 200, Mode.Z2, rng, max_hadamards=10, kinds=kinds), random_bits(rng, 8))
            for _ in range(8)
        ]
        vectorised = []
        odd_products = gf2poly._odd_products
        monkeypatch.setattr(gf2poly, "_odd_products", lambda a, b: vectorised.append(1) or odd_products(a, b))
        systems = [compile_circuit(circuit, a) for circuit, a in cases]
        assert len(vectorised) > 100
        monkeypatch.setattr(GF2Poly, "__mul__", set_loop_product)
        assert [compile_circuit(circuit, a) for circuit, a in cases] == systems
        for (circuit, a), system in zip(cases, systems):
            amps = np.zeros(1 << 8)
            for bits, pair in count_all(system).items():
                amps[bits_to_index(bits)] = pair.gap / math.sqrt(2.0**pair.h)
            assert np.abs(amps - simulate(circuit, a)).max() < 1e-9
