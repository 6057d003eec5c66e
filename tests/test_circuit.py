"""Tests for the circuit IR, text format, and circuit transforms."""

from __future__ import annotations

import numpy as np
import pytest

from pathsum import (
    Circuit,
    CircuitSyntaxError,
    Gate,
    GateKind,
    Mode,
    all_basis_strings,
    bits_to_index,
    decision_transform,
    format_bits,
    index_to_bits,
    invert,
    parse_bits,
    parse_circuit,
    random_circuit,
    render_circuit,
    sign_transform,
    simulate,
)

WELL_FORMED = """\
# leading comment
mode z2
qubits 3

h 0      # trailing comment
ccx 0 1 2
cx 2 0
x 1
"""


class TestGateAndCircuitValidation:
    def test_gate_arity(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0, 1))

    def test_gate_distinct_operands(self):
        with pytest.raises(ValueError):
            Gate.cnot(1, 1)
        with pytest.raises(ValueError):
            Gate.toffoli(0, 2, 2)

    def test_phase_power_range(self):
        assert Gate.t(0) == Gate.p(1, 0)
        with pytest.raises(ValueError):
            Gate.p(8, 0)
        with pytest.raises(ValueError):
            Gate(GateKind.P, (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.X, (0,), power=1)

    def test_mode_gate_legality(self):
        with pytest.raises(ValueError):
            Circuit(3, (Gate.toffoli(0, 1, 2),), Mode.MIXED)
        with pytest.raises(ValueError):
            Circuit(1, (Gate.t(0),), Mode.Z2)

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate.h(2),), Mode.Z2)
        with pytest.raises(ValueError):
            Circuit(0, (), Mode.Z2)

    def test_num_hadamards(self):
        c = Circuit(2, (Gate.h(0), Gate.x(1), Gate.h(0)), Mode.Z2)
        assert c.num_hadamards == 2


class TestBasisStrings:
    def test_parse_and_format(self):
        assert parse_bits("010") == (0, 1, 0)
        assert format_bits((0, 1, 0)) == "010"
        with pytest.raises(ValueError):
            parse_bits("01a")
        with pytest.raises(ValueError):
            parse_bits("")

    def test_qubit_zero_is_low_bit(self):
        assert bits_to_index((1, 0, 0)) == 1
        assert bits_to_index((0, 0, 1)) == 4
        assert index_to_bits(5, 3) == (1, 0, 1)

    def test_round_trip_and_order(self):
        strings = list(all_basis_strings(3))
        assert len(strings) == 8
        assert strings[0] == (0, 0, 0)
        for index, bits in enumerate(strings):
            assert bits_to_index(bits) == index

    def test_all_basis_strings_are_index_to_bits_in_index_order(self):
        for n in range(1, 11):
            assert list(all_basis_strings(n)) == [index_to_bits(i, n) for i in range(1 << n)]

    def test_numpy_bits_pack_exactly_at_any_width(self):
        for dtype in (np.int64, bool):
            index = bits_to_index(np.ones(70, dtype=dtype))
            assert index == (1 << 70) - 1 and type(index) is int
        assert bits_to_index(np.array([3, 2, 1], dtype=np.uint8)) == 0b101  # read mod 2
        for bad in ((0, 1.0), (np.float64(1),), ("1",)):
            with pytest.raises(TypeError):
                bits_to_index(bad)


class TestTextFormat:
    def test_parse_well_formed(self):
        c = parse_circuit(WELL_FORMED)
        assert c.mode is Mode.Z2
        assert c.num_qubits == 3
        assert c.gates == (
            Gate.h(0),
            Gate.toffoli(0, 1, 2),
            Gate.cnot(2, 0),
            Gate.x(1),
        )

    def test_t_is_p1_sugar(self):
        c = parse_circuit("mode mixed\nqubits 1\nt 0\np 3 0\n")
        assert c.gates == (Gate.p(1, 0), Gate.p(3, 0))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("qubits 2\nmode z2\n", 1),
            ("mode zz\n", 1),
            ("mode z2\nqubits 0\n", 2),
            ("mode z2\nqubits 2\nfoo 0\n", 3),
            ("mode z2\nqubits 2\nh 2\n", 3),
            ("mode z2\nqubits 2\ncx 1 1\n", 3),
            ("mode z2\nqubits 2\ncx 0\n", 3),
            ("mode z2\nqubits 2\nt 0\n", 3),
            ("mode mixed\nqubits 2\nccx 0 1 1\n", 3),
            ("mode mixed\nqubits 1\np 9 0\n", 3),
            ("mode mixed\nqubits 1\np x 0\n", 3),
            ("", 1),
            ("mode z2\n", 1),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, text, line):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(text)
        assert err.value.line == line
        assert f"line {line}:" in str(err.value)

    def test_a_gate_where_the_qubit_count_belongs(self):
        with pytest.raises(CircuitSyntaxError, match="line 2: expected 'qubits N'"):
            parse_circuit("mode z2\nh 0\n")

    def test_render_parse_round_trip_random(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            mode = Mode.Z2 if trial % 2 else Mode.MIXED
            c = random_circuit(int(rng.integers(1, 6)), int(rng.integers(0, 25)), mode, rng)
            assert parse_circuit(render_circuit(c)) == c


class TestInvert:
    def test_self_inverse_gates_reverse(self):
        c = parse_circuit("mode z2\nqubits 3\nh 0\nccx 0 1 2\ncx 1 0\n")
        assert invert(c).gates == (Gate.cnot(1, 0), Gate.toffoli(0, 1, 2), Gate.h(0))
        assert invert(invert(c)) == c

    def test_phase_powers_negate(self):
        c = parse_circuit("mode mixed\nqubits 1\np 3 0\np 0 0\n")
        assert invert(c).gates == (Gate.p(0, 0), Gate.p(5, 0))

    def test_inverse_undoes_unitary(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            mode = Mode.Z2 if trial % 2 else Mode.MIXED
            n = int(rng.integers(1, 5))
            c = random_circuit(n, int(rng.integers(0, 20)), mode, rng)
            combined = Circuit(n, c.gates + invert(c).gates, mode)
            for a in all_basis_strings(n):
                state = simulate(combined, a)
                assert abs(state[bits_to_index(a)] - 1) < 1e-12


class TestTransforms:
    def test_shapes_and_modes(self):
        u = parse_circuit("mode z2\nqubits 3\nccx 0 1 2\n")
        d = decision_transform(u, answer_qubit=2)
        s = sign_transform(u, answer_qubit=2)
        assert d.num_qubits == 4 and s.num_qubits == 4
        assert d.mode is u.mode and s.mode is u.mode
        # decision: u, copy, inverse of u
        assert len(d.gates) == 2 * len(u.gates) + 1
        # sign, beyond the ancilla-prep X: 2 Hadamards, 1 X, 1 CNOT, 2M gates
        beyond_prep = s.gates[1:]
        assert len(beyond_prep) == 2 * len(u.gates) + 4
        kinds = [g.kind for g in beyond_prep]
        assert kinds.count(GateKind.H) == 2
        assert kinds.count(GateKind.X) == 1
        assert kinds.count(GateKind.CNOT) == 1

    def test_transforms_work_in_mixed_mode(self):
        u = parse_circuit("mode mixed\nqubits 2\ncx 0 1\n")
        assert decision_transform(u, 1).mode is Mode.MIXED
        assert sign_transform(u, 1).mode is Mode.MIXED

    def test_answer_qubit_validation(self):
        u = parse_circuit("mode z2\nqubits 2\ncx 0 1\n")
        with pytest.raises(ValueError):
            decision_transform(u, 2)
        with pytest.raises(ValueError):
            sign_transform(u, -1)

    def test_decision_copies_answer_bit(self):
        u = parse_circuit("mode z2\nqubits 3\nccx 0 1 2\n")
        d = decision_transform(u, answer_qubit=2)
        for a in all_basis_strings(3):
            f = a[0] & a[1] ^ a[2]
            state = simulate(d, a + (0,))
            assert abs(state[bits_to_index(a + (f,))] - 1) < 1e-12

    def test_sign_flips_diagonal(self):
        u = parse_circuit("mode z2\nqubits 2\ncx 0 1\n")
        s = sign_transform(u, answer_qubit=1)
        for a in all_basis_strings(2):
            f = a[0] ^ a[1]
            state = simulate(s, a + (0,))
            assert abs(state[bits_to_index(a + (0,))] - (-1) ** f) < 1e-12


class TestRandomCircuit:
    def test_deterministic_given_state(self):
        a = random_circuit(4, 30, Mode.MIXED, np.random.default_rng(9))
        b = random_circuit(4, 30, Mode.MIXED, np.random.default_rng(9))
        assert a == b

    def test_max_hadamards_respected(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = random_circuit(4, 40, Mode.Z2, rng, max_hadamards=5)
            assert c.num_hadamards <= 5

    def test_kind_restriction(self):
        rng = np.random.default_rng(11)
        c = random_circuit(4, 30, Mode.Z2, rng, kinds=(GateKind.H, GateKind.TOFFOLI))
        assert {g.kind for g in c.gates} <= {GateKind.H, GateKind.TOFFOLI}
        with pytest.raises(ValueError):
            random_circuit(3, 5, Mode.MIXED, rng, kinds=(GateKind.TOFFOLI,))

    def test_single_qubit_pool(self):
        rng = np.random.default_rng(12)
        c = random_circuit(1, 10, Mode.Z2, rng)
        assert len(c.gates) == 10
        assert {g.kind for g in c.gates} <= {GateKind.X, GateKind.H}

    def test_no_qubit_is_refused(self):
        with pytest.raises(ValueError, match="circuit needs at least one qubit"):
            random_circuit(0, 3, Mode.Z2, np.random.default_rng(13))

    def test_drawing_stops_when_no_kind_is_usable(self):
        rng = np.random.default_rng(14)
        # A CNOT needs two qubits; after two H gates, H is used up too.
        assert random_circuit(1, 5, Mode.Z2, rng, kinds=(GateKind.CNOT,)).gates == ()
        c = random_circuit(2, 5, Mode.Z2, rng, max_hadamards=2, kinds=(GateKind.H,))
        assert [g.kind for g in c.gates] == [GateKind.H, GateKind.H]
