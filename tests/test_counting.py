"""Tests for the exact counting kernel and amplitude reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from pathsum import (
    CapExceededError,
    Circuit,
    CountPair,
    Gate,
    Mode,
    RealAmplitude,
    all_basis_strings,
    amplitude,
    bits_to_index,
    compile_circuit,
    count,
    count_all,
    distribution,
    invert,
    random_circuit,
    simulate,
)

from conftest import naive_count, random_bits


def random_z2(rng, max_qubits=6, max_gates=30, max_h=14):
    n = int(rng.integers(1, max_qubits + 1))
    return random_circuit(
        n, int(rng.integers(0, max_gates + 1)), Mode.Z2, rng, max_hadamards=max_h
    )


class TestCountBasics:
    def test_golden_counts(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        pair = count(ps, (0, 0, 0))
        assert pair == CountPair(2, 0, 4)
        assert pair.gap == 2 and pair.total == 2

    def test_empty_circuit_counts(self):
        ps = compile_circuit(Circuit(2, (), Mode.Z2), (0, 1))
        assert count(ps, (0, 1)) == CountPair(1, 0, 0)
        assert count(ps, (1, 0)) == CountPair(0, 0, 0)

    def test_single_hadamard(self):
        ps = compile_circuit(Circuit(1, (Gate.h(0),), Mode.Z2), (1,))
        assert count(ps, (0,)) == CountPair(1, 0, 1)
        assert count(ps, (1,)) == CountPair(0, 1, 1)

    def test_output_length_checked(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        with pytest.raises(ValueError):
            count(ps, (0, 0))

    def test_cap_enforced(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        with pytest.raises(CapExceededError):
            count(ps, (0, 0, 0), cap=3)
        with pytest.raises(ValueError):
            count(ps, (0, 0, 0), cap=-1)


class TestKernelAgainstNaiveLoop:
    def test_matches_naive_loop_on_random_circuits(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            c = random_z2(rng, max_qubits=5, max_gates=25, max_h=10)
            ps = compile_circuit(c, random_bits(rng, c.num_qubits))
            b = random_bits(rng, c.num_qubits)
            assert count(ps, b) == naive_count(ps, b)

    def test_count_all_matches_single_counts(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = random_z2(rng, max_qubits=4, max_gates=20, max_h=10)
            ps = compile_circuit(c, random_bits(rng, c.num_qubits))
            table = count_all(ps)
            assert set(table) == set(all_basis_strings(c.num_qubits))
            for b in all_basis_strings(c.num_qubits):
                assert table[b] == count(ps, b)

    def test_block_partitioning_exercised(self):
        # 21 Hadamards split the 2^21 enumeration across two blocks
        c = Circuit(1, (Gate.h(0),) * 21, Mode.Z2)
        ps = compile_circuit(c, (0,))
        pair = count(ps, (0,))
        assert pair.total == 1 << 20
        assert pair.gap == 1 << 10  # H^21 = H, so the amplitude is 1/sqrt(2)
        assert amplitude(ps, (0,)).as_float() == pytest.approx(
            simulate(c, (0,))[0].real, abs=1e-10
        )

    def test_thread_pool_gives_identical_counts(self, monkeypatch):
        c = Circuit(2, (Gate.h(0), Gate.h(1)) * 11, Mode.Z2)
        ps = compile_circuit(c, (0, 0))
        monkeypatch.delenv("PATHSUM_THREADS", raising=False)
        serial = count(ps, (0, 0))
        monkeypatch.setenv("PATHSUM_THREADS", "4")
        threaded = count(ps, (0, 0))
        assert serial == threaded
        monkeypatch.setenv("PATHSUM_THREADS", "not-a-number")
        with pytest.warns(RuntimeWarning):
            assert count(ps, (0, 0)) == serial


class TestIntegerIdentities:
    def test_partition_and_unitarity_sums(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            c = random_z2(rng, max_qubits=5, max_gates=30, max_h=12)
            ps = compile_circuit(c, random_bits(rng, c.num_qubits))
            table = count_all(ps)
            h = ps.num_path_vars
            assert sum(p.total for p in table.values()) == 1 << h
            assert sum(p.gap ** 2 for p in table.values()) == 1 << h

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            c = random_z2(rng, max_qubits=5, max_gates=25, max_h=10)
            a = random_bits(rng, c.num_qubits)
            b = random_bits(rng, c.num_qubits)
            forward = amplitude(compile_circuit(c, a), b)
            backward = amplitude(compile_circuit(invert(c), b), a)
            assert forward == backward


class TestOracleEquivalence:
    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            c = random_z2(rng, max_qubits=6, max_gates=30, max_h=14)
            a = random_bits(rng, c.num_qubits)
            ps = compile_circuit(c, a)
            state = simulate(c, a)
            for _ in range(4):
                b = random_bits(rng, c.num_qubits)
                got = amplitude(ps, b).as_float()
                assert got == pytest.approx(
                    state[bits_to_index(b)].real, abs=1e-10
                )


class TestRealAmplitude:
    def test_exact_string_and_float(self):
        value = RealAmplitude(2, 4)
        assert str(value) == "2/2^(4/2)"
        assert value.as_float() == 0.5
        assert RealAmplitude(0, 0).as_float() == 0.0
        assert RealAmplitude(-3, 2).as_float() == -1.5

    def test_gap_bounded_by_total_paths(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            c = random_z2(rng, max_qubits=4, max_gates=20, max_h=10)
            ps = compile_circuit(c, random_bits(rng, c.num_qubits))
            pair = count(ps, random_bits(rng, c.num_qubits))
            assert abs(pair.gap) <= 1 << pair.h


class TestDistribution:
    def test_unreachable_outputs_absent(self):
        c = Circuit(2, (Gate.h(0), Gate.cnot(0, 1)), Mode.Z2)
        ps = compile_circuit(c, (0, 0))
        table = distribution(ps)
        assert set(table) == {(0, 0), (1, 1)}
        assert all(str(v) == "1/2^(1/2)" for v in table.values())

    def test_cancelled_outputs_still_reported(self):
        # HXH = Z fixes |0>: output 1 is reachable by two cancelling paths
        c = Circuit(1, (Gate.h(0), Gate.x(0), Gate.h(0)), Mode.Z2)
        ps = compile_circuit(c, (0,))
        table = distribution(ps)
        assert table[(1,)].gap == 0
        assert table[(0,)].gap == 2

    def test_squares_sum_to_one(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            c = random_z2(rng, max_qubits=4, max_gates=20, max_h=10)
            ps = compile_circuit(c, random_bits(rng, c.num_qubits))
            total = sum(v.as_float() ** 2 for v in distribution(ps).values())
            assert total == pytest.approx(1.0, abs=1e-9)
