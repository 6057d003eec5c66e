"""Tests for the shared gate sweep and the truth-table kernel.

The kernel tabulates each polynomial on a block of paths by the
subset-sum transform of its monomials; it is checked table for table
against per-monomial evaluation of every path (_block_tally, the Monte
Carlo sampler's evaluator) and against the dense simulator, with blocks
small enough that each restricts the polynomials to a high prefix, and
every exhaustive entry point is checked to run without evaluating a
polynomial monomial by monomial. The mixed distribution sweep is
checked entry for entry against the per-output elimination loop it
replaced and against the dense simulator; every kernel caller is
checked for identical results with blocks spread over threads; the fold
is checked to stream its blocks; and the 63-variable packed-path limit
is checked at the library and the command line.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pathsum import (
    CapExceededError,
    Circuit,
    CyclotomicValue,
    Gate,
    GateKind,
    GF2Poly,
    MixedPhase,
    Mode,
    all_basis_strings,
    amplitude_mixed,
    bits_to_index,
    compile_circuit,
    compile_mixed,
    count,
    count_all,
    distribution,
    distribution_mixed,
    eliminate,
    estimate_amplitude,
    parse_circuit,
    random_circuit,
    simulate,
)
from pathsum import counting
from pathsum.cli import main

from conftest import random_bits


def random_mixed(rng: np.random.Generator, max_qubits: int = 5, max_h: int = 10) -> Circuit:
    n = int(rng.integers(1, max_qubits + 1))
    return random_circuit(
        n, int(rng.integers(0, 30)), Mode.MIXED, rng, max_hadamards=max_h
    )


def eliminate_loop(system):
    """The per-output loop that distribution_mixed replaces."""
    table = {}
    for bits in all_basis_strings(system.num_qubits):
        reduced = eliminate(system, bits)
        if reduced is not None:
            table[bits] = amplitude_mixed(
                reduced.phase, reduced.free_vars, system.num_path_vars
            )
    return table


def hadamard_chain(h: int) -> Circuit:
    return Circuit(1, (Gate.h(0),) * h, Mode.Z2)


# h = 64 with the non-affine output x1*x2 on qubit 2, which sweeps all 2^h paths.
NON_AFFINE_64 = "mode z2\nqubits 3\nh 0\nh 1\nccx 0 1 2\n" + "h 0\n" * 62


def per_monomial(h: int, outputs, phase, target) -> np.ndarray:
    """The table of all 2^h paths by per-monomial evaluation of each path."""
    return counting._block_tally(np.arange(1 << h, dtype=np.uint64), outputs, phase, target)


def exact(value) -> complex:
    return value.as_complex() if isinstance(value, CyclotomicValue) else value.as_float()


def compiled(rng: np.random.Generator, mode: Mode, max_h: int):
    n = int(rng.integers(1, 5))
    circuit = random_circuit(n, int(rng.integers(0, 30)), mode, rng, max_hadamards=max_h)
    a = random_bits(rng, n)
    system = (compile_circuit if mode is Mode.Z2 else compile_mixed)(circuit, a)
    return system, simulate(circuit, a)


class TestTruthTableKernel:
    @pytest.mark.parametrize("block_bits, lanes", [(1, 64), (3, 2), (20, 64)])
    def test_equals_per_monomial_evaluation_and_refsim(self, block_bits, lanes, monkeypatch):
        # Blocks of 2^1 and 2^3 paths restrict every polynomial to a high
        # prefix; lanes of 2 bits spread the outputs over several tables.
        monkeypatch.setattr(counting, "_BLOCK_BITS", block_bits)
        monkeypatch.setattr(counting, "_LANES", lanes)
        rng = np.random.default_rng(2100 + block_bits)
        prefixed = 0
        for trial in range(60):
            mode = (Mode.Z2, Mode.MIXED)[trial % 2]
            system, state = compiled(rng, mode, 9)
            h, outputs, phase = system.num_path_vars, system.outputs, system.phase
            # The same phase as a Z8 map, tallied mod 8: a z2 phase f is 4*f.
            z8, mixed = (dict.fromkeys(phase.masks, 4), MixedPhase(((4, phase),))) if mode is Mode.Z2 else (
                counting._z8(phase), phase
            )
            table = counting._tally(h, outputs, phase, None, 30)
            assert np.array_equal(table, per_monomial(h, outputs, phase, None))
            assert np.array_equal(counting._tally(h, outputs, z8, None, 30), per_monomial(h, outputs, mixed, None))
            for index, row in enumerate(table.tolist()):
                assert abs(exact(counting._value(row, h)) - state[index]) < 1e-10
            b = random_bits(rng, len(outputs))
            (row,) = counting._tally(h, outputs, phase, b, 30).tolist()
            assert row == per_monomial(h, outputs, phase, b).tolist()[0]
            assert row == table[bits_to_index(b)].tolist()
            assert np.array_equal(counting._tally(h, outputs, z8, b, 30), per_monomial(h, outputs, mixed, b))
            prefixed += h > block_bits
        assert prefixed > 20 or block_bits == 20

    def test_monomials_that_meet_in_a_block_cancel(self, monkeypatch):
        # In the blocks where x3 = 1, x1 and x1*x3 both restrict to x1.
        monkeypatch.setattr(counting, "_BLOCK_BITS", 1)
        poly = GF2Poly.from_terms([[1], [1, 3], [2, 3]])
        for phase in (poly, MixedPhase(((1, poly), (2, GF2Poly.from_terms([[1, 2, 3]]))))):
            for target in (None, (0,), (1,)):
                assert np.array_equal(
                    counting._tally(3, (poly,), phase, target, 30), per_monomial(3, (poly,), phase, target)
                )

    def test_exhaustive_tallies_never_evaluate_monomial_by_monomial(self, monkeypatch):
        def per_monomial_values(*args):
            raise AssertionError("an exhaustive tally evaluated a polynomial monomial by monomial")

        monkeypatch.setattr(GF2Poly, "values", per_monomial_values)
        monkeypatch.setattr(MixedPhase, "values", per_monomial_values)
        rng = np.random.default_rng(2101)
        swept = 0
        for trial in range(60):
            mode = (Mode.Z2, Mode.MIXED)[trial % 2]
            system, state = compiled(rng, mode, 8)
            h, n = system.num_path_vars, system.num_qubits
            b = random_bits(rng, n)
            amplitudes = distribution(system)
            got = exact(amplitudes[b]) if b in amplitudes else 0
            assert abs(got - state[bits_to_index(b)]) < 1e-10
            if mode is Mode.Z2:
                swept += any(poly.degree > 1 for poly in system.outputs)
                assert count(system, b) == count_all(system)[b]
            else:
                reduced = eliminate(system, b)
                if reduced is not None:
                    value = amplitude_mixed(reduced.phase, reduced.free_vars, h)
                    assert abs(value.as_complex() - state[bits_to_index(b)]) < 1e-10
        assert swept > 3  # count took the sweep over all 2^h paths


class TestSharedSweep:
    def test_z2_phase_is_xor_of_mixed_indicators(self):
        # On the gates both modes share, the z2 phase is the mixed phase 4*f.
        rng = np.random.default_rng(60)
        shared = [GateKind.X, GateKind.CNOT, GateKind.H]
        for _ in range(40):
            n = int(rng.integers(1, 5))
            z2 = random_circuit(n, int(rng.integers(0, 25)), Mode.Z2, rng, kinds=shared)
            mixed = Circuit(n, z2.gates, Mode.MIXED)
            a = random_bits(rng, n)
            ps, ms = compile_circuit(z2, a), compile_mixed(mixed, a)
            assert ps.outputs == ms.outputs
            assert ps.num_path_vars == ms.num_path_vars
            assert all(c == 4 for c, _ in ms.phase.terms)
            xor = GF2Poly.zero()
            for _, indicator in ms.phase.terms:
                xor = xor + indicator
            assert ps.phase == xor


class TestDistributionMixed:
    def test_equals_elimination_loop_exactly(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            circuit = random_mixed(rng)
            system = compile_mixed(circuit, random_bits(rng, circuit.num_qubits))
            sweep = distribution_mixed(system)
            assert list(sweep) == list(eliminate_loop(system))
            assert sweep == eliminate_loop(system)

    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            circuit = random_mixed(rng)
            a = random_bits(rng, circuit.num_qubits)
            state = simulate(circuit, a)
            sweep = distribution_mixed(compile_mixed(circuit, a))
            for bits in all_basis_strings(circuit.num_qubits):
                got = sweep[bits].as_complex() if bits in sweep else 0.0
                assert abs(got - state[bits_to_index(bits)]) <= 1e-10

    def test_cap_bounds_h(self):
        system = compile_mixed(Circuit(1, (Gate.h(0),) * 5, Mode.MIXED), (0,))
        with pytest.raises(CapExceededError):
            distribution_mixed(system, cap=4)
        assert distribution_mixed(system, cap=5)


class TestThreadedBlocks:
    def test_every_caller_identical_under_threads(self, monkeypatch):
        monkeypatch.setattr(counting, "_BLOCK_BITS", 3)
        rng = np.random.default_rng(63)
        checked = 0
        for _ in range(30):
            z2 = random_circuit(4, 30, Mode.Z2, rng, max_hadamards=9)
            mixed = random_circuit(4, 30, Mode.MIXED, rng, max_hadamards=9)
            ps = compile_circuit(z2, random_bits(rng, 4))
            ms = compile_mixed(mixed, random_bits(rng, 4))
            reduced = eliminate(ms, random_bits(rng, 4))
            runs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("PATHSUM_THREADS", threads)
                runs.append((
                    count_all(ps),
                    distribution_mixed(ms),
                    None if reduced is None else amplitude_mixed(
                        reduced.phase, reduced.free_vars, ms.num_path_vars
                    ),
                ))
            assert runs[0] == runs[1]
            checked += min(ps.num_path_vars, ms.num_path_vars) > 3
        assert checked > 10  # most draws span more than one block


class TestStreamedBlocks:
    def test_count_all_folds_blocks_as_they_finish(self, monkeypatch):
        # 10 outputs and h = 14: 256 blocks of 64 paths, each tallying
        # a 2 x 1024 table. Holding every block's table costs over 4 MB.
        gates = [Gate.h(q) for q in range(10)]
        gates += [Gate.toffoli(q, (q + 1) % 10, (q + 2) % 10) for q in range(10)]
        gates += [Gate.h(q) for q in range(4)]
        system = compile_circuit(Circuit(10, tuple(gates), Mode.Z2), (0,) * 10)
        assert system.num_path_vars == 14
        expected = count_all(system)
        monkeypatch.setattr(counting, "_BLOCK_BITS", 6)
        monkeypatch.delenv("PATHSUM_THREADS", raising=False)
        tracemalloc.start()
        try:
            streamed = count_all(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert streamed == expected
        assert peak < 1_500_000


class TestPackedPathLimit:
    def test_kernel_refuses_64_variables(self):
        ps = compile_circuit(parse_circuit(NON_AFFINE_64), (0, 0, 0))
        assert ps.num_path_vars == 64
        with pytest.raises(CapExceededError, match="63"):
            count(ps, (0, 0, 0), cap=70)
        with pytest.raises(CapExceededError, match="63"):
            amplitude_mixed(MixedPhase(), range(1, 65), 64, cap=70)

    def test_sampler_refuses_64_variables(self):
        ps = compile_circuit(hadamard_chain(64), (0,))
        with pytest.raises(CapExceededError, match="63"):
            estimate_amplitude(ps, (0,), 16, seed=0)

    def test_sampler_accepts_63_variables(self):
        ps = compile_circuit(hadamard_chain(63), (0,))
        result = estimate_amplitude(ps, (0,), 64, seed=0)
        assert result.h == 63 and np.isfinite(result.estimate)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--in", "000", "--out", "000"),
            ("amplitude", "--in", "000", "--out", "000", "--cap", "70"),
        ],
    )
    def test_cli_exits_3(self, argv, tmp_path, capsys):
        path = tmp_path / "h64.circ"
        path.write_text(NON_AFFINE_64, encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "63" in err
        assert "Traceback" not in err
