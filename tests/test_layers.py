"""Tests for the layering of the pipeline and the limits at its edges.

Imports run one way (circuit, gf2poly -> compile_z2 -> counting ->
montecarlo, cli) and only the counting kernel evaluates polynomials on
packed paths. Amplitude values stay finite at any Hadamard count and
match the direct float formula bit for bit below 2^1024; the sampler
and `verify` reject out-of-range sizes before drawing, and both
name a negative --seed; a circuit file declaring too many qubits is
refused where the count is read; `verify` compiles once per input; and
amplitude_mixed names the phase it needs when handed a z2 one.
"""

from __future__ import annotations

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import pathsum
from pathsum import (
    CapExceededError,
    CyclotomicValue,
    PathSystem,
    RealAmplitude,
    amplitude_mixed,
    compile_circuit,
    distribution,
    eliminate,
    estimate_amplitude,
    parse_circuit,
)
from pathsum import cli, counting, montecarlo
from pathsum.circuit import MAX_DECLARED_QUBITS
from pathsum.cli import main

from conftest import CIRCUITS_DIR, GOLDEN_PATH

SRC = Path(pathsum.__file__).resolve().parent


def _relative_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


class TestLayers:
    def test_mixed_module_is_gone_and_its_names_stay(self):
        assert importlib.util.find_spec("pathsum.mixed") is None
        moved = {
            "MixedSystem", "Reduced", "eliminate", "amplitude_mixed",
            "cyclotomic_amplitude", "distribution_mixed",
        }
        assert moved <= set(pathsum.__all__)
        assert all(hasattr(pathsum, name) for name in pathsum.__all__)
        assert pathsum.MixedSystem is PathSystem
        assert pathsum.distribution_mixed is distribution
        for name in (
            "compile_circuit", "compile_mixed", "eliminate",
            "amplitude_mixed", "count", "count_all",
        ):
            assert getattr(pathsum, name).__name__ == name

    def test_imports_run_one_way(self):
        assert _relative_imports("compile_z2").isdisjoint({"counting", "montecarlo", "cli"})
        assert _relative_imports("counting").isdisjoint({"montecarlo", "cli"})

    def test_the_reduce_layer_lives_in_counting(self):
        compile_tree = ast.parse((SRC / "compile_z2.py").read_text(encoding="utf-8"))
        from_gf2poly = {
            alias.name
            for node in ast.walk(compile_tree)
            if isinstance(node, ast.ImportFrom) and node.module == "gf2poly"
            for alias in node.names
        }
        assert from_gf2poly == {"GF2Poly", "MixedPhase", "parse_poly"}
        gf2poly_tree = ast.parse((SRC / "gf2poly.py").read_text(encoding="utf-8"))
        functions = [node.name for node in gf2poly_tree.body if isinstance(node, ast.FunctionDef)]
        assert not [name for name in functions if "substitut" in name]
        counting_tree = ast.parse((SRC / "counting.py").read_text(encoding="utf-8"))
        definitions = {
            node.name: node for node in ast.walk(counting_tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }

        def called(name: str) -> set[str]:
            return {
                node.func.id
                for node in ast.walk(definitions[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }

        # Both restrictions of an _Echelon, at b and symbolic, run the one
        # substitution, and the rules the same product loop and XOR expansion.
        assert {"_substituted", "_add_xor"} <= called("_substitute") and "_z8" not in called("_substitute")
        assert "_substitute" in called("restrict")
        assert {"_substituted", "_add_xor"} <= called("_reduce")
        products = [node.name for node in definitions.values() if "products = [" in ast.unparse(node)]
        assert products == ["_substituted"]
        assert pathsum.eliminate is counting.eliminate and pathsum.Reduced is counting.Reduced

    def test_cli_reaches_amplitudes_only_through_the_one_path(self):
        assert not hasattr(counting, "_mixed_amplitude")
        tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        entry_points = {
            "count", "amplitude", "amplitude_mixed", "cyclotomic_amplitude", "eliminate",
            "_amplitude", "_row", "_reduced_row", "_tally",
        }
        assert imported & entry_points == {"_amplitude"}

    def test_only_the_kernel_evaluates_packed_paths(self):
        offenders = [
            path.name
            for path in SRC.glob("*.py")
            if path.name not in ("gf2poly.py", "counting.py")
            and ".values(" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestLargeHadamardCounts:
    def test_values_stay_finite_past_h_1023(self):
        assert RealAmplitude(1, 1100).as_float() == 2.0 ** -550
        assert RealAmplitude(-3, 1101).as_float() == -3 * 2.0 ** -550 / math.sqrt(2)
        assert CyclotomicValue((1, 0, 0, 0), 1100).as_complex() == 2.0 ** -550
        # Numerators beyond the float range are divided exactly first.
        assert RealAmplitude(1 << 1100, 2200).as_float() == 1.0
        assert (
            CyclotomicValue((0, 0, 1 << 1100, 0), 2200).as_complex()
            == CyclotomicValue((0, 0, 1, 0), 0).as_complex()
        )

    def test_bit_identical_to_the_float_formula_below_1024(self):
        omega = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        rng = np.random.default_rng(31)
        for h in [*range(0, 1024, 7), 1023]:
            for _ in range(5):
                bound = 1 << min(h, 62)
                gap = int(rng.integers(-bound, bound + 1))
                coeffs = tuple(int(c) for c in rng.integers(-bound, bound + 1, size=4))
                assert RealAmplitude(gap, h).as_float() == gap / math.sqrt(2.0 ** h)
                expected = sum(c * omega ** k for k, c in enumerate(coeffs)) / math.sqrt(2.0 ** h)
                assert CyclotomicValue(coeffs, h).as_complex() == expected

    def test_cli_amplitude_at_h_1100(self, tmp_path, capsys):
        n = 1100
        path = tmp_path / "wide.circ"
        path.write_text(
            f"mode mixed\nqubits {n}\n" + "".join(f"h {q}\n" for q in range(n)),
            encoding="utf-8",
        )
        code = main(["amplitude", str(path), "--in", "0" * n, "--out", "0" * n])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("(1 + 0*w + 0*w^2 + 0*w^3)/2^(1100/2)")


def _no_draw(*args):
    raise AssertionError("drew samples past the limit")


class TestSampleLimit:
    def test_limit_is_checked_before_drawing(self, golden_circuit, monkeypatch):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        monkeypatch.setattr(montecarlo, "_block_tally", _no_draw)
        with pytest.raises(CapExceededError, match="limit of 1073741824"):
            estimate_amplitude(ps, (0, 0, 0), (1 << 30) + 1, seed=0)

    def test_limit_is_inclusive(self, golden_circuit, monkeypatch):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        monkeypatch.setattr(montecarlo, "_MAX_SAMPLES", 1000)
        assert estimate_amplitude(ps, (0, 0, 0), 1000, seed=0).num_samples == 1000
        with pytest.raises(CapExceededError):
            estimate_amplitude(ps, (0, 0, 0), 1001, seed=0)

    def test_cli_exits_3_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "_block_tally", _no_draw)
        code = main(
            ["sample", str(GOLDEN_PATH), "--in", "000", "--out", "000", "--samples", "1073741825"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "limit" in err and "Traceback" not in err


class TestVerifyQubitRange:
    @pytest.mark.parametrize("n", ["100000000000000000000", "21", "0", "-1"])
    def test_out_of_range_n_is_rejected_before_drawing(self, n, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a circuit for an out-of-range --n")

        monkeypatch.setattr(cli, "random_circuit", no_draw)
        code = main(["verify", "random", "--n", n, "--trials", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "20-qubit" in err

    def test_n_at_the_limit_is_accepted(self, capsys):
        code = main(["verify", "random", "--n", "20", "--trials", "1", "--pairs", "1", "--gates", "4"])
        assert code == 0


class TestVerifyGateRange:
    @pytest.mark.parametrize("gates", ["100000000000000000000", "1001", "0", "-3"])
    def test_out_of_range_gates_are_rejected_before_drawing(self, gates, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a circuit for an out-of-range --gates")

        monkeypatch.setattr(cli, "random_circuit", no_draw)
        code = main(["verify", "random", "--gates", gates, "--trials", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --gates") and str(cli.MAX_RANDOM_GATES) in err

    @pytest.mark.parametrize("gates", ["1", str(cli.MAX_RANDOM_GATES)])
    def test_gates_at_either_limit_are_accepted(self, gates, capsys):
        code = main(["verify", "random", "--mode", "mixed", "--n", "2", "--gates", gates,
                     "--trials", "1", "--pairs", "1"])
        assert code == 0
        assert "verified 1 circuit(s)" in capsys.readouterr().out


class TestVerifyPairAndTrialRange:
    def test_too_many_pairs_are_rejected_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a basis pair for an out-of-range --pairs")

        monkeypatch.setattr(cli, "_draw_bits", no_draw)
        code = main(["verify", str(GOLDEN_PATH), "--pairs", "1000000000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --pairs") and str(cli.MAX_VERIFY_PAIRS) in err

    def test_too_many_trials_are_rejected_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a circuit for an out-of-range --trials")

        monkeypatch.setattr(cli, "random_circuit", no_draw)
        code = main(["verify", "random", "--trials", "1000000000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --trials") and str(cli.MAX_RANDOM_TRIALS) in err

    def test_pairs_at_the_limit_are_accepted(self, capsys):
        code = main(["verify", str(CIRCUITS_DIR / "hth.circ"), "--pairs", str(cli.MAX_VERIFY_PAIRS)])
        assert code == 0
        assert f"{cli.MAX_VERIFY_PAIRS} pair(s)" in capsys.readouterr().out


class TestDeclaredQubitLimit:
    def _write(self, tmp_path, n: int) -> str:
        path = tmp_path / "wide.circ"
        path.write_text(f"mode z2\nqubits {n}\nh 0\n", encoding="utf-8")
        return str(path)

    def test_parse_refuses_a_count_past_the_limit(self):
        with pytest.raises(ValueError, match=f"limit of {MAX_DECLARED_QUBITS}"):
            parse_circuit(f"mode z2\nqubits {MAX_DECLARED_QUBITS + 1}\n")
        assert parse_circuit(f"mode z2\nqubits {MAX_DECLARED_QUBITS}\n").num_qubits == MAX_DECLARED_QUBITS

    @pytest.mark.parametrize("argv", [["stats"], ["verify", "--exhaustive"], ["parse"]])
    def test_cli_exits_1_without_a_traceback(self, argv, tmp_path, capsys):
        code = main([*argv[:1], self._write(tmp_path, 10**12), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 2: qubit count") and "Traceback" not in err

    def test_exhaustive_refuses_seven_qubits_at_the_limit(self, tmp_path, capsys):
        code = main(["verify", self._write(tmp_path, MAX_DECLARED_QUBITS), "--exhaustive"])
        assert code == 1
        assert "at most 6 qubits" in capsys.readouterr().err


def test_verify_compiles_once_per_input(monkeypatch, capsys):
    compiled = []
    compile_mixed = cli.compile_mixed

    def spy(circuit, input_bits):
        compiled.append(tuple(input_bits))
        return compile_mixed(circuit, input_bits)

    monkeypatch.setattr(cli, "compile_mixed", spy)
    monkeypatch.setattr(counting, "compile_mixed", spy)
    code = main(["verify", str(CIRCUITS_DIR / "hth.circ"), "--exhaustive"])
    assert code == 0 and "4 pair(s)" in capsys.readouterr().out
    assert sorted(compiled) == [(0,), (1,)]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", str(GOLDEN_PATH), "--in", "000", "--out", "000", "--seed", "-5"],
        ["verify", "random", "--seed", "-1"],
        ["verify", str(GOLDEN_PATH), "--seed", "-1"],
    ],
)
def test_negative_seed_is_named(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --seed") and "Traceback" not in err


def test_amplitude_mixed_rejects_a_z2_phase():
    circuit = parse_circuit("mode z2\nqubits 1\nh 0\nh 0\n")
    reduced = eliminate(compile_circuit(circuit, (0,)), (0,))
    with pytest.raises(ValueError, match="mod 8"):
        amplitude_mixed(reduced.phase, reduced.free_vars, 2)
