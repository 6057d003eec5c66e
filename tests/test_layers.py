"""Tests for the layering of the pipeline and the limits at its edges.

Imports run one way (circuit, gf2poly -> compile_z2 -> counting ->
montecarlo, cli) and only the counting kernel evaluates polynomials on
packed paths. Amplitude values stay finite at any Hadamard count and
match the direct float formula bit for bit below 2^1024; the sampler
and `verify random` reject out-of-range sizes before drawing; and
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
from pathsum import cli, montecarlo
from pathsum.cli import main

from conftest import GOLDEN_PATH

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


def test_amplitude_mixed_rejects_a_z2_phase():
    circuit = parse_circuit("mode z2\nqubits 1\nh 0\nh 0\n")
    reduced = eliminate(compile_circuit(circuit, (0,)), (0,))
    with pytest.raises(ValueError, match="mod 8"):
        amplitude_mixed(reduced.phase, reduced.free_vars, 2)
