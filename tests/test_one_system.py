"""Tests for the one path system of both modes and its entry points.

Covers the shared PathSystem and distribution, the z2-only entry points
refusing a mixed phase, the single copy of the gate rules behind
Circuit and parse_circuit, the blocked Monte Carlo sampler, the
distribution output limit, the PATHSUM_THREADS warning and the
argument checks of ``pathsum verify``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pathsum import (
    Circuit,
    CircuitSyntaxError,
    CyclotomicValue,
    Gate,
    GF2Poly,
    MAX_QUBITS,
    MixedPhase,
    MixedSystem,
    Mode,
    PathSystem,
    RealAmplitude,
    amplitude,
    compile_circuit,
    compile_mixed,
    count,
    count_all,
    distribution,
    distribution_mixed,
    estimate_amplitude,
    parse_circuit,
    random_circuit,
)
from pathsum import counting, montecarlo
from pathsum.cli import main

from conftest import CIRCUITS_DIR, random_bits

HTH = CIRCUITS_DIR / "hth.circ"
GOLDEN = CIRCUITS_DIR / "toffoli_h_3q.circ"


def hth_system() -> PathSystem:
    return compile_mixed(parse_circuit(HTH.read_text(encoding="utf-8")), (0,))


class TestOneSystem:
    def test_aliases(self):
        assert MixedSystem is PathSystem
        assert distribution_mixed is distribution

    def test_phase_type_follows_mode(self, golden_circuit):
        assert isinstance(compile_circuit(golden_circuit, (0, 0, 0)).phase, GF2Poly)
        assert isinstance(hth_system().phase, MixedPhase)

    def test_dict_forms_round_trip(self, golden_circuit):
        z2 = compile_circuit(golden_circuit, (1, 0, 1))
        mixed = hth_system()
        assert isinstance(z2.to_dict()["phase"], str)
        assert mixed.to_dict()["phase"] == [[1, "x1"], [4, "x1*x2"]]
        for system in (z2, mixed):
            doc = json.loads(json.dumps(system.to_dict()))
            assert PathSystem.from_dict(doc) == system

    def test_distribution_value_type_follows_phase(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            c = random_circuit(4, 20, Mode.Z2, rng, max_hadamards=8)
            ps = compile_circuit(c, random_bits(rng, 4))
            expected = {
                bits: RealAmplitude(pair.gap, pair.h)
                for bits, pair in count_all(ps).items()
                if pair.total > 0
            }
            assert distribution(ps) == expected
        values = distribution(hth_system()).values()
        assert values and all(isinstance(v, CyclotomicValue) for v in values)


class TestZ2EntryPointsRefuseMixedPhase:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: count(s, (0,)),
            lambda s: count_all(s),
            lambda s: amplitude(s, (0,)),
            lambda s: estimate_amplitude(s, (0,), 64, seed=0),
        ],
        ids=["count", "count_all", "amplitude", "estimate_amplitude"],
    )
    def test_raises_value_error_naming_z2(self, call):
        with pytest.raises(ValueError, match="z2"):
            call(hth_system())


class TestOneCopyOfGateRules:
    def test_parse_and_circuit_give_the_same_message(self):
        with pytest.raises(ValueError) as built:
            Circuit(1, (Gate.t(0),), Mode.Z2)
        with pytest.raises(CircuitSyntaxError) as parsed:
            parse_circuit("mode z2\nqubits 1\np 1 0\n")
        assert str(parsed.value) == f"line 3: {built.value}"
        assert "not allowed in z2 mode" in str(built.value)

    @pytest.mark.parametrize(
        "line, word",
        [("h q", "'q'"), ("p x 0", "'x'"), ("p 1 y", "'y'"), ("cx 0 1.5", "'1.5'")],
    )
    def test_non_integer_fields_read_clearly(self, line, word):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(f"mode mixed\nqubits 2\n{line}\n")
        message = str(err.value)
        assert message.startswith("line 3: bad ") and word in message
        assert "invalid literal" not in message

    def test_bad_qubit_count_reads_clearly(self):
        with pytest.raises(CircuitSyntaxError, match="line 2: bad qubit count 'two'"):
            parse_circuit("mode z2\nqubits two\n")

    @pytest.mark.parametrize(
        "line", ["p", "p 1", "t", "h -1", "ccx 0 1 2", "p 8 0", "qubits 2"]
    )
    def test_gate_errors_carry_the_line(self, line):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(f"mode mixed\n# comment\nqubits 2\n\n{line}\n")
        assert err.value.line == 5


class TestBlockedSampler:
    def test_block_size_does_not_change_the_estimate(self, golden_circuit, monkeypatch):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        default = estimate_amplitude(ps, (0, 0, 0), 1001, seed=5)
        monkeypatch.setattr(montecarlo, "_SAMPLE_BLOCK", 8)
        assert estimate_amplitude(ps, (0, 0, 0), 1001, seed=5) == default

    def test_matches_the_per_sample_scores(self, golden_circuit):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        result = estimate_amplitude(ps, (0, 0, 0), 777, seed=9)
        rng = np.random.default_rng(9)
        scores = []
        for x in rng.integers(0, 1 << ps.num_path_vars, size=777, dtype=np.uint64):
            point = int(x) << 1
            if all(p.evaluate_mask(point) == 0 for p in ps.outputs):
                scores.append(4.0 * (-1) ** ps.phase.evaluate_mask(point))
            else:
                scores.append(0.0)
        assert result.estimate == pytest.approx(np.mean(scores), abs=1e-12)
        assert result.std_error == pytest.approx(
            np.std(scores, ddof=1) / math.sqrt(777), abs=1e-12
        )


class TestDistributionOutputLimit:
    def test_limit_matches_the_dense_simulator(self):
        assert counting._MAX_OUTPUT_QUBITS == MAX_QUBITS == 20

    def test_21_qubits_exit_3_before_enumerating(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("enumerated past the output limit")

        monkeypatch.setattr(counting, "_fold", no_sweep)
        path = tmp_path / "wide.circ"
        path.write_text("mode z2\nqubits 21\nx 0\n", encoding="utf-8")
        code = main(["distribution", str(path), "--in", "0" * 21])
        err = capsys.readouterr().err
        assert code == 3
        assert "20-qubit" in err and "Traceback" not in err


class TestThreadSetting:
    @pytest.mark.parametrize("raw", ["not-a-number", "0", "-2", ""])
    def test_invalid_value_warns_and_runs_on_one_thread(self, raw, golden_circuit, monkeypatch):
        ps = compile_circuit(golden_circuit, (0, 0, 0))
        monkeypatch.delenv("PATHSUM_THREADS", raising=False)
        expected = count(ps, (0, 0, 0))
        monkeypatch.setenv("PATHSUM_THREADS", raw)
        with pytest.warns(RuntimeWarning, match=f"PATHSUM_THREADS={raw!r}"):
            assert count(ps, (0, 0, 0)) == expected
            assert counting._worker_count() == 1


class TestVerifyArguments:
    @pytest.mark.parametrize(
        "extra",
        [
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--tol", "-1"),
            ("--pairs", "0"),
            ("--pairs", "-1"),
            ("--trials", "0"),
            ("--trials", "-1"),
        ],
    )
    def test_vacuous_runs_are_rejected(self, extra, capsys):
        code = main(["verify", "random", "--trials", "2", *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and extra[0] in err

    def test_file_circuit_rejects_nan_tolerance(self, capsys):
        code = main(["verify", str(GOLDEN), "--tol", "nan"])
        assert code == 1
        assert "--tol" in capsys.readouterr().err
