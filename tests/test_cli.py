"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import json

import pytest

from pathsum import PathSystem, compile_circuit, parse_circuit
from pathsum.cli import main

from conftest import CIRCUITS_DIR

GOLDEN = str(CIRCUITS_DIR / "toffoli_h_3q.circ")
HTH = str(CIRCUITS_DIR / "hth.circ")
BELL = str(CIRCUITS_DIR / "bell.circ")
AND_ORACLE = str(CIRCUITS_DIR / "and_oracle.circ")


@pytest.fixture
def cli(capsys):
    def run(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def empty_circ(tmp_path):
    path = tmp_path / "empty.circ"
    path.write_text("mode z2\nqubits 2\n", encoding="utf-8")
    return str(path)


class TestParse:
    def test_text_summary(self, cli):
        code, out, _ = cli("parse", GOLDEN)
        assert code == 0
        assert out.strip() == "ok: mode=z2 qubits=3 gates=6 hadamards=4"

    def test_json_gate_list(self, cli):
        code, out, _ = cli("parse", HTH, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"mode": "mixed", "qubits": 1, "gates": [["h", 0], ["p", 1, 0], ["h", 0]]}

    def test_syntax_error_exits_1(self, cli, tmp_path):
        bad = tmp_path / "bad.circ"
        bad.write_text("mode z2\nqubits 2\nfoo 0\n", encoding="utf-8")
        code, _, err = cli("parse", str(bad))
        assert code == 1
        assert "line 3" in err

    def test_missing_file_exits_1(self, cli):
        code, _, err = cli("parse", "no-such-file.circ")
        assert code == 1
        assert err.startswith("error:")


class TestCompile:
    def test_json_round_trips(self, cli):
        code, out, _ = cli("compile", GOLDEN, "--in", "000")
        assert code == 0
        system = PathSystem.from_dict(json.loads(out))
        with open(GOLDEN, encoding="utf-8") as handle:
            circuit = parse_circuit(handle.read())
        assert system == compile_circuit(circuit, (0, 0, 0))

    def test_text_form(self, cli):
        code, out, _ = cli("compile", GOLDEN, "--in", "000", "--format", "text")
        assert code == 0
        assert "h = 4" in out
        assert "B_0 = x3 + x2*x4" in out
        assert "phase = x1*x3 + x1*x2*x4" in out

    def test_mixed_doc(self, cli):
        code, out, _ = cli("compile", HTH, "--in", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == 2
        assert doc["outputs"] == ["x2"]
        assert doc["phase"] == [[1, "x1"], [4, "x1*x2"]]

    def test_normalize_flag_adds_hadamards(self, cli):
        code, out, _ = cli("compile", AND_ORACLE, "--in", "110", "--normalize")
        assert code == 0
        assert json.loads(out)["h"] == 2

    def test_wrong_input_length_exits_1(self, cli):
        code, _, err = cli("compile", GOLDEN, "--in", "00")
        assert code == 1
        assert "3 bit(s)" in err


class TestAmplitude:
    def test_z2_exact_and_decimal(self, cli):
        code, out, _ = cli("amplitude", GOLDEN, "--in", "000", "--out", "000")
        assert code == 0
        assert out.strip() == "2/2^(4/2) = 0.500000000000"

    def test_empty_circuit_exact_zero(self, cli, empty_circ):
        code, out, _ = cli("amplitude", empty_circ, "--in", "01", "--out", "10")
        assert code == 0
        assert out.strip() == "0/2^(0/2) = 0.000000000000"

    def test_mixed_cyclotomic_form(self, cli):
        code, out, _ = cli("amplitude", HTH, "--in", "0", "--out", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(1 + 1*w + 0*w^2 + 0*w^3)/2^(2/2), w = exp(i*pi/4)"
        assert lines[1] == "= 0.853553390593 + 0.353553390593i"

    def test_leftmost_bit_is_qubit_zero(self, cli, tmp_path):
        path = tmp_path / "x0.circ"
        path.write_text("mode z2\nqubits 2\nx 0\n", encoding="utf-8")
        code, out, _ = cli("amplitude", str(path), "--in", "00", "--out", "10")
        assert code == 0
        assert out.strip().endswith("= 1.000000000000")

    def test_byte_order_mark_is_skipped(self, cli, tmp_path):
        path = tmp_path / "bom.circ"
        path.write_bytes(b"\xef\xbb\xbfmode z2\nqubits 1\nh 0\nh 0\n")
        code, out, err = cli("amplitude", str(path), "--in", "0", "--out", "0")
        assert (code, out, err) == (0, "2/2^(2/2) = 1.000000000000\n", "")

    def test_cap_exceeded_exits_3(self, cli):
        code, _, err = cli("amplitude", GOLDEN, "--in", "000", "--out", "000", "--cap", "2")
        assert code == 3
        assert "cap" in err


class TestDistribution:
    def test_omits_unreachable_outputs(self, cli):
        code, out, _ = cli("distribution", BELL, "--in", "00")
        assert code == 0
        assert out.splitlines() == [
            "00 1/2^(1/2) 0.707106781187",
            "11 1/2^(1/2) 0.707106781187",
        ]

    def test_mixed_distribution(self, cli):
        code, out, _ = cli("distribution", HTH, "--in", "0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0 (1 + 1*w")


class TestTransformCommands:
    def test_decision_emits_parseable_circuit(self, cli):
        code, out, _ = cli("decision", AND_ORACLE, "--answer", "2")
        assert code == 0
        c = parse_circuit(out)
        assert c.num_qubits == 4
        assert len(c.gates) == 3

    def test_sign_emits_parseable_circuit(self, cli):
        code, out, _ = cli("sign", AND_ORACLE, "--answer", "2")
        assert code == 0
        c = parse_circuit(out)
        assert c.num_qubits == 4
        assert c.num_hadamards == 2


class TestVerify:
    def test_file_exhaustive(self, cli):
        code, out, _ = cli("verify", GOLDEN, "--exhaustive")
        assert code == 0
        assert "max |error|" in out

    def test_mismatch_exits_2(self, cli):
        code, out, _ = cli("verify", GOLDEN, "--exhaustive", "--tol", "0")
        assert code == 2
        assert "mismatch" in out

    def test_random_z2_and_mixed(self, cli):
        for mode in ("z2", "mixed"):
            code, out, _ = cli(
                "verify", "random", "--mode", mode, "--n", "3",
                "--gates", "12", "--trials", "5", "--seed", "9",
            )
            assert code == 0, out

    def test_seed_determinism(self, cli):
        args = ("verify", "random", "--trials", "3", "--seed", "5")
        assert cli(*args) == cli(*args)

    def test_exhaustive_size_guard(self, cli, tmp_path):
        path = tmp_path / "wide.circ"
        path.write_text("mode z2\nqubits 7\n", encoding="utf-8")
        code, _, err = cli("verify", str(path), "--exhaustive")
        assert code == 1
        assert "exhaustive" in err


class TestSample:
    def test_reports_fields_and_exact(self, cli):
        code, out, _ = cli(
            "sample", GOLDEN, "--in", "000", "--out", "000",
            "--samples", "4096", "--seed", "7",
        )
        assert code == 0
        assert "estimate = " in out
        assert "std_error = " in out
        assert "samples = 4096  h = 4  seed = 7" in out
        assert "generator = numpy.random.default_rng (PCG64)" in out
        assert "exact = 0.500000000000 (2/2^(4/2))" in out

    def test_seed_determinism(self, cli):
        args = ("sample", GOLDEN, "--in", "000", "--out", "000", "--seed", "3")
        assert cli(*args) == cli(*args)

    def test_mixed_mode_rejected(self, cli):
        code, _, err = cli("sample", HTH, "--in", "0", "--out", "0")
        assert code == 1
        assert "z2" in err


class TestStats:
    def test_z2_report(self, cli):
        code, out, _ = cli("stats", GOLDEN)
        assert code == 0
        assert "h = 4" in out
        assert "normalized-form bounds: satisfied" in out

    def test_mixed_report(self, cli):
        code, out, _ = cli("stats", HTH)
        assert code == 0
        assert "canonical degree 2" in out

    def test_normalize_flag(self, cli):
        code, out, _ = cli("stats", AND_ORACLE, "--normalize")
        assert code == 0
        assert "h = 2" in out


class TestUsage:
    def test_no_arguments(self, cli):
        code, _, err = cli()
        assert code == 1

    def test_unknown_subcommand(self, cli):
        assert cli("frobnicate")[0] == 1

    def test_missing_required_flag(self, cli):
        assert cli("amplitude", GOLDEN, "--in", "000")[0] == 1

    def test_help_exits_0(self, cli):
        code, out, _ = cli("--help")
        assert code == 0
        assert "amplitude" in out

    def test_version(self, cli):
        code, out, _ = cli("--version")
        assert code == 0
        assert out.startswith("pathsum ")
