"""Tests of the one amplitude path, counting._row, in both modes.

count, amplitude, cyclotomic_amplitude and the CLI's _amplitude all
read _row: affine outputs are eliminated and reduced, other outputs
filter the 2^h sweep. On seeded random circuits of three kinds (raw z2,
whose TOFFOLI outputs take the sweep; normalized z2, whose affine
outputs take eliminate and the rules; and mixed) _amplitude must equal
the dense simulator and the public entry point of its mode, and count
must equal the unreduced tally. The cap is checked whenever _row is
called, and the cap hint names what the sampler accepts.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from pathsum import (
    CapExceededError,
    CountPair,
    Mode,
    amplitude,
    compile_circuit,
    compile_mixed,
    count,
    cyclotomic_amplitude,
    eliminate,
    normalize,
    parse_circuit,
    random_circuit,
    simulate,
)
from pathsum import counting
from pathsum.circuit import bits_to_index
from pathsum.cli import main

from conftest import CIRCUITS_DIR, random_bits

H_CX = "mode mixed\nqubits 2\nh 0\ncx 0 1\n"  # |00> reaches 00 and 11 only


def _unreduced_row(system, b) -> list[int]:
    (row,) = counting._tally(system.num_path_vars, system.outputs, system.phase, b, 30).tolist()
    return row


def _draw(rng, kind: str):
    n = int(rng.integers(1, 7))
    if kind == "mixed":
        return random_circuit(n, 24, Mode.MIXED, rng, max_hadamards=10)
    circuit = random_circuit(n, 14, Mode.Z2, rng, max_hadamards=6)
    return normalize(circuit) if kind == "normalized z2" else circuit


@pytest.mark.parametrize("kind", ["raw z2", "normalized z2", "mixed"])
def test_one_path_equals_refsim_and_each_entry_point(kind):
    rng = np.random.default_rng(808)
    seen = Counter()
    for _ in range(60):
        circuit = _draw(rng, kind)
        n = circuit.num_qubits
        a = random_bits(rng, n)
        state = simulate(circuit, a)
        system = (compile_mixed if kind == "mixed" else compile_circuit)(circuit, a)
        affine = all(poly.degree <= 1 for poly in system.outputs)
        seen["affine" if affine else "sweep"] += 1
        for _ in range(4):
            b = random_bits(rng, n)
            value = counting._amplitude(system, b, 30)
            if kind == "mixed":
                assert abs(value.as_complex() - state[bits_to_index(b)]) < 1e-10
                assert value == cyclotomic_amplitude(circuit, a, b)
            else:
                assert abs(value.as_float() - state[bits_to_index(b)]) < 1e-10
                assert value == amplitude(system, b)
                assert count(system, b) == CountPair(*_unreduced_row(system, b), system.num_path_vars)
            assert value == counting._value(_unreduced_row(system, b), system.num_path_vars)
            seen["refuted"] += affine and eliminate(system, b) is None
    if kind == "raw z2":
        assert seen["sweep"] >= 10, seen
    else:
        assert seen["affine"] == 60 and seen["refuted"], seen


def test_row_reports_the_paths_that_reach_b():
    system = compile_mixed(parse_circuit(H_CX), (0, 0))
    assert counting._row(system, (1, 1), 30) == ([1, 0, 0, 0, 0, 0, 0, 0], 1)
    assert counting._row(system, (0, 1), 30) == ([0] * 8, 0)
    golden = compile_circuit(parse_circuit((CIRCUITS_DIR / "toffoli_h_3q.circ").read_text()), (0, 0, 0))
    row, reached = counting._row(golden, (0, 0, 0), 30)
    assert (row, reached) == (_unreduced_row(golden, (0, 0, 0)), sum(row))


class TestNegativeCap:
    def test_refuted_mixed_output_is_refused(self):
        circuit = parse_circuit(H_CX)
        with pytest.raises(ValueError, match="cap"):
            cyclotomic_amplitude(circuit, (0, 0), (0, 1), cap=-1)
        with pytest.raises(ValueError, match="cap"):
            cyclotomic_amplitude(circuit, (0, 0), (1, 1), cap=-1)

    @pytest.mark.parametrize("out", ["01", "00"])
    def test_cli_amplitude_exits_1(self, out, tmp_path, capsys):
        path = tmp_path / "h_cx.circ"
        path.write_text(H_CX, encoding="utf-8")
        code = main(["amplitude", str(path), "--in", "00", "--out", out, "--cap", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "cap" in captured.err and "Traceback" not in captured.err

    def test_cli_sample_exits_1_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew samples with a negative cap")

        monkeypatch.setattr("pathsum.montecarlo._block_tally", no_draw)
        bell = str(CIRCUITS_DIR / "bell.circ")
        code = main(["sample", bell, "--in", "00", "--out", "00", "--cap", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "cap" in captured.err


def test_cap_hint_names_the_sampler_and_its_mode(tmp_path, capsys):
    path = tmp_path / "ht40.circ"
    path.write_text("mode mixed\nqubits 1\n" + "h 0\nt 0\n" * 40, encoding="utf-8")
    with pytest.raises(CapExceededError, match="pathsum sample .z2-mode circuits only"):
        cyclotomic_amplitude(parse_circuit(path.read_text()), (0,), (0,), cap=5)
    code = main(["amplitude", str(path), "--in", "0", "--out", "0", "--cap", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "pathsum sample" in err and "z2-mode" in err
    assert "montecarlo" not in err
