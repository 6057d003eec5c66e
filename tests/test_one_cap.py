"""Tests of the one cap rule: --cap bounds the path variables left to enumerate.

In both modes and every command the cap is log2 of the assignments left
for the rules and the kernel: the free variables after Gaussian
elimination, or all h where nothing is eliminated (non-affine outputs,
distribution, count_all). So a circuit over {X, CNOT, H}, legal in both
modes, meets the cap at the same value in both, and the cap message
names the variables to enumerate and h.
"""

from __future__ import annotations

import numpy as np
import pytest

from pathsum import (
    CapExceededError,
    Circuit,
    GateKind,
    Mode,
    all_basis_strings,
    compile_circuit,
    compile_mixed,
    count,
    count_all,
    distribution,
    parse_circuit,
    random_circuit,
    simulate,
)
from pathsum import counting
from pathsum.circuit import bits_to_index
from pathsum.cli import main

SHARED = (GateKind.X, GateKind.CNOT, GateKind.H)
IDENTITY_16 = "mode z2\nqubits 16\n" + "".join(f"h {q}\nh {q}\n" for q in range(16))
H64_CHAIN = "mode z2\nqubits 1\n" + "h 0\n" * 64


def _capped(system, b, cap):
    try:
        return counting._amplitude(system, b, cap)
    except CapExceededError:
        return None


def test_both_modes_meet_the_cap_at_the_same_value_and_agree_with_refsim():
    rng = np.random.default_rng(9)
    triples = capped = 0
    for _ in range(150):
        n = int(rng.integers(1, 6))
        z2 = random_circuit(n, int(rng.integers(1, 16)), Mode.Z2, rng, max_hadamards=8, kinds=SHARED)
        mixed = Circuit(n, z2.gates, Mode.MIXED)
        a = tuple(int(bit) for bit in rng.integers(0, 2, size=n))
        state = simulate(z2, a)
        systems = compile_circuit(z2, a), compile_mixed(mixed, a)
        h = systems[0].num_path_vars
        for b in all_basis_strings(n):
            for cap in range(h + 1):
                real, cyclotomic = (_capped(system, b, cap) for system in systems)
                triples += 1
                if real is None or cyclotomic is None:
                    assert real is None and cyclotomic is None, (z2.gates, a, b, cap)
                    capped += 1
                    continue
                assert abs(real.as_float() - cyclotomic.as_complex()) < 1e-12
                assert abs(real.as_float() - state[bits_to_index(b)]) < 1e-12
    assert capped and capped < triples


def test_sixteen_qubit_identity_reduces_in_z2_mode(tmp_path, capsys):
    path = tmp_path / "identity16.circ"
    path.write_text(IDENTITY_16, encoding="utf-8")
    code = main(["amplitude", str(path), "--in", "0" * 16, "--out", "0" * 16])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == "65536/2^(32/2) = 1.000000000000\n"


class TestH64Chain:
    """One qubit, 64 Hadamards: elimination leaves 63 of h = 64 variables."""

    def test_reduces_within_the_packed_limit(self, tmp_path, capsys):
        path = tmp_path / "h64.circ"
        path.write_text(H64_CHAIN, encoding="utf-8")
        code = main(["amplitude", str(path), "--in", "0", "--out", "0", "--cap", "70"])
        assert code == 0
        assert capsys.readouterr().out.endswith("= 1.000000000000\n")

    def test_default_cap_names_the_variables_left_and_h(self, tmp_path, capsys):
        path = tmp_path / "h64.circ"
        path.write_text(H64_CHAIN, encoding="utf-8")
        code = main(["amplitude", str(path), "--in", "0", "--out", "0"])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err
        assert "2^63 assignments (63 path variables to enumerate, h = 64)" in err
        assert "cap of 2^30" in err
        assert "raise --cap" in err and "pathsum sample (z2-mode circuits only)" in err


def test_beyond_the_packed_limit_the_message_does_not_ask_for_a_larger_cap(tmp_path, capsys):
    # h q; h q on every qubit: elimination leaves the 137 first-layer variables free.
    n = 137
    path = tmp_path / "identity137.circ"
    path.write_text(f"mode z2\nqubits {n}\n" + "".join(f"h {q}\nh {q}\n" for q in range(n)), encoding="utf-8")
    code = main(["amplitude", str(path), "--in", "0" * n, "--out", "0" * n, "--cap", "100"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert "137 path variables to enumerate, h = 274" in err
    assert "packed-path limit of 63" in err
    assert "raise --cap" not in err and "pathsum sample" not in err


def test_sweeps_still_cap_h():
    system = compile_circuit(parse_circuit(IDENTITY_16), (0,) * 16)
    for sweep in (count_all, distribution):
        with pytest.raises(CapExceededError, match=r"32 path variables to enumerate, h = 32"):
            sweep(system, cap=31)
    assert count(system, (0,) * 16, cap=16).count0 == 1 << 16
    with pytest.raises(CapExceededError, match=r"16 path variables to enumerate, h = 32"):
        count(system, (0,) * 16, cap=15)
