"""Differential tests of the reduce layer: eliminate and the path-sum
reducer inside count and amplitude_mixed.

_reduce sums variables out of a phase's canonical Z8 map by Elim and
[HH] before the kernel enumerates what is left; elimination hands it
that map directly, the reduce layer's one phase form. The reduced results must
equal, exactly, the unreduced _tally over all 2^h paths of the same
system, and match the dense simulator. eliminate substitutes its pivots
into the same Z8 map; its result, and that of the one product loop
_substituted expanded by _add_xor, must equal the object substitution
it replaced, GF2Poly.substitute per pivot followed by canonicalize. A
system's first elimination row-reduces it once into its _Echelon, and
every elimination restricts that, at b for the first consistent output
and symbolically from the second on; at every output, in any order,
that must equal the object substitution too, and the amplitudes the
dense simulator.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathsum import (
    Circuit,
    CountPair,
    Gate,
    GateKind,
    GF2Poly,
    MixedPhase,
    Mode,
    all_basis_strings,
    amplitude,
    amplitude_mixed,
    compile_circuit,
    compile_mixed,
    count,
    cyclotomic_amplitude,
    eliminate,
    normalize,
    random_circuit,
    simulate,
)
from pathsum import counting, gf2poly
from pathsum.circuit import bits_to_index

from conftest import random_bits


def var(i: int) -> GF2Poly:
    return GF2Poly.variable(i)


def x(*indices: int) -> int:
    return sum(1 << i for i in indices)


class TestRules:
    def test_elim_doubles_unused_variables(self):
        assert counting._reduce(gf2poly._z8(MixedPhase()), (1, 2, 3)) == (3, {}, ())

    def test_hh_solves_an_affine_g(self):
        # x1 sums to 2*[x2 + x3 = 0], so x2 becomes x3 in 1*x2.
        phase = MixedPhase(((4, var(1) * var(2)), (4, var(1) * var(3)), (1, var(2))))
        assert counting._reduce(gf2poly._z8(phase), (1, 2, 3)) == (1, {x(3): 1}, (3,))
        value = amplitude_mixed(phase, (1, 2, 3), 3)
        assert value.coeffs == (2, 2, 0, 0)  # 2 * (1 + w)

    def test_hh_with_a_constant_in_g(self):
        # 4*x1*(x2 + 1): x1 sums to 2*[x2 = 1], so 2*x2*x3 becomes 2*x3.
        phase = MixedPhase(((4, var(1) * var(2)), (4, var(1)), (2, var(2) * var(3))))
        assert counting._reduce(gf2poly._z8(phase), (1, 2, 3)) == (1, {x(3): 2}, (3,))

    def test_g_equal_to_one_is_exactly_zero(self):
        phase = MixedPhase(((4, var(1)), (1, var(2))))
        assert counting._reduce(gf2poly._z8(phase), (1, 2)) is None
        assert amplitude_mixed(phase, (1, 2), 2).is_zero

    @pytest.mark.parametrize(
        "phase",
        [
            MixedPhase(((1, var(1)), (3, var(2)))),  # odd coefficients
            MixedPhase(((2, var(1) * var(2)), (6, var(2)))),  # coefficient 2 or 6
            MixedPhase(((4, var(1) * var(2) * var(3)),)),  # degree-3 cofactors
        ],
    )
    def test_no_rule_fires(self, phase):
        doublings, terms, rest = counting._reduce(gf2poly._z8(phase), (1, 2, 3)[: len(phase.support())])
        assert (doublings, rest) == (0, tuple(sorted(phase.support())))
        assert terms == {next(iter(f.masks)): c for c, f in phase.canonicalize().terms}

    def test_remaining_variables_keep_their_order(self):
        phase = MixedPhase(((1, var(5)), (1, var(2))))
        assert counting._reduce(gf2poly._z8(phase), (5, 4, 2)) == (1, {x(5): 1, x(2): 1}, (5, 2))


@pytest.fixture
def tally_sizes(monkeypatch) -> list[int]:
    """The k of every _tally call, i.e. log2 of the paths enumerated."""
    sizes = []
    tally = counting._tally

    def spy(k, *args):
        sizes.append(k)
        return tally(k, *args)

    monkeypatch.setattr(counting, "_tally", spy)
    return sizes


def test_hadamard_chain_enumerates_one_path(tally_sizes):
    system = compile_circuit(Circuit(1, (Gate.h(0),) * 40, Mode.Z2), (0,))
    pair = count(system, (0,), cap=40)
    assert tally_sizes == [0]
    assert pair == CountPair((1 << 38) + (1 << 19), (1 << 38) - (1 << 19), 40)
    assert amplitude(system, (0,), cap=40).as_float() == 1.0  # H^40 = I


def _unreduced_row(system, b) -> list[int]:
    """The tally row of all 2^h paths that reach b, as before the rules."""
    (row,) = counting._tally(system.num_path_vars, system.outputs, system.phase, b, 30).tolist()
    return row


def _draw(rng, normalized: bool) -> tuple[Circuit, Circuit, tuple[int, ...]]:
    """A z2 circuit, normalized (affine outputs: eliminate, then the rules)
    or not (TOFFOLI outputs take the 2^h sweep), a mixed one and an input."""
    n = int(rng.integers(1, 5))
    z2 = random_circuit(n, 14, Mode.Z2, rng, max_hadamards=6)
    mixed = random_circuit(n, 24, Mode.MIXED, rng, max_hadamards=12)
    return normalize(z2) if normalized else z2, mixed, random_bits(rng, n)


def test_reduced_equals_unreduced_in_both_modes(monkeypatch):
    reductions = []
    reduce = counting._reduce

    def spy(phase, free_vars):
        result = reduce(phase, free_vars)
        reductions.append(None if result is None else (len(free_vars), len(result[2])))
        return result

    monkeypatch.setattr(counting, "_reduce", spy)
    rng = np.random.default_rng(2024)
    seen = Counter()
    for trial in range(120):
        z2, mixed, a = _draw(rng, trial % 2 == 1)
        system, state = compile_circuit(z2, a), simulate(z2, a)
        mixed_system, mixed_state = compile_mixed(mixed, a), simulate(mixed, a)
        seen["fallback"] += any(poly.degree > 1 for poly in system.outputs)
        for _ in range(3):
            b = random_bits(rng, len(a))
            assert count(system, b) == CountPair(*_unreduced_row(system, b), system.num_path_vars)
            assert abs(amplitude(system, b).as_float() - state[bits_to_index(b)]) < 1e-10
            value = cyclotomic_amplitude(mixed, a, b)
            assert value == counting._value(_unreduced_row(mixed_system, b), mixed_system.num_path_vars)
            assert abs(value.as_complex() - mixed_state[bits_to_index(b)]) < 1e-10
            seen["refuted"] += eliminate(mixed_system, b) is None
    assert seen["refuted"] and seen["fallback"]
    assert None in reductions, "no sum made zero by [HH]"
    assert any(r and r[0] == r[1] > 0 for r in reductions), "no draw where the rules do not fire"
    assert any(r and r[0] > r[1] for r in reductions), "no draw the rules shrink"


def test_identical_under_threads(tally_sizes, monkeypatch):
    monkeypatch.setattr(counting, "_BLOCK_BITS", 1)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PATHSUM_THREADS", threads)
        rng = np.random.default_rng(77)
        run = []
        for _ in range(60):
            z2, mixed, a = _draw(rng, True)
            b = random_bits(rng, len(a))
            run.append((count(compile_circuit(z2, a), b), cyclotomic_amplitude(mixed, a, b)))
        runs.append(run)
    assert runs[0] == runs[1]
    assert max(tally_sizes) > 1  # some reduced cores span several blocks


def _object_eliminate(system, b):
    """eliminate by objects: pivots back-substituted into each other, then
    each one substituted into the phase with GF2Poly.substitute; a mixed
    phase is canonicalized at the end. None when B(x) = b is inconsistent."""
    pivots = {}
    for poly, bit in zip(system.outputs, b):
        mask, rhs = sum(poly.masks), bit ^ (0 in poly.masks)
        for var, (pmask, prhs) in pivots.items():
            if mask >> var & 1:
                mask, rhs = mask ^ pmask, rhs ^ prhs
        if mask == 0:
            if rhs:
                return None
            continue
        var = (mask & -mask).bit_length() - 1
        for other, (omask, orhs) in list(pivots.items()):
            if omask >> var & 1:
                pivots[other] = (omask ^ mask, orhs ^ rhs)
        pivots[var] = (mask, rhs)
    phase = system.phase
    for var, (mask, rhs) in pivots.items():
        replacement = GF2Poly(
            [1 << w for w in range(mask.bit_length()) if w != var and mask >> w & 1] + [0] * rhs
        )
        if isinstance(phase, GF2Poly):
            phase = phase.substitute(var, replacement)
        else:
            phase = MixedPhase(tuple((c, f.substitute(var, replacement)) for c, f in phase.terms))
    free = tuple(v for v in range(1, system.num_path_vars + 1) if v not in pivots)
    return free, phase if isinstance(phase, GF2Poly) else phase.canonicalize(), pivots


def test_eliminate_equals_the_object_substitution_in_both_modes():
    rng = np.random.default_rng(4242)
    seen = Counter()
    for _ in range(200):
        z2, mixed, a = _draw(rng, True)
        for system in (compile_circuit(z2, a), compile_mixed(mixed, a)):
            mode = "z2" if isinstance(system.phase, GF2Poly) else "mixed"
            for _ in range(4):
                b = random_bits(rng, len(a))
                reduced, expected = eliminate(system, b), _object_eliminate(system, b)
                if expected is None:
                    assert reduced is None
                    seen[mode, "refuted"] += 1
                    continue
                free, phase, pivots = expected
                assert reduced.free_vars == free
                assert type(reduced.phase) is type(phase)
                assert reduced.phase == phase
                seen[mode, "constant pivot"] += any(rhs for _, rhs in pivots.values())
                seen[mode, "pivots"] += len(pivots)
    for mode in ("z2", "mixed"):
        assert seen[mode, "refuted"] and seen[mode, "constant pivot"] and seen[mode, "pivots"], seen


def _with_quiet_wires(rng, mode: Mode) -> tuple[Circuit, tuple[int, ...]]:
    """A random circuit of at most 6 qubits and an input. Its quiet wires
    see only X and CNOT, so they get no path variable of their own: their
    outputs are constants or XORs of other wires, rows that often vanish
    in elimination and become checks."""
    n = int(rng.integers(1, 7))
    quiet = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
    drawn = random_circuit(n, 24, mode, rng, max_hadamards=12)
    linear = (GateKind.X, GateKind.CNOT)
    gates = tuple(g for g in drawn.gates if g.kind in linear or quiet.isdisjoint(g.qubits))
    circuit = Circuit(n, gates, mode)
    return normalize(circuit) if mode is Mode.Z2 else circuit, random_bits(rng, n)


def test_every_elimination_of_a_system_equals_the_object_substitution():
    rng = np.random.default_rng(1616)
    seen = Counter()
    for trial in range(80):
        mode = (Mode.Z2, Mode.MIXED)[trial % 2]
        circuit, a = _with_quiet_wires(rng, mode)
        system = (compile_circuit if mode is Mode.Z2 else compile_mixed)(circuit, a)
        outputs = list(all_basis_strings(circuit.num_qubits))
        rng.shuffle(outputs)
        for call, b in enumerate(outputs):
            reduced, expected = eliminate(system, b), _object_eliminate(system, b)
            state = vars(system)[counting._ECHELON]
            assert isinstance(state, counting._Echelon)
            assert reduced == eliminate(dataclasses.replace(system), b)  # a fresh system's first elimination
            if expected is None:
                assert reduced is None
                seen[mode, "refuted"] += 1
                continue
            free, phase, pivots = expected
            assert reduced.free_vars == free and type(reduced.phase) is type(phase)
            assert reduced.phase == phase
            seen[mode, min(call, 2)] += 1
            seen[mode, "constant pivot"] += any(rhs for _, rhs in pivots.values())
        if circuit.num_qubits > 1:
            state = vars(system)[counting._ECHELON]
            seen[mode, "checks"] += len(state.checks)
            seen[mode, "constant output"] += any(p.degree == 0 for p in system.outputs)
    for mode in (Mode.Z2, Mode.MIXED):
        for kind in ("refuted", 0, 1, 2, "constant pivot", "checks", "constant output"):
            assert seen[mode, kind], (mode, kind, seen)


def test_amplitudes_of_every_output_from_one_system_match_the_simulator():
    rng = np.random.default_rng(1717)
    for trial in range(40):
        mode = (Mode.Z2, Mode.MIXED)[trial % 2]
        circuit, a = _with_quiet_wires(rng, mode)
        state = simulate(circuit, a)
        n = circuit.num_qubits
        if mode is Mode.Z2:
            system = compile_circuit(circuit, a)
            for b in all_basis_strings(n):
                pair = count(system, b)
                assert abs(pair.gap / np.sqrt(2.0**pair.h) - state[bits_to_index(b)]) < 1e-9
        else:
            system = compile_mixed(circuit, a)
            for b in all_basis_strings(n):
                value = counting._amplitude(system, b, counting.DEFAULT_CAP)
                assert value == cyclotomic_amplitude(circuit, a, b)
                assert abs(value.as_complex() - state[bits_to_index(b)]) < 1e-9
        assert isinstance(vars(system)[counting._ECHELON], counting._Echelon) or n == 1


def test_row_keeps_the_z8_map_from_elimination_to_the_tally(monkeypatch):
    def leave_the_map(*args):
        raise AssertionError("the reduce layer converted its Z8 map")

    monkeypatch.setattr(counting, "_z8", leave_the_map)
    monkeypatch.setattr(counting, "_from_z8", leave_the_map)
    rng = np.random.default_rng(1919)
    seen = Counter()
    for trial in range(40):
        mode = (Mode.Z2, Mode.MIXED)[trial % 2]
        circuit, a = _with_quiet_wires(rng, mode)
        system = (compile_circuit if mode is Mode.Z2 else compile_mixed)(circuit, a)
        assert all(poly.degree <= 1 for poly in system.outputs)  # every output is eliminated
        state = simulate(circuit, a)
        for b in all_basis_strings(circuit.num_qubits):
            echelon = isinstance(vars(system).get(counting._ECHELON), counting._Echelon)
            row, reached = counting._row(system, b, counting.DEFAULT_CAP)
            value = counting._value(row, system.num_path_vars)
            exact = value.as_float() if mode is Mode.Z2 else value.as_complex()
            assert abs(exact - state[bits_to_index(b)]) < 1e-9
            seen[mode, echelon] += reached > 0
    for mode in (Mode.Z2, Mode.MIXED):
        assert seen[mode, False] and seen[mode, True], seen


def test_threads_that_race_on_one_system_agree_with_fresh_systems():
    # A short switch interval lets threads interleave inside the first and
    # second restrictions, where the echelon's state changes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rng = np.random.default_rng(2121)
        for trial in range(24):
            mode = (Mode.Z2, Mode.MIXED)[trial % 2]
            circuit, a = _with_quiet_wires(rng, mode)
            system = (compile_circuit if mode is Mode.Z2 else compile_mixed)(circuit, a)
            outputs = list(all_basis_strings(circuit.num_qubits)) * 3
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda b: eliminate(system, b), outputs))
            assert got == [eliminate(dataclasses.replace(system), b) for b in outputs]
    finally:
        sys.setswitchinterval(interval)


def test_output_bits_are_read_mod_2_on_every_call():
    rng = np.random.default_rng(1818)
    for mode in (Mode.Z2, Mode.MIXED):
        circuit, a = _with_quiet_wires(rng, mode)
        system = (compile_circuit if mode is Mode.Z2 else compile_mixed)(circuit, a)
        for _ in range(4):
            b = random_bits(rng, circuit.num_qubits)
            wide = tuple(bit + 2 * int(rng.integers(0, 2)) for bit in b)  # 2 reads as 0, 3 as 1
            assert eliminate(system, wide) == eliminate(system, b)
            if mode is Mode.Z2:
                assert count(system, wide) == count(system, b)
            else:
                assert counting._amplitude(system, wide, 30) == counting._amplitude(system, b, 30)


def _prefix_xor(n: int, t: bool) -> Circuit:
    """H on every qubit, then cx q q+1, and with t a T gate on every qubit:
    each output has exactly one path."""
    gates = tuple(Gate.h(q) for q in range(n)) + tuple(Gate.cnot(q, q + 1) for q in range(n - 1))
    if t:
        return Circuit(n, gates + tuple(Gate.p(1, q) for q in range(n)), Mode.MIXED)
    return Circuit(n, gates, Mode.Z2)


def test_numpy_output_bits_are_read_exactly_past_63_qubits():
    n = 70
    rng = np.random.default_rng(7070)
    z2 = compile_circuit(_prefix_xor(n, False), (1,) * n)
    mixed = compile_mixed(_prefix_xor(n, True), (1,) * n)
    for _ in range(20):
        b = rng.integers(0, 2, size=n)
        plain = tuple(int(bit) for bit in b)
        assert count(z2, b) == count(z2, plain)
        assert counting._amplitude(mixed, b, 30) == counting._amplitude(mixed, plain, 30)
    for n in (62, 63, 70):
        system = compile_circuit(Circuit(n, tuple(Gate.x(q) for q in range(n)), Mode.Z2), (0,) * n)
        reduced = eliminate(system, np.ones(n, dtype=np.int64))
        assert reduced == eliminate(system, (1,) * n) and reduced.free_vars == ()
        assert eliminate(system, np.zeros(n, dtype=np.int64)) is None


def test_errors_leave_no_elimination_state():
    # q0 is the constant 1, so b = 0 is refuted by its row; q3 = x1*x2 is not affine.
    gates = (Gate.x(0), Gate.h(1), Gate.h(2), Gate.toffoli(1, 2, 3))
    system = compile_circuit(Circuit(4, gates, Mode.Z2), (0, 0, 0, 0))
    for b in ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="output constraints must be affine"):
            eliminate(system, b)
        assert counting._ECHELON not in vars(system)

    h_layer = Circuit(3, (Gate.h(0), Gate.h(1), Gate.cnot(0, 2)), Mode.MIXED)
    system = compile_mixed(h_layer, (0, 0, 1))
    with pytest.raises(ValueError, match="output length"):
        eliminate(system, (0, 0))
    assert counting._ECHELON not in vars(system)
    for b in all_basis_strings(3):  # the first call, the second, and later ones
        assert eliminate(system, b) == eliminate(dataclasses.replace(system), b)
        with pytest.raises(ValueError, match="output length"):
            eliminate(system, (0, 0, 0, 0))
    assert eliminate(system, (1, 0, 1)) is None  # output 2 is output 0 flipped
    assert eliminate(system, (1, 1, 0)).free_vars == ()


def test_a_refused_rank_substitutes_nothing(monkeypatch):
    substitutions = []
    substitute = counting._substitute

    def spy(*args):
        substitutions.append(args)
        return substitute(*args)

    monkeypatch.setattr(counting, "_substitute", spy)
    # Two H per qubit: eliminating the outputs leaves 3 of the 6 variables free.
    system = compile_mixed(Circuit(3, tuple(Gate.h(q) for q in range(3)) * 2, Mode.MIXED), (0, 0, 0))
    for b in all_basis_strings(3):
        with pytest.raises(counting.CapExceededError):
            counting._row(system, b, 2)
        assert isinstance(vars(system)[counting._ECHELON], counting._Echelon)
        assert substitutions == []
    assert counting._row(system, (0, 0, 0), 3) == ([8, 0, 0, 0, 0, 0, 0, 0], 8)
    assert len(substitutions) == 1
    for b in all_basis_strings(3):
        with pytest.raises(counting.CapExceededError):
            counting._row(system, b, 2)
    assert len(substitutions) == 1


def test_one_substitution_in_the_reduce_layer():
    assert not hasattr(MixedPhase, "substitute")
    src = Path(gf2poly.__file__).resolve().parent
    callers = [
        path.name
        for path in src.glob("*.py")
        if path.name != "gf2poly.py" and ".substitute(" in path.read_text(encoding="utf-8")
    ]
    assert callers == []


# x1..x3 are the pivots, replaced by affine rows over the free x4..x7.
_PIVOT_BITS, _FREE = x(1, 2, 3), (4, 5, 6, 7)
_MASKS = [m << 1 for m in range(128) if m.bit_count() <= 3]  # degree <= 3 over x1..x7
_PIVOT_PAIRS = [m for m in _MASKS if (m & _PIVOT_BITS).bit_count() >= 2]


@st.composite
def _substitutions(draw):
    rows = {
        var: ([1 << w for w in _FREE if draw(st.booleans())], draw(st.booleans()))
        for var in (1, 2, 3)
    }
    masks = draw(st.lists(st.sampled_from(_PIVOT_PAIRS), min_size=2, max_size=5))
    masks += draw(st.lists(st.sampled_from([0, *_MASKS]), max_size=3))
    start = draw(st.dictionaries(st.sampled_from([0, *_MASKS]), st.integers(1, 7), min_size=1))
    return start, draw(st.integers(1, 7)), GF2Poly(masks).masks, rows


@given(_substitutions())
def test_add_substituted_equals_the_object_substitution(drawn):
    start, coeff, masks, rows = drawn
    replacements = {var: free + [0] * rhs for var, (free, rhs) in rows.items()}
    got = dict(start)
    counting._add_xor(got, coeff, counting._substituted(masks, replacements, _PIVOT_BITS))
    indicator = GF2Poly(masks)
    for var, replacement in replacements.items():
        indicator = indicator.substitute(var, GF2Poly(replacement))
    expected = dict(start)
    for c, f in MixedPhase(((coeff, indicator),)).canonicalize().terms:
        (mask,) = f.masks
        expected[mask] = (expected.get(mask, 0) + c) % 8
    assert got == {mask: w for mask, w in expected.items() if w}
