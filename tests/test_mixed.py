"""Tests for the mixed-mode pipeline: Z8 phases, elimination, amplitudes."""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathsum import (
    CapExceededError,
    Circuit,
    CyclotomicValue,
    Gate,
    GF2Poly,
    MixedPhase,
    MixedSystem,
    Mode,
    all_basis_strings,
    amplitude_mixed,
    amplitude_ref,
    bits_to_index,
    compile_mixed,
    cyclotomic_amplitude,
    eliminate,
    parse_circuit,
    random_circuit,
    simulate,
)

from conftest import naive_cyclotomic, random_bits


def var(i: int) -> GF2Poly:
    return GF2Poly.variable(i)


def random_mixed(rng, max_qubits=5, max_gates=25, max_h=12):
    n = int(rng.integers(1, max_qubits + 1))
    return random_circuit(
        n, int(rng.integers(0, max_gates + 1)), Mode.MIXED, rng, max_hadamards=max_h
    )


HTH = "mode mixed\nqubits 1\nh 0\nt 0\nh 0\n"


class TestMixedPhase:
    def test_construction_drops_trivial_terms(self):
        phase = MixedPhase(((0, var(1)), (8, var(2)), (3, GF2Poly.zero()), (5, var(3))))
        assert phase.terms == ((5, var(3)),)

    def test_coefficients_reduced_mod_8(self):
        assert MixedPhase(((9, var(1)),)).terms == ((1, var(1)),)
        assert MixedPhase(((-1, var(1)),)).terms == ((7, var(1)),)

    def test_evaluate_mixes_z2_and_z8(self):
        phase = MixedPhase(((1, var(1)), (4, var(1) * var(2))))
        assert phase.evaluate({1: 0, 2: 0}) == 0
        assert phase.evaluate({1: 1, 2: 0}) == 1
        assert phase.evaluate({1: 1, 2: 1}) == 5
        assert phase.evaluate_mask(0b110) == 5

    def test_evaluate_refuses_an_unassigned_variable(self):
        with pytest.raises(ValueError, match="no value for variable x2"):
            MixedPhase(((1, var(1) * var(2)),)).evaluate({1: 0})

    def test_values_matches_scalar_evaluation(self):
        rng = np.random.default_rng(30)
        points = np.arange(64, dtype=np.uint64)
        for _ in range(20):
            terms = tuple(
                (int(rng.integers(0, 8)), GF2Poly(int(m) for m in rng.integers(0, 64, size=3)))
                for _ in range(4)
            )
            phase = MixedPhase(terms)
            table = phase.values(points)
            for point in range(64):
                assert int(table[point]) == phase.evaluate_mask(point)

    def test_str(self):
        phase = MixedPhase(((1, var(1)), (4, var(1) * var(2))))
        assert str(phase) == "1*(x1) + 4*(x1*x2)"
        assert str(MixedPhase()) == "0"


class TestCanonicalize:
    def test_xor_splits_with_coefficient_six(self):
        phase = MixedPhase(((1, var(1) + var(2)),))
        expected = ((1, var(1)), (1, var(2)), (6, var(1) * var(2)))
        assert phase.canonicalize().terms == expected

    def test_coefficient_four_kills_cross_term(self):
        phase = MixedPhase(((4, var(1) + var(2)),))
        assert phase.canonicalize().terms == ((4, var(1)), (4, var(2)))

    def test_opposite_coefficients_cancel(self):
        phase = MixedPhase(((1, var(1)), (7, var(1))))
        assert phase.canonicalize().terms == ()

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            terms = tuple(
                (int(rng.integers(0, 8)), GF2Poly(int(m) for m in rng.integers(0, 256, size=3)))
                for _ in range(int(rng.integers(0, 5)))
            )
            once = MixedPhase(terms).canonicalize()
            assert once.canonicalize() == once

    def test_preserves_values_exhaustively(self):
        rng = np.random.default_rng(32)
        points = np.arange(1 << 10, dtype=np.uint64)
        for _ in range(50):
            terms = tuple(
                (int(rng.integers(0, 8)), GF2Poly(int(m) for m in rng.integers(0, 1 << 10, size=4)))
                for _ in range(int(rng.integers(1, 5)))
            )
            phase = MixedPhase(terms)
            assert np.array_equal(phase.values(points), phase.canonicalize().values(points))

    def test_canonical_uniqueness_both_directions(self):
        rng = np.random.default_rng(33)
        points = np.arange(64, dtype=np.uint64)
        for _ in range(40):
            t1 = tuple(
                (int(rng.integers(0, 8)), GF2Poly(int(m) for m in rng.integers(0, 64, size=3)))
                for _ in range(2)
            )
            t2 = tuple(
                (int(rng.integers(0, 8)), GF2Poly(int(m) for m in rng.integers(0, 64, size=3)))
                for _ in range(2)
            )
            p1, p2 = MixedPhase(t1), MixedPhase(t2)
            same_form = p1.canonicalize() == p2.canonicalize()
            same_function = np.array_equal(p1.values(points), p2.values(points))
            assert same_form == same_function

    def test_scrambled_equal_phases_share_canonical_form(self):
        # 1*(x1 xor x2) and its own expansion are the same function
        phase = MixedPhase(((3, var(1) + var(2) + var(1) * var(2)),))
        split = MixedPhase(
            (
                (3, var(1)),
                (3, var(2)),
                (3, var(1) * var(2)),
                (2, var(1) * var(2)),
            )
        )
        assert phase.canonicalize() == split.canonicalize()

    def test_degree_three_from_t_on_triple_xor_is_kept(self):
        # coefficient 1 on x1 xor x2 xor x3 leaves a genuine 4*(x1*x2*x3) term
        phase = MixedPhase(((1, var(1) + var(2) + var(3)),))
        canonical = phase.canonicalize()
        assert canonical.degree == 3
        cubic = [t for t in canonical.terms if t[1] == var(1) * var(2) * var(3)]
        assert cubic == [(4, var(1) * var(2) * var(3))]

    def test_pure_xor_indicator_stays_quadratic(self):
        # a Hadamard-style coefficient-4 term on any XOR never passes degree 2
        rng = np.random.default_rng(34)
        for _ in range(30):
            masks = [1 << int(v) for v in rng.integers(1, 9, size=5)]
            phase = MixedPhase(((4, GF2Poly(masks)),))
            assert phase.canonicalize().degree <= 2


class TestCompileMixed:
    def test_hth_system(self):
        system = compile_mixed(parse_circuit(HTH), (0,))
        assert system.num_path_vars == 2
        assert system.outputs == (var(2),)
        assert system.phase.terms == ((1, var(1)), (4, var(1) * var(2)))

    def test_p_gate_records_wire(self):
        c = Circuit(2, (Gate.x(0), Gate.p(3, 0)), Mode.MIXED)
        system = compile_mixed(c, (0, 1))
        assert system.phase.terms == ((3, GF2Poly.one()),)
        assert system.outputs == (GF2Poly.one(), GF2Poly.one())

    def test_outputs_stay_affine(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            c = random_mixed(rng)
            system = compile_mixed(c, random_bits(rng, c.num_qubits))
            assert all(p.degree <= 1 for p in system.outputs)
            assert system.phase.degree <= 2

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            compile_mixed(Circuit(1, (), Mode.Z2), (0,))

    def test_dict_round_trip(self):
        system = compile_mixed(parse_circuit(HTH), (0,))
        assert MixedSystem.from_dict(system.to_dict()) == system


class TestEliminate:
    def test_hth_reduction(self):
        system = compile_mixed(parse_circuit(HTH), (0,))
        reduced = eliminate(system, (0,))
        assert reduced.free_vars == (1,)
        assert reduced.phase.terms == ((1, var(1)),)

    def test_pivot_with_constant(self):
        system = MixedSystem(
            num_path_vars=2,
            outputs=(var(1) + GF2Poly.one(),),
            phase=MixedPhase(((1, var(1)), (4, var(1) * var(2)))),
            input_bits=(0,),
        )
        reduced = eliminate(system, (0,))
        assert reduced.free_vars == (2,)
        # x1 := 1 turns 1*(x1) into a constant term and keeps 4*(x2)
        assert reduced.phase.terms == ((1, GF2Poly.one()), (4, var(2)))

    def test_inconsistent_system_returns_none(self):
        system = MixedSystem(
            num_path_vars=1,
            outputs=(var(1), var(1)),
            phase=MixedPhase(),
            input_bits=(0, 0),
        )
        assert eliminate(system, (0, 1)) is None

    def test_redundant_rows_collapse(self):
        system = MixedSystem(
            num_path_vars=2,
            outputs=(var(1), var(1)),
            phase=MixedPhase(),
            input_bits=(0, 0),
        )
        reduced = eliminate(system, (1, 1))
        assert reduced is not None
        assert reduced.free_vars == (2,)

    def test_multi_pivot_back_substitution(self):
        system = MixedSystem(
            num_path_vars=3,
            outputs=(var(1) + var(2), var(2) + var(3)),
            phase=MixedPhase(((1, var(1)), (1, var(3)))),
            input_bits=(0, 0),
        )
        reduced = eliminate(system, (1, 0))
        assert reduced is not None
        assert reduced.free_vars == (3,)
        # x2 = x3, x1 = x3 + 1: both phase terms now reference x3 only
        assert reduced.phase.support() <= {3}

    def test_rejects_nonaffine_outputs(self):
        system = MixedSystem(
            num_path_vars=2,
            outputs=(var(1) * var(2),),
            phase=MixedPhase(),
            input_bits=(0,),
        )
        with pytest.raises(ValueError):
            eliminate(system, (0,))

    @pytest.mark.parametrize(
        "outputs",
        [
            (GF2Poly.one() + var(1) + var(2) * var(3),),  # a constant and a linear term first
            (var(1) + var(2), var(2) * var(3)),  # an affine row, then a non-affine one
        ],
    )
    def test_rejects_nonaffine_outputs_in_any_row(self, outputs):
        system = MixedSystem(
            num_path_vars=3,
            outputs=outputs,
            phase=MixedPhase(),
            input_bits=(0,) * len(outputs),
        )
        with pytest.raises(ValueError, match="affine"):
            eliminate(system, (0,) * len(outputs))

    def test_elimination_agrees_with_full_enumeration(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            c = random_mixed(rng, max_qubits=4, max_gates=18, max_h=8)
            a = random_bits(rng, c.num_qubits)
            b = random_bits(rng, c.num_qubits)
            assert cyclotomic_amplitude(c, a, b) == naive_cyclotomic(c, a, b)


class TestCyclotomicValue:
    def test_hth_value(self):
        value = cyclotomic_amplitude(parse_circuit(HTH), (0,), (0,))
        assert value.coeffs == (1, 1, 0, 0)
        assert value.half_power == 2
        expected = (1 + np.exp(1j * np.pi / 4)) / 2
        assert abs(value.as_complex() - expected) < 1e-12
        assert str(value) == "(1 + 1*w + 0*w^2 + 0*w^3)/2^(2/2)"

    def test_zero(self):
        zero = CyclotomicValue.zero(4)
        assert zero.is_zero
        assert zero.as_complex() == 0

    def test_mag_squared_matches_complex_modulus(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            coeffs = tuple(int(c) for c in rng.integers(-5, 6, size=4))
            value = CyclotomicValue(coeffs, 0)
            rational, radical = value.mag_squared()
            assert abs(value.as_complex()) ** 2 == pytest.approx(
                rational + radical * math.sqrt(2), abs=1e-9
            )

    def test_str_with_negative_coefficients(self):
        value = CyclotomicValue((1, -1, 0, 2), 2)
        assert str(value) == "(1 - 1*w + 0*w^2 + 2*w^3)/2^(2/2)"


class TestOracleEquivalence:
    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(38)
        for _ in range(40):
            c = random_mixed(rng)
            a = random_bits(rng, c.num_qubits)
            state = simulate(c, a)
            for _ in range(4):
                b = random_bits(rng, c.num_qubits)
                got = cyclotomic_amplitude(c, a, b).as_complex()
                assert abs(got - state[bits_to_index(b)]) < 1e-10

    def test_inconsistent_output_is_exact_zero(self):
        c = Circuit(2, (Gate.cnot(0, 1),), Mode.MIXED)
        value = cyclotomic_amplitude(c, (1, 0), (1, 0))
        assert value.is_zero
        assert value.half_power == 0


class TestExactUnitarity:
    def test_magnitude_sums_in_sqrt2_ring(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            c = random_mixed(rng, max_qubits=4, max_gates=20, max_h=10)
            a = random_bits(rng, c.num_qubits)
            h = compile_mixed(c, a).num_path_vars
            rational = radical = 0
            for b in all_basis_strings(c.num_qubits):
                m = cyclotomic_amplitude(c, a, b).mag_squared()
                rational += m[0]
                radical += m[1]
            assert (rational, radical) == (1 << h, 0)

    def test_half_power_is_total_hadamards(self):
        # two Hadamards on the same wire: elimination leaves one free
        # variable, yet the normalization stays 2^(2/2)
        c = Circuit(1, (Gate.h(0), Gate.h(0)), Mode.MIXED)
        value = cyclotomic_amplitude(c, (0,), (0,))
        assert value.half_power == 2
        assert value.coeffs == (2, 0, 0, 0)
        assert value.as_complex() == pytest.approx(1.0)


class TestAmplitudeMixed:
    def test_free_variable_not_in_phase_doubles_counts(self):
        phase = MixedPhase(((1, var(1)),))
        value = amplitude_mixed(phase, (1, 2), num_hadamards=2)
        assert value.coeffs == (2, 2, 0, 0)

    def test_rejects_untracked_variables(self):
        phase = MixedPhase(((1, var(3)),))
        with pytest.raises(ValueError):
            amplitude_mixed(phase, (1, 2), num_hadamards=2)

    def test_cap_enforced(self):
        phase = MixedPhase(((1, var(1)),))
        with pytest.raises(CapExceededError):
            amplitude_mixed(phase, tuple(range(1, 11)), num_hadamards=10, cap=5)

    @pytest.mark.parametrize(
        "free_vars, named",
        [((1, 1), "repeat [1]"), ((2, 1, 3, 2, 1), "repeat [1, 2]"), ((-1,), "[-1]"), ((0, 1), "[0]")],
    )
    def test_rejects_repeated_or_non_path_variables(self, free_vars, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            amplitude_mixed(MixedPhase(), free_vars, num_hadamards=0)

    @pytest.mark.parametrize(
        "free_vars, num_hadamards, named",
        [((1, 2, 3), 2, "free variables [3] are numbered above num_hadamards = 2"), ((1,), -1, "got -1")],
    )
    def test_rejects_a_hadamard_count_that_cannot_hold_the_free_variables(self, free_vars, num_hadamards, named):
        # Trusted, these gave an amplitude of modulus 4 and a shift by -1 in as_complex.
        with pytest.raises(ValueError, match=re.escape(named)):
            amplitude_mixed(MixedPhase(), free_vars, num_hadamards)


@st.composite
def mixed_phases(draw, max_vars: int = 8, max_terms: int = 4):
    n = draw(st.integers(1, max_vars))
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3),
            ),
            max_size=max_terms,
        )
    )
    return MixedPhase(tuple((c, GF2Poly(masks)) for c, masks in terms))


@given(mixed_phases())
def test_canonicalize_preserves_function_property(phase):
    points = np.arange(256, dtype=np.uint64)
    assert np.array_equal(phase.values(points), phase.canonicalize().values(points))


def _subset_expansion(phase: MixedPhase) -> dict[int, int]:
    """c * 1_[m1 xor ... xor mk] = sum over nonempty subsets S of
    c * (-2)^(|S|-1) * prod(S), reduced mod 8, with no pruning."""
    acc: dict[int, int] = {}
    for coeff, indicator in phase.terms:
        masks = sorted(indicator.masks)
        for size in range(1, len(masks) + 1):
            for subset in combinations(masks, size):
                mask = 0
                for m in subset:
                    mask |= m
                acc[mask] = (acc.get(mask, 0) + coeff * (-2) ** (size - 1)) % 8
    return {mask: w for mask, w in acc.items() if w}


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.lists(st.integers(0, 63), min_size=1, max_size=12)),
        max_size=4,
    )
)
def test_canonicalize_equals_the_full_subset_expansion(raw):
    phase = MixedPhase(tuple((c, GF2Poly(masks)) for c, masks in raw))
    canonical = phase.canonicalize()
    expected = _subset_expansion(phase)
    assert {next(iter(f.masks)): c for c, f in canonical.terms} == expected
    assert [f.terms()[0] for _, f in canonical.terms] == list(GF2Poly(expected).terms())
