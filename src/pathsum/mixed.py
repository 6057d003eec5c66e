"""Mixed-mode pipeline: affine wires over Z2 with phases in Z8.

Mixed-mode circuits use {X, CNOT, H, P(k)}. Wires stay affine over Z2,
so the output constraints B(x) = b form a linear system that Gaussian
elimination either refutes (amplitude exactly 0) or solves, leaving a
set of free path variables. The phase is a sum of terms c * f(x) with
c in Z8 and f a Z2 polynomial indicator; each assignment y of the free
variables contributes omega^phase(y) with omega = exp(i*pi/4), so the
amplitude is an integer combination of 1, omega, omega^2, omega^3
divided by sqrt(2^h). That value is represented exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuit import BasisString, Circuit, Mode, format_bits, index_to_bits, parse_bits
from .compile_z2 import _sweep
from .counting import DEFAULT_CAP, _tally
from .gf2poly import GF2Poly, _mask_vars, _term_key, parse_poly

__all__ = [
    "MixedPhase",
    "MixedSystem",
    "Reduced",
    "CyclotomicValue",
    "compile_mixed",
    "eliminate",
    "amplitude_mixed",
    "distribution_mixed",
    "cyclotomic_amplitude",
]


@dataclass(frozen=True)
class MixedPhase:
    """A phase polynomial: sum of (coefficient mod 8, Z2 indicator) terms.

    Terms with coefficient 0 or identically-zero indicator are dropped
    at construction. The term list is otherwise kept as given; use
    canonicalize() for a form with unique monomial indicators.
    """

    terms: tuple[tuple[int, GF2Poly], ...] = ()

    def __post_init__(self) -> None:
        kept = []
        for coeff, indicator in self.terms:
            coeff %= 8
            if coeff and indicator:
                kept.append((coeff, indicator))
        object.__setattr__(self, "terms", tuple(kept))

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        return sum(c * f.evaluate(assignment) for c, f in self.terms) % 8

    def evaluate_mask(self, point: int) -> int:
        return sum(c * f.evaluate_mask(point) for c, f in self.terms) % 8

    def values(self, points: np.ndarray) -> np.ndarray:
        """Phase mod 8 at many packed points; returns a uint8 array.

        Accumulates in uint8: wraparound mod 256 preserves values mod 8.
        """
        pts = np.asarray(points, dtype=np.uint64)
        acc = np.zeros(pts.shape, dtype=np.uint8)
        for coeff, indicator in self.terms:
            acc += np.uint8(coeff) * indicator.values(pts)
        return acc & np.uint8(7)

    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for _, indicator in self.terms:
            out |= indicator.support()
        return out

    @property
    def degree(self) -> int:
        return max((f.degree for _, f in self.terms), default=0)

    def substitute(self, var: int, replacement: GF2Poly) -> MixedPhase:
        return MixedPhase(
            tuple((c, f.substitute(var, replacement)) for c, f in self.terms)
        )

    def canonicalize(self) -> MixedPhase:
        """Rewrite as a Z8-combination of distinct monomials, sorted.

        XORs inside indicators are expanded multilinearly using
        1_[f xor g] = 1_[f] + 1_[g] - 2 * 1_[f] * 1_[g] over the
        integers, reduced mod 8 at every step. Like terms merge and
        cancel, so equal phase functions get equal canonical forms.
        Indicators built from XORs alone stay at degree <= 2, but a
        coefficient applied to an XOR of three or more monomials can
        leave genuine degree-3 terms (coefficient 4); those are
        preserved, never truncated.
        """
        acc: dict[int, int] = {}
        for coeff, indicator in self.terms:
            expansion = _xor_to_z8(sorted(indicator.masks, key=_term_key))
            for mask, weight in expansion.items():
                acc[mask] = (acc.get(mask, 0) + coeff * weight) % 8
        kept = sorted(
            ((mask, w) for mask, w in acc.items() if w), key=lambda kv: _term_key(kv[0])
        )
        return MixedPhase(
            tuple((w, GF2Poly((mask,))) for mask, w in kept)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({f})" for c, f in self.terms)


def _xor_to_z8(masks: Sequence[int]) -> dict[int, int]:
    """Multilinear Z8 expansion of the XOR of the given monomials."""
    if not masks:
        return {}
    if len(masks) == 1:
        return {masks[0]: 1}
    mid = len(masks) // 2
    left = _xor_to_z8(masks[:mid])
    right = _xor_to_z8(masks[mid:])
    out: dict[int, int] = {}
    for mask, weight in left.items():
        out[mask] = (out.get(mask, 0) + weight) % 8
    for mask, weight in right.items():
        out[mask] = (out.get(mask, 0) + weight) % 8
    for m1, w1 in left.items():
        for m2, w2 in right.items():
            mask = m1 | m2
            out[mask] = (out.get(mask, 0) - 2 * w1 * w2) % 8
    return {mask: w for mask, w in out.items() if w}


@dataclass(frozen=True)
class MixedSystem:
    """Output of the mixed-mode compiler: affine outputs plus a Z8 phase."""

    num_path_vars: int
    outputs: tuple[GF2Poly, ...]
    phase: MixedPhase
    input_bits: BasisString

    @property
    def num_qubits(self) -> int:
        return len(self.outputs)

    def to_dict(self) -> dict:
        return {
            "h": self.num_path_vars,
            "input": format_bits(self.input_bits),
            "outputs": [str(p) for p in self.outputs],
            "phase": [[c, str(f)] for c, f in self.phase.terms],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> MixedSystem:
        return cls(
            num_path_vars=int(doc["h"]),
            outputs=tuple(parse_poly(text) for text in doc["outputs"]),
            phase=MixedPhase(
                tuple((int(c), parse_poly(text)) for c, text in doc["phase"])
            ),
            input_bits=parse_bits(doc["input"]),
        )


def compile_mixed(circuit: Circuit, input_bits: Sequence[int]) -> MixedSystem:
    """Compile a mixed-mode circuit at a basis input.

    Runs the gate sweep shared with the z2 compiler: P(k) on wire w
    adds the phase term (k, w); H on wire w adds (4, w * x_j) for the
    fresh variable x_j, since a Hadamard contributes the sign (-1)^(w*x).
    """
    if circuit.mode is not Mode.MIXED:
        raise ValueError("compile_mixed handles mixed-mode circuits only")
    h, wires, terms, a = _sweep(circuit, input_bits)
    for wire in wires:
        assert wire.degree <= 1, "mixed-mode wires must stay affine"
    return MixedSystem(h, wires, MixedPhase(tuple(terms)), a)


@dataclass(frozen=True)
class Reduced:
    """Result of eliminating the output constraints: the surviving free
    variables and the phase with all pivot variables substituted away."""

    free_vars: tuple[int, ...]
    phase: MixedPhase


def eliminate(system: MixedSystem, output_bits: Sequence[int]) -> Reduced | None:
    """Solve the affine system B(x) = b by Gaussian elimination over Z2.

    Returns None when the system is inconsistent (the amplitude is then
    exactly zero). Otherwise each pivot variable is expressed in the
    free variables and substituted into every phase indicator.
    """
    if len(output_bits) != system.num_qubits:
        raise ValueError("output length must match the qubit count")
    b = tuple(bit & 1 for bit in output_bits)
    pivots: dict[int, tuple[int, int]] = {}
    for poly, bit in zip(system.outputs, b):
        if poly.degree > 1:
            raise ValueError("output constraints must be affine")
        # Affine: distinct one-variable monomials, plus 0 for the constant 1.
        mask, rhs = sum(poly.masks), bit ^ (0 in poly.masks)
        for var, (pmask, prhs) in pivots.items():
            if mask >> var & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        var = (mask & -mask).bit_length() - 1
        for other, (omask, orhs) in list(pivots.items()):
            if omask >> var & 1:
                pivots[other] = (omask ^ mask, orhs ^ rhs)
        pivots[var] = (mask, rhs)
    free_vars = tuple(
        v for v in range(1, system.num_path_vars + 1) if v not in pivots
    )
    phase = system.phase
    for var, (mask, rhs) in pivots.items():
        replacement = GF2Poly(
            [1 << w for w in _mask_vars(mask ^ (1 << var))] + ([0] if rhs else [])
        )
        phase = phase.substitute(var, replacement)
    return Reduced(free_vars, phase)


@dataclass(frozen=True)
class CyclotomicValue:
    """Exact amplitude (c0 + c1*w + c2*w^2 + c3*w^3) / sqrt(2^half_power)
    with w = exp(i*pi/4) and integer coefficients."""

    coeffs: tuple[int, int, int, int]
    half_power: int

    @classmethod
    def zero(cls, half_power: int) -> CyclotomicValue:
        return cls((0, 0, 0, 0), half_power)

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0, 0, 0, 0)

    def as_complex(self) -> complex:
        omega = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        total = sum(c * omega ** k for k, c in enumerate(self.coeffs))
        return total / math.sqrt(2.0 ** self.half_power)

    def mag_squared(self) -> tuple[int, int]:
        """|numerator|^2 as (a, b) meaning a + b*sqrt(2), exactly."""
        c0, c1, c2, c3 = self.coeffs
        rational = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
        radical = c0 * c1 + c1 * c2 + c2 * c3 - c3 * c0
        return rational, radical

    def __str__(self) -> str:
        c0, c1, c2, c3 = self.coeffs
        parts = [str(c0)]
        for coeff, name in ((c1, "w"), (c2, "w^2"), (c3, "w^3")):
            sign = "+" if coeff >= 0 else "-"
            parts.append(f"{sign} {abs(coeff)}*{name}")
        return f"({' '.join(parts)})/2^({self.half_power}/2)"


def _omega_coeffs(tallies: Sequence[int]) -> tuple[int, int, int, int]:
    """Coefficients of 1, w, w^2, w^3 from tallies of the phase mod 8 (w^4 = -1)."""
    return tuple(int(tallies[k] - tallies[k + 4]) for k in range(4))


def amplitude_mixed(
    phase: MixedPhase,
    free_vars: Sequence[int],
    num_hadamards: int,
    cap: int = DEFAULT_CAP,
) -> CyclotomicValue:
    """Sum omega^phase(y) over all assignments of the free variables.

    The result is normalized by sqrt(2^num_hadamards), the total
    Hadamard count of the originating circuit, regardless of how many
    variables survived elimination.
    """
    order = tuple(free_vars)
    extra = phase.support() - set(order)
    if extra:
        raise ValueError(
            f"phase references non-free variables {sorted(extra)}"
        )
    # The kernel enumerates variables 1..k, so free variable order[i] becomes x_(i+1).
    position = {var: i + 1 for i, var in enumerate(order)}
    local = MixedPhase(tuple(
        (c, GF2Poly(sum(1 << position[v] for v in _mask_vars(m)) for m in f.masks))
        for c, f in phase.terms
    ))
    (tallies,) = _tally(len(order), (), local, (), cap).tolist()
    return CyclotomicValue(_omega_coeffs(tallies), num_hadamards)


def distribution_mixed(system: MixedSystem, cap: int = DEFAULT_CAP) -> dict[BasisString, CyclotomicValue]:
    """Exact amplitudes for every reachable output in one sweep over 2^h paths.

    Outputs whose constraints B(x) = b have no solution (those that
    eliminate refutes) are omitted; a reachable output whose terms
    cancel still appears, with the zero value.
    """
    h = system.num_path_vars
    table = _tally(h, system.outputs, system.phase, None, cap)
    return {
        index_to_bits(i, system.num_qubits): CyclotomicValue(_omega_coeffs(row), h)
        for i, row in enumerate(table.tolist())
        if any(row)
    }


def cyclotomic_amplitude(
    circuit: Circuit,
    input_bits: Sequence[int],
    output_bits: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> CyclotomicValue:
    """Exact transition amplitude of a mixed-mode circuit.

    Compiles, eliminates the output constraints, and enumerates the
    free variables. Inconsistent constraints give the exact zero value.
    """
    system = compile_mixed(circuit, input_bits)
    reduced = eliminate(system, output_bits)
    if reduced is None:
        return CyclotomicValue.zero(system.num_path_vars)
    return amplitude_mixed(
        reduced.phase, reduced.free_vars, system.num_path_vars, cap
    )
