"""The gate sweep and the compilers of both modes.

Each qubit line carries a wire polynomial over Z2, starting at the
constant input bit. X adds 1, CNOT adds the control wire, TOFFOLI adds
the product of its control wires. H allocates the next path variable
x_j (numbered 1, 2, ... in gate order), adds the phase term (4, w * x_j)
(a term (c, f) weighs a path by exp(i*pi/4)^(c*f)) where w is the wire
being replaced, and resets the wire to x_j; P(k) adds the term (k, w).
The wires are then the output system B. compile_circuit XORs the
indicators into one Z2 phase polynomial, so the amplitude counts
solutions of B(x) = b split by phase parity; compile_mixed keeps the
terms as a MixedPhase. Both return a PathSystem.

eliminate is the reduce layer for affine outputs (every mixed-mode
system): Gaussian elimination over Z2 either refutes B(x) = b, making
the amplitude exactly zero, or substitutes the pivot variables into
the phase, leaving free variables for the counting kernel. It works on
the canonical Z8 form of gf2poly (_z8, _substitute), so a mixed
Reduced.phase is canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .circuit import (
    BasisString,
    Circuit,
    Gate,
    GateKind,
    Mode,
    format_bits,
    parse_bits,
)
from .gf2poly import GF2Poly, MixedPhase, _add_xor, _from_z8, _mask_vars, _substitute, _z8, parse_poly

__all__ = [
    "PathSystem",
    "MixedSystem",
    "Reduced",
    "BoundReport",
    "BoundViolationError",
    "compile_circuit",
    "compile_mixed",
    "eliminate",
    "normalize",
    "path_count_check",
]


@dataclass(frozen=True)
class PathSystem:
    """A compiled path sum of either mode.

    ``outputs[j]`` is the polynomial B_j for qubit j, ``phase`` is the
    Z2 phase polynomial (z2 mode) or a MixedPhase (mixed mode), and both
    are over path variables x_1 .. x_h where ``num_path_vars`` = h =
    number of Hadamards. ``input_bits`` records the basis input the
    system was compiled at.
    """

    num_path_vars: int
    outputs: tuple[GF2Poly, ...]
    phase: GF2Poly | MixedPhase
    input_bits: BasisString

    @property
    def num_qubits(self) -> int:
        return len(self.outputs)

    def to_dict(self) -> dict:
        """Machine-readable form with polynomials in rendered text; a
        mixed phase is a list of [coefficient, indicator] pairs."""
        z2 = isinstance(self.phase, GF2Poly)
        return {
            "h": self.num_path_vars,
            "input": format_bits(self.input_bits),
            "outputs": [str(p) for p in self.outputs],
            "phase": str(self.phase) if z2 else [[c, str(f)] for c, f in self.phase.terms],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> PathSystem:
        phase = doc["phase"]
        return cls(
            num_path_vars=int(doc["h"]),
            outputs=tuple(parse_poly(text) for text in doc["outputs"]),
            phase=parse_poly(phase) if isinstance(phase, str)
            else MixedPhase(tuple((int(c), parse_poly(f)) for c, f in phase)),
            input_bits=parse_bits(doc["input"]),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


MixedSystem = PathSystem


@dataclass(frozen=True)
class Reduced:
    """Result of eliminating the output constraints: the surviving free
    variables and the phase with all pivot variables substituted away."""

    free_vars: tuple[int, ...]
    phase: GF2Poly | MixedPhase


def eliminate(system: PathSystem, output_bits: Sequence[int]) -> Reduced | None:
    """Solve the affine system B(x) = b by Gaussian elimination over Z2.

    Returns None when the system is inconsistent (the amplitude is then
    exactly zero). Otherwise each pivot variable is expressed in the
    free variables and substituted into every phase indicator, and the
    indicators are summed into the canonical Z8 phase: a z2 phase comes
    back as a GF2Poly, a mixed one as its canonical MixedPhase (what
    canonicalize() returns).
    """
    if len(output_bits) != system.num_qubits:
        raise ValueError("output length must match the qubit count")
    pivots = _row_reduce(system, tuple(bit & 1 for bit in output_bits))
    return None if pivots is None else _substitute_pivots(system, pivots)


def _row_reduce(system: PathSystem, b: Sequence[int]) -> dict[int, tuple[int, int]] | None:
    """The row reduction of eliminate: None when B(x) = b is inconsistent,
    else {pivot variable: (row mask, rhs)}, each row holding its pivot and
    free variables only. It touches no phase, so a caller can check the
    free-variable count h - len(pivots) before _substitute_pivots, whose
    phase can hold a term for every triple of free variables."""
    # Echelon form: each row's pivot is its lowest variable, and a new row
    # is reduced only by the pivots it holds, lowest first.
    pivots: dict[int, tuple[int, int]] = {}
    pivot_bits = 0
    for poly, bit in zip(system.outputs, b):
        mask, rhs = 0, bit
        for m in poly.masks:  # affine: one-variable monomials, and 0 for the constant 1
            if m & (m - 1):
                raise ValueError("output constraints must be affine")
            mask, rhs = mask | m, rhs ^ (m == 0)
        while hit := mask & pivot_bits:
            pmask, prhs = pivots[(hit & -hit).bit_length() - 1]
            mask ^= pmask
            rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        low = mask & -mask
        pivots[low.bit_length() - 1] = (mask, rhs)
        pivot_bits |= low
    # Back-substitute in descending pivot order: the higher rows a row
    # holds are already reduced, so each hit is cleared once.
    for var in sorted(pivots, reverse=True):
        mask, rhs = pivots[var]
        for other in _mask_vars((mask & pivot_bits) ^ (1 << var)):
            omask, orhs = pivots[other]
            mask ^= omask
            rhs ^= orhs
        pivots[var] = (mask, rhs)
    return pivots


def _substitute_pivots(system: PathSystem, pivots: dict[int, tuple[int, int]]) -> Reduced:
    """The substitution of eliminate: each pivot's row into every phase
    indicator, summed into the canonical Z8 phase."""
    pivot_bits = sum(1 << var for var in pivots)
    free_vars = tuple(
        v for v in range(1, system.num_path_vars + 1) if v not in pivots
    )
    # Each pivot is now the XOR of free variables (and 1 when rhs is set).
    # It goes into each indicator before the indicator's XOR is expanded,
    # so the expansion is only as long as the substituted indicator.
    replacements = {
        var: [1 << w for w in _mask_vars(mask ^ (1 << var))] + [0] * rhs
        for var, (mask, rhs) in pivots.items()
    }
    z2 = isinstance(system.phase, GF2Poly)
    terms: dict[int, int] = {}
    for coeff, indicator in ((4, system.phase),) if z2 else system.phase.terms:
        local = _z8(indicator)
        _substitute(local, replacements, pivot_bits)
        _add_xor(terms, coeff, local)
    return Reduced(free_vars, GF2Poly(terms) if z2 else _from_z8(terms))


def _sweep(circuit: Circuit, input_bits: Sequence[int]) -> tuple[int, tuple[GF2Poly, ...], list, BasisString]:
    """Push a basis input through the gates of either mode: returns h, the
    output wires, the phase as (coefficient, indicator) terms, and the input."""
    if len(input_bits) != circuit.num_qubits:
        raise ValueError("input length must match the qubit count")
    a = tuple(b & 1 for b in input_bits)
    wires = [GF2Poly.constant(bit) for bit in a]
    terms: list[tuple[int, GF2Poly]] = []
    h = 0
    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        target = qubits[-1]
        if kind is GateKind.X:
            wires[target] = wires[target] + GF2Poly.one()
        elif kind is GateKind.CNOT:
            wires[target] = wires[target] + wires[qubits[0]]
        elif kind is GateKind.TOFFOLI:
            wires[target] = wires[target] + wires[qubits[0]] * wires[qubits[1]]
        elif kind is GateKind.P:
            terms.append((gate.power, wires[target]))
        else:
            h += 1
            fresh = GF2Poly.variable(h)
            terms.append((4, wires[target] * fresh))
            wires[target] = fresh
    return h, tuple(wires), terms, a


def compile_circuit(circuit: Circuit, input_bits: Sequence[int]) -> PathSystem:
    """Compile a Z2-mode circuit at a basis input into a PathSystem.

    Pure: identical inputs produce identical systems, including the
    path-variable numbering.
    """
    if circuit.mode is not Mode.Z2:
        raise ValueError("compile_circuit handles z2-mode circuits only")
    h, wires, terms, a = _sweep(circuit, input_bits)
    # Every z2 term is a Hadamard's (4, f): the phase parity is the XOR of the f.
    phase = GF2Poly(mask for _, indicator in terms for mask in indicator.masks)
    return PathSystem(h, wires, phase, a)


def compile_mixed(circuit: Circuit, input_bits: Sequence[int]) -> PathSystem:
    """Compile a mixed-mode circuit at a basis input.

    Runs the gate sweep shared with the z2 compiler: P(k) on wire w
    adds the phase term (k, w); H on wire w adds (4, w * x_j) for the
    fresh variable x_j, since a Hadamard contributes the sign (-1)^(w*x).
    """
    if circuit.mode is not Mode.MIXED:
        raise ValueError("compile_mixed handles mixed-mode circuits only")
    h, wires, terms, a = _sweep(circuit, input_bits)
    assert all(wire.degree <= 1 for wire in wires), "mixed-mode wires must stay affine"
    return PathSystem(h, wires, MixedPhase(tuple(terms)), a)


def normalize(circuit: Circuit) -> Circuit:
    """Insert H pairs so every TOFFOLI target is refreshed before reuse.

    After each TOFFOLI whose target line is next touched by anything
    other than an H on that line (or never touched again), an H, H pair
    is appended on the target. The circuit's unitary is unchanged; the
    compiled system then satisfies the path_count_check bounds for
    circuits built from H and TOFFOLI. Idempotent.
    """
    if circuit.mode is not Mode.Z2:
        raise ValueError("normalize handles z2-mode circuits only")
    # One backward pass: next_gate[q] is the next original gate on line q.
    gates: list[Gate] = []
    next_gate: dict[int, Gate] = {}
    for gate in reversed(circuit.gates):
        if gate.kind is GateKind.TOFFOLI:
            target = gate.qubits[2]
            follower = next_gate.get(target)
            if follower is None or follower.kind is not GateKind.H:
                gates += (Gate.h(target), Gate.h(target))
        gates.append(gate)
        for q in gate.qubits:
            next_gate[q] = gate
    return Circuit(circuit.num_qubits, tuple(reversed(gates)), circuit.mode)


@dataclass(frozen=True)
class BoundReport:
    """Measured sizes of a compiled system, as checked by path_count_check."""

    num_path_vars: int
    output_terms: tuple[int, ...]
    output_degrees: tuple[int, ...]
    phase_terms: int
    phase_degree: int


class BoundViolationError(RuntimeError):
    """A compiled system exceeded the normalized-form size bounds."""


def path_count_check(system: PathSystem) -> BoundReport:
    """Assert the size bounds guaranteed for normalized H/TOFFOLI circuits.

    Checks deg(B_j) <= 2, terms(B_j) <= 2, deg(phase) <= 3 and
    terms(phase) <= 2h. The degree bounds hold for any normalized
    z2-mode circuit; the term bounds additionally require the gate list
    to contain only H and TOFFOLI, since chains of X/CNOT can grow
    wire polynomials term by term. Returns the measured sizes.
    """
    report = BoundReport(
        num_path_vars=system.num_path_vars,
        output_terms=tuple(len(p) for p in system.outputs),
        output_degrees=tuple(p.degree for p in system.outputs),
        phase_terms=len(system.phase),
        phase_degree=system.phase.degree,
    )
    problems = []
    for j, poly in enumerate(system.outputs):
        if poly.degree > 2:
            problems.append(f"deg(B_{j}) = {poly.degree} > 2")
        if len(poly) > 2:
            problems.append(f"terms(B_{j}) = {len(poly)} > 2")
    if system.phase.degree > 3:
        problems.append(f"deg(phase) = {system.phase.degree} > 3")
    if len(system.phase) > 2 * system.num_path_vars:
        problems.append(
            f"terms(phase) = {len(system.phase)} > 2h = {2 * system.num_path_vars}"
        )
    if problems:
        raise BoundViolationError("; ".join(problems))
    return report
