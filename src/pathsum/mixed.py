"""Mixed-mode reduce layer: Gaussian elimination, then a Z8 tally.

Mixed-mode circuits use {X, CNOT, H, P(k)}. Wires stay affine over Z2,
so the output constraints B(x) = b form a linear system that Gaussian
elimination either refutes (amplitude exactly 0) or solves, leaving
free path variables. Each assignment y of those contributes
omega^phase(y), omega = exp(i*pi/4), so the amplitude is an exact
CyclotomicValue. compile_mixed, MixedPhase, PathSystem (alias
MixedSystem) and distribution (alias distribution_mixed) are shared
with z2 mode; this module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .circuit import Circuit
from .compile_z2 import PathSystem, compile_mixed
from .counting import DEFAULT_CAP, CyclotomicValue, _omega_coeffs, _tally, distribution
from .gf2poly import GF2Poly, MixedPhase, _mask_vars

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

MixedSystem = PathSystem
distribution_mixed = distribution


@dataclass(frozen=True)
class Reduced:
    """Result of eliminating the output constraints: the surviving free
    variables and the phase with all pivot variables substituted away."""

    free_vars: tuple[int, ...]
    phase: MixedPhase


def eliminate(system: PathSystem, output_bits: Sequence[int]) -> Reduced | None:
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
