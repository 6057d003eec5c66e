"""Exact quantum-circuit amplitudes via polynomial systems over Z2.

Circuits over {X, CNOT, TOFFOLI, H} compile into one output polynomial
per qubit plus a phase polynomial in one fresh variable per Hadamard;
the transition amplitude to b is (#(0) - #(1)) / sqrt(2^h) where #(k)
counts solutions of B(x) = b with phase parity k. Circuits over
{X, CNOT, H, P(k)} keep affine outputs and a Z8-valued phase, giving
exact amplitudes in the ring of integers of Q(exp(i*pi/4)). A dense
state-vector simulator, a Monte Carlo path sampler, and decision/sign
circuit transforms round out the toolkit.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .circuit import (
    BasisString,
    Circuit,
    CircuitSyntaxError,
    Gate,
    GateKind,
    Mode,
    all_basis_strings,
    bits_to_index,
    decision_transform,
    format_bits,
    index_to_bits,
    invert,
    parse_bits,
    parse_circuit,
    random_circuit,
    render_circuit,
    sign_transform,
)
from .compile_z2 import (
    BoundReport,
    BoundViolationError,
    PathSystem,
    compile_circuit,
    compile_mixed,
    normalize,
    path_count_check,
)
from .counting import (
    DEFAULT_CAP,
    CapExceededError,
    CountPair,
    CyclotomicValue,
    RealAmplitude,
    amplitude,
    count,
    count_all,
    distribution,
)
from .gf2poly import GF2Poly, MixedPhase, parse_poly
from .mixed import (
    MixedSystem,
    Reduced,
    amplitude_mixed,
    cyclotomic_amplitude,
    distribution_mixed,
    eliminate,
)
from .montecarlo import GENERATOR, SampleEstimate, estimate_amplitude
from .refsim import MAX_QUBITS, amplitude_ref, simulate

__all__ = [
    "__version__",
    "BasisString",
    "Circuit",
    "CircuitSyntaxError",
    "Gate",
    "GateKind",
    "Mode",
    "all_basis_strings",
    "bits_to_index",
    "decision_transform",
    "format_bits",
    "index_to_bits",
    "invert",
    "parse_bits",
    "parse_circuit",
    "random_circuit",
    "render_circuit",
    "sign_transform",
    "BoundReport",
    "BoundViolationError",
    "PathSystem",
    "compile_circuit",
    "normalize",
    "path_count_check",
    "DEFAULT_CAP",
    "CapExceededError",
    "CountPair",
    "RealAmplitude",
    "amplitude",
    "count",
    "count_all",
    "distribution",
    "GF2Poly",
    "parse_poly",
    "CyclotomicValue",
    "MixedPhase",
    "MixedSystem",
    "Reduced",
    "amplitude_mixed",
    "compile_mixed",
    "cyclotomic_amplitude",
    "distribution_mixed",
    "eliminate",
    "GENERATOR",
    "SampleEstimate",
    "estimate_amplitude",
    "MAX_QUBITS",
    "amplitude_ref",
    "simulate",
]
