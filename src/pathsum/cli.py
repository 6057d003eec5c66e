"""Command-line interface.

Subcommands cover the whole pipeline: parse, compile, amplitude,
distribution, decision, sign, verify, sample, and stats. Exit codes:
0 success, 1 usage or input error, 2 verification mismatch,
3 enumeration cap, the 63-variable packed-path limit or the 2^30
sample limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .circuit import (
    BasisString,
    Circuit,
    GateKind,
    Mode,
    all_basis_strings,
    bits_to_index,
    decision_transform,
    parse_bits,
    parse_circuit,
    format_bits,
    random_circuit,
    render_circuit,
    sign_transform,
)
from .compile_z2 import BoundViolationError, compile_circuit, compile_mixed, normalize, path_count_check
from .counting import DEFAULT_CAP, CapExceededError, _mixed_amplitude, amplitude, distribution
from .montecarlo import GENERATOR, estimate_amplitude
from .refsim import MAX_QUBITS, simulate
from . import __version__

__all__ = ["main"]

MAX_RANDOM_GATES = 1000
MAX_RANDOM_TRIALS = 1000
MAX_VERIFY_PAIRS = 4096  # also the most pairs --exhaustive checks: 6 qubits


def _read_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_circuit(handle.read())


def _bits_arg(text: str, num_qubits: int, what: str) -> BasisString:
    bits = parse_bits(text)
    if len(bits) != num_qubits:
        raise ValueError(
            f"{what} basis string needs {num_qubits} bit(s), got {len(bits)}"
        )
    return bits


def _prepared(args: argparse.Namespace) -> Circuit:
    circuit = _read_circuit(args.circuit)
    if getattr(args, "normalize", False):
        circuit = normalize(circuit)
    return circuit


def _compile(circuit: Circuit, input_bits: BasisString):
    """The path system of either mode; only the compiler differs."""
    return (compile_circuit if circuit.mode is Mode.Z2 else compile_mixed)(circuit, input_bits)


def _cmd_parse(args: argparse.Namespace) -> int:
    circuit = _read_circuit(args.circuit)
    if args.format == "json":
        gates = [
            [gate.kind.value, *([gate.power] if gate.kind is GateKind.P else []), *gate.qubits]
            for gate in circuit.gates
        ]
        print(json.dumps({"mode": circuit.mode.value, "qubits": circuit.num_qubits, "gates": gates}))
    else:
        print(
            f"ok: mode={circuit.mode.value} qubits={circuit.num_qubits} "
            f"gates={len(circuit.gates)} hadamards={circuit.num_hadamards}"
        )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    circuit = _prepared(args)
    system = _compile(circuit, _bits_arg(args.input, circuit.num_qubits, "--in"))
    if args.format == "text":
        print(f"h = {system.num_path_vars}")
        for j, poly in enumerate(system.outputs):
            print(f"B_{j} = {poly}")
        print(f"phase = {system.phase}")
    else:
        print(json.dumps(system.to_dict(), indent=2))
    return 0


def _format_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real:.12f} {sign} {abs(value.imag):.12f}i"


def _cmd_amplitude(args: argparse.Namespace) -> int:
    circuit = _prepared(args)
    input_bits = _bits_arg(args.input, circuit.num_qubits, "--in")
    output_bits = _bits_arg(args.output, circuit.num_qubits, "--out")
    system = _compile(circuit, input_bits)
    if circuit.mode is Mode.Z2:
        value = amplitude(system, output_bits, args.cap)
        print(f"{value} = {value.as_float():.12f}")
    else:
        value = _mixed_amplitude(system, output_bits, args.cap)
        print(f"{value}, w = exp(i*pi/4)")
        print(f"= {_format_complex(value.as_complex())}")
    return 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    circuit = _prepared(args)
    system = _compile(circuit, _bits_arg(args.input, circuit.num_qubits, "--in"))
    z2 = circuit.mode is Mode.Z2
    for bits, value in distribution(system, args.cap).items():
        decimal = f"{value.as_float():.12f}" if z2 else _format_complex(value.as_complex())
        print(f"{format_bits(bits)} {value} {decimal}")
    return 0


def _cmd_transform(transform):
    """A handler printing transform(circuit, answer qubit) as circuit text."""

    def run(args: argparse.Namespace) -> int:
        print(render_circuit(transform(_read_circuit(args.circuit), args.answer)), end="")
        return 0

    return run


def _cmd_sample(args: argparse.Namespace) -> int:
    circuit = _prepared(args)
    if circuit.mode is not Mode.Z2:
        raise ValueError("sample supports z2-mode circuits only")
    input_bits = _bits_arg(args.input, circuit.num_qubits, "--in")
    output_bits = _bits_arg(args.output, circuit.num_qubits, "--out")
    _check_seed(args.seed)
    system = compile_circuit(circuit, input_bits)
    result = estimate_amplitude(system, output_bits, args.samples, args.seed)
    print(f"estimate = {result.estimate:.12f}")
    print(f"std_error = {result.std_error:.12f}")
    print(f"samples = {result.num_samples}  h = {result.h}  seed = {args.seed}")
    print(f"generator = {GENERATOR}")
    if system.num_path_vars <= args.cap:
        exact = amplitude(system, output_bits, args.cap)
        print(f"exact = {exact.as_float():.12f} ({exact})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    circuit = _prepared(args)
    system = _compile(circuit, (0,) * circuit.num_qubits)
    print(
        f"mode = {circuit.mode.value}  qubits = {circuit.num_qubits}  "
        f"gates = {len(circuit.gates)}"
    )
    print(f"h = {system.num_path_vars}")
    if circuit.mode is Mode.Z2:
        print(
            f"outputs: terms {[len(p) for p in system.outputs]} "
            f"degrees {[p.degree for p in system.outputs]}"
        )
        print(
            f"phase: terms {len(system.phase)} degree {system.phase.degree} "
            f"(2h = {2 * system.num_path_vars})"
        )
        try:
            path_count_check(system)
            print("normalized-form bounds: satisfied")
        except BoundViolationError as exc:
            print(f"normalized-form bounds: exceeded ({exc})")
    else:
        canonical = system.phase.canonicalize()
        print(f"outputs: degrees {[p.degree for p in system.outputs]}")
        print(
            f"phase: raw terms {len(system.phase.terms)}, canonical terms "
            f"{len(canonical.terms)}, canonical degree {canonical.degree}"
        )
        if canonical.degree > 2:
            print("canonical degree exceeds 2: kept exactly, not truncated")
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")


def _draw_bits(rng: np.random.Generator, num_qubits: int) -> BasisString:
    return tuple(int(bit) for bit in rng.integers(0, 2, size=num_qubits))


def _verify_circuit(
    circuit: Circuit,
    pairs: Sequence[tuple[BasisString, BasisString]],
    cap: int,
    tol: float,
) -> tuple[float, list[str]]:
    worst = 0.0
    mismatches = []
    states: dict[BasisString, np.ndarray] = {}
    systems: dict[BasisString, object] = {}
    for a, b in pairs:
        if a not in states:
            states[a] = simulate(circuit, a)
            systems[a] = _compile(circuit, a)
        expected = complex(states[a][bits_to_index(b)])
        if circuit.mode is Mode.Z2:
            got = complex(amplitude(systems[a], b, cap).as_float())
        else:
            got = _mixed_amplitude(systems[a], b, cap).as_complex()
        error = abs(got - expected)
        worst = max(worst, error)
        if error > tol:
            mismatches.append(
                f"mismatch: in={format_bits(a)} out={format_bits(b)} "
                f"path-sum={got} reference={expected} |error|={error:.3e}"
            )
    return worst, mismatches


def _cmd_verify(args: argparse.Namespace) -> int:
    # A NaN tolerance passes every pair and zero pairs check nothing: both pass vacuously.
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite non-negative number, got {args.tol}")
    if not 1 <= args.pairs <= MAX_VERIFY_PAIRS:
        raise ValueError(f"--pairs must be 1 to {MAX_VERIFY_PAIRS}, got {args.pairs}")
    if not 1 <= args.trials <= MAX_RANDOM_TRIALS:
        raise ValueError(f"--trials must be 1 to {MAX_RANDOM_TRIALS}, got {args.trials}")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    if args.circuit == "random":
        if not 1 <= args.n <= MAX_QUBITS:
            raise ValueError(f"--n must be 1 to {MAX_QUBITS} (the dense simulator's {MAX_QUBITS}-qubit limit)")
        if not 1 <= args.gates <= MAX_RANDOM_GATES:
            raise ValueError(f"--gates must be 1 to {MAX_RANDOM_GATES}, got {args.gates}")
        mode = Mode(args.mode)
        circuits = [
            random_circuit(
                args.n,
                args.gates,
                mode,
                rng,
                max_hadamards=min(args.cap, MAX_QUBITS),
            )
            for _ in range(args.trials)
        ]
    else:
        circuits = [_read_circuit(args.circuit)]
    worst = 0.0
    total_pairs = 0
    mismatches: list[str] = []
    for circuit in circuits:
        n = circuit.num_qubits
        if args.exhaustive:
            if n > 6:
                raise ValueError(
                    "--exhaustive is limited to circuits with at most 6 qubits"
                )
            pairs = [
                (a, b)
                for a in all_basis_strings(n)
                for b in all_basis_strings(n)
            ]
        else:
            pairs = [
                (_draw_bits(rng, n), _draw_bits(rng, n))
                for _ in range(args.pairs)
            ]
        circuit_worst, circuit_bad = _verify_circuit(circuit, pairs, args.cap, args.tol)
        worst = max(worst, circuit_worst)
        total_pairs += len(pairs)
        mismatches.extend(circuit_bad)
    for line in mismatches:
        print(line)
    print(
        f"verified {len(circuits)} circuit(s), {total_pairs} pair(s), "
        f"max |error| = {worst:.3e}"
    )
    if mismatches:
        return 2
    return 0


_CAP_HELP = (
    "largest log2 of the paths to enumerate (default %(default)s): h, or the "
    "free variables after elimination for a mixed-mode amplitude"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathsum",
        description=(
            "Exact quantum-circuit amplitudes by counting solutions of "
            "polynomial systems over Z2."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pathsum {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, handler, help_text: str, circuit_help: str = "circuit file") -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("circuit", help=circuit_help)
        return sub

    sub = add("parse", _cmd_parse, "check a circuit file and print a summary")
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = add("compile", _cmd_compile, "compile to a polynomial path system")
    sub.add_argument("--in", dest="input", required=True, help="input basis string")
    sub.add_argument("--normalize", action="store_true", help="insert H pairs after TOFFOLIs first (z2 mode)")
    sub.add_argument("--format", choices=("text", "json"), default="json")

    sub = add("amplitude", _cmd_amplitude, "exact transition amplitude <out|U|in>")
    sub.add_argument("--in", dest="input", required=True, help="input basis string")
    sub.add_argument("--out", dest="output", required=True, help="output basis string")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP, help=_CAP_HELP)
    sub.add_argument("--normalize", action="store_true")

    sub = add("distribution", _cmd_distribution, "exact amplitudes for every output")
    sub.add_argument("--in", dest="input", required=True, help="input basis string")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP, help=_CAP_HELP)
    sub.add_argument("--normalize", action="store_true")

    sub = add("decision", _cmd_transform(decision_transform), "emit the ancilla-copy decision circuit")
    sub.add_argument("--answer", type=int, default=0, help="answer qubit (default 0)")

    sub = add("sign", _cmd_transform(sign_transform), "emit the (-1)^f diagonal-sign circuit")
    sub.add_argument("--answer", type=int, default=0, help="answer qubit (default 0)")

    sub = add(
        "verify", _cmd_verify, "cross-check path-sum amplitudes against the dense simulator",
        "circuit file, or 'random'",
    )
    sub.add_argument("--trials", type=int, default=20, help=f"random circuits to draw, 1 to {MAX_RANDOM_TRIALS}")
    sub.add_argument("--pairs", type=int, default=4, help=f"basis pairs per circuit, 1 to {MAX_VERIFY_PAIRS}")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n", type=int, default=4, help="qubits for random circuits")
    sub.add_argument("--gates", type=int, default=20, help=f"gates per random circuit, 1 to {MAX_RANDOM_GATES}")
    sub.add_argument("--mode", choices=("z2", "mixed"), default="z2")
    sub.add_argument("--exhaustive", action="store_true", help="check all basis pairs")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP, help=_CAP_HELP)
    sub.add_argument("--tol", type=float, default=1e-10)

    sub = add("sample", _cmd_sample, "Monte Carlo amplitude estimate over uniform paths")
    sub.add_argument("--in", dest="input", required=True, help="input basis string")
    sub.add_argument("--out", dest="output", required=True, help="output basis string")
    sub.add_argument("--samples", type=int, default=4096, help="uniform path draws, at most 2^30")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP, help="print the exact value when h <= cap")
    sub.add_argument("--normalize", action="store_true")

    sub = add("stats", _cmd_stats, "compiled-system sizes and bound checks")
    sub.add_argument("--normalize", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
