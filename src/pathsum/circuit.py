"""Circuit representation over two balanced gate sets, plus a text format.

The Z2 gate set is {X, CNOT, TOFFOLI, H}; the mixed gate set is
{X, CNOT, H, P(k)} where P(k) = diag(1, exp(i*pi*k/4)) for k in 0..7.
P(1) is the T gate and P(4) is Pauli Z. Gates apply in list order.

Basis strings are tuples of bits indexed by qubit; qubit 0 is the least
significant bit of a dense state-vector index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Mode",
    "GateKind",
    "Gate",
    "Circuit",
    "CircuitSyntaxError",
    "BasisString",
    "parse_bits",
    "format_bits",
    "bits_to_index",
    "index_to_bits",
    "all_basis_strings",
    "parse_circuit",
    "render_circuit",
    "invert",
    "decision_transform",
    "sign_transform",
    "random_circuit",
]

BasisString = tuple[int, ...]

# The most qubits a circuit file may declare; basis strings and wire lists
# are built at this length, so a larger declaration would exhaust memory.
MAX_DECLARED_QUBITS = 1 << 16


class Mode(enum.Enum):
    """Which balanced gate set a circuit is written over."""

    Z2 = "z2"
    MIXED = "mixed"


class GateKind(enum.Enum):
    X = "x"
    CNOT = "cx"
    TOFFOLI = "ccx"
    H = "h"
    P = "p"


_ARITY = {
    GateKind.X: 1,
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.H: 1,
    GateKind.P: 1,
}

MODE_GATES = {
    Mode.Z2: frozenset((GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.H)),
    Mode.MIXED: frozenset((GateKind.X, GateKind.CNOT, GateKind.H, GateKind.P)),
}


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind, its qubit operands, and for P a power.

    For CNOT the operands are (control, target); for TOFFOLI they are
    (control1, control2, target).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    power: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        arity = _ARITY[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(
                f"{self.kind.value} takes {arity} qubit(s), got {len(self.qubits)}"
            )
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.value} operands must be distinct")
        if self.kind is GateKind.P:
            if self.power is None or not 0 <= self.power <= 7:
                raise ValueError("phase power must be in 0..7")
        elif self.power is not None:
            raise ValueError(f"{self.kind.value} takes no power argument")

    @classmethod
    def x(cls, qubit: int) -> Gate:
        return cls(GateKind.X, (qubit,))

    @classmethod
    def h(cls, qubit: int) -> Gate:
        return cls(GateKind.H, (qubit,))

    @classmethod
    def cnot(cls, control: int, target: int) -> Gate:
        return cls(GateKind.CNOT, (control, target))

    @classmethod
    def toffoli(cls, control1: int, control2: int, target: int) -> Gate:
        return cls(GateKind.TOFFOLI, (control1, control2, target))

    @classmethod
    def p(cls, power: int, qubit: int) -> Gate:
        return cls(GateKind.P, (qubit,), power)

    @classmethod
    def t(cls, qubit: int) -> Gate:
        return cls(GateKind.P, (qubit,), 1)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed qubit register, tagged with its mode."""

    num_qubits: int
    gates: tuple[Gate, ...]
    mode: Mode

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for gate in self.gates:
            _check_gate(gate, self.num_qubits, self.mode)

    @property
    def num_hadamards(self) -> int:
        return sum(1 for g in self.gates if g.kind is GateKind.H)


def _check_kind(kind: GateKind, mode: Mode) -> None:
    if kind not in MODE_GATES[mode]:
        raise ValueError(f"gate {kind.value} not allowed in {mode.value} mode")


def _check_gate(gate: Gate, num_qubits: int, mode: Mode) -> None:
    """The rules a valid Gate must also meet in a circuit: the mode's gate
    set and the register size."""
    _check_kind(gate.kind, mode)
    if max(gate.qubits) >= num_qubits:
        raise ValueError(
            f"gate {gate.kind.value} touches qubit {max(gate.qubits)} "
            f"but the circuit has {num_qubits} qubit(s)"
        )


class CircuitSyntaxError(ValueError):
    """Raised by parse_circuit with the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_bits(text: str) -> BasisString:
    """Parse a basis string such as '010' into a tuple of bits."""
    bits = []
    for ch in text.strip():
        if ch not in "01":
            raise ValueError(f"basis strings contain only 0 and 1, got {ch!r}")
        bits.append(int(ch))
    if not bits:
        raise ValueError("empty basis string")
    return tuple(bits)


def format_bits(bits: Sequence[int]) -> str:
    return "".join(str(b & 1) for b in bits)


def bits_to_index(bits: Sequence[int]) -> int:
    """Dense state-vector index of a basis string; qubit 0 is the low bit.
    Each bit is read mod 2 as int(bit & 1): Python and numpy integers and
    bools pack exactly at any width, and a float or str bit raises TypeError."""
    index = 0
    for q, bit in enumerate(bits):
        index |= int(bit & 1) << q
    return index


def index_to_bits(index: int, num_qubits: int) -> BasisString:
    return tuple((index >> q) & 1 for q in range(num_qubits))


def all_basis_strings(num_qubits: int) -> Iterator[BasisString]:
    """All basis strings in state-vector index order."""
    for index in range(1 << num_qubits):
        yield index_to_bits(index, num_qubits)


def _convert(convert, word: str, complaint: str):
    """convert(word), or a ValueError that quotes the word after the complaint."""
    try:
        return convert(word)
    except ValueError:
        raise ValueError(f"{complaint} {word!r}") from None


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format.

    Line 1 (after comments/blanks): ``mode z2`` or ``mode mixed``.
    Line 2: ``qubits N``, N at most MAX_DECLARED_QUBITS. Remaining
    lines are gates, one per line, with
    0-based qubit indices: ``x q``, ``h q``, ``cx control target``,
    ``ccx c1 c2 target``, ``p k q`` (mixed only, k in 0..7), and
    ``t q`` as shorthand for ``p 1 q``. ``#`` starts a comment. File
    order is application order. Each gate is checked by Gate and by the
    same rules as Circuit; any error carries its line number.
    """
    mode: Mode | None = None
    num_qubits: int | None = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0].lower()
        try:
            if mode is None:
                if head != "mode" or len(fields) != 2:
                    raise ValueError("expected 'mode z2' or 'mode mixed'")
                mode = _convert(Mode, fields[1].lower(), "unknown mode")
            elif num_qubits is None:
                if head != "qubits" or len(fields) != 2:
                    raise ValueError("expected 'qubits N'")
                num_qubits = _convert(int, fields[1], "bad qubit count")
                if num_qubits < 1:
                    raise ValueError("qubit count must be positive")
                if num_qubits > MAX_DECLARED_QUBITS:
                    raise ValueError(
                        f"qubit count {num_qubits} exceeds the limit of {MAX_DECLARED_QUBITS}"
                    )
            else:
                if head == "t":  # t q is sugar for p 1 q
                    head, fields = "p", ["p", "1", *fields[1:]]
                kind = _convert(GateKind, head, "unknown gate")
                words, power = fields[1:], None
                if kind is GateKind.P and words:
                    power, words = _convert(int, words[0], "bad phase power"), words[1:]
                gate = Gate(kind, tuple(_convert(int, w, "bad qubit index") for w in words), power)
                _check_gate(gate, num_qubits, mode)
                gates.append(gate)
        except ValueError as exc:
            raise CircuitSyntaxError(lineno, str(exc)) from None
    if mode is None or num_qubits is None:
        raise CircuitSyntaxError(1, "missing mode or qubits declaration")
    return Circuit(num_qubits, tuple(gates), mode)


def render_circuit(circuit: Circuit) -> str:
    """Serialize to the text format; parse_circuit inverts this exactly."""
    lines = [f"mode {circuit.mode.value}", f"qubits {circuit.num_qubits}"]
    for gate in circuit.gates:
        if gate.kind is GateKind.P:
            lines.append(f"p {gate.power} {gate.qubits[0]}")
        else:
            lines.append(
                f"{gate.kind.value} {' '.join(str(q) for q in gate.qubits)}"
            )
    return "\n".join(lines) + "\n"


def invert(circuit: Circuit) -> Circuit:
    """The inverse circuit: reversed gate order, P(k) replaced by P(8-k mod 8).

    X, CNOT, TOFFOLI, and H are their own inverses.
    """
    inverted = []
    for gate in reversed(circuit.gates):
        if gate.kind is GateKind.P:
            inverted.append(Gate.p((8 - gate.power) % 8, gate.qubits[0]))
        else:
            inverted.append(gate)
    return Circuit(circuit.num_qubits, tuple(inverted), circuit.mode)


def decision_transform(circuit: Circuit, answer_qubit: int = 0) -> Circuit:
    """Map a circuit computing f into one whose amplitude decides f(a) = 1.

    Appends one ancilla (the new last qubit), copies the answer qubit
    onto it with a CNOT, then uncomputes with the inverse circuit. On
    input (a, 0) the output amplitude at (a, f(a)) has magnitude 1, so
    comparing the amplitudes at ancilla 0 and 1 reads off f(a).
    Requires the answer qubit to hold a classical bit on basis inputs
    (true for any circuit whose gates are all X/CNOT/TOFFOLI).
    """
    return _copy_answer(circuit, answer_qubit, (), ())


def sign_transform(circuit: Circuit, answer_qubit: int = 0) -> Circuit:
    """Map a circuit computing f into one with diagonal amplitude (-1)^f(a).

    Appends one ancilla prepared in the |-> state (X then H), phases it
    with a CNOT from the answer qubit between the circuit and its
    inverse, then maps the ancilla back to 0 (H then X). On input (a, 0)
    the amplitude at (a, 0) is exactly (-1)^f(a). Same classical-bit
    requirement on the answer qubit as decision_transform.
    """
    prepare = (Gate.x(circuit.num_qubits), Gate.h(circuit.num_qubits))
    return _copy_answer(circuit, answer_qubit, prepare, prepare[::-1])


def _copy_answer(circuit: Circuit, answer_qubit: int, before: tuple[Gate, ...], after: tuple[Gate, ...]) -> Circuit:
    """The circuit, a CNOT from the answer qubit onto a new last qubit,
    and the inverse circuit, between the given gates on that qubit."""
    if not 0 <= answer_qubit < circuit.num_qubits:
        raise ValueError("answer qubit out of range")
    copy = Gate.cnot(answer_qubit, circuit.num_qubits)
    gates = (*before, *circuit.gates, copy, *invert(circuit).gates, *after)
    return Circuit(circuit.num_qubits + 1, gates, circuit.mode)


def random_circuit(
    num_qubits: int,
    num_gates: int,
    mode: Mode,
    rng: np.random.Generator,
    max_hadamards: int | None = None,
    kinds: Sequence[GateKind] | None = None,
) -> Circuit:
    """Draw a random circuit from the given mode's gate set.

    Fully determined by the generator state. ``kinds`` restricts the
    gate pool (it must be a subset of the mode's gate set);
    ``max_hadamards`` caps the number of H gates drawn.
    """
    if num_qubits < 1:
        raise ValueError("circuit needs at least one qubit")
    pool = tuple(kinds) if kinds is not None else tuple(
        sorted(MODE_GATES[mode], key=lambda k: k.value)
    )
    for kind in pool:
        _check_kind(kind, mode)
    gates: list[Gate] = []
    h_used = 0
    for _ in range(num_gates):
        usable = [k for k in pool if _ARITY[k] <= num_qubits]
        if max_hadamards is not None and h_used >= max_hadamards:
            usable = [k for k in usable if k is not GateKind.H]
        if not usable:
            break
        kind = usable[int(rng.integers(0, len(usable)))]
        qubits = tuple(
            int(q) for q in rng.choice(num_qubits, size=_ARITY[kind], replace=False)
        )
        power = int(rng.integers(0, 8)) if kind is GateKind.P else None
        gates.append(Gate(kind, qubits, power))
        if kind is GateKind.H:
            h_used += 1
    return Circuit(num_qubits, tuple(gates), mode)
