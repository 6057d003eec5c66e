"""Exact amplitudes by counting solutions, and the one enumeration kernel.

For a compiled system with h path variables, the transition amplitude
to output b is (#(0) - #(1)) / sqrt(2^h) where #(k) counts the
assignments x with B(x) = b and phase(x) = k. A mixed-mode phase is
tallied mod 8 instead, giving CyclotomicValues. distribution serves
both modes; count, count_all and amplitude are z2-mode only (mixed.py
eliminates before it tallies one mixed amplitude).

The kernel, _tally, packs the 2^k assignments into uint64 words (x_i at
bit i, so at most 63 variables) and tallies them by output and phase
value in fixed-size blocks, folding each block into a running sum so
memory stays bounded; blocks can run on a thread pool sized by the
PATHSUM_THREADS environment variable.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import BasisString, index_to_bits
from .compile_z2 import PathSystem
from .gf2poly import GF2Poly

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "CountPair",
    "RealAmplitude",
    "CyclotomicValue",
    "count",
    "count_all",
    "amplitude",
    "distribution",
]

DEFAULT_CAP = 30

_BLOCK_BITS = 20
# One ~320-byte dict entry per output: about 330 MB at 20 qubits, the dense simulator's limit.
_MAX_OUTPUT_QUBITS = 20
_MAX_PATH_VARS = 63


class CapExceededError(RuntimeError):
    """Enumeration would exceed the configured cap."""


def _check_packed(k: int) -> None:
    if k > _MAX_PATH_VARS:
        raise CapExceededError(
            f"{k} path variables exceed the packed-path limit of "
            f"{_MAX_PATH_VARS} (paths are packed in 64-bit words)"
        )


def _check_cap(h: int, cap: int) -> None:
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if h > cap:
        raise CapExceededError(
            f"enumeration over 2^{h} assignments exceeds the cap of 2^{cap}; "
            "raise --cap or fall back to montecarlo sampling"
        )
    _check_packed(h)


def _worker_count() -> int:
    raw = os.environ.get("PATHSUM_THREADS", "1")
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    warnings.warn(f"PATHSUM_THREADS={raw!r} is not a positive integer; running on 1 thread", RuntimeWarning)
    return 1


def _pack(indices: np.ndarray) -> np.ndarray:
    """Pack uint64 path indices in place: x_i at bit i, since variables are 1-based."""
    indices <<= np.uint64(1)
    return indices


def _select(outputs: Sequence[GF2Poly], target: Sequence[int], points: np.ndarray) -> np.ndarray:
    """Mask of the packed points whose outputs equal the target bits."""
    keep = np.ones(points.shape, dtype=bool)
    for poly, bit in zip(outputs, target):
        keep &= poly.values(points) == bool(bit)
    return keep


def _fold(k: int, shape: tuple[int, int], work: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Sum the tables work(start, stop) over the blocks of 2^k paths as
    they finish; a thread pool keeps at most two blocks per worker in flight."""
    total = np.zeros(shape, dtype=np.int64)
    step = 1 << min(k, _BLOCK_BITS)
    spans = ((start, start + step) for start in range(0, 1 << k, step))
    workers = _worker_count()
    if workers == 1 or k <= _BLOCK_BITS:
        for start, stop in spans:
            total += work(start, stop)
        return total
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for start, stop in spans:
            pending.append(pool.submit(work, start, stop))
            if len(pending) >= 2 * workers:
                total += pending.popleft().result()
        for future in pending:
            total += future.result()
    return total


def _tally(k: int, outputs: Sequence[GF2Poly], phase, target: Sequence[int] | None, cap: int) -> np.ndarray:
    """Count the 2^k packed paths by output and by phase value.

    Columns are phase values: mod 2 for a GF2Poly phase, mod 8 for a
    MixedPhase. With a target basis string the one row counts the paths
    whose outputs equal it; with None there is one row per output
    index, qubit j being bit j of the index.
    """
    _check_cap(k, cap)
    modulus = 2 if isinstance(phase, GF2Poly) else 8
    keyed = outputs if target is None else ()
    if len(keyed) > _MAX_OUTPUT_QUBITS:
        raise CapExceededError(
            f"full distribution over {len(keyed)} qubits exceeds the {_MAX_OUTPUT_QUBITS}-qubit cap"
        )
    shift = modulus.bit_length() - 1

    def work(start: int, stop: int) -> np.ndarray:
        points = _pack(np.arange(start, stop, dtype=np.uint64))
        if target:
            points = points[_select(outputs, target, points)]
        key = phase.values(points).astype(np.intp)
        for j, poly in enumerate(keyed):
            key |= poly.values(points).astype(np.intp) << (j + shift)
        return np.bincount(key, minlength=modulus << len(keyed)).reshape(-1, modulus)

    return _fold(k, (1 << len(keyed), modulus), work)


@dataclass(frozen=True)
class CountPair:
    """Solution counts of B(x) = b split by phase parity, with h recorded."""

    count0: int
    count1: int
    h: int

    @property
    def gap(self) -> int:
        return self.count0 - self.count1

    @property
    def total(self) -> int:
        return self.count0 + self.count1


@dataclass(frozen=True)
class RealAmplitude:
    """Exact amplitude gap / sqrt(2^half_power) with integer numerator."""

    gap: int
    half_power: int

    def as_float(self) -> float:
        return self.gap / math.sqrt(2.0 ** self.half_power)

    def __str__(self) -> str:
        return f"{self.gap}/2^({self.half_power}/2)"


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


def _require_z2(system: PathSystem) -> None:
    if not isinstance(system.phase, GF2Poly):
        raise ValueError("this entry point handles z2-mode systems only, not a mixed (mod 8) phase")


def count(system: PathSystem, output_bits: Sequence[int], cap: int = DEFAULT_CAP) -> CountPair:
    """Count solutions of B(x) = b with phase 0 and with phase 1."""
    _require_z2(system)
    if len(output_bits) != system.num_qubits:
        raise ValueError("output length must match the qubit count")
    b = tuple(bit & 1 for bit in output_bits)
    h = system.num_path_vars
    (row,) = _tally(h, system.outputs, system.phase, b, cap).tolist()
    return CountPair(row[0], row[1], h)


def count_all(system: PathSystem, cap: int = DEFAULT_CAP) -> dict[BasisString, CountPair]:
    """Count pairs for every output basis string in a single sweep."""
    _require_z2(system)
    h = system.num_path_vars
    table = _tally(h, system.outputs, system.phase, None, cap)
    return {
        index_to_bits(i, system.num_qubits): CountPair(c0, c1, h)
        for i, (c0, c1) in enumerate(table.tolist())
    }


def amplitude(system: PathSystem, output_bits: Sequence[int], cap: int = DEFAULT_CAP) -> RealAmplitude:
    """Exact transition amplitude to one output basis string."""
    pair = count(system, output_bits, cap)
    return RealAmplitude(pair.gap, pair.h)


def distribution(system: PathSystem, cap: int = DEFAULT_CAP) -> dict[BasisString, RealAmplitude | CyclotomicValue]:
    """Exact amplitudes of every reachable output in one sweep over 2^h paths:
    RealAmplitudes for a z2 phase, CyclotomicValues for a mixed phase.

    Outputs with no admissible path at all are omitted; a reachable
    output whose terms cancel still appears, with the zero value.
    """
    h = system.num_path_vars
    table = _tally(h, system.outputs, system.phase, None, cap)
    return {
        index_to_bits(i, system.num_qubits): (
            RealAmplitude(row[0] - row[1], h) if len(row) == 2
            else CyclotomicValue(_omega_coeffs(row), h)
        )
        for i, row in enumerate(table.tolist())
        if any(row)
    }
