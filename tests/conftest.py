"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's vectorized kernels:
counting is redone with a per-assignment Python loop over scalar
polynomial evaluation, mixed amplitudes are tallied without Gaussian
elimination, and polynomials are multiplied by a set loop that toggles
one monomial pair at a time. Agreement between these and the production
code paths is what the correctness tests assert.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pathsum import (
    Circuit,
    CountPair,
    CyclotomicValue,
    GF2Poly,
    PathSystem,
    compile_mixed,
    parse_circuit,
)

CIRCUITS_DIR = Path(__file__).resolve().parent.parent / "circuits"
GOLDEN_PATH = CIRCUITS_DIR / "toffoli_h_3q.circ"


@pytest.fixture(scope="session")
def golden_circuit() -> Circuit:
    return parse_circuit(GOLDEN_PATH.read_text(encoding="utf-8"))


def random_bits(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(bit) for bit in rng.integers(0, 2, size=n))


def set_loop_product(p: GF2Poly, q: GF2Poly) -> GF2Poly:
    """Reference product: toggle m1 | m2 for every pair of monomials."""
    acc: set[int] = set()
    for m1 in p.masks:
        for m2 in q.masks:
            acc.symmetric_difference_update((m1 | m2,))
    return GF2Poly(acc)


def naive_count(system: PathSystem, output_bits) -> CountPair:
    """Reference counting loop: one scalar evaluation per assignment."""
    b = tuple(bit & 1 for bit in output_bits)
    count0 = count1 = 0
    for x in range(1 << system.num_path_vars):
        point = x << 1  # path variables are 1-based
        if all(
            poly.evaluate_mask(point) == bit
            for poly, bit in zip(system.outputs, b)
        ):
            if system.phase.evaluate_mask(point):
                count1 += 1
            else:
                count0 += 1
    return CountPair(count0, count1, system.num_path_vars)


def naive_cyclotomic(circuit: Circuit, input_bits, output_bits) -> CyclotomicValue:
    """Reference mixed amplitude: full enumeration, no elimination."""
    system = compile_mixed(circuit, input_bits)
    b = tuple(bit & 1 for bit in output_bits)
    tallies = [0] * 8
    for x in range(1 << system.num_path_vars):
        point = x << 1
        if all(
            poly.evaluate_mask(point) == bit
            for poly, bit in zip(system.outputs, b)
        ):
            tallies[system.phase.evaluate_mask(point)] += 1
    coeffs = tuple(tallies[k] - tallies[k + 4] for k in range(4))
    return CyclotomicValue(coeffs, system.num_path_vars)
