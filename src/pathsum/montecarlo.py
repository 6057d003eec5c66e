"""Monte Carlo estimation of path-sum amplitudes, and why it fails.

Each sample draws one assignment x uniformly from the 2^h paths and
scores sqrt(2^h) * [B(x) = b] * (-1)^phase(x), whose mean over x is the
amplitude. The estimator is unbiased but its per-sample variance grows
like 2^h for amplitudes of order one, so the standard error at fixed
sample count doubles roughly every four Hadamards: an exponential wall
that the exact counting kernel does not hit.

Samples are drawn in blocks of at most 2^20, and only the counts of +1
and -1 scores are kept, so memory does not grow with the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compile_z2 import PathSystem
from .counting import _check_packed, _pack, _require_z2, _select

__all__ = ["GENERATOR", "SampleEstimate", "estimate_amplitude"]

GENERATOR = "numpy.random.default_rng (PCG64)"

_SAMPLE_BLOCK = 1 << 20


@dataclass(frozen=True)
class SampleEstimate:
    """Sample mean, its standard error, and the run parameters."""

    estimate: float
    std_error: float
    num_samples: int
    h: int


def estimate_amplitude(
    system: PathSystem,
    output_bits: Sequence[int],
    num_samples: int,
    seed: int,
) -> SampleEstimate:
    """Unbiased amplitude estimate from num_samples uniform path draws.

    Fully determined by the seed. std_error is the sample standard
    deviation (ddof=1) divided by sqrt(num_samples). Systems beyond
    the 63-variable packed-path limit raise CapExceededError.
    """
    _require_z2(system)
    if num_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if len(output_bits) != system.num_qubits:
        raise ValueError("output length must match the qubit count")
    b = tuple(bit & 1 for bit in output_bits)
    h = system.num_path_vars
    _check_packed(h)
    rng = np.random.default_rng(seed)
    # Each score is 0 or +-sqrt(2^h): the counts of +1 and -1 hits fix both statistics.
    hits = odd = 0
    for start in range(0, num_samples, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, num_samples - start)
        draws = _pack(rng.integers(0, 1 << h, size=size, dtype=np.uint64))
        draws = draws[_select(system.outputs, b, draws)]
        hits += draws.size
        odd += int(np.count_nonzero(system.phase.values(draws)))
    gap, n = hits - 2 * odd, num_samples
    estimate = math.sqrt(2.0 ** h) * gap / n
    # ddof=1 variance: 2^h * (n * hits - gap^2) / (n * (n - 1)), exact up to the last division.
    std_error = math.sqrt(2.0 ** h * (n * hits - gap * gap) / (n * (n - 1)) / n)
    return SampleEstimate(estimate, std_error, num_samples, h)
