"""Why uniform path sampling cannot replace exact counting.

The Monte Carlo estimator is unbiased, but for circuits whose amplitude
stays constant while the Hadamard count h grows, the per-sample
variance scales like 2^(h/2): the standard error at fixed sample count
doubles every four Hadamards, so pinning the amplitude down needs a
number of samples exponential in h. The exact kernel pays at most 2^h
once, deterministically, and returns an integer answer. That is its
worst case: count first sums out what the path-sum rules can, and on
the identity pattern below they leave 0 free variables, so one path is
enumerated whatever h is.
"""

from __future__ import annotations

import numpy as np

from pathsum import Circuit, Gate, Mode, amplitude, compile_circuit, estimate_amplitude

SAMPLES = 4096
SEEDS = range(20)


def identity_pattern(h: int) -> Circuit:
    """h/2 qubits, an H H pair on each: the unitary is the identity."""
    gates = tuple(g for q in range(h // 2) for g in (Gate.h(q), Gate.h(q)))
    return Circuit(h // 2, gates, Mode.Z2)


print(f"target amplitude is exactly 1 for every h; M = {SAMPLES} samples\n")
print("  h   exact   mean estimate   mean std_error   growth")
previous = None
for h in (4, 6, 8, 10, 12):
    circuit = identity_pattern(h)
    zeros = (0,) * circuit.num_qubits
    system = compile_circuit(circuit, zeros)
    exact = amplitude(system, zeros).as_float()
    runs = [estimate_amplitude(system, zeros, SAMPLES, seed) for seed in SEEDS]
    mean_estimate = float(np.mean([r.estimate for r in runs]))
    mean_error = float(np.mean([r.std_error for r in runs]))
    growth = "" if previous is None else f"x{mean_error / previous:.2f}"
    previous = mean_error
    print(f"  {h:>2}   {exact:.3f}   {mean_estimate:13.4f}   {mean_error:14.4f}   {growth:>6}")

print("""
Each h -> h + 2 step multiplies the standard error by about sqrt(2),
i.e. a factor 2 per four Hadamards: Theta(2^(h/2)) growth at fixed M.
Holding the error fixed instead requires M proportional to 2^h.
""")

h = 12
circuit = identity_pattern(h)
zeros = (0,) * circuit.num_qubits
system = compile_circuit(circuit, zeros)
estimate = estimate_amplitude(system, zeros, SAMPLES, seed=0)
exact = amplitude(system, zeros)
print(f"at h = {h}: sampled {estimate.estimate:.3f} +- {estimate.std_error:.3f} "
      f"vs exact {exact} = {exact.as_float():.1f}")
