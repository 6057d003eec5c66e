"""Machine speed, sampled between queries with a fixed reference loop.

On a shared virtual machine the CPU time of a fixed piece of work drifts
by 10-30% over seconds to minutes, with the load other tenants put on
the host. For code that runs in the interpreter the drift is common: the
CPU time of a query and of a fixed interpreter loop timed right next to
it move together. For those workloads the benchmark times the loop
every CAL_INTERVAL seconds and scales each query's CPU time by
NOMINAL_S / (the loop's time near that query). A scaled time reads as
CPU seconds on a machine where the loop takes NOMINAL_S, whatever the
moment's load; a program that does twice the work still reads twice the
time.

The loop uses set and integer operations, like the compile and reduce
layers, and shares no code with the program. Numpy kernels over arrays
larger than the caches drift differently: a numpy loop of the enumerate
kernels' shape over-corrected their times by up to a quarter on some
runs, so the enumerate-dominated workloads are not scaled. NOMINAL_S is
about the loop's median on an idle 2-vCPU Intel Xeon virtual machine.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 1.0e-3  # CPU seconds of one reference loop that scaled times refer to
CAL_INTERVAL = 0.25  # wall seconds between speed samples
CAL_REPEATS = 2  # loops per sample; the faster one counts
CAL_WINDOW = 2.0  # a query is scaled by the samples within this many wall seconds


def reference_loop() -> int:
    acc: set[int] = set()
    for i in range(4000):
        acc ^= {(i * 40503) & 4095, i & 255}
    return len(acc)


class MachineSpeed:
    """Reference-loop timings taken during a run, as (wall clock, CPU s)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        best = float("inf")
        for _ in range(CAL_REPEATS):
            start = time.process_time()
            reference_loop()
            best = min(best, time.process_time() - start)
        self.samples.append((time.perf_counter(), best))

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= CAL_INTERVAL

    def scale(self, at: float) -> float:
        """NOMINAL_S over the median loop time within CAL_WINDOW of ``at``
        (or of the nearest sample when none is that close)."""
        near = [cpu for wall, cpu in self.samples if abs(wall - at) <= CAL_WINDOW]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - at))[1]]
        return NOMINAL_S / statistics.median(near)
