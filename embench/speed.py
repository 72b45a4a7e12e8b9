"""The host's speed, sampled with a fixed pure-Python loop.

On the shared 2-vCPU Xeon this benchmark was built on, the speed of the
CPU itself drifts by a fifth and more over minutes, in CPU time as much as
in wall time, so two runs of the same code minutes apart differ by more
than the regressions the benchmark must catch.  A run therefore times a
fixed reference loop before each set-up and between its units of work,
and reports its end-to-end times at a nominal host speed: a measured time
is divided by the run's ``scale``, the median reference time over
``REFERENCE_S``.  The program cannot change the reference loop; it runs
while the program is idle, between units.  Measured values are printed
too (the ``info`` line's ``measured``).
"""

from __future__ import annotations

import time

from stats import median

__all__ = ["REFERENCE_S", "reference_loop", "HostSpeed"]

#: Seconds the reference loop takes on the nominal host; the constant
#: fixes the unit of the scaled times and is the same for every commit.
REFERENCE_S = 0.025
#: Iterations of the reference loop (about 25 ms on the host above).
LOOP_ITERATIONS = 300_000


def reference_loop() -> float:
    """Seconds one fixed run of pure-Python integer arithmetic takes."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop times sampled over one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        self.samples += [reference_loop() for _ in range(count)]

    def scale(self) -> float:
        """How much slower than nominal the host ran (1.0 = nominal)."""
        return median(self.samples) / REFERENCE_S
