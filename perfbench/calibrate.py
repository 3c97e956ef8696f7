"""A fixed reference loop that puts timings on a steady scale.

The CPUs this benchmark was tuned on switch between a fast and a slow
state every few seconds, about 1.8x apart, whatever the program does. A
run's raw median then depends on how long it spent in each state. The
benchmark therefore times this loop right before and right after each
timed part and reports the part's time scaled to a CPU that runs the loop
in REF_SECONDS:

    scaled seconds = measured seconds * REF_SECONDS / reference seconds

The loop is benchmark code and never calls the package, so a change to the
package moves the scaled time exactly as much as the measured one. Raw
figures stay in the run record. The loop mixes plain interpreter work with
float exponentials because the package's parts slow by different factors
in the slow state; of the loops tried, this mix tracked all of them best.

    python3 perfbench/calibrate.py     # print the loop's time, 10th to 90th percentile
"""

from __future__ import annotations

import math
from time import perf_counter

#: the loop's wall time in the fast state of the 2-vCPU Xeon VM it was tuned on
REF_SECONDS = 0.0058
REF_ITERATIONS = 15_000


def reference_seconds() -> float:
    """Wall time of one pass of the loop, which mixes the two kinds of work
    the package does most: interpreter-bound two-choice increments and
    float exponentials like the potential updates in `balance`."""
    t0 = perf_counter()
    values = [0] * 64
    exp = math.exp
    x, phi = 1, 0.0
    for _ in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i, j = x & 63, (x >> 6) & 63
        if values[j] < values[i]:
            i = j
        values[i] += 1
        phi += exp(0.01 * values[i]) - exp(0.01 * (values[i] - 1))
    return perf_counter() - t0


class Bracket:
    """Times a block and the reference loop on both sides of it."""

    def __enter__(self):
        self.ref = reference_seconds()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self.t0
        self.ref = (self.ref + reference_seconds()) / 2
        return False

    @property
    def scale(self) -> float:
        """Factor that takes this block's measured time to the reference CPU."""
        return REF_SECONDS / self.ref


if __name__ == "__main__":
    import statistics

    times = sorted(reference_seconds() for _ in range(200))
    deciles = statistics.quantiles(times, n=10)
    print(f"reference loop: p10 {deciles[0] * 1e3:.2f} ms, median "
          f"{statistics.median(times) * 1e3:.2f} ms, p90 {deciles[-1] * 1e3:.2f} ms")
