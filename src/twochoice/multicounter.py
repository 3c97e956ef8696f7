"""Thread-safe sharded approximate counter.

The counter distributes contention over m cells. An increment draws two
cell indices, reads both cells without synchronization (the algorithm
tolerates stale values by design), then atomically increments the cell
whose read value was smaller; ties and repeated indices go to the first
choice. A read returns one uniformly chosen cell scaled by m, so reads are
wait-free and carry the magnitude of the true total.

Atomic read-modify-write is realized as a per-cell mutex around a plain
integer, the portable CPython equivalent of a hardware fetch-and-add; an
increment still takes a bounded number of its own steps: two draws, two
reads, one locked add. There are no retries and no structure-wide lock.
"""

from __future__ import annotations

import threading

from numpy.random import Generator


class MultiCounter:
    """m monotone cells with two-choice increments and scaled reads."""

    def __init__(self, cells: int):
        if cells < 1:
            raise ValueError("cells must be >= 1")
        self.cells = cells
        self._values = [0] * cells
        self._locks = [threading.Lock() for _ in range(cells)]

    def increment(self, rng: Generator) -> int:
        """Two-choice increment; returns the updated cell index."""
        values = self._values
        i = int(rng.integers(0, self.cells))
        j = int(rng.integers(0, self.cells))
        if values[j] < values[i]:
            i = j
        with self._locks[i]:
            values[i] += 1
        return i

    def read(self, rng: Generator) -> int:
        """m times one uniformly chosen cell; wait-free."""
        return self.cells * self._values[int(rng.integers(0, self.cells))]

    def exact_total(self) -> int:
        """Sum of all cells; exact only at quiescence."""
        return sum(self._values)

    def snapshot(self) -> list[int]:
        """Copy of all cells; meaningful only at quiescence."""
        return list(self._values)
