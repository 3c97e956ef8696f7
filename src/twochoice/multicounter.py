"""Thread-safe counters: the sharded approximate MultiCounter, and the
exact LogicalClock that stamps MultiQueue elements and exact STM commits.

The MultiCounter distributes contention over m cells. An increment draws two
cell indices, reads both cells without synchronization (the algorithm
tolerates stale values by design), then atomically increments the cell
whose read value was smaller; ties and repeated indices go to the first
choice. A read returns one uniformly chosen cell scaled by m, so reads are
wait-free and carry the magnitude of the true total.

Atomic read-modify-write is realized as a per-cell mutex around a plain
integer, the portable CPython equivalent of a hardware fetch-and-add; an
increment still takes a bounded number of its own steps: two draws, two
reads, one locked add. There are no retries and no structure-wide lock,
though a batch holds several cell locks at once (at small m, every cell's):

`increment_many`, the serial quality run's batch of increments, draws the
indices of up to BATCH increments at once and holds the locks of the
distinct cells they name while it applies them. It takes them in ascending
order (`locked_slots`), so it only ever waits for a lock above every lock
it holds, and neither another batch nor a single op, which holds one lock
at a time, can deadlock with it. MultiQueue's batches use the same
rule.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from numpy.random import Generator

#: ops whose indices a batch method draws with one `integers` call
BATCH = 1024


@contextmanager
def locked_slots(locks: list, slots: np.ndarray):
    """Hold the locks of the distinct `slots`, taken in ascending order."""
    ordered = np.sort(slots)   # np.unique (hashing in numpy 2) costs 3-10x as much
    held = [locks[s] for s in ordered[np.append(True, ordered[1:] != ordered[:-1])].tolist()]
    for lock in held:
        lock.acquire()
    try:
        yield
    finally:
        for lock in held:
            lock.release()


class LogicalClock:
    """Shared monotone counter; reserve() hands out distinct increasing
    stamps under its lock, and read() is a plain load."""

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def read(self) -> int:
        return self._value

    def reserve(self, count: int) -> int:
        """Hand out `count` consecutive stamps at once; returns the first."""
        with self._lock:
            v = self._value
            self._value = v + count
        return v


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

    def increment_many(self, rng: Generator, count: int) -> None:
        """`count` increments, leaving the cells and rng as that many
        `increment(rng)` calls in a row would. numpy draws a batch of
        indices as it draws them one at a time, so batching changes no
        value."""
        values, locks = self._values, self._locks
        for start in range(0, count, BATCH):
            drawn = rng.integers(0, self.cells, size=2 * min(BATCH, count - start))
            with locked_slots(locks, drawn):
                pairs = iter(drawn.tolist())
                for i, j in zip(pairs, pairs):
                    if values[j] < values[i]:
                        i = j
                    values[i] += 1

    def read(self, rng: Generator) -> int:
        """m times one uniformly chosen cell; wait-free."""
        return self.cells * self._values[int(rng.integers(0, self.cells))]

    def exact_total(self) -> int:
        """Sum of all cells; exact only at quiescence."""
        return sum(self._values)

    def snapshot(self) -> list[int]:
        """Copy of all cells; meaningful only at quiescence."""
        return list(self._values)
