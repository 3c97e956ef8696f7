"""Thread-safe relaxed queue over m FIFO sub-queues.

Enqueue stamps the element from the queue's `multicounter.LogicalClock`
and appends it to one uniformly chosen sub-queue; dequeue peeks the heads
of two uniformly chosen sub-queues and pops from the one with the smaller
stamp. Each sub-queue is a deque behind its own mutex; the cross-queue
comparison is deliberately unsynchronized, which is exactly the relaxation
being studied. The clock is one locked counter, so stamps are unique and
strictly monotone, and an enqueue takes its stamp while it holds the
target sub-queue's lock, so each sub-queue receives increasing stamps and
its head is its minimum. A FIFO thus does what a heap does for arbitrary
priorities, and every pop raises if that rule breaks. Enqueue returns its
queue and stamp; dlin prices recorded pops offline.

A dequeue whose two probed queues are both empty reports EMPTY, which is a
statement about the probes, not the whole structure; drain() exists for
teardown. If a probed queue empties between the peek and the pop (or its
lock is held), the dequeue retries with fresh random queues a bounded
number of times.

There is no structure-wide lock, but the serial runs' batch methods hold
several (at small m, every queue's): `enqueue_many` and `dequeue_many`
draw the indices of up to BATCH ops at once and hold the locks of the
distinct queues they name, taken in ascending order
(`multicounter.locked_slots`), while they apply them. An
enqueue batch then takes the clock's lock once to reserve its stamps. The
order is queues, then clock, as in `enqueue`, so no two of these methods
can deadlock, and with its queues held a batch needs no retries.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Sequence

import numpy as np
from numpy.random import Generator

from .csvfile import write_csv
from .multicounter import BATCH, LogicalClock, locked_slots


class _Empty:
    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


#: returned by dequeue when both probed queues were empty
EMPTY = _Empty()


class MultiQueue:
    """m FIFO sub-queues with uniform enqueue, two-choice dequeue."""

    #: probe pairs a dequeue tries before it gives up on races
    DEQUEUE_ATTEMPTS = 8

    def __init__(self, queues: int):
        if queues < 1:
            raise ValueError("queues must be >= 1")
        self.queues = queues
        self._clock = LogicalClock()
        self._queues: list[deque] = [deque() for _ in range(queues)]
        self._locks = [threading.Lock() for _ in range(queues)]
        self._last_stamp: list[int] = [-1] * queues

    def enqueue(self, element, rng: Generator, thread: int = 0) -> tuple[int, int]:
        """Stamp the element and add it to one uniformly chosen queue;
        returns that queue's index and the stamp.

        The stamp is drawn while the target queue's lock is held, which
        linearizes the enqueue at its clock read: stamps within one queue
        then increase in insertion order, even under concurrency. That is
        what makes a FIFO correct: its head holds its smallest stamp.
        """
        # `thread` is unread; it stays only while a benchmark caller passes it
        q = int(rng.integers(0, self.queues))
        with self._locks[q]:
            stamp = self._clock.reserve(1)
            self._queues[q].append((stamp, element))
        return q, stamp

    def enqueue_many(self, elements: Sequence, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
        """Enqueue each element in turn, as `enqueue(element, rng)` calls in
        a row would; returns the queues and stamps as int64 columns."""
        n = len(elements)
        queues = np.empty(n, dtype=np.int64)
        stamps = np.empty(n, dtype=np.int64)
        dqs = self._queues
        for start in range(0, n, BATCH):
            stop = min(start + BATCH, n)
            drawn = rng.integers(0, self.queues, size=stop - start)
            with locked_slots(self._locks, drawn):
                first = self._clock.reserve(stop - start)
                for stamp, q, element in zip(range(first, first + stop - start),
                                             drawn.tolist(), elements[start:stop]):
                    dqs[q].append((stamp, element))
            queues[start:stop] = drawn
            stamps[start:stop] = np.arange(first, first + stop - start)
        return queues, stamps

    def _peek(self, q: int):
        with self._locks[q]:
            queue = self._queues[q]
            return queue[0] if queue else None

    def dequeue(self, rng: Generator):
        """Pop from the smaller-stamped of two probed queues.

        Returns EMPTY when both probes find empty queues, or when the
        bounded retries are exhausted by races.
        """
        dqs, locks = self._queues, self._locks
        for _ in range(self.DEQUEUE_ATTEMPTS):
            i = int(rng.integers(0, self.queues))
            j = int(rng.integers(0, self.queues))
            top_i = self._peek(i)
            top_j = self._peek(j)
            if top_i is None and top_j is None:
                return EMPTY
            if top_i is None or (top_j is not None and top_j < top_i):
                i = j
            # pop whatever is the current minimum of the chosen queue; the
            # peeked entry may be gone, which is the accepted relaxation
            lock = locks[i]
            if not lock.acquire(blocking=False):
                continue  # contended: retry with fresh queues
            try:
                queue = dqs[i]
                if not queue:
                    continue  # emptied since the peek: retry
                stamp, element = queue.popleft()
                self._check_pop_order(i, stamp)
            finally:
                lock.release()
            return element
        return EMPTY

    def dequeue_many(self, rng: Generator, count: int) -> list:
        """`count` dequeues, as that many `dequeue(rng)` calls in a row
        would make them: the popped elements, EMPTY where both probed
        queues were empty."""
        dqs, last = self._queues, self._last_stamp
        out = []
        for start in range(0, count, BATCH):
            drawn = rng.integers(0, self.queues, size=2 * min(BATCH, count - start))
            with locked_slots(self._locks, drawn):
                pairs = iter(drawn.tolist())
                for i, j in zip(pairs, pairs):
                    queue, other = dqs[i], dqs[j]
                    if not queue or (other and other[0] < queue[0]):
                        if not other:
                            out.append(EMPTY)
                            continue
                        i, queue = j, other
                    stamp, element = queue.popleft()
                    if stamp <= last[i]:
                        self._check_pop_order(i, stamp)   # raises
                    last[i] = stamp
                    out.append(element)
        return out

    def _check_pop_order(self, q: int, stamp: int) -> None:
        """Record the stamp popped from queue q (its lock held); raises unless
        stamps leave each queue in strictly increasing order."""
        last = self._last_stamp[q]
        if stamp <= last:
            raise RuntimeError(f"queue {q}: popped stamp {stamp} after {last}")
        self._last_stamp[q] = stamp

    def drain(self) -> list:
        """Pop everything, queue by queue (teardown helper)."""
        out = []
        for q in range(self.queues):
            with self._locks[q]:
                queue = self._queues[q]
                while queue:
                    stamp, element = queue.popleft()
                    self._check_pop_order(q, stamp)
                    out.append(element)
        return out

    def live_count(self) -> int:
        """Total elements across queues; exact only at quiescence."""
        return sum(len(dq) for dq in self._queues)

    @staticmethod
    def write_rank_csv(path, header_comments: Iterable[str], seq: Sequence,
                       rank: Sequence, queue: Sequence, stamp: Sequence) -> None:
        """Write one rank row per dequeue. Call it on the class: a traced
        benchmark run replaces the class attribute with a plain function."""
        write_csv(path, header_comments, "seq,rank,queue,stamp", [seq, rank, queue, stamp])
