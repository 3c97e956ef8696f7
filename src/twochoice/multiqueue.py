"""Thread-safe relaxed queue over m timestamp-ordered queues.

Enqueue stamps the element from a shared monotone logical clock and pushes
it onto one uniformly chosen internal queue; dequeue peeks the heads of two
uniformly chosen queues and pops from the one with the smaller key. Each
internal queue is a binary heap behind its own mutex; the cross-queue
comparison is deliberately unsynchronized, which is exactly the relaxation
being studied. Keys are (stamp, thread, per-thread sequence) triples, a
strict total order even if a different clock produced duplicate stamps.

A dequeue whose two probed queues are both empty reports EMPTY, which is a
statement about the probes, not the whole structure; drain() exists for
teardown. If a probed queue empties between the peek and the pop (or its
lock is held), the dequeue retries with fresh random queues a bounded
number of times.

The shared clock is a locked counter rather than a hardware timestamp:
portable, and reads-after-increments are strictly monotone by construction,
which gives the cross-thread stamp consistency enqueues rely on.
"""

from __future__ import annotations

import threading
from heapq import heappop, heappush
from typing import Iterable

from numpy.random import Generator

from .csvfile import write_csv


class _Empty:
    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


#: returned by dequeue when both probed queues were empty
EMPTY = _Empty()

RANK_HEADER = "seq,rank,queue,stamp"


class LogicalClock:
    """Shared monotone counter; next() hands out distinct increasing stamps."""

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            v = self._value
            self._value = v + 1
        return v


class RankOracle:
    """Shadow order-statistics set of live keys (test instrumentation).

    Keys are the unique non-negative integer stamps of live elements; a
    Fenwick tree gives O(log n) insert, delete, and rank queries, where
    rank(key) counts live keys strictly smaller than key.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._cap = capacity
        self._tree = [0] * (capacity + 1)
        self._live: set[int] = set()

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: int) -> bool:
        return key in self._live

    def _bump(self, key: int, delta: int) -> None:
        i = key + 1
        tree = self._tree
        while i <= self._cap:
            tree[i] += delta
            i += i & (-i)

    def _prefix(self, key: int) -> int:
        # number of live keys <= key
        i = key + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def add(self, key: int) -> None:
        if key < 0:
            raise ValueError("keys must be non-negative")
        if key in self._live:
            raise ValueError(f"key {key} already live")
        if key >= self._cap:
            self._grow(key + 1)
        self._live.add(key)
        self._bump(key, 1)

    def remove(self, key: int) -> None:
        if key not in self._live:
            raise KeyError(key)
        self._live.remove(key)
        self._bump(key, -1)

    def rank_of(self, key: int) -> int:
        """Number of live keys strictly smaller than a live key."""
        if key not in self._live:
            raise KeyError(key)
        return self._prefix(key) - 1

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        self._cap = cap
        self._tree = [0] * (cap + 1)
        for key in self._live:
            self._bump(key, 1)


class MultiQueue:
    """m internally ordered queues with uniform enqueue, two-choice dequeue."""

    def __init__(self, queues: int, clock: LogicalClock | None = None,
                 oracle: RankOracle | None = None):
        if queues < 1:
            raise ValueError("queues must be >= 1")
        self.queues = queues
        self.clock = clock or LogicalClock()
        self._heaps: list[list] = [[] for _ in range(queues)]
        self._locks = [threading.Lock() for _ in range(queues)]
        self._last_key: list[tuple | None] = [None] * queues
        self._thread_seq: dict[int, int] = {}
        self.oracle = oracle
        self._oracle_lock = threading.Lock()
        self.rank_log: list[tuple[int, int, int, int]] = []

    def enqueue(self, element, rng: Generator, thread: int = 0) -> None:
        """Stamp the element and add it to one uniformly chosen queue.

        The stamp is drawn while the target queue's lock is held, which
        linearizes the enqueue at its clock read: stamps within one queue
        then increase in insertion order, and pops leave each queue in
        strictly increasing key order even under concurrency.
        """
        q = int(rng.integers(0, self.queues))
        seq = self._thread_seq.get(thread, 0)
        self._thread_seq[thread] = seq + 1
        with self._locks[q]:
            stamp = self.clock.next()
            heappush(self._heaps[q], (stamp, thread, seq, element))
            if self.oracle is not None:
                with self._oracle_lock:
                    self.oracle.add(stamp)

    def _peek(self, q: int):
        with self._locks[q]:
            heap = self._heaps[q]
            return heap[0] if heap else None

    def dequeue(self, rng: Generator, attempts: int = 8):
        """Pop from the smaller-keyed of two probed queues.

        Returns EMPTY when both probes find empty queues, or when the
        bounded retries are exhausted by races.
        """
        heaps = self._heaps
        locks = self._locks
        for _ in range(attempts):
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
                heap = heaps[i]
                if not heap:
                    continue  # emptied since the peek: retry
                entry = heappop(heap)
                self._check_pop_order(i, entry)
            finally:
                lock.release()
            if self.oracle is not None:
                with self._oracle_lock:
                    rank = self.oracle.rank_of(entry[0])
                    self.oracle.remove(entry[0])
                    self.rank_log.append((len(self.rank_log), rank, i, entry[0]))
            return entry[3]
        return EMPTY

    def _check_pop_order(self, q: int, entry) -> None:
        """Record the key popped from queue q (its lock held); raises unless
        keys leave each queue in strictly increasing order."""
        key = entry[:3]
        last = self._last_key[q]
        if last is not None and key <= last:
            raise RuntimeError(f"queue {q}: popped key {key} after {last}")
        self._last_key[q] = key

    def drain(self) -> list:
        """Pop everything, queue by queue (teardown helper, not concurrent-safe
        with respect to rank bookkeeping)."""
        out = []
        for q in range(self.queues):
            with self._locks[q]:
                heap = self._heaps[q]
                while heap:
                    entry = heappop(heap)
                    self._check_pop_order(q, entry)
                    out.append(entry[3])
                    if self.oracle is not None:
                        with self._oracle_lock:
                            self.oracle.remove(entry[0])
        return out

    def live_count(self) -> int:
        """Total elements across queues; exact only at quiescence."""
        return sum(len(h) for h in self._heaps)

    def write_rank_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        write_csv(path, header_comments, RANK_HEADER, list(zip(*self.rank_log)))
