"""Toy word-based transactional memory over an array of versioned cells.

Classic two-phase design: a transaction records the clock value at begin
(rv), reads cells optimistically with a pre/post version-and-lock check,
buffers writes in a redo log, and at commit locks its write set in index
order, validates its read set, stamps the writes with a new version, and
releases. Any failed check aborts; the caller retries with a fresh begin.

The version source is pluggable:

  ExactClock        a LogicalClock, the locked counter that stamps MultiQueue
                    elements; commit stamps are fetch-and-increment results,
                    which gives strict serializability.
  RelaxedClock      a sharded MultiCounter read as an approximate clock.
                    Commit stamps are written "in the future": the newest
                    of the writer's running maximum t_max (every clock read,
                    rv included, and every stamp it wrote) and the versions
                    on its locked write cells, topped by a margin delta
                    chosen to exceed the counter's likely skew. Every
                    version a transaction reads is at most its rv, so reads
                    add nothing to the stamp. This removes the central
                    clock bottleneck but makes isolation probabilistic: if
                    the skew ever exceeds delta, a stale read can slip
                    through validation. Runs must therefore check the
                    final-state oracle (cell sums versus committed
                    increments), which the benchmark reports.

Each cell's version changes only while its lock is held, and versions are
monotone: exact stamps strictly increase, and relaxed stamps top every
version on the writer's locked cells.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from numpy.random import Generator

from .multicounter import LogicalClock, MultiCounter
from .rng import PairStream, thread_rngs
from .timed import run_timed_workers

ACTIVE, COMMITTED, ABORTED = "active", "committed", "aborted"


class TxAborted(Exception):
    """Retryable abort signal raised by tx_read."""


class VersionedCell:
    """One transactional word: value plus a version lock.

    The hardware version-lock word (lock bit packed with a version number)
    is realized as a mutex beside an integer; the lock bit is observable
    through lock.locked() and the version only moves while the lock is
    held.
    """

    __slots__ = ("index", "value", "version", "lock")

    def __init__(self, index: int):
        self.index = index
        self.value = 0
        self.version = 0
        self.lock = threading.Lock()


def make_cells(count: int) -> list[VersionedCell]:
    if count < 1:
        raise ValueError("count must be >= 1")
    return [VersionedCell(k) for k in range(count)]


class ExactClock(LogicalClock):
    """The locked global counter; commit stamps are FAI results 1, 2, 3, ..."""

    def write_version(self, floor: int) -> int:
        return self.reserve(1) + 1


class RelaxedClock:
    """Shared MultiCounter clock with future-written commit stamps."""

    def __init__(self, cells: int = 64, delta: int | None = None):
        self.counter = MultiCounter(cells)
        self.delta = int(delta) if delta is not None else default_delta(cells)
        if self.delta < 1:
            raise ValueError("delta must be >= 1")

    def view(self, rng: Generator) -> "RelaxedClockView":
        """Per-thread handle carrying the thread's rng and running maximum."""
        return RelaxedClockView(self, rng)


class RelaxedClockView:
    """One thread's view of a RelaxedClock; not shareable across threads."""

    def __init__(self, shared: RelaxedClock, rng: Generator):
        self._shared = shared
        self._rng = PairStream(rng, shared.counter.cells)
        self.t_max = 0

    def read(self) -> int:
        stamp = self._shared.counter.read(self._rng)
        if stamp > self.t_max:
            self.t_max = stamp
        return stamp

    def write_version(self, floor: int) -> int:
        # write in the future: top every clock value this thread has read or
        # stamped and the newest version on the locked cells (`floor`) by delta,
        # and advance the shared counter so readers catch up
        wv = max(self.t_max, floor) + self._shared.delta
        self.t_max = wv
        self._shared.counter.increment(self._rng)
        return wv


def default_delta(clock_cells: int) -> int:
    """Margin comfortably above the counter's high-probability skew."""
    if clock_cells < 2:
        return 16
    return int(16 * clock_cells * math.log(clock_cells))


@dataclass
class Transaction:
    # the commit stamp needs neither rv nor the versions read: rv is a clock
    # read, so a relaxed view's t_max already covers it, and tx_read aborts
    # on any version above rv. A relaxed stamp is max(t_max, newest version
    # on the locked write cells) + delta.
    rv: int
    status: str = ACTIVE
    read_set: list = field(default_factory=list)      # (cell, version seen)
    write_set: dict = field(default_factory=dict)     # index -> (cell, value)


def tx_begin(clock) -> Transaction:
    """Start a transaction at the clock's current value."""
    return Transaction(rv=clock.read())


def _versioned_load(cell: VersionedCell) -> tuple[bool, int, int]:
    l1 = cell.lock.locked()
    v1 = cell.version
    value = cell.value
    v2 = cell.version
    l2 = cell.lock.locked()
    return (not l1) and (not l2) and v1 == v2, v1, value


def tx_read(tx: Transaction, cell: VersionedCell) -> int:
    """Optimistic read; raises TxAborted on any inconsistency."""
    if tx.status != ACTIVE:
        raise ValueError(f"read on a {tx.status} transaction")
    pending = tx.write_set.get(cell.index)
    if pending is not None:
        return pending[1]  # redo-log read of own write
    ok, version, value = _versioned_load(cell)
    if not ok or version > tx.rv:
        tx.status = ABORTED
        raise TxAborted()
    tx.read_set.append((cell, version))
    return value


def tx_write(tx: Transaction, cell: VersionedCell, value: int) -> None:
    """Buffer a write; it takes effect only at commit."""
    if tx.status != ACTIVE:
        raise ValueError(f"write on a {tx.status} transaction")
    tx.write_set[cell.index] = (cell, value)


def tx_commit(tx: Transaction, clock) -> str:
    """Lock, validate, stamp, write, release. Returns committed or aborted."""
    if tx.status != ACTIVE:
        raise ValueError(f"commit on a {tx.status} transaction")
    if not tx.write_set:
        tx.status = COMMITTED  # read-only: reads were validated inline
        return COMMITTED

    ordered = sorted(tx.write_set.values(), key=lambda cv: cv[0].index)
    acquired: list[VersionedCell] = []
    floor = 0   # the newest version on the locked cells
    try:
        for cell, _ in ordered:
            if not cell.lock.acquire(blocking=False):
                tx.status = ABORTED
                return ABORTED
            acquired.append(cell)
            if cell.version > floor:
                floor = cell.version
        write_indices = tx.write_set.keys()
        for cell, seen in tx.read_set:
            if cell.index in write_indices:
                if cell.version != seen:
                    tx.status = ABORTED
                    return ABORTED
            elif cell.lock.locked() or cell.version != seen:
                tx.status = ABORTED
                return ABORTED
        wv = clock.write_version(floor)
        for cell, value in ordered:
            cell.value = value
            cell.version = wv
        tx.status = COMMITTED
        return COMMITTED
    finally:
        for cell in acquired:
            cell.lock.release()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StmBenchResult:
    delta: int
    commits: int
    aborts: int
    commits_per_sec: float
    aborts_per_commit: float
    consistent: bool


def run_stm_benchmark(
    threads: int,
    objects: int,
    duration: float,
    clock_kind: str = "exact",
    delta: int | None = None,
    seed: int = 0,
    clock_cells: int = 64,
) -> StmBenchResult:
    """Spawn workers that each loop begin / increment two random cells /
    commit, retrying on abort, for `duration` seconds.

    Afterwards the final-state oracle is evaluated: the sum of all cell
    values must equal twice the number of committed transactions, exactly,
    for either clock kind.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if clock_kind not in ("exact", "multicounter"):
        raise ValueError(f"unknown clock kind: {clock_kind!r}")

    cells = make_cells(objects)
    relaxed = RelaxedClock(clock_cells, delta) if clock_kind == "multicounter" else None
    exact = ExactClock()

    rngs = thread_rngs(seed, threads)

    def worker(k: int, stop: threading.Event) -> tuple[int, int]:
        rng = rngs[k]
        clock = exact if relaxed is None else relaxed.view(rng.spawn(1)[0])
        draws = PairStream(rng, objects)
        n_commit = 0
        n_abort = 0
        while not stop.is_set():
            tx = tx_begin(clock)
            try:
                # one object: j == i, whose second read sees the pending write
                i = j = draws.integers(0, objects)
                while objects > 1 and j == i:
                    j = draws.integers(0, objects)
                vi = tx_read(tx, cells[i])
                tx_write(tx, cells[i], vi + 1)
                vj = tx_read(tx, cells[j])
                tx_write(tx, cells[j], vj + 1)
            except TxAborted:
                n_abort += 1
                continue
            if tx_commit(tx, clock) == COMMITTED:
                n_commit += 1
            else:
                n_abort += 1
        return n_commit, n_abort

    elapsed, tallies = run_timed_workers(threads, worker, duration)
    total_commits, total_aborts = map(sum, zip(*tallies))
    final_sum = sum(c.value for c in cells)
    return StmBenchResult(
        delta=0 if relaxed is None else relaxed.delta,
        commits=total_commits,
        aborts=total_aborts,
        commits_per_sec=total_commits / elapsed if elapsed > 0 else 0.0,
        aborts_per_commit=total_aborts / total_commits if total_commits else float("inf"),
        consistent=final_sum == 2 * total_commits,
    )
