"""Timed benchmark worker threads that stop at one deadline, time
themselves and return their tallies: while workers hold the GIL the main
thread may wait seconds to run again (the GIL convoy), so it only starts,
joins and cleans up. Also the count of CPUs a run may use."""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Callable


def usable_cpu_count() -> int:
    """How many CPUs this process may run on: its affinity mask, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Deadline(threading.Event):
    """An Event that also reads as set once perf_counter() reaches `at`.
    Only set() wakes a thread blocked in wait(); the deadline does not."""

    def __init__(self, at: float) -> None:
        super().__init__()
        self.at = at

    def is_set(self) -> bool:
        # Event's own flag, read directly: half the cost of super().is_set()
        return self._flag or perf_counter() >= self.at


def run_timed_workers(threads: int, work: Callable[[int, threading.Event], object],
                      duration: float) -> tuple[float, list]:
    """Run work(k, stop) on threads k = 0..threads-1 for `duration` seconds.

    `stop.is_set()` turns true `duration` seconds after a start fixed just
    before the first worker starts; each worker polls it and returns. A
    worker blocked in `stop.wait()` wakes only when `stop` is set: when a
    worker raises, or when starting or joining the workers raises (Ctrl-C).
    The first worker exception is raised again once all have joined. A
    negative or NaN `duration` raises ValueError before any thread starts.
    Returns the seconds from the first worker's start to the last one's end,
    and what each worker returned, in order of k.
    """
    if not duration >= 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    starts, ends, errors = [], [], []
    results = [None] * threads

    def run(k: int) -> None:
        starts.append(perf_counter())
        try:
            results[k] = work(k, stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()
        ends.append(perf_counter())

    workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
    stop = _Deadline(perf_counter() + duration)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        stop.set()
        for w in workers:
            if w.ident is not None:   # started
                w.join()
    if errors:
        raise errors[0]
    return max(ends) - min(starts), results
