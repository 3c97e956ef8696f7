"""Timed benchmark worker threads with best-effort CPU pinning.

Pinning is attempted and reported, never required: platforms without
sched_setaffinity (or with restricted masks) simply run unpinned.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable


def usable_cpus() -> list[int]:
    """The CPUs this process may run on: its affinity mask, else all."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def try_pin_current_thread(k: int) -> bool:
    """Pin the calling thread to usable CPU k mod their count; returns whether it stuck."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        cpus = usable_cpus()
        os.sched_setaffinity(threading.get_native_id(), {cpus[k % len(cpus)]})
        return True
    except OSError:
        return False


def run_timed_workers(threads: int, work: Callable[[int, threading.Event], None],
                      duration: float) -> tuple[float, int]:
    """Run work(k, stop) on threads k = 0..threads-1 for `duration` seconds.

    Worker k first tries to pin itself to the k-th usable CPU. `stop` is
    set after the sleep, when it raises (a negative duration, Ctrl-C), or
    when a worker raises, and each worker is expected to return soon
    after. Once every worker has joined, the first worker exception is
    raised again. Returns the wall seconds from before the first start to
    after the last join, and how many workers' pins stuck.
    """
    stop = threading.Event()
    pinned = [False] * threads
    errors = []

    def run(k: int) -> None:
        pinned[k] = try_pin_current_thread(k)
        try:
            work(k, stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
    t0 = time.perf_counter()
    try:
        for w in workers:
            w.start()
        time.sleep(duration)
    finally:
        stop.set()
        for w in workers:
            if w.ident is not None:   # started
                w.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - t0, sum(pinned)
