"""Run test threads against each other and report deadlocks.

`run_pair` runs any number of targets, one thread each, at a 1e-5 s switch
interval; `switch_interval` sets that interval for the threaded runs a test
starts some other way (run_stm_benchmark, run_timed_workers). A `Budget` is
the `stop` of a fixed-work run: the loops that the CLI's timed runs run
until a deadline (cli.increment_until, cli.stress_until, stm.transact)
take it in its place and run a fixed number of steps.
"""

import sys
import threading
from contextlib import contextmanager
from time import monotonic


class Budget:
    """A stop for one worker: `is_set()` turns true on its (n + 1)-th poll,
    so a loop that polls once per step takes exactly n steps."""

    def __init__(self, n):
        self.left = n

    def is_set(self):
        self.left -= 1
        return self.left < 0


@contextmanager
def switch_interval(seconds):
    """Switch threads every `seconds` inside the block, then restore."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def run_pair(*targets, timeout=60.0):
    """Run each target in its own thread, with frequent GIL switches; returns
    the exceptions they raised. A thread still alive after `timeout` fails
    the test: a deadlock."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets]
    with switch_interval(1e-5):
        for t in threads:
            t.start()
        deadline = monotonic() + timeout
        for t in threads:
            t.join(timeout=max(0.0, deadline - monotonic()))
    assert not any(t.is_alive() for t in threads), "deadlock"
    return errors
