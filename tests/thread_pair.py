"""Run test threads against each other and report deadlocks.

`run_pair` runs any number of targets, one thread each, at a 1e-5 s switch
interval; `switch_interval` sets that interval for the threaded runs a test
starts some other way (run_stm_benchmark, run_timed_workers).
"""

import sys
import threading
from contextlib import contextmanager
from time import monotonic


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
