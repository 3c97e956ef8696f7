"""Run two test threads against each other and report deadlocks."""

import sys
import threading
from time import monotonic


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
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        deadline = monotonic() + timeout
        for t in threads:
            t.join(timeout=max(0.0, deadline - monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "deadlock"
    return errors
