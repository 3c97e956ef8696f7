"""The schedule generators as they were before schedules were built as
numpy columns: one (thread, op, phase) event at a time, with each rule
spelled out where it applies. Slow, but simple, so tests use them as the
oracle that `Schedule.events()` must match event for event.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterator

from twochoice.adversary import (
    BLOCK_RESET,
    READ1,
    READ2,
    ROUND_ROBIN,
    SERIAL,
    STAMPEDE,
    UPDATE,
    Schedule,
)
from twochoice.rng import WordStream, schedule_rng


def events_reference(schedule: Schedule) -> Iterator[tuple[int, int, int]]:
    """The (thread, op, phase) events of a schedule, in schedule order."""
    n, total = schedule.threads, schedule.total_ops
    if schedule.kind == SERIAL:
        return blocks(n, total, 0, total)
    if schedule.kind == STAMPEDE:
        return blocks(n, total, schedule.block_size or n, 0)
    if schedule.kind == BLOCK_RESET:
        return blocks(n, total, n, n)
    if schedule.kind == ROUND_ROBIN:
        turn = itertools.count()
        return interleaved(n, total, lambda k: next(turn) % k)
    return interleaved(n, total, partial(WordStream(schedule_rng(schedule.seed)).integers, 0))


def blocks(n: int, total: int, block: int, stretch: int) -> Iterator[tuple[int, int, int]]:
    """Until the ops run out: a stampede of `block` ops, in which threads
    0..block-1 make all first reads, then all second reads, then all
    updates; then `stretch` ops back to back, op k on thread k % n."""
    first = 0
    while first < total:
        mid, end = min(first + block, total), min(first + block + stretch, total)
        for phase in (READ1, READ2, UPDATE):
            for op in range(first, mid):
                yield (op - first, op, phase)
        for op in range(mid, end):
            t = op % n
            yield (t, op, READ1)
            yield (t, op, READ2)
            yield (t, op, UPDATE)
        first = end


def interleaved(n: int, total: int, pick: Callable[[int], int]) -> Iterator[tuple[int, int, int]]:
    """One op per thread at a time, advanced one phase per visit; pick(k)
    chooses which of the k active threads moves next."""
    next_op = 0
    current = [-1] * n   # op id per thread, -1 when idle
    phase = [0] * n
    active = list(range(n))
    while active:
        slot = pick(len(active))
        t = active[slot]
        if current[t] < 0:
            if next_op >= total:
                active.pop(slot)
                continue
            current[t] = next_op
            next_op += 1
        p = phase[t]
        yield (t, current[t], p)
        if p == UPDATE:
            current[t] = -1
            phase[t] = 0
            if next_op >= total:
                active.pop(slot)
        else:
            phase[t] = p + 1
