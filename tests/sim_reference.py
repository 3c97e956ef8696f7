"""The simulator's replay as it was before contention moved to an event
buffer: every event walks all pending ops and adds to two Python sets per
op. Slow, but each rule is spelled out where it applies, so tests use it as
the oracle that `twochoice.adversary.simulate` must match column for column.
It replays the same thread column, one (thread, op, phase) event at a time
(`schedule_reference.events_of`).
"""

from __future__ import annotations

import numpy as np

from twochoice.adversary import (
    GOOD_MARGIN,
    READ1,
    READ2,
    OpLog,
    SimConfig,
    SimResult,
    generate_schedule,
)
from twochoice.balance import potential_exponent
from twochoice.rng import PairStream, thread_rngs

from potential_reference import LoadState, trajectory_from_rows
from schedule_reference import events_of


def simulate_reference(config: SimConfig, schedule: np.ndarray | None = None) -> SimResult:
    """Replay a thread column (by default the config's schedule) against
    fresh bins, tracking per pending op the set of other ops seen and the
    set of bins they touched."""
    if schedule is None:
        schedule = generate_schedule(config).event_threads()

    n = config.threads
    m = config.bins
    state = LoadState(m, potential_exponent(GOOD_MARGIN))
    weights = state.weights

    pair_streams = []
    for rng in thread_rngs(config.seed, n):
        idx_rng, _ = rng.spawn(2)
        pair_streams.append(PairStream(idx_rng, m))

    total = config.total_ops
    a_op = np.zeros(total, dtype=np.int64)
    a_thread = np.zeros(total, dtype=np.int64)
    a_start = np.zeros(total, dtype=np.int64)
    a_finish = np.zeros(total, dtype=np.int64)
    a_cont = np.zeros(total, dtype=np.int64)
    a_ci = np.zeros(total, dtype=np.int64)
    a_cj = np.zeros(total, dtype=np.int64)
    a_upd = np.zeros(total, dtype=np.int64)
    a_post = np.zeros(total, dtype=np.int64)
    a_corr = np.zeros(total, dtype=np.bool_)
    a_unt = np.zeros(total, dtype=np.bool_)
    rows = []

    # per-thread pending op state: [op, start, i, j, vi, vj, seen, touched]
    pend: list[list | None] = [None] * n
    done = 0

    for event_idx, (t, op, phase) in enumerate(events_of(schedule)):
        if phase == READ1:
            i, j = pair_streams[t].integers(0, m), pair_streams[t].integers(0, m)
            cur = [op, event_idx, i, j, weights[i], 0.0, set(), set()]
            pend[t] = cur
            # this op's read touches bin i; note it for other pending ops
            for u in range(n):
                other = pend[u]
                if other is not None and u != t:
                    other[6].add(op)
                    other[7].add(i)
        elif phase == READ2:
            cur = pend[t]
            j = cur[3]
            cur[5] = weights[j]
            for u in range(n):
                other = pend[u]
                if other is not None and u != t:
                    other[6].add(op)
                    other[7].add(j)
        else:  # UPDATE
            cur = pend[t]
            pend[t] = None
            _, start, i, j, vi, vj, seen, touched = cur
            # stale comparison; ties (including i == j) to the lower index
            if vj < vi or (vj == vi and j < i):
                chosen = j
            else:
                chosen = i
            true_min = i if (weights[i], i) <= (weights[j], j) else j
            state.add(chosen, 1)
            for u in range(n):
                other = pend[u]
                if other is not None:
                    other[6].add(op)
                    other[7].add(chosen)
            k = done
            a_op[k] = op
            a_thread[k] = t
            a_start[k] = start
            a_finish[k] = event_idx
            a_cont[k] = len(seen)
            a_ci[k] = i
            a_cj[k] = j
            a_upd[k] = chosen
            a_post[k] = weights[chosen]
            a_corr[k] = chosen == true_min
            a_unt[k] = chosen not in touched
            rows.append(state.snapshot_row(event_idx))
            done += 1

    if done != total:
        raise ValueError(f"schedule completed {done} of {total} operations")
    log = OpLog(
        op=a_op, thread=a_thread, start=a_start, finish=a_finish,
        contention=a_cont, choice_i=a_ci, choice_j=a_cj,
        updated=a_upd, post_value=a_post,
        correct=a_corr, untouched=a_unt,
    )
    return SimResult(loads=weights, log=log, trajectory=trajectory_from_rows(rows))
