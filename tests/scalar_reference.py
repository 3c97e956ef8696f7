"""The two draw paths of the package as one scalar numpy call per draw:
the (1+beta) loop of `run_sequential`, which draws in batches at beta 0 and
1 and from a `twochoice.rng.WordStream` in between, and the
random-interleave scheduler's picker. Slow, but every draw is a plain
Generator call and every load a plain number, so tests use them as the
oracles that the batched, buffered and key-coded paths must match value
for value.
"""

from __future__ import annotations

from twochoice.balance import UNIT, Trajectory, default_params
from twochoice.rng import make_rng, schedule_rng

from potential_reference import LoadState, trajectory_from_rows
from schedule_reference import interleaved


def run_sequential_reference(bins: int, steps: int, two_choice_prob: float,
                             weight: str, seed: int,
                             snapshot_every: int) -> tuple[Trajectory, list]:
    """`run_sequential`, drawing each step's bin indices as scalars from the
    index stream: two at two_choice_prob 1, one at 0, and in between a coin
    first, then two or one."""
    state = LoadState(bins, default_params(two_choice_prob, weight), unit=weight == UNIT)
    rows = []
    if steps == 0:
        return trajectory_from_rows(rows), state.weights
    idx_rng, w_rng = make_rng(seed).spawn(2)
    balls = [1] * steps if weight == UNIT else w_rng.exponential(size=steps).tolist()
    weights = state.weights
    coin = 0.0 < two_choice_prob < 1.0   # only a mixed run draws a coin
    for s in range(1, steps + 1):
        if idx_rng.random() < two_choice_prob if coin else two_choice_prob == 1.0:
            i = int(idx_rng.integers(0, bins))
            j = int(idx_rng.integers(0, bins))
            if (weights[j], j) < (weights[i], i):
                i = j
        else:
            i = int(idx_rng.integers(0, bins))
        state.add(i, balls[s - 1])
        if s % snapshot_every == 0:
            rows.append(state.snapshot_row(s))
    if steps % snapshot_every != 0:
        rows.append(state.snapshot_row(steps))
    return trajectory_from_rows(rows), state.weights


def random_interleave_reference(threads: int, total_ops: int, seed: int
                                ) -> list[tuple[int, int, int]]:
    """The random-interleave schedule with each pick a scalar draw from the
    scheduler's stream."""
    scalar = schedule_rng(seed)
    return list(interleaved(threads, total_ops, lambda k: int(scalar.integers(0, k))))
