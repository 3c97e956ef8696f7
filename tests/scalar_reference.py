"""The two draw paths that made one scalar numpy call per draw before
`twochoice.rng.WordStream` served them: the (1+beta) loop of
`run_sequential` for 0 < beta < 1, and the random-interleave scheduler's
picker. Slow, but every draw is a plain Generator call, so tests use them as
the oracles that the buffered paths must match value for value.
"""

from __future__ import annotations

from twochoice.adversary import RANDOM_INTERLEAVE, Schedule
from twochoice.balance import UNIT, Trajectory, default_params
from twochoice.rng import make_rng, schedule_rng

from potential_reference import LoadState, trajectory_from_rows


def run_sequential_reference(bins: int, steps: int, two_choice_prob: float,
                             weight: str, seed: int,
                             snapshot_every: int) -> tuple[Trajectory, list]:
    """`run_sequential` with 0 < two_choice_prob < 1, drawing each step's
    coin and bin indices as scalars from the index stream."""
    if not 0.0 < two_choice_prob < 1.0:
        raise ValueError("the reference covers 0 < two_choice_prob < 1 only")
    state = LoadState(bins, default_params(two_choice_prob, weight), unit=weight == UNIT)
    rows = []
    if steps == 0:
        return trajectory_from_rows(rows), state.weights
    idx_rng, w_rng = make_rng(seed).spawn(2)
    balls = [1] * steps if weight == UNIT else w_rng.exponential(size=steps).tolist()
    weights = state.weights
    for s in range(1, steps + 1):
        if idx_rng.random() < two_choice_prob:
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
    schedule = Schedule(RANDOM_INTERLEAVE, threads, total_ops, seed)
    return list(schedule._interleaved(lambda k: int(scalar.integers(0, k))))
