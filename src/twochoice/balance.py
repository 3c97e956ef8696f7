"""Sequential balanced-allocation processes and their instrumentation.

Implements the (1+beta)-choice process over ball weights of kind UNIT or
EXPONENTIAL, the strings that the CLI's `weight` key takes: each ball takes
a two-choice step with probability beta and a uniform one otherwise. Its
rank vector has one closed form, and that form also covers the good and
bad steps of the asynchronous process: a step that picks the lesser bin of
a uniform pair with probability r = Pr[correct], and the greater one
otherwise, has the (1+beta) rank vector at beta_eff = 2r - 1, so any
mixture of such steps is that form at the mixed r.

The exponential potential instrumentation monitors balance:
phi = sum exp(a*y_j), psi = sum exp(-a*y_j), gamma = phi + psi, where y_j
are the mean-centered bin weights and a is `potential_exponent`'s value.
A run places its balls in one loop over a plain list of loads, recording
each ball's bin and that bin's new load; `trajectory_from_balls` prices
those columns afterwards, for `run_sequential` and `adversary.simulate`.

Everything here is single threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.random import Generator

from .csvfile import write_csv
from .rng import WordStream, make_rng

PROB_SUM_TOL = 1e-12

# ball weight kinds: constant 1, or exponential with mean 1. Mean 1 makes unit
# and exponential runs directly comparable, and it is the mean that the
# exponential moment bound of 8 assumes: the weighted potential of Peres,
# Talwar & Wieder (SODA 2010) at a different mean needs a different exponent.
UNIT, EXPONENTIAL = "unit", "exponential"

TRAJECTORY_HEADER = "step,phi,psi,gamma,gap,max,min,mean"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityVector:
    """p[i] = probability of inserting into the i-th least-loaded bin."""

    probs: tuple

    def __post_init__(self):
        if len(self.probs) == 0:
            raise ValueError("empty probability vector")
        for p in self.probs:
            if p < -PROB_SUM_TOL or p > 1.0 + PROB_SUM_TOL:
                raise ValueError(f"probability out of range: {p}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prefix_sums(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probs, dtype=np.float64))


# ---------------------------------------------------------------------------
# probability vectors
# ---------------------------------------------------------------------------


def one_plus_beta_probabilities(bins: int, two_choice_prob: float) -> ProbabilityVector:
    """Rank probabilities of the (1+beta)-choice process.

    p_i = (1-b)/m + b * ((2/m) * (1 - (i-1)/m) - 1/m^2) for ranks i = 1..m,
    least loaded first. b=0 is uniform insertion, b=1 pure two-choice.
    A step that takes the lesser bin of a uniform pair with probability r
    has this vector at b = 2r - 1 (b = -1, outside this domain, is the step
    that always takes the greater bin).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not 0.0 <= two_choice_prob <= 1.0:
        raise ValueError("two_choice_prob must lie in [0, 1]")
    m = bins
    b = two_choice_prob
    probs = tuple(
        (1.0 - b) / m + b * ((2.0 / m) * (1.0 - (i - 1) / m) - 1.0 / (m * m))
        for i in range(1, m + 1)
    )
    return ProbabilityVector(probs)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def potential_exponent(good_margin: float, moment_bound: float = 1.0) -> float:
    """Exponent a of the potential for a good-step margin g.

    a = min(1/2, (g/6) / (6 * moment_bound)), with drift margin g/6 and the
    exponent capped at 1/2. Raises ValueError unless a > 0: for g <= 0, and
    for a g so small that a underflows to zero.
    """
    exponent = min(1.0 / 2.0, (good_margin / 6.0) / (6.0 * moment_bound))
    if not exponent > 0.0:
        raise ValueError(f"good_margin {good_margin!r} gives no positive exponent")
    return exponent


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Columnar sequence of potential snapshots."""

    steps: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    gamma: np.ndarray
    gap: np.ndarray
    max_load: np.ndarray
    min_load: np.ndarray
    mean_load: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)

    def write_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        cols = (self.steps, self.phi, self.psi, self.gamma, self.gap,
                self.max_load, self.min_load, self.mean_load)
        write_csv(path, header_comments, TRAJECTORY_HEADER, cols)


# balls per chunk of `trajectory_from_balls`: bounds its temporaries on a long run
_CHUNK_ROWS = 1024


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each value; numpy's exp differs from it in the last bit."""
    return np.fromiter(map(math.exp, x.tolist()), np.float64, len(x))


def trajectory_from_balls(bins: int, a: float, balls: int, every: int,
                          chunks: Iterable[tuple]) -> Trajectory:
    """The trajectory of a run of `balls` balls, whose columns come in
    consecutive chunks of (updated, post, weights): ball k went to bin
    updated[k] and left its load at post[k], with weight weights[k] (1 when
    weights is None; post then holds integers). Rows follow every `every`-th
    ball and the last; ball k is step k + 1. a is the potential exponent.

    Equal bit for bit to adding the balls one at a time with phi and psi
    kept relative to a base that moves to the mean, the sums recomputed by
    math.fsum, at each ball that leaves a * (mean - base) above 1. Between
    two such balls a sum is a cumsum of exp(a * (new - base)) - exp(a *
    (old - base)), where a ball's old load is its bin's previous post. The
    loads, total, base, sums and max carry from one chunk to the next.
    """
    taken = np.arange(every - 1, balls, every)
    if balls % every:
        taken = np.append(taken, balls - 1)
    phi, psi, max_load, min_load, mean_load = np.empty((5, len(taken)))
    loads = np.zeros(bins, dtype=np.int64)
    total = top = lo = 0
    base, s_phi, s_psi = 0.0, float(bins), float(bins)
    for upd, new, weights in chunks:
        c = len(upd)
        loads = loads.astype(new.dtype, copy=False)   # float loads for weighted balls
        rows = slice(*np.searchsorted(taken, (lo, lo + c)))
        at = taken[rows] - lo
        lo += c
        # a stable sort by bin pairs each ball with the next ball on its bin
        order = np.argsort(upd, kind="stable")
        same = upd[order[1:]] == upd[order[:-1]]
        prev, ends = np.full(c, -1), np.full(c, c)
        prev[order[1:][same]] = order[:-1][same]
        ends[order[:-1][same]] = order[1:][same]
        old = np.where(prev < 0, loads[upd], new[prev])
        # a load lives from its ball until the next ball on its bin (carried
        # loads from the chunk's start), so the min after ball k is the first
        # load, by value, that lives past k; of the bins without a ball here
        # only the least load can be it, and none above the chunk's max can
        firsts = np.flatnonzero(prev < 0)
        idle = np.min(np.delete(loads, upd[firsts]), initial=new.max(), keepdims=True)
        values = np.concatenate((old[firsts], idle, new))
        by_value = np.argsort(values, kind="stable")
        lives = np.maximum.accumulate(np.concatenate((firsts, (c,), ends))[by_value])
        min_load[rows] = values[by_value[np.searchsorted(lives, at, side="right")]]
        w = np.ones(c, loads.dtype) if weights is None else weights
        total_at = np.cumsum(np.concatenate(((total,), w)))[1:]
        total = total_at[-1]
        mean_at = total_at / bins
        base_at, phi_at, psi_at = np.empty((3, c))
        s = 0
        while s < c:
            # the ball e that moves the base: the loop's own float operations
            # are monotone in the mean, so a sorted search finds it
            e = s + int(np.searchsorted(a * (mean_at[s:] - base), 1.0, side="right"))
            stop = min(e + 1, c)
            # return_index makes unique sort stably: one sort kernel for the pass
            levels, _, inv = np.unique(np.concatenate((new[s:stop], old[s:stop])),
                                       return_index=True, return_inverse=True)
            x = a * (levels - base)
            for sums, carried, ex in ((phi_at, s_phi, _exp(x)), (psi_at, s_psi, _exp(-x))):
                step = ex[inv[:stop - s]] - ex[inv[stop - s:]]
                step[0] += carried
                np.cumsum(step, out=sums[s:stop])
            base_at[s:stop] = base
            s_phi, s_psi = phi_at[stop - 1], psi_at[stop - 1]
            np.maximum.at(loads, upd[s:stop], new[s:stop])   # a bin's last post wins
            if e < c:
                base = float(mean_at[e])
                x = a * (loads - base)
                s_phi, s_psi = math.fsum(_exp(x)), math.fsum(_exp(-x))
                base_at[e], phi_at[e], psi_at[e] = base, s_phi, s_psi
            s = stop
        y = a * (mean_at[at] - base_at[at])
        phi[rows] = phi_at[at] * _exp(-y)
        psi[rows] = psi_at[at] * _exp(y)
        mean_load[rows] = mean_at[at]
        max_load[rows] = np.maximum(np.maximum.accumulate(new)[at], top)
        top = max(top, new.max())
    return Trajectory(taken + 1, phi, psi, phi + psi, max_load - min_load, max_load, min_load,
                      mean_load)


# ---------------------------------------------------------------------------
# sequential runs
# ---------------------------------------------------------------------------


def default_params(two_choice_prob: float, weight: str) -> float:
    """Potential exponent for a (1+beta) run with ball weights of a kind.

    Couples the margin to the process via good_margin = beta/2; a pure
    uniform run (beta = 0) has no good margin, so fall back to 1/2 there
    (the instrumentation still tracks gap and gamma, it just is not tuned).
    The second-moment bound of the weights is 1 for unit balls, 8 otherwise.
    """
    g = two_choice_prob / 2.0 if two_choice_prob > 0 else 0.5
    return potential_exponent(g, 1.0 if weight == UNIT else 8.0)


def run_sequential(
    bins: int,
    steps: int,
    two_choice_prob: float,
    weight: str = UNIT,
    rng: Generator | int | None = None,
    snapshot_every: int = 1000,
    exponent: float | None = None,
) -> tuple[Trajectory, list]:
    """Run the (1+beta)-choice process and record snapshots at a cadence.

    The two-choice branch draws its two bin indices directly (rather than a
    rank) so that a concurrency-free simulated run consumes randomness
    identically and produces the same trajectory step for step. Snapshots
    are taken every snapshot_every steps and always at the final step.
    Returns the trajectory and the final bin weights. weight is UNIT or
    EXPONENTIAL; any other kind raises ValueError.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0.0 <= two_choice_prob <= 1.0:
        raise ValueError("two_choice_prob must lie in [0, 1]")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    if weight not in (UNIT, EXPONENTIAL):
        raise ValueError(f"unknown weight kind: {weight!r}")
    if rng is None or isinstance(rng, int):
        rng = make_rng(rng or 0)
    if exponent is None:
        exponent = default_params(two_choice_prob, weight)

    b, unit = two_choice_prob, weight == UNIT
    idx_rng, w_rng = rng.spawn(2)
    draws = WordStream(idx_rng) if 0.0 < b < 1.0 else None
    loads = [0] * bins if unit else [0.0] * bins

    def placed() -> Iterator[tuple]:
        # batched draws equal the same scalar draws: chunks change no value
        for lo in range(0, steps, _CHUNK_ROWS):
            size = min(_CHUNK_ROWS, steps - lo)
            if draws is None:   # a uniform ball's pair is (i, i)
                idx = idx_rng.integers(0, bins, size=2 * size if b else size).tolist()
                pairs = zip(idx[0::2], idx[1::2]) if b else zip(idx, idx)
            else:
                pairs = [(draws.integers(0, bins), draws.integers(0, bins)) if draws.random() < b
                         else (draws.integers(0, bins),) * 2 for _ in range(size)]
            weights = [1] * size if unit else w_rng.exponential(size=size).tolist()
            updated, post = [], []
            for (i, j), w in zip(pairs, weights):
                if (loads[j], j) < (loads[i], i):
                    i = j
                loads[i] = v = loads[i] + w
                updated.append(i)
                post.append(v)
            yield np.array(updated), np.array(post), None if unit else np.array(weights)

    return trajectory_from_balls(bins, exponent, steps, snapshot_every, placed()), loads
