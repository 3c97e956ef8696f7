"""Sequential balanced-allocation processes and their instrumentation.

Implements the (1+beta)-choice process over unit or exponential ball
weights: each ball takes a two-choice step with probability beta and a
uniform one otherwise. Its rank vector has one closed form, and that form
also covers the good and bad steps of the asynchronous process: a step that
picks the lesser bin of a uniform pair with probability r = Pr[correct],
and the greater one otherwise, has the (1+beta) rank vector at
beta_eff = 2r - 1, so any mixture of such steps is that form at the mixed r.

The exponential potential instrumentation monitors balance:
phi = sum exp(a*y_j), psi = sum exp(-a*y_j), gamma = phi + psi, where y_j
are the mean-centered bin weights and a is `potential_exponent`'s value.
A run writes one `LoadState.snapshot_row` per snapshot into a (rows, 8)
array that `Trajectory.from_rows` splits into columns, and returns its
final loads as a plain list. `adversary.simulate` adds unit weights only.

Everything here is single threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np
from numpy.random import Generator

from .csvfile import write_csv
from .rng import PairStream, WordStream, make_rng

PROB_SUM_TOL = 1e-12

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


@dataclass(frozen=True)
class WeightDistribution:
    """Ball weight per insertion: constant 1 or exponential with mean 1.

    Mean 1 makes unit and exponential runs directly comparable, and it is
    the mean that `moment_bound`'s exponential value assumes: the weighted
    potential of Peres, Talwar & Wieder (SODA 2010) at a different mean
    needs a different exponent.
    """

    kind: str

    UNIT = "unit"
    EXPONENTIAL = "exponential"

    def __post_init__(self):
        if self.kind not in (self.UNIT, self.EXPONENTIAL):
            raise ValueError(f"unknown weight kind: {self.kind!r}")

    @classmethod
    def unit(cls) -> "WeightDistribution":
        return cls(cls.UNIT)

    @classmethod
    def exponential(cls) -> "WeightDistribution":
        return cls(cls.EXPONENTIAL)

    @property
    def is_unit(self) -> bool:
        return self.kind == self.UNIT

    @property
    def moment_bound(self) -> float:
        """Second-moment bound for the potential drift: 1 for unit, 8 otherwise."""
        return 1.0 if self.is_unit else 8.0

    def sample_batch(self, rng: Generator, size: int) -> list:
        if self.is_unit:
            return [1] * size
        return rng.exponential(size=size).tolist()


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


class LoadState:
    """Mutable bin state with O(1) gap tracking and incremental potentials.

    Weights only ever increase, so the maximum is tracked directly and the
    minimum by counting bins at the current minimum level (rescan when the
    level empties). Potential sums are kept relative to a sliding base so
    exponents never overflow on long runs.
    """

    __slots__ = (
        "weights", "bins", "total", "max_w", "min_w", "min_count",
        "exponent", "s_phi", "s_psi", "base",
    )

    def __init__(self, bins: int, exponent: float, unit: bool = True):
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.bins = bins
        self.weights = [0] * bins if unit else [0.0] * bins
        self.total = 0 if unit else 0.0
        self.max_w = 0
        self.min_w = 0
        self.min_count = bins
        self.exponent = exponent
        self.s_phi = float(bins)
        self.s_psi = float(bins)
        self.base = 0.0

    def add(self, bin_idx: int, w) -> None:
        old = self.weights[bin_idx]
        new = old + w
        self.weights[bin_idx] = new
        self.total += w
        a = self.exponent
        self.s_phi += math.exp(a * (new - self.base)) - math.exp(a * (old - self.base))
        self.s_psi += math.exp(-a * (new - self.base)) - math.exp(-a * (old - self.base))
        if new > self.max_w:
            self.max_w = new
        if old == self.min_w:
            self.min_count -= 1
            if self.min_count == 0:
                mn = min(self.weights)
                self.min_w = mn
                self.min_count = self.weights.count(mn)
        # Keep the base near the mean: both sums then stay O(bins), which
        # bounds the relative error of the incremental +/- updates. The
        # mean only grows, so one-sided checks suffice.
        if a * (self.total / self.bins - self.base) > 1.0:
            self._rebase()

    def _rebase(self) -> None:
        self.base = self.total / self.bins
        a = self.exponent
        b = self.base
        self.s_phi = math.fsum(math.exp(a * (w - b)) for w in self.weights)
        self.s_psi = math.fsum(math.exp(-a * (w - b)) for w in self.weights)

    def snapshot_row(self, step: int) -> tuple:
        """(step, phi, psi, gamma, gap, max, min, mean): one trajectory row."""
        mean = self.total / self.bins
        phi = self.s_phi * math.exp(-self.exponent * (mean - self.base))
        psi = self.s_psi * math.exp(self.exponent * (mean - self.base))
        return (step, phi, psi, phi + psi, self.max_w - self.min_w, self.max_w, self.min_w, mean)


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

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "Trajectory":
        """The columns of a (rows, 8) float64 array of `snapshot_row`s."""
        return cls(rows[:, 0].astype(np.int64), *rows[:, 1:].T)

    def __len__(self) -> int:
        return len(self.steps)

    def write_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        cols = (self.steps, self.phi, self.psi, self.gamma, self.gap,
                self.max_load, self.min_load, self.mean_load)
        write_csv(path, header_comments, TRAJECTORY_HEADER, cols)


# ---------------------------------------------------------------------------
# sequential runs
# ---------------------------------------------------------------------------


def default_params(two_choice_prob: float, weight: WeightDistribution) -> float:
    """Potential exponent for a (1+beta) run.

    Couples the margin to the process via good_margin = beta/2; a pure
    uniform run (beta = 0) has no good margin, so fall back to 1/2 there
    (the instrumentation still tracks gap and gamma, it just is not tuned).
    """
    g = two_choice_prob / 2.0 if two_choice_prob > 0 else 0.5
    return potential_exponent(g, weight.moment_bound)


def run_sequential(
    bins: int,
    steps: int,
    two_choice_prob: float,
    weight: WeightDistribution | None = None,
    rng: Generator | int | None = None,
    snapshot_every: int = 1000,
    exponent: float | None = None,
) -> tuple[Trajectory, list]:
    """Run the (1+beta)-choice process and record snapshots at a cadence.

    The two-choice branch draws its two bin indices directly (rather than a
    rank) so that a concurrency-free simulated run consumes randomness
    identically and produces the same trajectory step for step. Snapshots
    are taken every snapshot_every steps and always at the final step.
    Returns the trajectory and the final bin weights.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0.0 <= two_choice_prob <= 1.0:
        raise ValueError("two_choice_prob must lie in [0, 1]")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    weight = weight or WeightDistribution.unit()
    if isinstance(rng, int):
        rng = make_rng(rng)
    elif rng is None:
        rng = make_rng(0)
    if exponent is None:
        exponent = default_params(two_choice_prob, weight)

    state = LoadState(bins, exponent, unit=weight.is_unit)
    # a row per full cadence, and one more for a partial last one
    rows = np.empty((-(-steps // snapshot_every), 8))
    if steps == 0:
        return Trajectory.from_rows(rows), state.weights

    idx_rng, w_rng = rng.spawn(2)
    weights = state.weights
    balls = repeat(1) if weight.is_unit else iter(weight.sample_batch(w_rng, steps))

    if two_choice_prob >= 1.0:
        pairs = PairStream(idx_rng, bins)
        for s in range(1, steps + 1):
            i, j = pairs.next_pair()
            if (weights[j], j) < (weights[i], i):
                i = j
            state.add(i, next(balls))
            if s % snapshot_every == 0:
                rows[s // snapshot_every - 1] = state.snapshot_row(s)
    elif two_choice_prob <= 0.0:
        singles = PairStream(idx_rng, bins)
        for s in range(1, steps + 1):
            state.add(singles.integers(0, bins), next(balls))
            if s % snapshot_every == 0:
                rows[s // snapshot_every - 1] = state.snapshot_row(s)
    else:
        b = two_choice_prob
        draws = WordStream(idx_rng)
        for s in range(1, steps + 1):
            if draws.random() < b:
                i = draws.integers(0, bins)
                j = draws.integers(0, bins)
                if (weights[j], j) < (weights[i], i):
                    i = j
            else:
                i = draws.integers(0, bins)
            state.add(i, next(balls))
            if s % snapshot_every == 0:
                rows[s // snapshot_every - 1] = state.snapshot_row(s)

    if steps % snapshot_every != 0:
        rows[-1] = state.snapshot_row(steps)
    return Trajectory.from_rows(rows), state.weights
