"""Two oracles for the potential trajectory.

`potential` evaluates phi, psi, gamma and the gap from scratch, one O(m) sum
over all bins. `LoadState` is the incremental bin state that the package
kept per ball before `twochoice.balance.trajectory_from_balls` priced whole
columns after the run: each `add` updates both sums against a sliding base,
and `snapshot_row` turns the state into one trajectory row. Tests check
`LoadState` against `potential` within a tolerance, and the package's
column pass against `LoadState` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from twochoice.balance import Trajectory

# exp() overflows double precision just past 709; stay clear of it.
MAX_SAFE_EXPONENT = 700.0


class PotentialOverflowError(OverflowError):
    """A centered load is too large for exp() in double precision."""


@dataclass(frozen=True)
class PotentialSnapshot:
    """phi, psi, gamma and the load spread at one step."""

    step: int
    phi: float
    psi: float
    gamma: float
    gap: float
    max_load: float
    min_load: float
    mean_load: float


def potential(loads: list, exponent: float, step: int = 0) -> PotentialSnapshot:
    """Fresh O(m) evaluation of phi, psi, gamma and the gap of the bin loads."""
    a = exponent
    mu = sum(loads) / len(loads)
    phi = 0.0
    psi = 0.0
    for w in loads:
        y = w - mu
        if abs(a * y) > MAX_SAFE_EXPONENT:
            raise PotentialOverflowError(
                f"exponent {a * y:.3g} exceeds safe range {MAX_SAFE_EXPONENT}"
            )
        phi += math.exp(a * y)
        psi += math.exp(-a * y)
    mx = max(loads)
    mn = min(loads)
    return PotentialSnapshot(
        step=step,
        phi=phi,
        psi=psi,
        gamma=phi + psi,
        gap=mx - mn,
        max_load=mx,
        min_load=mn,
        mean_load=mu,
    )


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


def trajectory_from_rows(rows: list) -> Trajectory:
    """The columns of a list of `LoadState.snapshot_row` tuples."""
    table = np.array(rows, dtype=np.float64).reshape(-1, 8)
    return Trajectory(table[:, 0].astype(np.int64), *table[:, 1:].T)
