"""The fresh O(m) potential evaluation that `twochoice.balance.LoadState`
replaced with incremental sums against a sliding base. Slow, but every sum
is taken over all bins from scratch, so tests use it as the oracle that
`LoadState.snapshot_row` must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
