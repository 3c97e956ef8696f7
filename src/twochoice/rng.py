"""Seedable random streams shared by every module.

All randomness flows through numpy PCG64 generators derived from a single
64-bit seed via SeedSequence spawning, so that every experiment is
reproducible and schedule randomness stays independent of simulation
randomness (one stream for the scheduler, one per simulated thread).
"""

from __future__ import annotations

from numpy.random import Generator, PCG64, SeedSequence

GENERATOR_NAME = "pcg64"


def make_rng(seed: int) -> Generator:
    """Fresh generator for a bare seed."""
    return Generator(PCG64(SeedSequence(seed)))


def schedule_rng(seed: int) -> Generator:
    """The scheduler's stream: child 0 of the seed, never shared with threads."""
    return Generator(PCG64(SeedSequence(seed).spawn(1)[0]))


def thread_rngs(seed: int, threads: int) -> list[Generator]:
    """One independent stream per simulated or live thread.

    Child 0 is reserved for the scheduler (see schedule_rng), threads get
    children 1..n, so a fixed seed pins both the schedule and all choices.
    """
    root = SeedSequence(seed)
    root.spawn(1)
    return [Generator(PCG64(ss)) for ss in root.spawn(threads)]


class PairStream:
    """Buffered uniform indices in [0, bins) from one generator, served as
    (i, j) pairs or one at a time.

    Batched draws of Generator.integers consume the underlying bit stream
    exactly like repeated scalar draws, so the buffer size does not change
    the sampled sequence. A stream serves either pairs or single indices:
    the buffer holds an even count, so pairs never straddle a refill.
    """

    def __init__(self, rng: Generator, bins: int):
        self._rng = rng
        self._bins = bins
        self._chunk = 1 << 16
        self._buf: list[int] = []
        self._pos = 0

    def next_pair(self) -> tuple[int, int]:
        if self._pos >= len(self._buf):
            self._buf = self._rng.integers(0, self._bins, size=self._chunk).tolist()
            self._pos = 0
        i = self._buf[self._pos]
        j = self._buf[self._pos + 1]
        self._pos += 2
        return i, j

    def next_index(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = self._rng.integers(0, self._bins, size=self._chunk).tolist()
            self._pos = 0
        i = self._buf[self._pos]
        self._pos += 1
        return i
