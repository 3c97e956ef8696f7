"""Seedable random streams shared by every module.

All randomness flows through numpy PCG64 generators derived from a single
64-bit seed via SeedSequence spawning, so that every experiment is
reproducible and schedule randomness stays independent of simulation
randomness (one stream for the scheduler, one per simulated thread).

A scalar `Generator.integers` call costs several times a MultiCounter
increment's lock, so hot loops draw from a PairStream: a prefetched block
of indices that a batched `integers` call fills. The first block holds 64
indices and each refill doubles it, up to 65 536, so a short-lived stream
(one of a simulated stampede's 64 threads) prefetches about what it draws.
Batched and scalar draws consume the PCG64 stream identically, so neither
buffering nor the block size ever changes a value.
The rule: one stream serves one range `[lo, hi)`. A PairStream serves only
`[0, bins)` and raises ValueError for any other range, because a stream
that mixed ranges or other draw kinds would have its draws reordered by the
prefetch.

Buffered (one stream, one range): the simulator's per-thread choices and
`run_sequential` with beta 0 or 1; the increment stream of the counter
quality run; the queue quality run's enqueue and dequeue stream; each
worker of the counter throughput, queue stress and transactional runs; and
every RelaxedClockView.

Scalar on purpose: `run_sequential` with 0 < beta < 1, which mixes
`random()` with `integers()`; the random-interleave scheduler, whose range
`len(active)` changes from draw to draw; and the counter quality run's read
stream, which makes one draw per cadence point, where a prefetch would cost
more than it saves.
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
    (i, j) pairs or one at a time through the Generator-compatible
    `integers(0, bins)`.

    Batched draws of Generator.integers consume the underlying bit stream
    exactly like repeated scalar draws, so the block size does not change
    the sampled sequence. The first block holds FIRST_BLOCK indices and each
    refill doubles it up to MAX_BLOCK, so a stream that is used briefly
    draws about what it uses. A stream serves either pairs or single
    indices: every block holds an even count, so pairs never straddle a
    refill.
    """

    FIRST_BLOCK = 64
    MAX_BLOCK = 1 << 16

    def __init__(self, rng: Generator, bins: int):
        self._rng = rng
        self._bins = bins
        self._block = self.FIRST_BLOCK
        self._buf: list[int] = []
        self._pos = 0

    def _refill(self) -> None:
        self._buf = self._rng.integers(0, self._bins, size=self._block).tolist()
        self._pos = 0
        self._block = min(2 * self._block, self.MAX_BLOCK)

    def next_pair(self) -> tuple[int, int]:
        if self._pos >= len(self._buf):
            self._refill()
        i = self._buf[self._pos]
        j = self._buf[self._pos + 1]
        self._pos += 2
        return i, j

    def integers(self, lo: int, hi: int) -> int:
        """The next index; the range must be this stream's own [0, bins)."""
        if lo != 0 or hi != self._bins:
            raise ValueError(f"stream serves [0, {self._bins}), asked for [{lo}, {hi})")
        if self._pos >= len(self._buf):
            self._refill()
        i = self._buf[self._pos]
        self._pos += 1
        return i
