"""Seedable random streams shared by every module.

All randomness flows through numpy PCG64 generators derived from a single
64-bit seed via SeedSequence spawning, so that every experiment is
reproducible and schedule randomness stays independent of simulation
randomness (one stream for the scheduler, one per simulated thread).

A scalar Generator call costs several times a MultiCounter increment's
lock, so hot paths draw in batches or from one of two buffered sources.
Each returns exactly what the same scalar calls on the Generator would, so
no batch or block size ever changes a value.

Batched `integers` calls: the simulator's choices, one call per thread for
all of its ops; the random-interleave scheduler's picks while every thread
is active; `run_sequential` with beta 0 or 1, a chunk at a time; and the
quality runs' batch methods (`MultiCounter.increment_many`,
`MultiQueue.enqueue_many` and `dequeue_many`), which take a Generator and
draw up to 1 024 ops' indices per call.

PairStream, one fixed range `[0, bins)`, one index or a pair at a time, in
fixed blocks of 1 024: each worker of the counter throughput, queue stress
and transactional runs, and every RelaxedClockView.

WordStream, any mix of `random()` and `integers(lo, hi)`, redoing numpy's
arithmetic on raw words (tests/test_rng.py pins it, and no other module
touches raw words): `run_sequential` with 0 < beta < 1, and the
random-interleave scheduler's tail, once threads retire and its range
changes from draw to draw.

Scalar on purpose: the counter quality run's read stream, which makes one
draw per cadence point, where a prefetch would cost more than it saves.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

_TWO_32 = 1 << 32
_LOW_32 = _TWO_32 - 1
_TWO_M53 = 2.0 ** -53


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
    """Buffered uniform indices in [0, bins) from one generator, served one
    at a time through the Generator-compatible `integers(0, bins)`, or two
    at a time by `next_pair()`, in any mix, from blocks of BLOCK that one
    batched `integers` call each fills.
    """

    BLOCK = 1024

    def __init__(self, rng: Generator, bins: int):
        self._rng = rng
        self._bins = bins
        self._buf: list[int] = []
        self._pos = 0

    def _refill(self) -> None:
        self._buf = self._rng.integers(0, self._bins, size=self.BLOCK).tolist()
        self._pos = 0

    def next_pair(self) -> tuple[int, int]:
        return self.integers(0, self._bins), self.integers(0, self._bins)

    def integers(self, lo: int, hi: int) -> int:
        """The next index; the range must be this stream's own [0, bins)."""
        if lo != 0 or hi != self._bins:
            raise ValueError(f"stream serves [0, {self._bins}), asked for [{lo}, {hi})")
        if self._pos >= len(self._buf):
            self._refill()
        i = self._buf[self._pos]
        self._pos += 1
        return i


class WordStream:
    """Buffered `random()` and `integers(lo, hi)` draws, in any order, from
    one PCG64 generator, equal bit for bit to the same scalar calls on it.

    Words come in blocks of BLOCK from `bit_generator.random_raw`, and each
    refill splits the block once with numpy into the three views a draw can
    take of a word. A double is `(w >> 11) * 2**-53` of one whole word. An
    integer in a range of m <= 2**32 values takes a 32-bit half: the high
    half left pending by the last word split for a range draw if there is
    one, else the low half of a new word (keeping its high half pending),
    and maps it by numpy's Lemire rejection. A range of one value returns
    `lo` and draws nothing, as numpy does. A half pending in the generator
    when the stream is built is served first. Once wrapped, the generator
    belongs to the stream: its own state runs up to a block ahead of the
    draws served.
    """

    BLOCK = 1024

    __slots__ = ("_bitgen", "_doubles", "_lows", "_highs", "_pos", "_half")

    def __init__(self, rng: Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, PCG64):
            raise TypeError(f"WordStream needs a PCG64 bit generator, got {type(bitgen).__name__}")
        state = bitgen.state
        self._bitgen = bitgen
        self._doubles: list[float] = []
        self._lows: list[int] = []
        self._highs: list[int] = []
        self._pos = 0
        self._half = state["uinteger"] if state["has_uint32"] else -1

    def _refill(self) -> None:
        words = self._bitgen.random_raw(self.BLOCK)
        self._doubles = ((words >> np.uint64(11)) * _TWO_M53).tolist()
        self._lows = (words & np.uint64(_LOW_32)).tolist()
        self._highs = (words >> np.uint64(32)).tolist()
        self._pos = 0

    # random() and integers() each inline the block cursor: a shared helper
    # would add a method call to every draw, a large share of its cost.
    def random(self) -> float:
        pos = self._pos
        try:
            x = self._doubles[pos]
        except IndexError:
            self._refill()
            pos = 0
            x = self._doubles[0]
        self._pos = pos + 1
        return x

    def integers(self, lo: int, hi: int) -> int:
        m = hi - lo
        if m == 1:
            return lo
        if m < 1 or m > _TWO_32:
            raise ValueError(f"range [{lo}, {hi}) must hold 1 to 2**32 values")
        threshold = (_TWO_32 - m) % m
        while True:
            u = self._half
            if u < 0:
                pos = self._pos
                try:
                    u = self._lows[pos]
                except IndexError:
                    self._refill()
                    pos = 0
                    u = self._lows[0]
                self._half = self._highs[pos]
                self._pos = pos + 1
            else:
                self._half = -1
            p = u * m
            if p & _LOW_32 >= threshold:
                return lo + (p >> 32)
