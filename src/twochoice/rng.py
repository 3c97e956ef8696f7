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
all of its ops; the random-interleave scheduler's picks while ops are left
to start, in batches of one pick per op left (a pick starts at most one op,
so no batch draws past the pick that starts the last); `run_sequential`
with beta 0 or 1, a chunk at a time; and the quality runs' batch methods
(`MultiCounter.increment_many`, `MultiQueue.enqueue_many` and
`dequeue_many`), which take a Generator and draw up to 1 024 ops' indices
per call.

PairStream, one fixed range `[0, bins)`, one index or a pair at a time, in
fixed blocks of 1 024: each worker of the counter throughput, queue stress
and transactional runs, and every RelaxedClockView.

WordStream, redoing numpy's arithmetic on raw words (tests/test_rng.py pins
it, and no other module touches raw words): `choice_pairs(prob, hi, size)`
serves `run_sequential` with 0 < beta < 1, a chunk of balls, each a
`random()` coin and then one or two `integers(0, hi)`, from one numpy
kernel that finds the chunk's path through the words by pointer doubling.

Scalar on purpose, where a prefetch would cost more than it saves: the
counter quality run's read stream, which makes one draw per cadence point,
and the random-interleave scheduler's tail on the stream its batches
left, at most two picks per thread once threads start to retire and the
range changes from pick to pick.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

_TWO_32 = 1 << 32
_LOW_32 = _TWO_32 - 1
_TWO_M53 = 2.0 ** -53
_U32, _U11 = np.uint64(32), np.uint64(11)


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
    """The balls of (1+beta) chunks drawn from one PCG64 generator by
    `choice_pairs`, equal bit for bit to the same scalar calls on it.

    A ball's coin is `random()`'s double, `(w >> 11) * 2**-53` of one whole
    word. An index in a range of m <= 2**32 values takes a 32-bit half: the
    high half left pending by the last word split for an index if there is
    one, else the low half of a new word (keeping its high half pending),
    and maps it by numpy's Lemire rejection. A half pending in the generator
    when the stream is built is served first. Once wrapped, the generator
    belongs to the stream: its own state runs ahead of the draws served.
    """

    __slots__ = ("_bitgen", "_words", "_half")

    def __init__(self, rng: Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, PCG64):
            raise TypeError(f"WordStream needs a PCG64 bit generator, got {type(bitgen).__name__}")
        state = bitgen.state
        self._bitgen = bitgen
        self._words = np.empty(0, np.uint64)   # drawn from the generator, not yet served
        self._half = state["uinteger"] if state["has_uint32"] else -1

    def choice_pairs(self, prob: float, hi: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The bin pairs of `size` (1+beta) balls as two int64 columns, equal
        to the generator's `(integers(0, hi), integers(0, hi)) if random() <
        prob else (integers(0, hi),) * 2` for each ball in turn, and leaving
        the stream where those calls leave it.

        One numpy kernel stands in for the calls. Before a ball the stream is
        in a state (p, e): the ball's coin is word p, and its halves are the
        high half of word p - 1 when e = 1 (the pending half), then the
        halves of words p + 1, p + 2, ... . So each state's successor follows
        from a few words: `_successors` tabulates it for every state over
        the words at hand, pointer doubling follows the chunk's path from the
        start state, and a path that runs past the last word draws more
        words and starts over. A range of one value draws the coins alone.
        """
        if not 1 <= hi <= _TWO_32:
            raise ValueError(f"range [0, {hi}) must hold 1 to 2**32 values")
        if size < 0:
            raise ValueError("size must be >= 0")
        rest = self._words
        if size == 0 or hi == 1:
            if len(rest) < size:
                rest = np.concatenate((rest, self._bitgen.random_raw(size - len(rest))))
            self._words = rest[size:]
            zeros = np.zeros(size, np.int64)
            return zeros, zeros
        threshold = (_TWO_32 - hi) % hi
        # a ball takes its coin's word and, on average, (1 + prob) halves,
        # each accepted with probability 1 - threshold / 2**32; the margin
        # makes a redo rare for a long chunk, and common for a short one
        per_ball = 1.0 + (1.0 + prob) / (2.0 - 2.0 * threshold / _TWO_32)
        need = int(size * (per_ball + 0.125))
        pending = self._half
        while True:
            if len(rest) < need:
                rest = np.concatenate((rest, self._bitgen.random_raw(need - len(rest))))
            # word 0 holds the pending half, so the start state is (1, e); its
            # other halves are 2**32 - 1, which no range rejects
            head = (pending if pending >= 0 else _LOW_32) << 32 | _LOW_32
            words = np.concatenate((np.array([head], np.uint64), rest))
            succ, first, second, halves = _successors(words, prob, hi, threshold)
            # path[b] is the state before ball b; jump moves len(path) balls on
            path, jump = np.array([2 + (pending >= 0)]), succ
            while True:
                path = np.concatenate((path, jump.take(path)))
                if len(path) > size:
                    break
                jump = jump.take(jump)
            end = int(path[size])
            if end < len(succ) - 1:   # else it is the sink: out of words
                break
            need *= 2
        balls = path[:size]
        m = np.uint64(hi)
        i = ((halves.take(first.take(balls)) * m) >> _U32).astype(np.int64)
        j = ((halves.take(second.take(balls)) * m) >> _U32).astype(np.int64)
        p, e = divmod(end, 2)
        self._words = words[p:]
        self._half = int(halves[2 * p - 1]) if e else -1
        return i, j


def _successors(words: np.ndarray, prob: float, m: int, threshold: int):
    """The (1+beta) ball kernel's table over the given words, of which word
    0 holds only the pending half. Halves are numbered 2q for word q's low
    half and 2q + 1 for its high half. For each state s = 2p + e (p = 0..n,
    n the words) it gives the ball's first and second half and the state it
    leaves. A ball that needs a word past the last goes to a sink, state
    2n + 2, whose successor is itself. Returns (successor, first, second,
    halves), the first three indexed by state.
    """
    n = len(words)
    halves = words.astype("<u8", copy=False).view("<u4")   # low, high: on any host
    coin = np.zeros(n + 1, np.int64)   # row n has no word for a coin
    coin[:n] = (words >> _U11) * _TWO_M53 < prob
    # every half accepted: word p + 1's low half (2p + 2) at e = 0, the
    # pending half (2p - 1) at e = 1, and a second half next after word p
    low = np.arange(2, 2 * n + 3, 2)[:, None]
    first = low - [0, 3]
    second = first + coin[:, None] * [1, 3]
    if threshold:
        accepted = halves * np.uint32(m) >= threshold   # the low half of u * m, wrapped
        if not accepted.all():
            _skip_rejected(first.ravel(), second.ravel(), accepted, coin)
    # the ball ends past its last half's word and its coin's word p, and
    # after a low half that word's high half is pending
    succ = np.full(2 * n + 3, 2 * n + 2)
    np.minimum(second + 3 - 2 * (second & 1) + 2 * (second < low), 2 * n + 2,
               out=succ[:-1].reshape(n + 1, 2))
    return succ, first.ravel(), second.ravel(), halves


def _skip_rejected(first: np.ndarray, second: np.ndarray, accepted: np.ndarray,
                   coin: np.ndarray) -> None:
    """Move, in place, the draws of the states p = 1..n - 1 whose first or
    second half is rejected to the accepted halves that serve them."""
    h = len(accepted)
    met = np.zeros(h + 2, bool)   # a half past the words leaves its state to the sink
    met[:h] = ~accepted
    fix = 2 + np.flatnonzero(met[first[2:h]] | met[second[2:h]])
    # the first accepted half at or after each half; h: none
    ahead = np.full(h + 2, h)
    ahead[:h] = np.minimum.accumulate(np.where(accepted, np.arange(h), h)[::-1])[::-1]
    p, e = fix >> 1, (fix & 1).astype(bool)
    f1 = np.where(e & accepted[2 * p - 1], 2 * p - 1, ahead[2 * p + 2])
    f2 = ahead[np.where(f1 == 2 * p - 1, 2 * p + 2, f1 + 1)]
    first[fix] = f1
    second[fix] = np.where(coin[p] > 0, f2, f1)
