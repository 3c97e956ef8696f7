"""PairStream, WordStream and the scheduler's batch-then-scalar picks against
the scalar Generator draws they stand in for."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import MT19937, Generator
from scalar_reference import choice_pairs_reference

from twochoice.balance import _CHUNK_ROWS as CHUNK
from twochoice.rng import PairStream, WordStream, make_rng, thread_rngs

# values drawn when each refill happens: a refill every BLOCK values
EDGES = [r * PairStream.BLOCK for r in range(1, 6)]

RANGES = st.one_of(
    st.just(1),
    st.integers(1, 40).map(lambda e: 1 << e),
    st.integers(3, 10**9).filter(lambda m: m & (m - 1)),
    st.integers(2**32 + 1, 2**62),
)


def near(edges):
    """Counts within a few values of one of the given refill edges."""
    return st.sampled_from(edges).flatmap(lambda e: st.integers(e - 3, e + 3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), bins=RANGES,
       k=st.one_of(st.integers(0, 500), near(EDGES)))
@example(seed=7, bins=1, k=EDGES[0] + 1)
@example(seed=7, bins=64, k=EDGES[2] + 3)
@example(seed=7, bins=100, k=EDGES[0] + 1)
@example(seed=7, bins=2**33 + 5, k=EDGES[0] + 1)
def test_buffered_integers_match_scalar_draws(seed, bins, k):
    stream = PairStream(make_rng(seed), bins)
    scalar = make_rng(seed)
    assert ([stream.integers(0, bins) for _ in range(k)]
            == [int(scalar.integers(0, bins)) for _ in range(k)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), bins=RANGES,
       k=st.one_of(st.integers(0, 250), near([e // 2 for e in EDGES])))
@example(seed=7, bins=64, k=EDGES[0] // 2 + 1)
@example(seed=7, bins=2**33 + 5, k=EDGES[3] // 2 + 1)
def test_buffered_pairs_match_scalar_draws(seed, bins, k):
    # a pair is two calls, so pairs and single indices mix in one stream:
    # after a single index, pair 512 r - 1 straddles the r-th refill
    def calls(draw, single):
        ends = lambda: [draw() for _ in range(single)]
        return ends() + [(draw(), draw()) for _ in range(k)] + ends()

    for single in (0, 1):
        stream, scalar = PairStream(make_rng(seed), bins), make_rng(seed)
        assert (calls(partial(stream.integers, 0, bins), single)
                == calls(lambda: int(scalar.integers(0, bins)), single))


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
def test_spawn_leaves_later_draws_unchanged(seed):
    # the STM worker spawns its clock view's generator from the thread's own
    # before drawing objects; either clock must see the same object draws
    spawned, plain = thread_rngs(seed, 2)[1], thread_rngs(seed, 2)[1]
    spawned.spawn(1)
    assert spawned.integers(0, 10**6, 100).tolist() == plain.integers(0, 10**6, 100).tolist()


def test_many_short_streams_stay_small():
    # a stream prefetches one fixed block: 64 streams that each draw one
    # index stay well under a megabyte
    gens = thread_rngs(3, 64)
    tracemalloc.start()
    try:
        streams = [PairStream(g, 256) for g in gens]
        for s in streams:
            s.integers(0, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("lo, hi", [(1, 64), (0, 63), (0, 65), (-1, 64)])
def test_other_range_raises(lo, hi):
    stream = PairStream(make_rng(0), 64)
    with pytest.raises(ValueError, match=r"\[0, 64\)"):
        stream.integers(lo, hi)


# range sizes: 2**31 + 1 rejects about half of its 32-bit draws, 2**32 - 1
# and 2**32 are the widest ranges a 32-bit half serves
WORD_RANGES = [1, 2, 3, 64, 1000, 2**31 + 1, 2**32 - 1, 2**32]
# coin probabilities: almost never, even, and almost always two indices
BETAS = [1e-12, 0.5, 1 - 1e-12]
# one call: choice_pairs(prob, hi, size)
CALLS = st.tuples(st.sampled_from(BETAS), st.sampled_from(WORD_RANGES), st.integers(0, 4))


def same_draws(stream, scalar, call) -> bool:
    """One choice_pairs call on the stream against the same scalar calls on
    the generator."""
    prob, hi, size = call
    i, j = stream.choice_pairs(prob, hi, size)
    assert i.dtype == j.dtype == np.int64
    return list(zip(i.tolist(), j.tolist())) == choice_pairs_reference(scalar, prob, hi, size)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), primed=st.booleans(),
       calls=st.lists(st.tuples(st.sampled_from(BETAS), st.sampled_from(WORD_RANGES),
                                st.one_of(st.sampled_from([0, 1, CHUNK - 1, CHUNK + 1, 3 * CHUNK]),
                                          st.integers(0, 100))),
                      min_size=1, max_size=4))
@example(seed=7, primed=True, calls=[(0.5, 2**31 + 1, 3 * CHUNK)])
@example(seed=7, primed=False, calls=[(1 - 1e-12, 2**32 - 1, CHUNK + 1), (0.5, 3, CHUNK - 1)])
@example(seed=7, primed=True, calls=[(1e-12, 2**31 + 1, CHUNK + 1), (0.5, 1, CHUNK - 1),
                                     (0.5, 64, 0)])
def test_choice_pairs_match_scalar_draws(seed, primed, calls):
    """Each call is (prob, hi, size); primed leaves a pending 32-bit half in
    the generator before it is wrapped. The draws after the calls agree too:
    the stream kept its place, its words and its pending half."""
    wrapped, scalar = make_rng(seed), make_rng(seed)
    if primed:
        wrapped.integers(0, 7)
        scalar.integers(0, 7)
    stream = WordStream(wrapped)
    for n, call in enumerate(calls):
        assert same_draws(stream, scalar, call), n
    for m in WORD_RANGES:
        assert same_draws(stream, scalar, (0.5, m, 3)), m


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), primed=st.booleans(),
       pattern=st.lists(CALLS, min_size=1, max_size=12),
       k=st.one_of(st.integers(0, 300), st.integers(2 * CHUNK, 5 * CHUNK)))
@example(seed=7, primed=True, pattern=[(0.5, 64, 1)], k=2 * CHUNK + 1)
@example(seed=7, primed=False, pattern=[(0.5, 2**31 + 1, 1)], k=5 * CHUNK)
@example(seed=7, primed=True, pattern=[(0.5, 1, 1), (1 - 1e-12, 3, 1), (0.5, 3, 2),
                                       (1e-12, 1, 0)], k=5 * CHUNK)
def test_word_stream_matches_scalar_draws(seed, primed, pattern, k):
    """The pattern repeats to k calls; primed leaves a pending 32-bit half in
    the generator before it is wrapped."""
    wrapped, scalar = make_rng(seed), make_rng(seed)
    if primed:
        wrapped.integers(0, 7)
        scalar.integers(0, 7)
    stream = WordStream(wrapped)
    for n in range(k):
        assert same_draws(stream, scalar, pattern[n % len(pattern)]), n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.one_of(st.integers(1, 70), st.integers(2**31, 2**32)),
       k=st.integers(0, 3000), cuts=st.lists(st.integers(0, 3000), max_size=6))
@example(seed=7, n=3, k=2999, cuts=[])     # odd: a high half left pending
@example(seed=7, n=3, k=3000, cuts=[1, 2, 1001])
@example(seed=7, n=2**31 + 1, k=2999, cuts=[999, 2000])
@example(seed=7, n=2**32, k=1, cuts=[0, 1])
def test_batched_integers_then_scalar_picks_match_scalar_draws(seed, n, k, cuts):
    """Consecutive batches of `integers(n, size=...)`, cut where `cuts` say,
    equal the same scalar calls and leave the generator where they do, so
    each batch continues the last and scalar picks after them continue the
    batches: the random-interleave scheduler's batches of one pick per op
    left to start, then its tail, whose range shrinks as threads retire."""
    bounds = [0, *sorted(min(c, k) for c in cuts), k]
    batched, scalar = make_rng(seed), make_rng(seed)
    assert ([x for lo, hi in zip(bounds, bounds[1:])
             for x in batched.integers(n, size=hi - lo).tolist()]
            == [int(scalar.integers(0, n)) for _ in range(k)])
    assert batched.bit_generator.state == scalar.bit_generator.state
    ranges = [n - i // 2 for i in range(2 * min(n, 64))]   # each range twice
    assert ([int(batched.integers(m)) for m in ranges]
            == [int(scalar.integers(0, m)) for m in ranges])


@pytest.mark.parametrize("hi, size", [(0, 4), (2**32 + 1, 4), (64, -1)])
def test_choice_pairs_rejects_bad_arguments(hi, size):
    with pytest.raises(ValueError):
        WordStream(make_rng(0)).choice_pairs(0.5, hi, size)


def test_word_stream_needs_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        WordStream(Generator(MT19937(0)))
