"""PairStream and WordStream against the scalar Generator draws they stand in for."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import MT19937, Generator

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
    stream = PairStream(make_rng(seed), bins)
    scalar = make_rng(seed)
    assert ([stream.next_pair() for _ in range(k)]
            == [(int(scalar.integers(0, bins)), int(scalar.integers(0, bins)))
                for _ in range(k)])
    # pairs and single indices mix in one stream: after a single index,
    # pair 512 r - 1 straddles the r-th refill
    stream = PairStream(make_rng(seed), bins)
    scalar = make_rng(seed)
    mixed = [stream.integers(0, bins), *(stream.next_pair() for _ in range(k)),
             stream.integers(0, bins)]
    draws = [int(scalar.integers(0, bins)) for _ in range(2 * k + 2)]
    assert mixed == [draws[0], *zip(draws[1:-1:2], draws[2::2]), draws[-1]]


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
def test_spawn_leaves_later_draws_unchanged(seed):
    # the STM worker spawns its clock view's generator from the thread's own
    # before drawing objects; either clock must see the same object draws
    spawned, plain = thread_rngs(seed, 2)[1], thread_rngs(seed, 2)[1]
    spawned.spawn(1)
    assert spawned.integers(0, 10**6, 100).tolist() == plain.integers(0, 10**6, 100).tolist()


def test_many_short_streams_stay_small():
    # a stream prefetches one fixed block: 64 streams that each draw one
    # pair stay well under a megabyte
    gens = thread_rngs(3, 64)
    tracemalloc.start()
    try:
        streams = [PairStream(g, 256) for g in gens]
        for s in streams:
            s.next_pair()
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
# one call: None is random(), (lo, m) is integers(lo, lo + m)
CALLS = st.one_of(st.none(), st.tuples(st.integers(-2**40, 2**40), st.sampled_from(WORD_RANGES)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), primed=st.booleans(),
       pattern=st.lists(CALLS, min_size=1, max_size=12),
       k=st.one_of(st.integers(0, 300), st.integers(2 * WordStream.BLOCK, 5 * WordStream.BLOCK)))
@example(seed=7, primed=True, pattern=[None], k=2 * WordStream.BLOCK + 1)
@example(seed=7, primed=False, pattern=[(0, 2**31 + 1)], k=5 * WordStream.BLOCK)
@example(seed=7, primed=True, pattern=[(0, 1), (5, 3), None, (0, 1)], k=5 * WordStream.BLOCK)
def test_word_stream_matches_scalar_draws(seed, primed, pattern, k):
    """The pattern repeats to k calls; primed leaves a pending 32-bit half in
    the generator before it is wrapped."""
    wrapped, scalar = make_rng(seed), make_rng(seed)
    if primed:
        wrapped.integers(0, 7)
        scalar.integers(0, 7)
    stream = WordStream(wrapped)
    for n in range(k):
        call = pattern[n % len(pattern)]
        if call is None:
            assert stream.random() == scalar.random(), n
        else:
            lo, m = call
            assert stream.integers(lo, lo + m) == int(scalar.integers(lo, lo + m)), n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.one_of(st.integers(1, 70), st.integers(2**31, 2**32)),
       k=st.integers(0, 3000), pattern=st.lists(CALLS, min_size=1, max_size=8))
@example(seed=7, n=3, k=2999, pattern=[(0, 5)])              # odd: a high half left pending
@example(seed=7, n=3, k=3000, pattern=[(0, 5)])
@example(seed=7, n=2**31 + 1, k=2999, pattern=[None, (0, 2**32)])
@example(seed=7, n=2**32, k=1, pattern=[(0, 3)])
def test_batched_integers_then_word_stream_match_scalar_draws(seed, n, k, pattern):
    """A batch of `integers(0, n)` equals the same scalar calls and leaves the
    generator where they do, so a WordStream that takes over after it
    continues them: the random-interleave scheduler's hand-over."""
    batched, scalar = make_rng(seed), make_rng(seed)
    assert (batched.integers(0, n, size=k).tolist()
            == [int(scalar.integers(0, n)) for _ in range(k)])
    stream = WordStream(batched)
    for step, call in enumerate(pattern * 8):
        if call is None:
            assert stream.random() == scalar.random(), step
        else:
            lo, m = call
            assert stream.integers(lo, lo + m) == int(scalar.integers(lo, lo + m)), step


@pytest.mark.parametrize("lo, hi", [(0, 0), (5, 4), (0, 2**32 + 1), (-1, 2**32)])
def test_word_stream_rejects_bad_range(lo, hi):
    with pytest.raises(ValueError):
        WordStream(make_rng(0)).integers(lo, hi)


def test_word_stream_needs_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        WordStream(Generator(MT19937(0)))
