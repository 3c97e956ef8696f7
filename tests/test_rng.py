"""PairStream against the scalar Generator draws it stands in for."""

import pytest
from hypothesis import example, given, settings, strategies as st

from twochoice.rng import PairStream, make_rng

CHUNK = 1 << 16  # PairStream's refill size

RANGES = st.one_of(
    st.just(1),
    st.integers(1, 40).map(lambda e: 1 << e),
    st.integers(3, 10**9).filter(lambda m: m & (m - 1)),
    st.integers(2**32 + 1, 2**62),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), bins=RANGES,
       k=st.one_of(st.integers(0, 500), st.integers(CHUNK - 8, CHUNK + 8)))
@example(seed=7, bins=1, k=CHUNK + 1)
@example(seed=7, bins=64, k=2 * CHUNK + 3)
@example(seed=7, bins=100, k=CHUNK + 1)
@example(seed=7, bins=2**33 + 5, k=CHUNK + 1)
def test_buffered_integers_match_scalar_draws(seed, bins, k):
    stream = PairStream(make_rng(seed), bins)
    scalar = make_rng(seed)
    assert ([stream.integers(0, bins) for _ in range(k)]
            == [int(scalar.integers(0, bins)) for _ in range(k)])


@pytest.mark.parametrize("lo, hi", [(1, 64), (0, 63), (0, 65), (-1, 64)])
def test_other_range_raises(lo, hi):
    stream = PairStream(make_rng(0), 64)
    with pytest.raises(ValueError, match=r"\[0, 64\)"):
        stream.integers(lo, hi)
