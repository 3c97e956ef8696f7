import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thread_pair import run_pair
from twochoice.multicounter import MultiCounter
from twochoice.rng import PairStream, make_rng, thread_rngs


def test_new_counter_is_zero():
    c = MultiCounter(1)
    assert c.read(make_rng(0)) == 0
    c8 = MultiCounter(8)
    assert c8.snapshot() == [0] * 8
    assert c8.exact_total() == 0


def test_rejects_zero_cells():
    with pytest.raises(ValueError):
        MultiCounter(0)


def test_single_cell_always_incremented():
    c = MultiCounter(1)
    rng = make_rng(1)
    for _ in range(100):
        assert c.increment(rng) == 0
    assert c.read(rng) == 100
    assert c.exact_total() == 100


def test_fresh_reads_pick_strict_minimum():
    # cells (0, 5): whatever pair is drawn, the updated cell is a minimum
    c = MultiCounter(2)
    c._values = [0, 5]
    rng = make_rng(2)
    updated = c.increment(rng)
    if updated == 1:
        # only possible when both draws hit cell 1
        assert c.snapshot() == [0, 6]
    else:
        assert c.snapshot() == [1, 5]


def test_tie_and_same_index_go_to_first_choice():
    class TwoDraws:
        def __init__(self, seq):
            self._seq = list(seq)

        def integers(self, lo, hi):
            return self._seq.pop(0)

    c = MultiCounter(4)
    c.increment(TwoDraws([2, 2]))  # i == j
    assert c.snapshot() == [0, 0, 1, 0]
    c2 = MultiCounter(4)
    c2.increment(TwoDraws([3, 1]))  # tie: both zero, first choice wins
    assert c2.snapshot() == [0, 0, 0, 1]


def test_read_scales_by_cell_count():
    c = MultiCounter(4)
    c._values = [2, 2, 2, 2]
    assert c.read(make_rng(3)) == 8


def test_buffered_stream_matches_generator():
    # the scalar Generator is the reference; 140 000 draws cross two refills
    fast, slow = MultiCounter(64), MultiCounter(64)
    stream, rng = PairStream(make_rng(12), 64), make_rng(12)
    for _ in range(70_000):
        assert fast.increment(stream) == slow.increment(rng)
    assert fast.snapshot() == slow.snapshot()


# cell counts and batch lengths around the batch size (1 024 ops)
BATCH_CELLS = [1, 2, 3, 64, 1000, 2**16 + 1]
BATCH_COUNTS = [0, 1, 1023, 1024, 1025, 2049]


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from(BATCH_CELLS),
       counts=st.lists(st.sampled_from(BATCH_COUNTS), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), pending=st.booleans())
def test_increment_many_matches_increments(m, counts, seed, pending):
    # the loop of single increments is the reference: same cells and the
    # same generator state after each batch. Cells start uneven, so both
    # the strict comparison and ties decide; a first odd draw leaves half
    # a generator word pending.
    start = make_rng(seed + 1).integers(0, 4, size=m).tolist()
    fast, slow = MultiCounter(m), MultiCounter(m)
    fast._values, slow._values = list(start), list(start)
    a, b = make_rng(seed), make_rng(seed)
    if pending:
        a.integers(0, 3)
        b.integers(0, 3)
    for count in counts:
        fast.increment_many(a, count)
        for _ in range(count):
            slow.increment(b)
        assert fast.snapshot() == slow.snapshot()
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("cells", [4, 1000])
def test_increment_many_beside_single_ops(cells):
    # one thread increments in batches while the other increments and reads
    # one op at a time: no increment is lost
    c = MultiCounter(cells)
    a, b = thread_rngs(13, 2)

    def batches():
        for _ in range(20):
            c.increment_many(a, 1500)

    def singles():
        for _ in range(20_000):
            c.increment(b)
            c.read(b)

    assert run_pair(batches, singles) == []
    assert c.exact_total() == 20 * 1500 + 20_000


def test_single_threaded_conservation():
    c = MultiCounter(16)
    rng = make_rng(4)
    for k in range(1, 2001):
        c.increment(rng)
        if k % 500 == 0:
            assert c.exact_total() == k


def test_increment_contract_exact_step_counts():
    # exactly 2 draws, 2 unlocked reads, 1 locked read-modify-write
    draws = []

    class CountingRng:
        def integers(self, lo, hi):
            draws.append((lo, hi))
            return len(draws) % 2

    c = MultiCounter(2)
    acquires = []
    orig_locks = c._locks

    class CountingLock:
        def __init__(self, inner):
            self._inner = inner

        def __enter__(self):
            acquires.append(1)
            return self._inner.__enter__()

        def __exit__(self, *a):
            return self._inner.__exit__(*a)

    c._locks = [CountingLock(l) for l in orig_locks]
    c.increment(CountingRng())
    assert len(draws) == 2
    assert len(acquires) == 1


def test_monotone_cells_under_concurrency():
    c = MultiCounter(4)
    rngs = thread_rngs(7, 3)
    done = []   # one entry per finished writer; the reader stops at all
    seen = []

    def reader():
        last = [0] * 4
        while len(done) < len(rngs):
            for k in range(4):
                v = c.snapshot()[k]
                if v < last[k]:
                    seen.append((k, last[k], v))
                last[k] = v

    def writer(rng):
        try:
            for _ in range(20_000):
                c.increment(rng)
        finally:
            done.append(rng)

    assert run_pair(reader, *(partial(writer, r) for r in rngs)) == []
    assert seen == []  # no cell ever observed decreasing
    assert c.exact_total() == 3 * 20_000


def test_concurrent_conservation_eight_threads():
    # 8 threads x 1e5 increments each: total is exact
    per_thread = 100_000
    c = MultiCounter(64)
    rngs = thread_rngs(11, 8)

    def worker(rng):
        inc = c.increment
        for _ in range(per_thread):
            inc(rng)

    assert run_pair(*(partial(worker, r) for r in rngs)) == []
    assert c.exact_total() == 8 * per_thread


def test_single_threaded_skew_64_cells():
    # mirror of the sequential quality setup: 64 cells, 1e6 increments
    c = MultiCounter(64)
    c.increment_many(make_rng(1), 1_000_000)
    values = c.snapshot()
    assert c.exact_total() == 1_000_000
    assert max(values) - min(values) <= 8


def test_read_deviation_large_array():
    # big cell count, single-threaded: every scaled cell stays within
    # 6 m ln m of the true total
    m = 4096 * 4
    c = MultiCounter(m)
    total = 1_000_000
    c.increment_many(make_rng(2), total)
    bound = 6 * m * math.log(m)
    values = c.snapshot()
    assert all(abs(m * v - total) <= bound for v in values)
