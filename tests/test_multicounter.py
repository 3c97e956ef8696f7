import math
import threading

import pytest

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
    stop = threading.Event()
    seen = []

    def reader():
        last = [0] * 4
        while not stop.is_set():
            for k in range(4):
                v = c.snapshot()[k]
                if v < last[k]:
                    seen.append((k, last[k], v))
                last[k] = v

    def writer(rng):
        for _ in range(20_000):
            c.increment(rng)

    rngs = thread_rngs(7, 3)
    threads = [threading.Thread(target=writer, args=(r,)) for r in rngs]
    obs = threading.Thread(target=reader)
    obs.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    obs.join()
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

    threads = [threading.Thread(target=worker, args=(r,)) for r in rngs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.exact_total() == 8 * per_thread


def test_single_threaded_skew_64_cells():
    # mirror of the sequential quality setup: 64 cells, 1e6 increments
    c = MultiCounter(64)
    rng = make_rng(1)
    inc = c.increment
    for _ in range(1_000_000):
        inc(rng)
    values = c.snapshot()
    assert c.exact_total() == 1_000_000
    assert max(values) - min(values) <= 8


def test_read_deviation_large_array():
    # big cell count, single-threaded: every scaled cell stays within
    # 6 m ln m of the true total
    m = 4096 * 4
    c = MultiCounter(m)
    rng = make_rng(2)
    inc = c.increment
    total = 1_000_000
    for _ in range(total):
        inc(rng)
    bound = 6 * m * math.log(m)
    values = c.snapshot()
    assert all(abs(m * v - total) <= bound for v in values)
