import threading
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlin_reference import RankOracle
from thread_pair import run_pair
from twochoice.dlin import DEQ, history_from_serial_queue, linearize_costs
from twochoice.multicounter import LogicalClock
from twochoice.multiqueue import EMPTY, MultiQueue
from twochoice.rng import PairStream, make_rng, thread_rngs
from twochoice.stm import ExactClock


def serial_run(q, rng, prefill, dequeues):
    """Enqueue 0..prefill-1, then make `dequeues` successful pops; returns
    each enqueue's (queue, stamp) and the popped elements."""
    placed = [q.enqueue(k, rng) for k in range(prefill)]
    popped = []
    while len(popped) < dequeues:
        got = q.dequeue(rng)
        if got is not EMPTY:
            popped.append(got)
    return placed, popped


def offline_ranks(placed, popped, queues):
    """The popped elements' ranks, priced by dlin from the serial history."""
    stamps = [stamp for _, stamp in placed]
    history = history_from_serial_queue(stamps, [stamps[x] for x in popped])
    return linearize_costs(history, queues)[history.kind == DEQ].astype(int).tolist()


# ---------------------------------------------------------------------------
# clock
# ---------------------------------------------------------------------------

def test_clock_monotone_and_unique():
    clk = LogicalClock()
    stamps = [clk.reserve(1) for _ in range(1000)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 1000


def test_clock_reserve_hands_out_consecutive_stamps():
    clk = LogicalClock()
    assert clk.read() == 0
    assert clk.reserve(1) == 0
    assert clk.read() == 1
    assert clk.reserve(5) == 1
    assert clk.read() == 6
    assert clk.reserve(0) == 6
    assert clk.read() == 6
    assert clk.reserve(1) == 6
    assert clk.read() == 7


def test_clock_unique_under_threads():
    # the queue's enqueue stamps, and the exact STM clock's commit stamps
    for stamp in (partial(LogicalClock().reserve, 1), partial(ExactClock().write_version, 0)):
        out = [[] for _ in range(4)]

        def worker(k):
            for _ in range(5000):
                out[k].append(stamp())

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        allstamps = [s for lane in out for s in lane]
        assert len(set(allstamps)) == 20_000
        for lane in out:
            assert lane == sorted(lane)  # per-thread monotone


# ---------------------------------------------------------------------------
# rank oracle (the queue pricing reference in tests/dlin_reference.py)
# ---------------------------------------------------------------------------

def test_rank_of_global_minimum_is_zero():
    o = RankOracle(capacity=16)
    for k in (5, 9, 12):
        o.add(k)
    assert o.rank_of(5) == 0


def test_rank_singleton():
    o = RankOracle(capacity=4)
    o.add(3)
    assert o.rank_of(3) == 0


def test_rank_example_set():
    o = RankOracle(capacity=10)
    for k in (1, 5, 9):
        o.add(k)
    assert o.rank_of(9) == 2
    assert o.rank_of(5) == 1


def test_rank_unknown_key_rejected():
    o = RankOracle(capacity=8)
    o.add(1)
    with pytest.raises(KeyError):
        o.rank_of(2)
    with pytest.raises(KeyError):
        o.remove(7)


def test_rank_oracle_matches_bruteforce():
    rng = make_rng(8)
    o = RankOracle(capacity=5000)
    live = set()
    for _ in range(2000):
        if live and rng.random() < 0.4:
            key = sorted(live)[int(rng.integers(0, len(live)))]
            o.remove(key)
            live.remove(key)
        else:
            key = int(rng.integers(0, 5000))
            if key in live:
                continue
            o.add(key)
            live.add(key)
        if live and len(live) % 50 == 0:
            probe = sorted(live)[int(rng.integers(0, len(live)))]
            brute = sum(1 for k in live if k < probe)
            assert o.rank_of(probe) == brute
    assert [o.rank_of(k) for k in sorted(live)] == list(range(len(live)))


def test_rank_oracle_rejects_duplicates_and_negatives():
    o = RankOracle(capacity=8)
    o.add(4)
    with pytest.raises(ValueError):
        o.add(4)
    with pytest.raises(ValueError):
        o.add(-1)
    with pytest.raises(ValueError):
        o.add(8)   # beyond the capacity


# ---------------------------------------------------------------------------
# queue semantics
# ---------------------------------------------------------------------------

def test_single_queue_is_fifo():
    q = MultiQueue(1)
    rng = make_rng(0)
    for item in "abc":
        q.enqueue(item, rng)
    assert [q.dequeue(rng) for _ in range(3)] == ["a", "b", "c"]
    assert q.dequeue(rng) is EMPTY


def test_sequential_enqueues_get_increasing_stamps():
    q = MultiQueue(4)
    rng = make_rng(1)
    placed = [q.enqueue("x", rng), q.enqueue("y", rng)]
    stamps = sorted(e[0] for h in q._heaps for e in h)
    assert stamps[1] > stamps[0]
    # enqueue returns the queue it pushed onto and the stamp it used
    where = {e[2]: (qi, e[0]) for qi, h in enumerate(q._heaps) for e in h}
    assert [where["x"], where["y"]] == placed


def test_dequeue_prefers_smaller_key():
    q = MultiQueue(2)
    # place keys 3 and 7 directly
    q._heaps[0].append((3, 0, "low"))
    q._heaps[1].append((7, 0, "high"))

    class AlternatingRng:
        def __init__(self):
            self._k = 0

        def integers(self, lo, hi):
            self._k += 1
            return (self._k - 1) % 2

    assert q.dequeue(AlternatingRng()) == "low"


def test_dequeue_empty_probe_indicator():
    q = MultiQueue(8)
    rng = make_rng(3)
    assert q.dequeue(rng) is EMPTY
    q.enqueue(1, rng)
    # element present: an 8-attempt two-choice probe may still miss it,
    # but repeated calls must eventually find it
    found = False
    for _ in range(50):
        if q.dequeue(rng) == 1:
            found = True
            break
    assert found


def test_buffered_stream_matches_generator():
    # a small quality run; the scalar Generator is the reference, and the
    # 30 000 enqueue and 40 000 dequeue draws cross a refill
    logs = []
    for rng in (PairStream(make_rng(21), 16), make_rng(21)):
        placed, out = serial_run(MultiQueue(16), rng, 30_000, 20_000)
        logs.append((placed, out, offline_ranks(placed, out, 16)))
    assert logs[0] == logs[1]


# queue counts and batch lengths around the batch size (1 024 ops)
BATCH_QUEUES = [1, 2, 3, 64, 1000, 2**16 + 1]
BATCH_COUNTS = [0, 1, 1023, 1024, 1025, 2049]


def _assert_same_state(fast, slow, a, b):
    assert fast._heaps == slow._heaps
    assert fast._last_stamp == slow._last_stamp
    assert fast._clock._value == slow._clock._value
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from(BATCH_QUEUES),
       steps=st.lists(st.tuples(st.booleans(), st.sampled_from(BATCH_COUNTS)),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), pending=st.booleans())
def test_batches_match_single_ops(m, steps, seed, pending):
    # each step is an enqueue or a dequeue batch, against the loop of its
    # single op on an equal stream: the same results, heaps, pop records,
    # clock and generator state. Dequeue steps may find both probes empty
    # and may drain the queue; a first odd draw leaves half a word pending.
    fast, slow = MultiQueue(m), MultiQueue(m)
    a, b = make_rng(seed), make_rng(seed)
    if pending:
        a.integers(0, 3)
        b.integers(0, 3)
    element = 0
    for enqueue, count in steps:
        if enqueue:
            elements = range(element, element + count)
            element += count
            queues, stamps = fast.enqueue_many(elements, a)
            assert queues.dtype == stamps.dtype == np.int64
            assert list(zip(queues.tolist(), stamps.tolist())) == [
                slow.enqueue(x, b) for x in elements]
        else:
            assert fast.dequeue_many(a, count) == [slow.dequeue(b) for _ in range(count)]
        _assert_same_state(fast, slow, a, b)


def test_dequeue_many_misses_and_drains():
    # 40 elements over 64 queues: dequeues find both probes empty while
    # other queues still hold elements, and the batch drains the queue
    fast, slow = MultiQueue(64), MultiQueue(64)
    a, b = make_rng(7), make_rng(7)
    fast.enqueue_many(range(40), a)
    for k in range(40):
        slow.enqueue(k, b)
    want, misses_with_elements = [], 0
    for _ in range(2049):
        live = slow.live_count()
        want.append(slow.dequeue(b))
        misses_with_elements += want[-1] is EMPTY and live > 0
    got = fast.dequeue_many(a, 2049)
    assert got == want
    assert misses_with_elements > 0
    assert fast.live_count() == 0
    assert sorted(x for x in got if x is not EMPTY) == list(range(40))
    _assert_same_state(fast, slow, a, b)


def test_batched_quality_run_matches_serial_run():
    # the CLI's quality run in batches against serial_run, the single-op oracle
    placed, popped = serial_run(MultiQueue(16), make_rng(21), 30_000, 20_000)
    q, rng = MultiQueue(16), make_rng(21)
    queues, stamps = q.enqueue_many(range(30_000), rng)
    got = []
    while len(got) < 20_000:
        got += [x for x in q.dequeue_many(rng, 20_000 - len(got)) if x is not EMPTY]
    assert list(zip(queues.tolist(), stamps.tolist())) == placed
    assert got == popped


def test_batches_beside_single_ops_lose_nothing():
    # one thread enqueues and dequeues in batches, the other one op at a
    # time, on 3 queues: nothing is lost or duplicated, no pop leaves a
    # queue out of stamp order (that raises), and both threads finish (no
    # deadlock). Mostly short batches, so the batch thread takes its locks
    # often.
    q = MultiQueue(3)
    a, b = thread_rngs(23, 2)
    produced: list[list] = [[], []]
    consumed: list[list] = [[], []]

    def batches():
        for r in range(3000):
            size = 1025 if r % 500 == 0 else 1 + r % 4
            items = [(0, r, k) for k in range(size)]
            q.enqueue_many(items, a)
            produced[0] += items
            consumed[0] += [x for x in q.dequeue_many(a, size) if x is not EMPTY]

    def singles():
        for step in range(20_000):
            if step % 2 == 0:
                item = (1, step)
                q.enqueue(item, b, thread=1)
                produced[1].append(item)
            else:
                x = q.dequeue(b)
                if x is not EMPTY:
                    consumed[1].append(x)

    assert run_pair(batches, singles) == []
    leftovers = q.drain()
    want = Counter(x for lane in produced for x in lane)
    got = Counter(x for lane in consumed for x in lane) + Counter(leftovers)
    assert want == got


def test_rejects_zero_queues():
    with pytest.raises(ValueError):
        MultiQueue(0)


def test_no_loss_no_duplication_single_thread():
    rng = make_rng(5)
    q = MultiQueue(8)
    n = 5000
    for k in range(n):
        q.enqueue(k, rng)
    out = []
    while True:
        e = q.dequeue(rng)
        if e is EMPTY and q.live_count() == 0:
            break
        if e is not EMPTY:
            out.append(e)
    assert Counter(out) == Counter(range(n))


def test_rank_log_schema_and_csv(tmp_path):
    placed, popped = serial_run(MultiQueue(4), make_rng(7), 50, 20)
    ranks = offline_ranks(placed, popped, 4)
    assert len(ranks) == 20
    path = tmp_path / "ranks.csv"
    MultiQueue.write_rank_csv(path, ["queues = 4"], range(20), ranks,
                              *zip(*(placed[x] for x in popped)))
    lines = path.read_text().splitlines()
    assert lines[1] == "seq,rank,queue,stamp"
    assert len(lines) == 2 + 20
    seqs = [int(line.split(",")[0]) for line in lines[2:]]
    assert seqs == list(range(20))


def test_drain_returns_everything():
    rng = make_rng(9)
    q = MultiQueue(6)
    for k in range(200):
        q.enqueue(k, rng)
    for _ in range(50):
        assert q.dequeue(rng) is not EMPTY
    rest = q.drain()
    assert q.live_count() == 0
    assert len(rest) == 150


@pytest.mark.parametrize("pop", ["dequeue", "drain"])
def test_out_of_order_pop_raises(pop):
    # the check is a raise, not an assert, so it also holds under python -O
    rng = make_rng(11)
    q = MultiQueue(1)
    q.enqueue("x", rng)
    q._last_stamp[0] = 10**9  # pretend a larger stamp already left queue 0
    with pytest.raises(RuntimeError, match="queue 0"):
        q.dequeue(rng) if pop == "dequeue" else q.drain()


def test_two_choice_dequeue_rank_quality_small():
    # single-threaded quality run at reduced scale; the acceptance suite
    # runs the full-size version
    rng = make_rng(1)
    q = MultiQueue(16)
    placed = [q.enqueue(k, rng) for k in range(20_000)]
    popped = [q.dequeue(rng) for _ in range(10_000)]
    assert EMPTY not in popped
    ranks = offline_ranks(placed, popped, 16)
    assert sum(ranks) / len(ranks) <= 2 * 16
    assert max(ranks) < 20_000


def test_mixed_concurrent_integrity():
    # several threads enqueue and dequeue concurrently; afterwards the
    # multiset of (dequeued + drained) equals the multiset enqueued
    q = MultiQueue(8)
    rngs = thread_rngs(21, 4)
    produced: list[list] = [[] for _ in range(4)]
    consumed: list[list] = [[] for _ in range(4)]

    def worker(k, rng):
        for step in range(8000):
            if step % 2 == 0:
                item = (k, step)
                q.enqueue(item, rng, thread=k)
                produced[k].append(item)
            else:
                e = q.dequeue(rng)
                if e is not EMPTY:
                    consumed[k].append(e)

    threads = [threading.Thread(target=worker, args=(k, rngs[k])) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    leftovers = q.drain()
    want = Counter(x for lane in produced for x in lane)
    got = Counter(x for lane in consumed for x in lane) + Counter(leftovers)
    assert want == got
