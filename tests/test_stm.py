import itertools
import threading

import pytest

from twochoice.rng import make_rng
from twochoice.stm import (
    ABORTED,
    COMMITTED,
    ExactClock,
    RelaxedClock,
    StmBenchResult,
    Transaction,
    TxAborted,
    VersionedCell,
    default_delta,
    make_cells,
    run_stm_benchmark,
    tx_begin,
    tx_commit,
    tx_read,
    tx_write,
)


def _increment(cells, clock, *indices) -> str:
    tx = tx_begin(clock)
    try:
        for i in indices:
            v = tx_read(tx, cells[i])
            tx_write(tx, cells[i], v + 1)
    except TxAborted:
        return ABORTED
    return tx_commit(tx, clock)


# ---------------------------------------------------------------------------
# begin / read / write
# ---------------------------------------------------------------------------

def test_fresh_system_rv_zero():
    clock = ExactClock()
    assert tx_begin(clock).rv == 0


def test_serial_begins_monotone_after_commit():
    cells = make_cells(4)
    clock = ExactClock()
    rv1 = tx_begin(clock).rv
    assert _increment(cells, clock, 0) == COMMITTED
    rv2 = tx_begin(clock).rv
    assert rv2 >= rv1
    assert rv2 > 0


def test_multicounter_begin_reads_scaled_cell():
    clock = RelaxedClock(cells=8, delta=100)
    view = clock.view(make_rng(0))
    tx = tx_begin(view)
    assert tx.rv % 8 == 0
    assert tx.rv >= 0


def test_read_quiescent_cell():
    cells = make_cells(2)
    clock = ExactClock()
    tx = tx_begin(clock)
    assert tx_read(tx, cells[0]) == 0
    assert tx.status == "active"


def test_read_newer_version_aborts():
    cells = make_cells(2)
    clock = ExactClock()
    stale = tx_begin(clock)          # rv = 0
    assert _increment(cells, clock, 0) == COMMITTED  # version 1
    with pytest.raises(TxAborted):
        tx_read(stale, cells[0])
    assert stale.status == ABORTED


def test_read_locked_cell_aborts():
    cells = make_cells(2)
    clock = ExactClock()
    tx = tx_begin(clock)
    cells[0].lock.acquire()
    try:
        with pytest.raises(TxAborted):
            tx_read(tx, cells[0])
    finally:
        cells[0].lock.release()


def test_read_own_write_from_redo_log():
    cells = make_cells(2)
    clock = ExactClock()
    tx = tx_begin(clock)
    tx_write(tx, cells[0], 42)
    assert tx_read(tx, cells[0]) == 42  # no version check on own writes
    assert tx_commit(tx, clock) == COMMITTED
    assert cells[0].value == 42


def test_operations_on_finished_transaction_rejected():
    cells = make_cells(1)
    clock = ExactClock()
    tx = tx_begin(clock)
    tx_write(tx, cells[0], 1)
    assert tx_commit(tx, clock) == COMMITTED
    with pytest.raises(ValueError):
        tx_read(tx, cells[0])
    with pytest.raises(ValueError):
        tx_commit(tx, clock)


# ---------------------------------------------------------------------------
# commit
# ---------------------------------------------------------------------------

def test_single_threaded_two_cell_increment():
    cells = make_cells(8)
    clock = ExactClock()
    assert _increment(cells, clock, 2, 5) == COMMITTED
    assert cells[2].value == 1 and cells[5].value == 1
    assert cells[2].version == cells[5].version > 0


def test_serial_writes_get_increasing_versions():
    cells = make_cells(1)
    clock = ExactClock()
    assert _increment(cells, clock, 0) == COMMITTED
    v1 = cells[0].version
    assert _increment(cells, clock, 0) == COMMITTED
    v2 = cells[0].version
    assert v2 > v1
    assert cells[0].value == 2


def test_commit_aborts_on_held_write_lock():
    cells = make_cells(2)
    clock = ExactClock()
    tx = tx_begin(clock)
    v = tx_read(tx, cells[0])
    tx_write(tx, cells[0], v + 1)
    cells[0].lock.acquire()
    try:
        assert tx_commit(tx, clock) == ABORTED
    finally:
        cells[0].lock.release()
    assert cells[0].value == 0  # nothing applied


def test_commit_aborts_on_invalidated_read():
    cells = make_cells(2)
    clock = ExactClock()
    tx = tx_begin(clock)
    tx_read(tx, cells[0])            # read-set entry
    tx_write(tx, cells[1], 7)        # write elsewhere
    assert _increment(cells, clock, 0) == COMMITTED  # invalidates the read
    assert tx_commit(tx, clock) == ABORTED
    assert cells[1].value == 0


def test_read_only_transaction_commits_without_stamp():
    cells = make_cells(2)
    clock = ExactClock()
    tx = tx_begin(clock)
    tx_read(tx, cells[0])
    tx_read(tx, cells[1])
    assert tx_commit(tx, clock) == COMMITTED
    assert clock.read() == 0  # no version consumed


def test_locks_released_after_commit_and_abort():
    cells = make_cells(3)
    clock = ExactClock()
    assert _increment(cells, clock, 0, 1) == COMMITTED
    assert not cells[0].lock.locked() and not cells[1].lock.locked()
    tx = tx_begin(clock)
    v = tx_read(tx, cells[2])
    tx_write(tx, cells[2], v + 1)
    assert _increment(cells, clock, 2) == COMMITTED
    assert tx_commit(tx, clock) == ABORTED
    assert not cells[2].lock.locked()


# ---------------------------------------------------------------------------
# relaxed clock specifics
# ---------------------------------------------------------------------------

def test_default_delta_formula():
    import math
    assert default_delta(64) == int(16 * 64 * math.log(64))
    assert default_delta(1) == 16


def test_relaxed_commit_stamps_future_by_delta():
    clock = RelaxedClock(cells=4, delta=50)
    rng = make_rng(1)
    view = clock.view(rng)
    cells = make_cells(16)
    committed = 0
    k = 0
    while committed < 10:
        cell = cells[k % 16]
        k += 1
        tx = tx_begin(view)
        try:
            v = tx_read(tx, cell)
        except TxAborted:
            # the cell's stamp is still in this reader's future: advance
            # the shared counter as other committers would
            for _ in range(16):
                clock.counter.increment(rng)
            continue
        tx_write(tx, cell, v + 1)
        rv = tx.rv
        if tx_commit(tx, view) == COMMITTED:
            committed += 1
            assert cell.version >= rv + 50


def test_relaxed_view_buffered_matches_generator():
    # the view as it was before buffering, drawing straight from the
    # Generator, is the reference; about 75 000 draws cross a refill
    kinds = make_rng(5).integers(0, 2, size=50_000).tolist()
    results = []
    for buffered in (True, False):
        clock = RelaxedClock(cells=16, delta=40)
        view = clock.view(make_rng(9))
        if not buffered:
            view._rng = make_rng(9)
        stamps = []
        rv = 0
        for kind in kinds:
            if kind:
                rv = view.read()
                stamps.append(rv)
            else:
                stamps.append(view.write_version(rv, rv // 2))
        results.append((stamps, clock.counter.snapshot(), view.t_max))
    assert results[0] == results[1]


def test_relaxed_view_tmax_monotone():
    clock = RelaxedClock(cells=4, delta=10)
    view = clock.view(make_rng(2))
    seen = []
    for _ in range(50):
        view.read()
        seen.append(view.t_max)
    assert seen == sorted(seen)


def test_relaxed_versions_monotone_per_cell():
    cells = make_cells(4)
    clock = RelaxedClock(cells=8, delta=16)
    view = clock.view(make_rng(3))
    last = [0] * 4
    for k in range(200):
        i = k % 4
        tx = tx_begin(view)
        try:
            v = tx_read(tx, cells[i])
            tx_write(tx, cells[i], v + 1)
        except TxAborted:
            continue
        if tx_commit(tx, view) == COMMITTED:
            assert cells[i].version > last[i]
            last[i] = cells[i].version


# ---------------------------------------------------------------------------
# brute-force strict serializability (exact clock)
# ---------------------------------------------------------------------------

def _interleavings(step_counts):
    """All merge orders of per-transaction step sequences."""
    counts = list(step_counts)
    total = sum(counts)
    cur = []
    out = []

    def rec():
        if len(cur) == total:
            out.append(tuple(cur))
            return
        for tx_id, left in enumerate(counts):
            if left:
                counts[tx_id] -= 1
                cur.append(tx_id)
                rec()
                cur.pop()
                counts[tx_id] += 1

    rec()
    return out


def _run_schedule(scripts, schedule):
    """Drive transactions step by step, single threaded, in schedule order.

    Each script is a list of cell indices to read-modify-write, executed as
    begin, one rmw per cell, commit. Returns (committed flags, reads per
    tx, final cell values).
    """
    n_cells = 1 + max(c for script in scripts for c in script)
    cells = make_cells(n_cells)
    clock = ExactClock()
    txs = [None] * len(scripts)
    step = [0] * len(scripts)
    reads = [[] for _ in scripts]
    outcome = [None] * len(scripts)

    for tx_id in schedule:
        if outcome[tx_id] is not None:
            continue  # already aborted or committed: skip remaining steps
        k = step[tx_id]
        step[tx_id] += 1
        if k == 0:
            txs[tx_id] = tx_begin(clock)
        elif k <= len(scripts[tx_id]):
            cell = cells[scripts[tx_id][k - 1]]
            try:
                v = tx_read(txs[tx_id], cell)
            except TxAborted:
                outcome[tx_id] = ABORTED
                continue
            reads[tx_id].append(v)
            tx_write(txs[tx_id], cell, v + 1)
        else:
            outcome[tx_id] = tx_commit(txs[tx_id], clock)
    committed = [o == COMMITTED for o in outcome]
    finals = [c.value for c in cells]
    return committed, reads, finals


def _serial_outcomes(scripts, committed_ids, n_cells):
    """Every serial execution of the committed transactions."""
    out = []
    for order in itertools.permutations(committed_ids):
        cells = make_cells(n_cells)
        clock = ExactClock()
        reads = {tx_id: [] for tx_id in committed_ids}
        for tx_id in order:
            tx = tx_begin(clock)
            for c in scripts[tx_id]:
                v = tx_read(tx, cells[c])
                reads[tx_id].append(v)
                tx_write(tx, cells[c], v + 1)
            assert tx_commit(tx, clock) == COMMITTED
        out.append((reads, [c.value for c in cells]))
    return out


@pytest.mark.parametrize("scripts", [
    [[0], [0], [0]],          # three txs on one cell
    [[0, 1], [1, 0]],         # classic write-skew shape
    [[0, 1], [1, 2], [2, 0]], # three-way cycle potential
])
def test_exact_clock_strictly_serializable_bruteforce(scripts):
    n_cells = 1 + max(c for s in scripts for c in s)
    step_counts = [len(s) + 2 for s in scripts]
    serial_cache = {}
    for schedule in _interleavings(step_counts):
        committed, reads, finals = _run_schedule(scripts, schedule)
        committed_ids = tuple(k for k, ok in enumerate(committed) if ok)
        if committed_ids not in serial_cache:
            serial_cache[committed_ids] = _serial_outcomes(scripts, committed_ids, n_cells)
        ok = any(
            finals == sf and all(reads[k] == sr[k] for k in committed_ids)
            for sr, sf in serial_cache[committed_ids]
        )
        assert ok, f"schedule {schedule} not equivalent to any serial order"


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_single_thread_exact_no_aborts():
    res = run_stm_benchmark(1, 64, 0.2, clock_kind="exact", seed=1)
    assert res.aborts == 0
    assert res.commits > 0
    assert res.consistent


def test_benchmark_single_thread_relaxed_consistent():
    res = run_stm_benchmark(1, 4096, 0.2, clock_kind="multicounter", seed=2)
    assert res.consistent
    assert res.commits > 0
    assert res.delta == default_delta(64)


def test_benchmark_concurrent_conservation_oracle():
    import sys
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind in ("exact", "multicounter"):
            res = run_stm_benchmark(4, 512, 0.4, clock_kind=kind, seed=3)
            assert res.consistent, f"{kind}: sum != 2 * commits"
            assert res.commits > 0
    finally:
        sys.setswitchinterval(old)


def test_benchmark_single_object():
    res = run_stm_benchmark(2, 1, 0.2, clock_kind="exact", seed=4)
    assert res.consistent


def test_benchmark_rejects_bad_args():
    with pytest.raises(ValueError):
        run_stm_benchmark(0, 8, 0.1)
    with pytest.raises(ValueError):
        run_stm_benchmark(1, 0, 0.1)
    with pytest.raises(ValueError):
        run_stm_benchmark(1, 8, 0.1, clock_kind="sundial")
