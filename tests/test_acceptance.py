"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s

Frozen values were produced once by the stated oracle (the deterministic
process itself under a pinned seed) and are asserted exactly alongside the
stated bounds; identical seeds must reproduce them bit for bit.
"""

import itertools
import math
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from dlin_reference import INC, HistoryRecord, history, possible_cost_multisets
from twochoice.adversary import (
    ADVERSARY_KINDS,
    BLOCK_RESET,
    SERIAL,
    STAMPEDE,
    Schedule,
    SimConfig,
    classify_operations,
    drift_report,
    generate_schedule,
    simulate,
)
from twochoice.balance import one_plus_beta_probabilities, run_sequential
from twochoice.dlin import (
    DEQ,
    history_from_serial_queue,
    history_from_simulation,
    linearize_costs,
    tail_report,
)
from twochoice.multicounter import MultiCounter
from twochoice.multiqueue import EMPTY, MultiQueue
from twochoice.rng import make_rng, thread_rngs
from twochoice.stm import run_stm_benchmark
from twochoice.timed import usable_cpu_count


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException as exc:
        label = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"\nACCEPTANCE {num:02d} {label}  {name}" +
              (f"  ({exc})" if label == "SKIP" else ""))
        raise
    print(f"\nACCEPTANCE {num:02d} PASS  {name}")


def _stress_threads() -> int:
    # the integrity and safety oracles need real interleaving; on boxes
    # with few cores, oversubscription is strictly more adversarial than
    # the literal hardware thread count
    return max(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# 1. conservation suite (exact, zero tolerance)
# ---------------------------------------------------------------------------

def test_criterion_01_conservation():
    with criterion(1, "conservation: sequential, simulator, live counter"):
        _, loads = run_sequential(64, 100_000, 1.0, rng=3, snapshot_every=10_000)
        assert sum(loads) == 100_000

        cfg = SimConfig(bins=64, threads=4, total_ops=100_000,
                        adversary=STAMPEDE, seed=3)
        res = simulate(cfg)
        assert sum(res.loads) == 100_000
        partial = np.cumsum(np.ones(len(res.log)))
        assert float(res.trajectory.mean_load[-1]) * 64 == 100_000
        assert partial[-1] == 100_000

        counter = MultiCounter(64)
        per_thread = 25_000
        rngs = thread_rngs(3, 8)

        def worker(rng):
            inc = counter.increment
            for _ in range(per_thread):
                inc(rng)

        threads = [threading.Thread(target=worker, args=(r,)) for r in rngs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.exact_total() == 8 * per_thread


# ---------------------------------------------------------------------------
# 2. sequential two-choice quality (frozen per seed)
# ---------------------------------------------------------------------------

SEQ_GAP_FROZEN = {1: 7, 2: 8, 3: 8, 4: 7, 5: 8}


def test_criterion_02_sequential_quality():
    with criterion(2, "two-choice quality: m=64, 1e6 balls, 5 seeds, gap <= 8"):
        for seed, frozen in sorted(SEQ_GAP_FROZEN.items()):
            traj, loads = run_sequential(64, 1_000_000, 1.0, rng=seed,
                                         snapshot_every=10_000)
            worst = int(traj.gap.max())
            assert worst <= 8, f"seed {seed}: gap {worst} > 8"
            assert worst == frozen, f"seed {seed}: gap {worst} != frozen {frozen}"
            assert sum(loads) == 1_000_000
            assert traj.gamma.max() <= 40 * 64  # potential stays linear in m


# ---------------------------------------------------------------------------
# 3. (1+beta) probability formula
# ---------------------------------------------------------------------------

def test_criterion_03_one_plus_beta_formula():
    with criterion(3, "(1+beta) vector: sums to 1, prefix formula, m <= 1024"):
        for beta in (0.0, 0.25, 0.5, 1.0):
            for m in range(1, 1025):
                v = one_plus_beta_probabilities(m, beta)
                assert abs(math.fsum(v) - 1.0) <= 1e-12
                prefixes = np.cumsum(v)
                k = np.arange(1, m + 1, dtype=np.float64)
                closed = (k / m) * (1.0 + beta - (k / m) * beta)
                assert np.max(np.abs(prefixes - closed)) <= 2.0 / (m * m)


# ---------------------------------------------------------------------------
# 4. divergence control
# ---------------------------------------------------------------------------

def test_criterion_04_divergence_control():
    with criterion(4, "beta=0 diverges past 4*log2(m); beta=1 does not"):
        threshold = 4 * math.log2(64)
        uniform, _ = run_sequential(64, 1_000_000, 0.0, rng=1, snapshot_every=10_000)
        assert uniform.gap.max() > threshold
        biased, _ = run_sequential(64, 1_000_000, 1.0, rng=1, snapshot_every=10_000)
        assert biased.gap.max() <= threshold


# ---------------------------------------------------------------------------
# 5. few bad operations per window, all adversaries (exact, fuzzed)
# ---------------------------------------------------------------------------

def test_criterion_05_consops_property():
    with criterion(5, "windows of C*n ops contain < n ops with contention > C*n"):
        rng = make_rng(2024)
        checked = 0
        for kind in ADVERSARY_KINDS:
            for n in (2, 4, 8):
                for ratio in (4, 16):
                    for _ in range(34):
                        window = ratio * n
                        ops = window * int(rng.integers(1, 4))
                        seed = int(rng.integers(0, 2**32))
                        block = (int(rng.integers(1, n + 1))
                                 if kind == STAMPEDE else None)
                        sched = Schedule(kind=kind, threads=n, total_ops=ops,
                                         seed=seed, block_size=block)
                        cfg = SimConfig(bins=16, threads=n, ratio=ratio,
                                        total_ops=ops, adversary=kind,
                                        block_size=block, seed=seed)
                        res = simulate(cfg, schedule=sched)
                        cont = res.log.contention
                        for lo in range(0, ops, window):
                            bad = int((cont[lo:lo + window] > window).sum())
                            assert bad < n, (
                                f"{kind} n={n} C={ratio} seed={seed}: "
                                f"window at {lo} has {bad} bad ops")
                        checked += 1
        assert checked == len(ADVERSARY_KINDS) * 3 * 2 * 34  # 1020 schedules


# ---------------------------------------------------------------------------
# 6. untouched-bin statistic for good operations
# ---------------------------------------------------------------------------

def test_criterion_06_untouched_statistic():
    with criterion(6, "Pr[updated bin untouched | good] >= 0.67 at m = 4*C*n"):
        cfg = SimConfig(bins=256, threads=4, ratio=16, total_ops=100_000,
                        adversary=STAMPEDE, seed=3)
        assert cfg.bins >= 4 * cfg.ratio * cfg.threads
        res = simulate(cfg)
        good, summary = classify_operations(res.log, cfg)
        assert summary.fraction_good == 1.0
        assert summary.fraction_untouched_good >= 0.70 - 0.03, (
            f"untouched fraction {summary.fraction_untouched_good:.4f}")


# ---------------------------------------------------------------------------
# 7. asynchronous gap and windowed potential (frozen per seed)
# ---------------------------------------------------------------------------

ASYNC_GAP_FROZEN = {
    STAMPEDE: {1: 11, 2: 11, 3: 11, 4: 10, 5: 12},
    BLOCK_RESET: {1: 11, 2: 11, 3: 11, 4: 10, 5: 12},
}
GAMMA_WINDOW_MULTIPLE = 4.0  # frozen envelope; observed end-of-window max 2.0004


def test_criterion_07_asynchronous_gap():
    with criterion(7, "async runs: max gap <= 6 ln m, window-end gamma <= K*m"):
        bound = 6 * math.log(256)
        for kind, per_seed in sorted(ASYNC_GAP_FROZEN.items()):
            for seed, frozen in sorted(per_seed.items()):
                cfg = SimConfig(bins=256, threads=4, ratio=16,
                                total_ops=1_000_000, adversary=kind, seed=seed)
                res = simulate(cfg)
                worst = int(res.trajectory.gap.max())
                assert worst <= bound, f"{kind} seed {seed}: gap {worst}"
                assert worst == frozen, (
                    f"{kind} seed {seed}: gap {worst} != frozen {frozen}")
                windows = drift_report(res.trajectory, res.log,
                                       cfg.contention_bound, cfg.bins,
                                       GAMMA_WINDOW_MULTIPLE)
                assert all(not w.flagged for w in windows), (
                    f"{kind} seed {seed}: window-end gamma escaped "
                    f"{GAMMA_WINDOW_MULTIPLE} * m")
                assert all(w.bad_ops < cfg.threads for w in windows)


# ---------------------------------------------------------------------------
# 8. relaxed queue rank quality (frozen per seed)
# ---------------------------------------------------------------------------

QUEUE_RANK_FROZEN = {1: (52.653508, 210), 2: (52.285756, 209)}


def test_criterion_08_multiqueue_rank():
    with criterion(8, "queue ranks: mean <= 2m, p99 <= 8 m ln m (m=64)"):
        p99_bound = 8 * 64 * math.log(64)
        for seed, (frozen_mean, frozen_p99) in sorted(QUEUE_RANK_FROZEN.items()):
            rng = make_rng(seed)  # as `queue --mode quality` draws
            q = MultiQueue(64)
            _, stamps = q.enqueue_many(range(1_000_000), rng)
            got = q.dequeue_many(rng, 500_000)
            assert all(x is not EMPTY for x in got)
            popped = stamps[got]
            # priced offline: program order is this one-thread run's linearization
            hist = history_from_serial_queue(stamps, popped)
            ranks = linearize_costs(hist, 64)[hist.kind == DEQ].tolist()
            mean = sum(ranks) / len(ranks)
            p99 = sorted(ranks)[max(1, math.ceil(0.99 * len(ranks))) - 1]
            assert mean <= 2 * 64, f"seed {seed}: mean rank {mean}"
            assert p99 <= p99_bound, f"seed {seed}: p99 {p99}"
            assert mean == pytest.approx(frozen_mean, abs=1e-9)
            assert p99 == frozen_p99


# ---------------------------------------------------------------------------
# 9. relaxed queue integrity under live threads
# ---------------------------------------------------------------------------

def test_criterion_09_multiqueue_integrity():
    with criterion(9, "queue integrity: 10 s mixed load, no loss/dup/order"):
        threads = _stress_threads()
        q = MultiQueue(64)
        rngs = thread_rngs(17, threads)
        produced = [[] for _ in range(threads)]
        consumed = [[] for _ in range(threads)]
        stop = threading.Event()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)

        def worker(k):
            rng = rngs[k]
            step = 0
            while not stop.is_set():
                if step % 2 == 0:
                    item = (k, step)
                    q.enqueue(item, rng, thread=k)
                    produced[k].append(item)
                else:
                    got = q.dequeue(rng)
                    if got is not EMPTY:
                        consumed[k].append(got)
                step += 1

        try:
            workers = [threading.Thread(target=worker, args=(k,))
                       for k in range(threads)]
            for w in workers:
                w.start()
            stop.wait(10.0)
            stop.set()
            for w in workers:
                w.join()
        finally:
            sys.setswitchinterval(old_interval)
        leftovers = q.drain()  # also re-checks per-queue pop order
        want = Counter(x for lane in produced for x in lane)
        got = Counter(x for lane in consumed for x in lane) + Counter(leftovers)
        assert want == got, "elements lost or duplicated"
        assert sum(len(lane) for lane in produced) > 0


# ---------------------------------------------------------------------------
# 10. transactional safety oracle (both clocks, exact)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stm_grid():
    threads = _stress_threads()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    grid = {}
    try:
        for objects in (10_000, 100_000):
            for kind in ("exact", "multicounter"):
                runs = [
                    run_stm_benchmark(threads, objects, 1.0, clock_kind=kind,
                                      seed=100 + rep)
                    for rep in range(10)
                ]
                grid[(objects, kind)] = runs
    finally:
        sys.setswitchinterval(old_interval)
    return grid


def test_criterion_10_stm_safety_oracle(stm_grid):
    with criterion(10, "stm safety: sum(cells) == 2 * commits, every run"):
        for (objects, kind), runs in sorted(stm_grid.items()):
            for rep, res in enumerate(runs):
                assert res.consistent, (
                    f"objects={objects} clock={kind} rep={rep}: oracle tripped")
                assert res.commits > 0


# ---------------------------------------------------------------------------
# 11. scaling direction and abort-rate knee (direction gated on hardware)
# ---------------------------------------------------------------------------

def test_criterion_11_stm_scaling_direction():
    with criterion(11, "stm throughput direction at >= 8 hardware threads"):
        cpus = usable_cpu_count()   # the affinity mask, not the host's count
        if cpus < 8:
            pytest.skip(
                f"direction clause requires >= 8 hardware threads, process may use {cpus}: "
                "with no parallelism the relaxed clock only adds per-op work")
        threads = max(8, cpus)
        relaxed = [run_stm_benchmark(threads, 100_000, 1.0,
                                     clock_kind="multicounter", seed=300 + rep)
                   for rep in range(5)]
        exact = [run_stm_benchmark(threads, 100_000, 1.0,
                                   clock_kind="exact", seed=300 + rep)
                 for rep in range(5)]
        mean = lambda rs: sum(r.commits_per_sec for r in rs) / len(rs)
        assert mean(relaxed) >= mean(exact)


def test_criterion_11_stm_abort_knee(stm_grid):
    with criterion(11, "stm abort-rate knee: relaxed clock, 10K vs 100K objects"):
        rate = lambda key: (
            sum(r.aborts_per_commit for r in stm_grid[key]) / len(stm_grid[key]))
        small = rate((10_000, "multicounter"))
        large = rate((100_000, "multicounter"))
        assert small > large, f"no knee: {small:.4f} <= {large:.4f}"


# ---------------------------------------------------------------------------
# 12. relaxation-cost recorder
# ---------------------------------------------------------------------------

SIM_COST_P99_FROZEN = 155.0


def test_criterion_12_cost_recorder():
    with criterion(12, "cost recorder: serial zeros, sim p99, brute force"):
        # serial histories cost zero, exactly
        serial_counter = history([
            HistoryRecord(seq=k, kind=INC, invoke=2 * k, respond=2 * k + 1, arg=0, ret=-1)
            for k in range(100)
        ])
        assert not linearize_costs(serial_counter, 1).any()
        records = []
        t = 0
        for k in range(50):
            records.append(HistoryRecord(seq=k, kind="enq", invoke=t, respond=t + 1,
                                         arg=k, ret=-1))
            t += 2
        for k in range(50):
            records.append(HistoryRecord(seq=50 + k, kind="deq", invoke=t, respond=t + 1,
                                         arg=-1, ret=k))
            t += 2
        assert not linearize_costs(history(records), 1).any()

        # simulator counter run: p99 within 6 m ln m, frozen per seed
        cfg = SimConfig(bins=64, threads=1, total_ops=1_000_000,
                        adversary=SERIAL, seed=1)
        res = simulate(cfg)
        costs = linearize_costs(history_from_simulation(res.log, 64), 64)
        rep = tail_report(costs, 64)
        assert rep.p99 <= 6 * 64 * math.log(64)
        assert rep.p99 == SIM_COST_P99_FROZEN
        assert rep.exceedance[8.0] <= 1e-3

        # brute force (the object oracle's): permuting overlapping ops never
        # changes the set of reachable cost multisets (8 mutually
        # overlapping increments)
        base = [
            HistoryRecord(seq=k, kind=INC, invoke=k, respond=100 + k, arg=k % 3, ret=-1)
            for k in range(8)
        ]
        reference = possible_cost_multisets(base, 3)
        swapped = [base[3], base[1], base[2], base[0], base[7], base[5], base[6], base[4]]
        reseq = [
            HistoryRecord(seq=k, kind=r.kind, invoke=r.invoke, respond=r.respond,
                          arg=r.arg, ret=-1)
            for k, r in enumerate(swapped)
        ]
        assert possible_cost_multisets(reseq, 3) == reference
        assert len(reference) >= 1
