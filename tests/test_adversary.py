import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scalar_reference import random_interleave_reference
from schedule_reference import events_reference
from sim_reference import simulate_reference

from twochoice import adversary, balance
from twochoice.adversary import (
    ADVERSARY_KINDS,
    BLOCK_RESET,
    RANDOM_INTERLEAVE,
    READ1,
    READ2,
    ROUND_ROBIN,
    SERIAL,
    STAMPEDE,
    UPDATE,
    ClassificationSummary,
    OpLog,
    Schedule,
    SimConfig,
    classify_operations,
    drift_report,
    generate_schedule,
    simulate,
)
from twochoice.balance import potential_exponent, run_sequential
from twochoice.rng import make_rng, thread_rngs


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _replay(schedule):
    """Replay a schedule on one bin, which raises unless it is well formed."""
    simulate(SimConfig(bins=1, threads=schedule.threads, total_ops=schedule.total_ops),
             schedule)


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_schedule_invariants(kind, threads):
    for ops in (0, 1, 7, 64):
        _replay(Schedule(kind=kind, threads=threads, total_ops=ops, seed=5))


def test_schedule_fuzzed_invariants():
    rng = make_rng(99)
    for _ in range(60):
        kind = ADVERSARY_KINDS[int(rng.integers(0, len(ADVERSARY_KINDS)))]
        n = int(rng.integers(1, 9))
        ops = int(rng.integers(0, 300))
        block = int(rng.integers(1, n + 1)) if kind == STAMPEDE else None
        _replay(Schedule(kind=kind, threads=n, total_ops=ops,
                         seed=int(rng.integers(0, 2**32)), block_size=block))


@settings(max_examples=60, deadline=None)
@given(threads=st.integers(1, 8), ops=st.integers(0, 2000), seed=st.integers(0, 2**64 - 1))
@example(threads=8, ops=2000, seed=1)
@example(threads=1, ops=2000, seed=2)
def test_random_interleave_matches_scalar_reference(threads, ops, seed):
    got = list(Schedule(RANDOM_INTERLEAVE, threads, ops, seed).events())
    assert got == random_interleave_reference(threads, ops, seed)


@st.composite
def _schedules(draw):
    kind = draw(st.sampled_from(ADVERSARY_KINDS))
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([16, 64])))
    block = draw(st.one_of(st.none(), st.integers(1, n))) if kind == STAMPEDE else None
    return Schedule(kind, n, draw(st.integers(0, 3000)), draw(st.integers(0, 2**64 - 1)), block)


@settings(max_examples=150, deadline=None)
@given(schedule=_schedules())
@example(schedule=Schedule(RANDOM_INTERLEAVE, 64, 5, 3))         # more threads than ops
@example(schedule=Schedule(RANDOM_INTERLEAVE, 7, 3000, 11))      # Lemire thresholds above 0
@example(schedule=Schedule(ROUND_ROBIN, 5, 13, 0))               # a cut last round
@example(schedule=Schedule(BLOCK_RESET, 3, 2000, 0))             # a cut last segment
# n = 4100 rejects the scheduler's 14th half, a pick of the batch
@example(schedule=Schedule(RANDOM_INTERLEAVE, 4100, 20, 43270))
def test_schedule_columns_match_reference(schedule):
    assert schedule.event_threads().dtype == np.min_scalar_type(schedule.threads - 1)
    assert list(schedule.events()) == list(events_reference(schedule))


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_schedule_rejects_no_threads_and_negative_ops(kind):
    # checked at construction: neither schedule could be built, and the
    # block kinds once looped forever on zero threads
    with pytest.raises(ValueError, match="threads"):
        Schedule(kind, 0, 5)
    with pytest.raises(ValueError, match="total_ops"):
        Schedule(kind, 2, -1)


# sha256 (first 16 hex digits) of the event lists over ops 0, 1, 2, 7, 64 and
# 257, seeds 0 and 9, and for stampede on up to 8 threads every block size,
# in that nesting order: pins the exact event order of every kind
EVENT_ORDER_DIGESTS = {
    ("serial", 1): "ed72e07d8f2d1340",
    ("serial", 2): "67431ee2bb7327ad",
    ("serial", 3): "96a7b9ec3e063c8d",
    ("serial", 5): "fae59261300914a5",
    ("serial", 8): "c182249e389d4dde",
    ("serial", 64): "9c38a76f49bd0938",
    ("round-robin", 1): "ed72e07d8f2d1340",
    ("round-robin", 2): "d91f7dfb9b0ec73e",
    ("round-robin", 3): "bc006f6110b87e0b",
    ("round-robin", 5): "c4363f4df2fb873c",
    ("round-robin", 8): "e852f46e0bdd922b",
    ("round-robin", 64): "27e1e41c3e601958",
    ("random-interleave", 1): "ed72e07d8f2d1340",
    ("random-interleave", 2): "412ab2bd5bf925bf",
    ("random-interleave", 3): "7cd759e38bc95ce0",
    ("random-interleave", 5): "89767e8ecb4217ae",
    ("random-interleave", 8): "3aeaee5006d2b25a",
    ("random-interleave", 64): "0fab3f9cb877eeb8",
    ("stampede", 1): "bbbfa3ca587116d6",
    ("stampede", 2): "e28b4c5849b53833",
    ("stampede", 3): "ba9c0af1a157126c",
    ("stampede", 5): "7a70809df501a489",
    ("stampede", 8): "a6256244a2495451",
    ("stampede", 64): "9c88b54257ad40c8",
    ("block-reset", 1): "ed72e07d8f2d1340",
    ("block-reset", 2): "98a97824a2301f21",
    ("block-reset", 3): "26d3c0d74bd14e99",
    ("block-reset", 5): "73db2afd7473aa17",
    ("block-reset", 8): "b38936c8fee2dc03",
    ("block-reset", 64): "5997e000287b643a",
}


@pytest.mark.parametrize("kind, threads", sorted(EVENT_ORDER_DIGESTS))
def test_schedule_event_order_is_pinned(kind, threads):
    blocks = [None] + (list(range(1, threads + 1)) if kind == STAMPEDE and threads <= 8 else [])
    digest = hashlib.sha256()
    for ops in (0, 1, 2, 7, 64, 257):
        for seed in (0, 9):
            for block in blocks:
                events = Schedule(kind, threads, ops, seed, block).events()
                digest.update(repr([tuple(map(int, e)) for e in events]).encode())
    assert digest.hexdigest()[:16] == EVENT_ORDER_DIGESTS[kind, threads]


def test_serial_schedule_is_strictly_sequential():
    sched = Schedule(kind=SERIAL, threads=3, total_ops=4)
    events = list(sched.events())
    for k in range(4):
        trio = events[3 * k: 3 * k + 3]
        assert [phase for _, _, phase in trio] == [READ1, READ2, UPDATE]
        assert len({op for _, op, _ in trio}) == 1


def test_stampede_rejects_oversized_block():
    with pytest.raises(ValueError):
        Schedule(kind=STAMPEDE, threads=4, total_ops=10, block_size=5)


@pytest.mark.parametrize("kind", [k for k in ADVERSARY_KINDS if k != STAMPEDE])
def test_block_size_rejected_for_other_kinds(kind):
    with pytest.raises(ValueError, match="block size"):
        Schedule(kind=kind, threads=4, total_ops=10, block_size=2)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Schedule(kind="chaotic", threads=2, total_ops=10)
    with pytest.raises(ValueError):
        SimConfig(bins=4, threads=2, adversary="chaotic")


def test_schedule_is_pure_function_of_seed():
    a = Schedule(kind=RANDOM_INTERLEAVE, threads=4, total_ops=100, seed=7)
    b = Schedule(kind=RANDOM_INTERLEAVE, threads=4, total_ops=100, seed=7)
    assert list(a.events()) == list(b.events())
    c = Schedule(kind=RANDOM_INTERLEAVE, threads=4, total_ops=100, seed=8)
    assert list(a.events()) != list(c.events())


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_stampede_contention_by_construction():
    # full block: every op sees the other block_size - 1 ops
    for block in (2, 3, 4):
        cfg = SimConfig(bins=64, threads=4, total_ops=4 * block,
                        adversary=STAMPEDE, block_size=block, seed=1)
        res = simulate(cfg)
        assert set(res.log.contention.tolist()) == {block - 1}


def test_serial_contention_zero():
    cfg = SimConfig(bins=64, threads=4, total_ops=50, adversary=SERIAL, seed=1)
    res = simulate(cfg)
    assert set(res.log.contention.tolist()) == {0}


def test_simulation_conservation():
    for kind in ADVERSARY_KINDS:
        cfg = SimConfig(bins=32, threads=4, total_ops=3000, adversary=kind, seed=2)
        res = simulate(cfg)
        assert sum(res.loads) == 3000


def test_serial_equivalence_with_sequential_process():
    # one thread: reads are fresh, so the replay is the two-choice process;
    # at 4 bins its base moves every ~720 ops, across three chunk edges
    ops = 3 * balance._CHUNK_ROWS + 100
    cfg = SimConfig(bins=4, threads=1, total_ops=ops, adversary=SERIAL, seed=42)
    res = simulate(cfg)  # its exponent is potential_exponent(0.2)
    rng = thread_rngs(42, 1)[0]
    traj, loads = run_sequential(4, ops, 1.0, rng=rng, snapshot_every=1,
                                 exponent=potential_exponent(0.2))
    assert loads == res.loads
    # the replay labels rows by event, the sequential run by ball
    for name in vars(traj).keys() - {"steps"}:
        assert np.array_equal(getattr(traj, name).view(np.uint64),
                              getattr(res.trajectory, name).view(np.uint64)), name


def test_oblivious_adversary_schedule_independent_of_sim_seed():
    sched = generate_schedule(SimConfig(bins=32, threads=4, total_ops=500,
                                        adversary=RANDOM_INTERLEAVE, seed=11))
    r1 = simulate(SimConfig(bins=32, threads=4, total_ops=500,
                  adversary=RANDOM_INTERLEAVE, seed=11), schedule=sched)
    r2 = simulate(SimConfig(bins=32, threads=4, total_ops=500,
                  adversary=RANDOM_INTERLEAVE, seed=999), schedule=sched)
    # same event order: identical start/finish/contention
    assert np.array_equal(r1.log.start, r2.log.start)
    assert np.array_equal(r1.log.finish, r2.log.finish)
    assert np.array_equal(r1.log.contention, r2.log.contention)
    # different simulation randomness: different choices somewhere
    assert not (np.array_equal(r1.log.choice_i, r2.log.choice_i)
                and np.array_equal(r1.log.choice_j, r2.log.choice_j))


def test_simulate_determinism():
    cfg = SimConfig(bins=32, threads=3, total_ops=2000, adversary=RANDOM_INTERLEAVE, seed=6)
    r1 = simulate(cfg)
    r2 = simulate(cfg)
    assert r1.loads == r2.loads
    assert np.array_equal(r1.log.updated, r2.log.updated)
    assert np.array_equal(r1.trajectory.gamma, r2.trajectory.gamma)


def test_simulate_rejects_mismatched_schedule():
    sched = Schedule(kind=SERIAL, threads=2, total_ops=10)
    with pytest.raises(ValueError):
        simulate(SimConfig(bins=8, threads=4, total_ops=10), schedule=sched)
    with pytest.raises(ValueError):
        simulate(SimConfig(bins=8, threads=2, total_ops=20), schedule=sched)


@dataclass(frozen=True)
class _ListedSchedule(Schedule):
    """A schedule given as the listed thread of each of its events."""

    listed: tuple = ()

    def event_threads(self):
        return np.array(self.listed, dtype=np.int64)


# thread columns for one op on one thread
@pytest.mark.parametrize("events", [
    (0,),         # read1 only
    (0, 0),       # no update
    (0,) * 4,     # a second op left pending
    (-1,) * 3,    # thread -1
    (1,) * 3,     # thread past the last
    (0,) * 6,     # two ops for a budget of one
])
def test_simulate_rejects_missing_or_repeated_read2(events):
    with pytest.raises(ValueError):
        simulate(SimConfig(bins=4, threads=1, total_ops=1),
                 schedule=_ListedSchedule(SERIAL, 1, 1, listed=events))


def test_update_uses_stale_values():
    # stampede of 2 on 2 bins: op B reads before op A updates, so B can pick
    # a bin that is no longer the lesser one; just verify stale reads are
    # recorded as read (pre-update) values
    cfg = SimConfig(bins=2, threads=2, total_ops=2000, adversary=STAMPEDE, seed=9)
    res = simulate(cfg)
    assert not bool(res.log.correct.all())  # some wrong picks must occur
    assert bool(res.log.correct.any())


def test_stampede_pair_law_is_pinned():
    # m = 2, one stampede block of 2 ops from zero loads: both ops read
    # before either updates, so each takes the lower index of its two equal
    # loads. They share a bin iff min(i0, j0) == min(i1, j1), in 10 of the 16
    # draws (5/8); taking the first choice on a tie would give 8 (1/2)
    thread = Schedule(STAMPEDE, 2, 2).event_threads()
    phase = adversary._by_thread(thread, 2, np.int64)[3]
    read1, read2 = ([np.flatnonzero((thread == t) & (phase == p))[0] for t in (0, 1)]
                    for p in (READ1, READ2))
    shared = 0
    for i0, i1, j0, j1 in itertools.product(range(2), repeat=4):
        touched = np.zeros(len(phase), dtype=np.uint8)
        touched[read1], touched[read2] = (i0, i1), (j0, j1)
        updated = adversary._replay(thread, phase, touched, 2, 2, np.int64)[0]
        shared += int(updated[0] == updated[1])
    assert shared == 10


def test_record_view_matches_columns():
    cfg = SimConfig(bins=8, threads=2, total_ops=20, adversary=ROUND_ROBIN, seed=3)
    res = simulate(cfg)
    log = res.log
    assert all(len(col) == len(log) for col in vars(log).values())
    assert bool(((log.updated == log.choice_i) | (log.updated == log.choice_j)).all())
    assert bool((log.finish > log.start).all())
    assert bool((log.contention >= 0).all())


def _assert_same_run(got, want):
    for name in vars(want.log):
        assert np.array_equal(getattr(got.log, name), getattr(want.log, name)), name
    for name in vars(want.trajectory):
        assert np.array_equal(getattr(got.trajectory, name),
                              getattr(want.trajectory, name)), name
    assert got.loads == want.loads


@st.composite
def _sim_configs(draw):
    kind = draw(st.sampled_from(ADVERSARY_KINDS))
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([16, 64])))
    return SimConfig(
        bins=draw(st.sampled_from([1, 2, 5, 64, 256])),
        threads=n,
        total_ops=draw(st.integers(0, 1500)),
        adversary=kind,
        block_size=draw(st.integers(1, n)) if kind == STAMPEDE else None,
        seed=draw(st.integers(0, 2**32)),
    )


# budgets for the window pass's runs: at 1 and 7 windows outgrow a run and
# runs end mid-sequence even in short schedules
WINDOW_BUDGETS = [1, 7, adversary._WINDOW_EVENTS]


@pytest.mark.parametrize("budget", WINDOW_BUDGETS)
@settings(max_examples=60, deadline=None)
@given(cfg=_sim_configs())
def test_simulate_matches_reference_fuzzed(budget, cfg):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "_WINDOW_EVENTS", budget)
        _assert_same_run(simulate(cfg), simulate_reference(cfg))


@pytest.mark.parametrize("kind, threads", [(STAMPEDE, 64), (RANDOM_INTERLEAVE, 4),
                                           (SERIAL, 1)])
def test_simulate_matches_reference_long_runs(kind, threads):
    cfg = SimConfig(bins=256, threads=threads, total_ops=12_288, adversary=kind, seed=12)
    _assert_same_run(simulate(cfg), simulate_reference(cfg))


@st.composite
def _hand_built_runs(draw):
    """A valid thread column whose threads' events are interleaved in
    arbitrary order: threads advance at rates up to 1000x apart, so starved
    threads hold long windows and ops finish out of start order."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
    ops = draw(st.integers(0, 150))
    left = [0] * n   # events each thread has yet to take
    for _ in range(ops):
        left[rnd.randrange(n)] += 3
    rate = [rnd.choice((0.01, 1.0, 10.0)) for _ in range(n)]
    events = []
    while any(left):
        busy = [t for t in range(n) if left[t]]
        t = rnd.choices(busy, [rate[t] for t in busy])[0]
        left[t] -= 1
        events.append(t)
    cfg = SimConfig(bins=draw(st.sampled_from([1, 2, 4])), threads=n, total_ops=ops,
                    seed=draw(st.integers(0, 2**32)))
    return cfg, _ListedSchedule(SERIAL, n, ops, listed=tuple(events))


@pytest.mark.parametrize("budget", WINDOW_BUDGETS)
@settings(max_examples=150, deadline=None)
@given(run=_hand_built_runs())
def test_simulate_matches_reference_on_hand_built_schedules(budget, run):
    cfg, schedule = run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "_WINDOW_EVENTS", budget)
        got = simulate(cfg, schedule)
        _assert_same_run(got, simulate_reference(cfg, schedule))
    assert np.array_equal(got.log.op[np.argsort(got.log.start)], np.arange(cfg.total_ops))


def test_simulate_matches_reference_on_a_window_longer_than_a_run():
    # thread 1 runs 6 000 ops inside thread 0's first op, whose window then
    # holds more events than a run of the window pass
    events = (0, *(1,) * 18_000, 0, 0)
    assert len(events) - 3 > adversary._WINDOW_EVENTS
    cfg = SimConfig(bins=4, threads=2, total_ops=6_001, seed=3)
    schedule = _ListedSchedule(SERIAL, 2, 6_001, listed=events)
    _assert_same_run(simulate(cfg, schedule), simulate_reference(cfg, schedule))


FROZEN_TOTALS = [(STAMPEDE, 64, 377_232, 3_801), (RANDOM_INTERLEAVE, 4, 21_196, 5_866),
                 (ROUND_ROBIN, 16, 90_000, 5_396), (BLOCK_RESET, 8, 21_000, 5_851),
                 (SERIAL, 4, 0, 6_000)]


# ids name kind, threads and contention total
@pytest.mark.parametrize("kind, threads, total, untouched", FROZEN_TOTALS,
                         ids=[f"{k}-{n}-{c}" for k, n, c, _ in FROZEN_TOTALS])
def test_contention_total_frozen(kind, threads, total, untouched):
    # the first two are the perfbench `sim` configs at seed 5
    cfg = SimConfig(bins=256, threads=threads, ratio=16, total_ops=6_000, adversary=kind,
                    seed=5)
    log = simulate(cfg).log
    assert (int(log.contention.sum()), int(log.untouched.sum())) == (total, untouched)


# ---------------------------------------------------------------------------
# windows: few bad ops per stretch
# ---------------------------------------------------------------------------

def _window_violations(log, window, threads) -> int:
    cont = log.contention
    worst = 0
    for lo in range(0, len(cont), window):
        bad = int((cont[lo:lo + window] > window).sum())
        worst = max(worst, bad)
    return worst


def test_windows_have_fewer_than_n_bad_ops_fuzzed():
    rng = make_rng(123)
    for _ in range(40):
        kind = ADVERSARY_KINDS[int(rng.integers(0, len(ADVERSARY_KINDS)))]
        n = int(rng.integers(2, 9))
        ratio = int(rng.integers(2, 17))
        ops = int(rng.integers(1, 6)) * ratio * n
        cfg = SimConfig(bins=int(rng.integers(1, 65)), threads=n, ratio=ratio,
                        total_ops=ops, adversary=kind,
                        seed=int(rng.integers(0, 2**32)))
        res = simulate(cfg)
        assert _window_violations(res.log, cfg.contention_bound, n) < n


# ---------------------------------------------------------------------------
# classification and drift
# ---------------------------------------------------------------------------

def test_classification_threshold():
    cfg = SimConfig(bins=8, threads=2, ratio=4, total_ops=4)
    n = 4
    log = OpLog(
        op=np.arange(n), thread=np.zeros(n, dtype=np.int64),
        start=np.arange(n), finish=np.arange(n) + 10,
        contention=np.array([0, 8, 9, 20]),  # bound is 8
        choice_i=np.zeros(n, dtype=np.int64), choice_j=np.ones(n, dtype=np.int64),
        updated=np.zeros(n, dtype=np.int64), post_value=np.ones(n, dtype=np.int64),
        correct=np.array([True, True, False, False]),
        untouched=np.array([True, False, False, False]),
    )
    good, summary = classify_operations(log, cfg)
    assert good.tolist() == [True, True, False, False]
    assert summary.good == 2 and summary.bad == 2
    assert summary.fraction_correct_good == 1.0
    assert summary.fraction_correct_bad == 0.0
    assert summary.fraction_untouched_good == 0.5


def test_serial_all_good():
    cfg = SimConfig(bins=16, threads=4, ratio=4, total_ops=200, adversary=SERIAL, seed=1)
    res = simulate(cfg)
    good, summary = classify_operations(res.log, cfg)
    assert summary.fraction_good == 1.0
    assert summary.fraction_correct_good == 1.0  # fresh reads never miss


def test_wide_regime_gap_example():
    # bins = 4 * ratio * threads at full scale: the gap stays far below
    # 6 ln m; value frozen from this process's own run under the seed
    cfg = SimConfig(bins=4096, threads=4, ratio=256, total_ops=1_000_000,
                    adversary=STAMPEDE, seed=1)
    assert cfg.bins >= 4 * cfg.ratio * cfg.threads
    res = simulate(cfg)
    worst = int(res.trajectory.gap.max())
    assert worst <= 6 * math.log(4096)
    assert worst == 11
    assert sum(res.loads) == 1_000_000


def test_untouched_probability_in_wide_regime():
    # bins = 4 * ratio * threads: good ops overwhelmingly see their bin
    # untouched; the analyzed floor is 0.7 with 0.03 statistical slack
    cfg = SimConfig(bins=256, threads=4, ratio=16, total_ops=100_000,
                    adversary=STAMPEDE, seed=3)
    assert cfg.bins >= 4 * cfg.ratio * cfg.threads
    res = simulate(cfg)
    _, summary = classify_operations(res.log, cfg)
    assert summary.fraction_good == 1.0
    assert summary.fraction_untouched_good >= 0.70 - 0.03


def test_drift_report_windows():
    cfg = SimConfig(bins=8, threads=2, ratio=4, total_ops=64, adversary=SERIAL, seed=4)
    res = simulate(cfg)
    windows = drift_report(res.trajectory, res.log, cfg.contention_bound, cfg.bins, 8.0)
    assert len(windows) == 64 // 8
    for w in windows:
        assert w.bad_ops == 0
        assert w.end_gamma <= w.max_gamma
        assert not w.flagged  # serial two-choice stays tight
    # last window ends at final op
    assert windows[-1].last_op == 63


def test_drift_report_flags_configured_multiple():
    cfg = SimConfig(bins=4, threads=1, ratio=2, total_ops=8, adversary=SERIAL, seed=0)
    res = simulate(cfg)
    windows = drift_report(res.trajectory, res.log, 2, 4, gamma_flag_multiple=1.9)
    assert all(w.flagged for w in windows)  # gamma >= 2m always


def test_oplog_csv_schema(tmp_path):
    cfg = SimConfig(bins=8, threads=2, total_ops=12, adversary=ROUND_ROBIN, seed=2)
    res = simulate(cfg)
    path = tmp_path / "ops.csv"
    res.log.write_csv(path, header_comments=["adversary = round-robin"])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "op,thread,start,finish,contention,choice_i,choice_j,updated,correct"
    assert len(lines) == 2 + 12
