"""Deterministic simulator of the asynchronous two-choice process.

An oblivious adversary fixes an interleaving of the low-level steps of
increment operations (first read, second read, update) before the run; the
simulator then replays that schedule. Each operation copies the weights of
its two bins at its read events, and at its update it increments the bin
whose copied value was smaller (ties to the lower index). The adversary
never sees the random choices, so they can all be drawn before the replay:
thread t's k-th op takes the k-th pair of t's own stream.

A schedule is the thread of every event in order (`Schedule.event_threads`),
and a thread runs its ops' read1, read2 and update in turn. `simulate`
checks it, draws each thread's pairs in one batch, and walks the events a
chunk at a time in one tight loop that copies at reads and compares and
increments at updates.

Time is the global count of scheduled shared-memory events, and the
trajectory has one row per update event. An operation's contention is the
number of distinct other operations with at least one event strictly inside
its (start, finish) window, and it is `untouched` when no other operation's
event inside that window touched the bin it updated (a read touches the bin
it reads, an update the bin it increments). After the replay, one pass over
each window's events counts both (`_window_columns`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .balance import (_CHUNK_ROWS, Trajectory, potential_exponent, split_keys,
                      trajectory_from_balls)
from .csvfile import write_csv
from .rng import WordStream, schedule_rng, thread_rngs

READ1, READ2, UPDATE = 0, 1, 2

SERIAL = "serial"
ROUND_ROBIN = "round-robin"
RANDOM_INTERLEAVE = "random-interleave"
STAMPEDE = "stampede"
BLOCK_RESET = "block-reset"
ADVERSARY_KINDS = (SERIAL, ROUND_ROBIN, RANDOM_INTERLEAVE, STAMPEDE, BLOCK_RESET)

OPLOG_HEADER = "op,thread,start,finish,contention,choice_i,choice_j,updated,correct"

# good-step margin used for simulator instrumentation: operations with
# contention <= ratio * threads pick the lesser bin with probability
# >= 1/2 + 1/5 in the analyzed regime
GOOD_MARGIN = 0.2

# the most events `_window_columns` gathers at once, short of one longer window
_WINDOW_EVENTS = 16 * _CHUNK_ROWS


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated run."""

    bins: int
    threads: int
    ratio: int = 16
    total_ops: int = 100_000
    adversary: str = RANDOM_INTERLEAVE
    block_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.bins < 1 or self.ratio < 1:
            raise ValueError(f"bins and ratio must be >= 1, got {self.bins} and {self.ratio}")
        generate_schedule(self)   # the schedule's rules check the rest

    @property
    def contention_bound(self) -> int:
        """The good/bad classification threshold: ratio * threads."""
        return self.ratio * self.threads


@dataclass(frozen=True)
class Schedule:
    """A total order of events, built as the column of their threads: a pure
    function of its fields that never consumes simulation randomness, which
    makes the adversary oblivious."""

    kind: str
    threads: int
    total_ops: int
    seed: int = 0
    block_size: int | None = None

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind: {self.kind!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.total_ops < 0:
            raise ValueError("total_ops must be >= 0")
        if self.block_size is not None and not (self.kind == STAMPEDE
                                                and 1 <= self.block_size <= self.threads):
            raise ValueError(f"block size {self.block_size} needs a {STAMPEDE} schedule "
                             f"and 1 <= size <= threads, got {self.kind} on {self.threads}")

    def event_threads(self) -> np.ndarray:
        """The thread of every event in schedule order, in the narrowest
        unsigned type. A thread runs its ops' read1, read2 and update in
        turn, so the column is the whole schedule."""
        n, total = self.threads, self.total_ops
        if self.kind == SERIAL:
            return self._blocks(0, total)
        if self.kind == STAMPEDE:
            return self._blocks(self.block_size or n, 0)
        if self.kind == BLOCK_RESET:
            return self._blocks(n, n)
        if self.kind == ROUND_ROBIN:
            turns = (np.arange(3 * total) % n).astype(np.min_scalar_type(n - 1))
            # after `used` picks, the turns count on from `used`
            return self._interleaved(turns, lambda used: (
                lambda k, turn=itertools.count(used): next(turn) % k))
        return self._interleaved(*self._random_picks())

    def events(self) -> Iterator[tuple[int, int, int]]:
        """(thread, op, phase) of every event in schedule order: each thread
        steps through its phases, and ops are numbered in read1 order."""
        steps, ops, started = [READ1] * self.threads, [0] * self.threads, 0
        for t in self.event_threads().tolist():
            phase = steps[t]
            if phase == READ1:
                ops[t], started = started, started + 1
            steps[t] = (phase + 1) % 3
            yield t, ops[t], phase

    def _blocks(self, block: int, stretch: int) -> np.ndarray:
        """Until the ops run out, segments of a stampede of `block` ops (all
        first reads, then all second reads, then all updates) and `stretch`
        ops back to back; an op runs on its place in its segment mod threads.
        Full segments tile one pattern; the last may be cut short."""
        n, total, size = self.threads, self.total_ops, block + stretch
        idx, thread = _index_type(total), np.min_scalar_type(n - 1)
        full, cut = divmod(total, size) if size else (0, 0)
        parts = []
        for copies, b, s in ((full, block, stretch), (1, min(block, cut), max(cut - block, 0))):
            place = np.concatenate((np.tile(np.arange(b, dtype=idx), 3),
                                    np.repeat(np.arange(b, b + s, dtype=idx), 3)))
            parts.append(np.tile((place % n).astype(thread), copies))
        return np.concatenate(parts)

    def _random_picks(self) -> tuple[np.ndarray, Callable]:
        """The 3 * total_ops picks `integers(0, threads)` of one batched call
        on the scheduler stream, and resume(used), its picker from the
        used-th pick on. numpy's batch leaves the stream where the same
        scalar calls would, so resume discards a batch of `used` picks."""
        n, seed = self.threads, self.seed
        picks = schedule_rng(seed).integers(0, n, size=3 * self.total_ops)

        def resume(used: int) -> Callable[[int], int]:
            rng = schedule_rng(seed)
            rng.integers(0, n, size=used)
            return partial(WordStream(rng).integers, 0)

        return picks.astype(np.min_scalar_type(n - 1)), resume

    def _interleaved(self, picks: np.ndarray, resume: Callable) -> np.ndarray:
        """One op per thread at a time, advanced one phase per visit. While
        every thread is active, picks[k] is the k-th visit's thread; after the
        last op starts resume(used) returns pick(k), which picks one of the k
        active threads; idle threads retire, since no op is left."""
        n, total, idx = self.threads, self.total_ops, _index_type(self.total_ops)
        started = np.cumsum(_by_thread(picks, n, idx)[3] == READ1, dtype=idx)
        # 3 * total visits start every op: a thread's k visits start ceil(k / 3)
        used = int(np.searchsorted(started, total)) + 1 if total else 0
        steps = (np.bincount(picks[:used], minlength=n) % 3).tolist()   # next phase; 0 is idle
        pick, active, tail = resume(used), list(range(n)), []
        while active:
            slot = pick(len(active))
            t = active[slot]
            if steps[t]:
                tail.append(t)
                steps[t] = (steps[t] + 1) % 3
            if not steps[t]:
                active.pop(slot)
        return np.concatenate((picks[:used], np.array(tail, dtype=picks.dtype)))


def _index_type(total_ops: int) -> type:
    return np.int32 if 3 * total_ops < 2**31 else np.int64   # event positions and op ids


def generate_schedule(config: SimConfig) -> Schedule:
    """The adversary's schedule for a config. Its randomness (random-interleave
    only) comes from the scheduler's own child stream of config.seed, so
    schedule shape and simulation choices are independent."""
    return Schedule(config.adversary, config.threads, config.total_ops, config.seed,
                    config.block_size)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass
class OpLog:
    """Columnar log of completed operations, in completion order, ops
    numbered by read1; integer columns are `_index_type` of the op count."""

    op: np.ndarray
    thread: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    contention: np.ndarray
    choice_i: np.ndarray
    choice_j: np.ndarray
    updated: np.ndarray
    post_value: np.ndarray
    correct: np.ndarray
    untouched: np.ndarray

    def __len__(self) -> int:
        return len(self.op)

    def write_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        # correct is written as 1/0, not True/False
        cols = (self.op, self.thread, self.start, self.finish, self.contention,
                self.choice_i, self.choice_j, self.updated, self.correct.astype(np.int64))
        write_csv(path, header_comments, OPLOG_HEADER, cols)


@dataclass
class SimResult:
    loads: list
    log: OpLog
    trajectory: Trajectory


def simulate(config: SimConfig, schedule: Schedule | None = None) -> SimResult:
    """Replay a schedule against fresh bins.

    Choices come from per-thread streams derived from config.seed; a fixed
    schedule with a different seed replays the same event order with
    different choices. Every update adds one to the bin it chose, and one
    trajectory row is recorded per update event.

    The replay holds the package's only schedule rules, and a malformed
    schedule raises `ValueError`: a thread out of range, or a thread whose
    events are not whole (read1, read2, update) triples, or not `total_ops`
    of them in all.
    """
    if schedule is None:
        schedule = generate_schedule(config)
    if (schedule.threads, schedule.total_ops) != (config.threads, config.total_ops):
        raise ValueError("schedule was generated for a different thread count or op budget")

    n, m, total, idx = config.threads, config.bins, config.total_ops, _index_type(config.total_ops)
    thread = schedule.event_threads()
    order, seen, head, phase = _thread_order(thread, n, total)
    # the adversary is oblivious, so thread t's k-th op takes the k-th pair of
    # t's stream's first child, the first of the two run_sequential splits off
    touched = np.zeros(len(phase), dtype=np.min_scalar_type(m - 1))   # the bin of each event
    for rng, lo, k in zip(thread_rngs(config.seed, n), head.tolist(), seen.tolist()):
        mine = order[lo:lo + k]   # the thread's events, in triples
        touched[mine[0::3]], touched[mine[1::3]] = rng.spawn(1)[0].integers(0, m, (k // 3, 2)).T
    prior = np.empty(len(phase), dtype=idx)   # the thread's previous event
    prior[order[1:]] = order[:-1]
    a_finish = np.flatnonzero(phase == UPDATE).astype(idx)
    a_read2 = prior[a_finish]
    a_start = prior[a_read2]
    a_ci, a_cj = touched[a_start].astype(idx), touched[a_read2].astype(idx)
    a_op = (np.cumsum(phase == READ1, dtype=idx) - 1)[a_start]
    a_thread = thread[a_finish].astype(idx)
    del order, prior

    a_upd, a_post, a_corr, loads = _replay(thread, phase, touched, n, m, idx)
    touched[a_finish] = a_upd
    a_cont, a_unt = _window_columns(touched, a_start, a_read2, a_finish, a_cj, a_upd)
    del thread, phase, touched
    log = OpLog(op=a_op, thread=a_thread, start=a_start, finish=a_finish, contention=a_cont,
                choice_i=a_ci, choice_j=a_cj, updated=a_upd, post_value=a_post,
                correct=a_corr, untouched=a_unt)
    traj = trajectory_from_balls(m, potential_exponent(GOOD_MARGIN), total, 1,
                                 ((a_upd[lo:lo + _CHUNK_ROWS], a_post[lo:lo + _CHUNK_ROWS], None)
                                  for lo in range(0, total, _CHUNK_ROWS)))
    traj.steps = a_finish   # a row per update, labelled by its event
    return SimResult(loads=loads, log=log, trajectory=traj)


def _by_thread(thread: np.ndarray, threads: int, idx: type) -> tuple[np.ndarray, ...]:
    """A stable order of the events by thread, each thread's event count and
    first place in it, and each event's phase (int8): its index among its
    thread's events, mod 3."""
    order = np.argsort(thread, kind="stable").astype(idx)
    seen = np.bincount(thread, minlength=threads)
    head = np.cumsum(seen) - seen
    phase = np.empty(len(order), np.int8)
    phase[order] = (np.arange(len(order), dtype=idx) - np.repeat(head.astype(idx), seen)) % 3
    return order, seen, head, phase


def _thread_order(thread, threads: int, total: int) -> tuple[np.ndarray, ...]:
    """`_by_thread` of a thread column. Raises ValueError unless every thread
    is in range and has whole triples of events, `total` of them in all."""
    events = len(thread)
    bad = np.flatnonzero((thread < 0) | (thread >= threads))
    if len(bad):
        raise ValueError(f"schedule event {bad[0]}: thread {thread[bad[0]]} out of range")
    idx = np.int32 if events < 2**31 else np.int64
    order, seen, head, phase = _by_thread(thread, threads, idx)
    if (seen % 3).any() or events != 3 * total:
        raise ValueError(f"schedule completed {(seen // 3).sum()} of {total} operations "
                         f"in {events} events")
    return order, seen, head, phase


def _replay(thread, phase, touched, threads: int, bins: int, idx: type) -> tuple:
    """Walk the events a chunk at a time against fresh bins, read e reading
    bin touched[e]. A bin's key is load * bins + bin, so the lesser key is
    the lesser load, ties to the lower index. Returns per update the bin of
    its lesser copied key, that bin's new load and whether the fresh keys
    agree, then the final loads."""
    m, rows = bins, 3 * _CHUNK_ROWS
    keys, copies, codes = list(range(m)), [0] * (2 * threads), [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(phase), rows):
        t2, ph = 2 * thread[lo:lo + rows].astype(np.int64), phase[lo:lo + rows]
        out = []
        record = out.append
        for s, b in zip(np.where(ph == UPDATE, ~t2, t2 + ph).tolist(),
                        touched[lo:lo + rows].tolist()):
            if s >= 0:
                copies[s] = keys[b]
            else:
                s = ~s
                lesser, other = copies[s], copies[s + 1]
                if other < lesser:
                    lesser, other = other, lesser
                c = lesser % m
                keys[c] = key = keys[c] + m
                record(key if key - m < keys[other % m] else ~key)
        codes.append(np.array(out, dtype=np.int64))
    code = np.concatenate(codes)
    at, load = split_keys(np.where(code >= 0, code, ~code), m)
    return at.astype(idx), load.astype(idx), code >= 0, [k // m for k in keys]


def _window_columns(touched, start, read2, finish, choice_j, updated) -> tuple:
    """Contention and `untouched` of every op, from its event positions and
    the bin every event touched, by counting the events strictly inside its
    (start, finish) window, its own read2 among them. Such an event is its
    op's first there when the op's previous event (a read2's read1, an
    update's read2; a read1 has none) is at or before start, so contention
    is that count less one. The own read2 touched choice_j, so the op is
    untouched when the events there that touched its bin number
    `choice_j == updated`. Runs of ops whose windows hold at most
    `_WINDOW_EVENTS` events, or one longer window, are gathered at a time.
    """
    prev = np.full(len(touched), -1, dtype=start.dtype)   # the op's previous event
    prev[read2], prev[finish] = start, read2
    size = finish - start - 1
    ends = np.cumsum(size, dtype=np.int64)
    contention, hits = np.empty_like(start), np.empty_like(start)
    lo = 0
    while lo < len(start):
        base = ends[lo] - size[lo]
        hi = max(int(np.searchsorted(ends, base + _WINDOW_EVENTS, "right")), lo + 1)
        run = size[lo:hi]
        heads = ends[lo:hi] - run - base   # each window's place in the run
        inside = np.repeat(start[lo:hi] + 1 - heads, run)
        inside += np.arange(len(inside))
        contention[lo:hi] = np.add.reduceat(prev[inside] <= np.repeat(start[lo:hi], run), heads)
        hits[lo:hi] = np.add.reduceat(touched[inside] == np.repeat(updated[lo:hi], run), heads)
        lo = hi
    return contention - 1, hits == (choice_j == updated)


# ---------------------------------------------------------------------------
# classification and drift reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationSummary:
    total: int
    good: int
    bad: int
    fraction_good: float
    fraction_correct_good: float
    fraction_correct_bad: float
    fraction_untouched_good: float


def classify_operations(log: OpLog, config: SimConfig) -> tuple[np.ndarray, ClassificationSummary]:
    """Label each op good (contention <= ratio*threads) or bad.

    Returns the boolean good mask plus summary fractions: how often the
    updated bin was the true lesser of the pair, split by class, and how
    often a good op's bin went untouched during the op.
    """
    good = np.asarray(log.contention) <= config.contention_bound
    total, ngood = len(good), int(good.sum())
    correct, untouched = np.asarray(log.correct), np.asarray(log.untouched)

    def frac(mask_num, mask_den) -> float:
        d = int(mask_den.sum())
        return float((mask_num & mask_den).sum() / d) if d else float("nan")

    summary = ClassificationSummary(
        total=total, good=ngood, bad=total - ngood,
        fraction_good=ngood / total if total else float("nan"),
        fraction_correct_good=frac(correct, good), fraction_correct_bad=frac(correct, ~good),
        fraction_untouched_good=frac(untouched, good))
    return good, summary


@dataclass(frozen=True)
class WindowStats:
    index: int
    first_op: int
    last_op: int
    max_gamma: float
    end_gamma: float
    bad_ops: int
    flagged: bool


def drift_report(trajectory: Trajectory, log: OpLog, window: int, bins: int,
                 gamma_flag_multiple: float) -> list[WindowStats]:
    """Per-window potential statistics over consecutive completed ops.

    The window length is the classification bound (ratio * threads), so the
    bad-op count per window checks the few-bad-ops-per-stretch property and
    end_gamma > gamma_flag_multiple * bins flags drift escapes.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    gamma = np.asarray(trajectory.gamma)
    cont = np.asarray(log.contention)
    if len(gamma) != len(cont):
        raise ValueError("trajectory and log must cover the same operations")
    out = []
    for w, lo in enumerate(range(0, len(gamma), window)):
        seg = gamma[lo:lo + window]
        out.append(WindowStats(
            index=w, first_op=lo, last_op=lo + len(seg) - 1,
            max_gamma=float(seg.max()), end_gamma=float(seg[-1]),
            bad_ops=int((cont[lo:lo + window] > window).sum()),
            flagged=float(seg[-1]) > gamma_flag_multiple * bins))
    return out
