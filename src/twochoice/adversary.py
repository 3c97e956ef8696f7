"""Deterministic simulator of the asynchronous two-choice process.

An oblivious adversary fixes an interleaving of the low-level steps of
increment operations (first read, second read, update) before the run; the
simulator then replays that schedule. Each operation draws its two bin
indices from its thread's private stream at the read events and copies the
bin weights it sees there; at the update event it increments the bin whose
copied value was smaller (ties to the lower index). Because the adversary
never sees the random choices, physically copying at the reads is
observationally equivalent to drawing everything at the update, and it
keeps the replay single threaded and reproducible.

Schedules come from two generators: one alternates stampedes (all first
reads, then all second reads, then all updates) with ops run back to back,
the other advances one op per thread a phase at a time.

Time is the global count of scheduled shared-memory events, and the
trajectory has one row per update event. An operation's contention is the
number of distinct other operations with at least one event strictly inside
its (start, finish) window, and it is `untouched` when no other operation's
event inside that window touched the bin it updated (a read touches the bin
it reads, an update the bin it increments).

Both are computed from columns after the replay, which records each op's
three event positions, and so is the trajectory, from each update's bin and
new load. A thread's ops never overlap, so its events form (read1, read2,
update) triples in position order, and a running count of each thread's
events gives the run of them inside a window; the run spans whole ops but
for its ends. `untouched` follows from each event's previous touch of the
same bin, found with one stable sort of the touched bins: the last touch of
the updated bin before the update must lie at or before the op's start, or
be the op's own second read when that read's bin was chosen, with the touch
before it at or before the start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .balance import _CHUNK_ROWS, Trajectory, potential_exponent, trajectory_from_balls
from .csvfile import write_csv
from .rng import PairStream, WordStream, schedule_rng, thread_rngs

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
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.ratio < 1:
            raise ValueError("ratio must be >= 1")
        if self.total_ops < 0:
            raise ValueError("total_ops must be >= 0")
        if self.adversary not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind: {self.adversary!r}")

    @property
    def contention_bound(self) -> int:
        """The good/bad classification threshold: ratio * threads."""
        return self.ratio * self.threads


@dataclass(frozen=True)
class Schedule:
    """A lazily generated total order of (thread, op, phase) events.

    The event order is a pure function of (kind, threads, total_ops, seed,
    block_size): it never consumes simulation randomness, which is what
    makes the adversary oblivious. `_blocks` generates serial, stampede and
    block-reset schedules, `_interleaved` round-robin and random-interleave.
    """

    kind: str
    threads: int
    total_ops: int
    seed: int = 0
    block_size: int | None = None

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind: {self.kind!r}")
        if self.block_size is not None and not (self.kind == STAMPEDE
                                                and 1 <= self.block_size <= self.threads):
            raise ValueError(f"block size {self.block_size} needs a {STAMPEDE} schedule "
                             f"and 1 <= size <= threads, got {self.kind} on {self.threads}")

    def events(self) -> Iterator[tuple[int, int, int]]:
        """Raw (thread, op, phase) tuples in schedule order."""
        if self.kind == SERIAL:
            return self._blocks(0, self.total_ops)
        if self.kind == STAMPEDE:
            return self._blocks(self.block_size or self.threads, 0)
        if self.kind == BLOCK_RESET:
            return self._blocks(self.threads, self.threads)
        if self.kind == ROUND_ROBIN:
            turn = itertools.count()
            return self._interleaved(lambda k: next(turn) % k)
        return self._interleaved(partial(WordStream(schedule_rng(self.seed)).integers, 0))

    def _blocks(self, block: int, stretch: int) -> Iterator[tuple[int, int, int]]:
        """Until the ops run out: a stampede of `block` ops, in which threads
        0..block-1 make all first reads, then all second reads, then all
        updates; then `stretch` ops back to back, op k on thread k % threads."""
        n = self.threads
        total = self.total_ops
        first = 0
        while first < total:
            mid, end = min(first + block, total), min(first + block + stretch, total)
            for phase in (READ1, READ2, UPDATE):
                for op in range(first, mid):
                    yield (op - first, op, phase)
            for op in range(mid, end):
                t = op % n
                yield (t, op, READ1)
                yield (t, op, READ2)
                yield (t, op, UPDATE)
            first = end

    def _interleaved(self, pick: Callable[[int], int]) -> Iterator[tuple[int, int, int]]:
        """One op per thread at a time, advanced one phase per visit; pick(k)
        chooses which of the k active threads moves next."""
        n = self.threads
        total = self.total_ops
        next_op = 0
        current = [-1] * n   # op id per thread, -1 when idle
        phase = [0] * n
        active = list(range(n))
        while active:
            slot = pick(len(active))
            t = active[slot]
            if current[t] < 0:
                if next_op >= total:
                    active.pop(slot)
                    continue
                current[t] = next_op
                next_op += 1
            p = phase[t]
            yield (t, current[t], p)
            if p == UPDATE:
                current[t] = -1
                phase[t] = 0
                if next_op >= total:
                    active.pop(slot)
            else:
                phase[t] = p + 1


def generate_schedule(config: SimConfig) -> Schedule:
    """Build the adversary's schedule for a config.

    The schedule derives its randomness (random-interleave only) from the
    scheduler's dedicated child stream of config.seed, so schedule shape
    and simulation choices are independent.
    """
    return Schedule(config.adversary, config.threads, config.total_ops, config.seed,
                    config.block_size)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass
class OpLog:
    """Columnar log of completed operations, in completion order."""

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
    schedule raises `ValueError`: a thread out of range, an unknown phase, a
    phase out of read1, read2, update order on its thread, an op left
    pending or missing, or an op id used twice.
    """
    if schedule is None:
        schedule = generate_schedule(config)
    if schedule.threads != config.threads:
        raise ValueError("schedule was generated for a different thread count")
    if schedule.total_ops != config.total_ops:
        raise ValueError("schedule was generated for a different op budget")

    n = config.threads
    m = config.bins
    weights = [0] * m
    # a thread draws its pairs from the first of two children of its stream,
    # the split that run_sequential makes
    next_pairs = [PairStream(rng.spawn(2)[0], m).next_pair for rng in thread_rngs(config.seed, n)]

    total = config.total_ops
    a_op, a_thread, a_start, a_finish, a_ci, a_cj, a_upd, a_post = np.zeros((8, total),
                                                                            dtype=np.int64)
    a_corr = np.zeros(total, dtype=np.bool_)
    # event positions fit int32 below 2**31 events
    a_read2 = np.zeros(total, dtype=np.int32 if 3 * total < 2**31 else np.int64)

    # per-thread pending op state: [op, start, i, j, vi, vj, read2]; vj is
    # None until the op's second read
    pend: list[list | None] = [None] * n
    done = 0
    event_idx = -1

    for t, op, phase in schedule.events():
        event_idx += 1
        if not 0 <= t < n:
            raise ValueError(f"schedule event {event_idx}: thread {t} out of range")
        if phase == READ1:
            if pend[t] is not None:
                raise ValueError(f"schedule event {event_idx}: read1 on a busy thread {t}")
            i, j = next_pairs[t]()
            pend[t] = [op, event_idx, i, j, weights[i], None, None]
        elif phase == READ2:
            cur = pend[t]
            if cur is None or cur[0] != op or cur[5] is not None:
                raise ValueError(f"schedule event {event_idx}: read2 out of order")
            cur[5] = weights[cur[3]]
            cur[6] = event_idx
        elif phase != UPDATE:
            raise ValueError(f"schedule event {event_idx}: unknown phase {phase!r}")
        else:
            cur = pend[t]
            if cur is None or cur[0] != op or cur[5] is None:
                raise ValueError(f"schedule event {event_idx}: update without both reads")
            pend[t] = None
            _, start, i, j, vi, vj, read2 = cur
            # stale comparison; ties (including i == j) to the lower index
            chosen = j if vj < vi or (vj == vi and j < i) else i
            true_min = i if (weights[i], i) <= (weights[j], j) else j
            weights[chosen] = v = weights[chosen] + 1
            k = done
            a_op[k] = op
            a_thread[k] = t
            a_start[k] = start
            a_read2[k] = read2
            a_finish[k] = event_idx
            a_ci[k] = i
            a_cj[k] = j
            a_upd[k] = chosen
            a_post[k] = v
            a_corr[k] = chosen == true_min
            done += 1

    if done != total or event_idx + 1 != 3 * total:
        raise ValueError(f"schedule completed {done} of {total} operations "
                         f"in {event_idx + 1} events")
    if (np.diff(np.sort(a_op)) == 0).any():
        raise ValueError("schedule gives two operations the same op id")
    a_cont, a_unt = _window_columns(a_thread, a_start, a_read2, a_finish, a_ci, a_cj,
                                    a_upd, n, m)
    log = OpLog(
        op=a_op, thread=a_thread, start=a_start, finish=a_finish,
        contention=a_cont, choice_i=a_ci, choice_j=a_cj,
        updated=a_upd, post_value=a_post,
        correct=a_corr, untouched=a_unt,
    )
    traj = trajectory_from_balls(m, potential_exponent(GOOD_MARGIN), total, 1,
                                 ((a_upd[lo:lo + _CHUNK_ROWS], a_post[lo:lo + _CHUNK_ROWS], None)
                                  for lo in range(0, total, _CHUNK_ROWS)))
    traj.steps = a_finish   # a row per update, labelled by its event
    return SimResult(loads=weights, log=log, trajectory=traj)


def _window_columns(thread, start, read2, finish, choice_i, choice_j, updated,
                    threads: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Contention and `untouched` of every op, from its event positions.

    The replay has checked that a thread's ops are disjoint, so its events,
    in position order, are (read1, read2, update) triples.
    """
    total = len(start)
    s, f = start.astype(read2.dtype), finish.astype(read2.dtype)

    # untouched: a stable sort of the touched bins (narrow, so numpy radix
    # sorts it) lists each bin's events in position order, which gives every
    # event the previous touch of its bin, or -1
    touched = np.empty(3 * total, dtype=np.min_scalar_type(bins - 1))
    touched[s], touched[read2], touched[f] = choice_i, choice_j, updated
    order = np.argsort(touched, kind="stable")
    firsts = np.flatnonzero(np.diff(touched[order])) + 1
    del touched
    prev = np.full(3 * total, -1, dtype=read2.dtype)
    prev[order[1:]] = order[:-1]
    prev[order[firsts]] = -1
    del order
    last = prev[f]
    # when the update's bin is the op's own read2 bin, that read is the last
    # touch before the update, and the touch before it decides
    untouched = np.where(updated == choice_j, (last == read2) & (prev[read2] <= s), last <= s)
    del prev, last

    # contention: a thread's events strictly inside (s, f) are the run
    # [lo, hi) of its event list, lo its events up to s and hi its events
    # before f; they come in triples, so the run spans ops lo // 3 to
    # (hi - 1) // 3
    owner = np.empty(3 * total, dtype=np.min_scalar_type(threads - 1))
    owner[s] = owner[read2] = owner[f] = thread
    before = np.zeros(3 * total + 1, dtype=read2.dtype)  # the thread's events before each position
    after_start = s + 1
    contention = np.full(total, -1, dtype=np.int64)  # less the op's own read2
    for t in range(threads):
        np.cumsum(owner == t, out=before[1:])
        lo, hi = before[after_start], before[f]
        contention += np.where(hi > lo, (hi - 1) // 3 - lo // 3 + 1, 0)
    return contention, untouched


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
    bound = config.contention_bound
    good = np.asarray(log.contention) <= bound
    total = len(good)
    ngood = int(good.sum())
    nbad = total - ngood
    correct = np.asarray(log.correct)
    untouched = np.asarray(log.untouched)

    def frac(mask_num, mask_den) -> float:
        d = int(mask_den.sum())
        return float((mask_num & mask_den).sum() / d) if d else float("nan")

    summary = ClassificationSummary(
        total=total,
        good=ngood,
        bad=nbad,
        fraction_good=ngood / total if total else float("nan"),
        fraction_correct_good=frac(correct, good),
        fraction_correct_bad=frac(correct, ~good),
        fraction_untouched_good=frac(untouched, good),
    )
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
        hi = min(lo + window, len(gamma))
        seg = gamma[lo:hi]
        end = float(seg[-1])
        bad = int((cont[lo:hi] > window).sum())
        out.append(WindowStats(
            index=w, first_op=lo, last_op=hi - 1,
            max_gamma=float(seg.max()), end_gamma=end,
            bad_ops=bad, flagged=end > gamma_flag_multiple * bins,
        ))
    return out
