"""Relaxation-cost recorder for concurrent histories.

Maps a recorded history of completed operations onto a sequential replay
and prices every operation against the exact sequential state at its
linearization point:

  counter ops   cost = |scaled cell value - true total| after the op, i.e.
                m * |x_cell - mean|; increments are priced on the cell they
                updated, reads on the value they returned. Exact counters
                (m = 1) cost 0 everywhere.
  queue ops     enqueues cost 0; a dequeue costs the rank of the removed
                key among the keys live at its linearization point. Exact
                FIFO behavior costs 0.

Both are priced from columns: one stable sort of the cells counts every
increment, and a wavelet matrix over the dense keys ("The wavelet matrix",
SPIRE 2012) ranks every dequeue in one pass per key bit.

A history lists its operations in their canonical linearization order
(the atomic write for counter updates, the internal pop for queue
dequeues), and every error names an op by its position in that order.
Costs measured this way are a valid witness of the relaxation, not the
minimum over all admissible reorderings; for small histories the
brute-force enumerator below explores every ordering that respects the
real-time order of non-overlapping operations.

A history is one `History` of five integer numpy columns, built from the
simulator's operation log (`history_from_simulation`) or from a
one-thread queue run (`history_from_serial_queue`). Each op's `kind` is an
int8 code (INC, READ, ENQ, DEQ); the codes decide whether a history is
priced as a counter or as a queue, and one history holds one of the two.
Live threads are not captured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .adversary import OpLog
from .csvfile import write_csv

INC, READ, ENQ, DEQ = map(np.int8, range(4))   # op codes: counter ops, then queue ops
KIND_NAMES = ("inc", "read", "enq", "deq")      # for error messages

FIELDS = ("kind", "invoke", "respond", "arg", "ret")
TAIL_CSV_FIELDS = ("count", "mean", "p50", "p90", "p99", "max")
DEFAULT_R_VALUES = (4.0, 6.0, 8.0)


class MalformedHistoryError(ValueError):
    """The history violates well-formedness (e.g. response before invoke)."""


@dataclass(frozen=True, eq=False)
class History:
    """Completed operations in linearization order; an op's position names it.

    One numpy column per name in FIELDS, all of one length: `kind` holds
    int8 op codes, the others int64.
    """

    kind: np.ndarray
    invoke: np.ndarray
    respond: np.ndarray
    arg: np.ndarray
    ret: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def validate(self) -> None:
        """Raise MalformedHistoryError, naming the first bad op, unless every
        response follows its invocation and no op appears after one whose
        invocation follows its response (the real-time order of
        non-overlapping operations)."""
        invoke, respond = self.invoke, self.respond
        inverted = respond <= invoke
        late = np.zeros_like(inverted)
        late[1:] = respond[1:] < np.maximum.accumulate(invoke)[:-1]
        bad = np.flatnonzero(inverted | late)
        if not len(bad):
            return
        k = bad[0]
        why = (f": response {respond[k]} before invocation {invoke[k]}" if inverted[k] else
               " finished before an earlier-ordered op began")
        raise MalformedHistoryError(f"op {k}{why}")


@dataclass(frozen=True)
class TailReport:
    """Deterministic tail summary of a cost sample set."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float
    exceedance: dict[float, float]

    def write_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        rs = sorted(self.exceedance)
        header = ",".join(TAIL_CSV_FIELDS + tuple(f"exceed_r{r:g}" for r in rs))
        row = [self.count, self.mean, self.p50, self.p90, self.p99, self.max]
        write_csv(path, header_comments, header,
                  [[value] for value in row + [self.exceedance[r] for r in rs]])


# --- cost computation ------------------------------------------------------


def linearize_costs(history: History, bins: int) -> np.ndarray:
    """Replay a history in its order and price every operation.

    The replay reconstructs the exact sequential state, so it is
    independent of any value the recording side may have computed; recorded
    return values are cross-checked against the replay where they are
    redundant (counter increments), and an inconsistency raises. The first
    op's code decides whether the history is priced as a counter or as a
    queue; an op of the other kind, or with an unknown code, raises.
    Returns the float64 cost of each op, in history order.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    history.validate()
    kind = history.kind
    queue = len(kind) > 0 and kind[0] >= ENQ
    bad = (kind < INC) | (kind > DEQ) | ((kind >= ENQ) != queue)
    if bad.any():
        k = bad.argmax()
        code = int(kind[k])
        raise ValueError(f"op {k}: " + (
            f"{KIND_NAMES[code]} op in a {'queue' if queue else 'counter'} history"
            if INC <= code <= DEQ else f"unknown op code {code}"))
    if queue:
        return _queue_costs(kind, history.arg, history.ret)
    return _counter_costs(kind, history.arg, history.ret, bins)[0]


def _counter_costs(kind, arg, ret, bins: int) -> np.ndarray:
    """Increment: |m*c - k|, c its cell's count and k the total after it.
    Read: |ret - k|. Replays one sequence, or one per row of 2-D columns; an
    error names the op by its position in its row."""
    kind, arg, ret = map(np.atleast_2d, (kind, arg, ret))
    inc = kind == INC
    cells, rets = arg[inc], ret[inc]
    outside = (cells < 0) | (cells >= bins)
    if outside.any():
        k = outside.argmax()
        raise ValueError(f"op {np.nonzero(inc)[1][k]}: cell {cells[k]} out of range")
    # a stable sort of (replay, cell) keys keeps each cell's increments in
    # replay order, so an increment's place in its key's run is the cell's
    # count after it (narrow keys: numpy radix-sorts 8- and 16-bit integers)
    keys = np.repeat(np.arange(len(inc)) * bins, np.count_nonzero(inc, axis=1)) + cells
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")
    per_key = np.bincount(keys)
    run_start = np.cumsum(per_key) - per_key   # each key's first place in `order`
    count = np.empty_like(cells)
    count[order] = np.arange(1, len(cells) + 1) - run_start[keys[order]]
    scaled = bins * count
    wrong = (rets >= 0) & (rets != scaled)
    if wrong.any():
        k = wrong.argmax()
        raise ValueError(f"op {np.nonzero(inc)[1][k]}: recorded value {rets[k]} disagrees "
                         f"with replay {scaled[k]}")
    total = np.cumsum(inc, axis=1)
    cost = np.abs(ret - total)
    cost[inc] = np.abs(scaled - total[inc])
    return cost.astype(np.float64)


def _queue_costs(kind, arg, ret) -> np.ndarray:
    """Enqueue: 0. Dequeue: how many live keys lie below its key, i.e. the
    earlier ops on smaller keys counted +1 per enqueue and -1 per dequeue,
    which a wavelet matrix over the dense keys counts for every dequeue at once."""
    n = len(kind)
    enq = kind == ENQ
    keys = np.where(enq, arg, ret)
    # narrow keys: numpy radix-sorts 8- and 16-bit integers (a negative key fails below)
    narrow = np.min_scalar_type(keys.max(initial=0)) if keys.min(initial=0) >= 0 else keys.dtype
    order = np.argsort(keys.astype(narrow), kind="stable").astype(np.int32)
    keys = keys[order]
    new_key = np.concatenate((np.ones(min(n, 1), dtype=bool), keys[1:] != keys[:-1]))
    dense = np.cumsum(new_key, dtype=np.int32) - 1
    # a key's ops, in history order, alternate enqueue, dequeue, enqueue, ...;
    # the replay stops at the first op that breaks this or has a negative key
    enq_sorted = enq[order]
    repeat = enq_sorted == np.roll(enq_sorted, 1)   # a run's first op is checked apart
    bad = np.flatnonzero(np.where(new_key, ~enq_sorted, repeat) | (keys < 0))
    if len(bad):
        at = bad[order[bad].argmin()]
        k, key = order[at], keys[at]
        why = "negative" if key < 0 else "already live" if enq[k] else "not live"
        raise (ValueError if enq[k] else KeyError)(
            f"op {k}: {'en' if enq[k] else 'de'}queue of key {key}, which is {why}")
    del keys, new_key, enq_sorted, repeat, bad
    # each op as (dense key << 1) | is_enqueue, in history order
    v = np.empty(n, dtype=np.int32)
    dense <<= 1
    v[order] = dense
    v |= enq
    del order, dense
    # every dequeue counts the ops in [start, end) of the current level's
    # order that share its key's bits so far: at first, all ops before it
    end = np.flatnonzero(~enq).astype(np.int32)
    key = v[end]
    start, rank = np.zeros_like(end), np.zeros_like(end)
    zeros = np.zeros(n + 1, dtype=np.int32)     # zeros[p]: ops in v[:p] with a 0 bit
    enqueues = np.zeros(n + 1, dtype=np.int32)  # and how many of those are enqueues
    for level in range(int(v.max(initial=0)).bit_length() - 1, 0, -1):
        bit = 1 << level
        zero = v & bit == 0
        np.cumsum(zero, out=zeros[1:])
        np.cumsum(v & (bit | 1) == 1, out=enqueues[1:])
        zs, ze = zeros[start], zeros[end]
        # where the dequeue's key has a 1 bit, the ops in range with a 0 bit
        # have smaller keys: count them, then follow the 1 bits
        up = key & bit != 0
        rank += up * (2 * (enqueues[end] - enqueues[start]) - (ze - zs))
        start = np.where(up, zeros[n] + start - zs, zs)
        end = np.where(up, zeros[n] + end - ze, ze)
        if level > 1:   # stable partition: ops with a 0 bit first
            v = np.concatenate((v.compress(zero), v.compress(~zero)))
    cost = np.zeros(n)   # enqueues cost 0
    cost[~enq] = rank
    return cost


def tail_report(costs: np.ndarray, bins: int) -> TailReport:
    """Nearest-rank quantiles and exceedance of cost > R * m * ln m, for each
    R in DEFAULT_R_VALUES, over the costs that linearize_costs returns."""
    costs = np.sort(costs)
    n = len(costs)
    if not n:
        raise ValueError("empty sample set")
    scale = bins * math.log(bins) if bins > 1 else 1.0
    # nearest rank: the ceil(p/100 * n)-th smallest cost
    p50, p90, p99 = (float(costs[max(1, math.ceil(p / 100.0 * n)) - 1]) for p in (50, 90, 99))
    return TailReport(n, math.fsum(costs.tolist()) / n, p50, p90, p99, float(costs[-1]),
                      {r: np.count_nonzero(costs > r * scale) / n for r in DEFAULT_R_VALUES})


# --- history sources -------------------------------------------------------


def history_from_simulation(log: OpLog, bins: int) -> History:
    """Convert a simulator operation log into a counter history.

    Operations are already in completion (update-event) order, which is the
    canonical linearization of the replayed run.
    """
    return History(kind=np.full(len(log), INC), invoke=log.start, respond=log.finish,
                   arg=log.updated, ret=bins * log.post_value)


def history_from_serial_queue(enqueued: Sequence[int], dequeued: Sequence[int]) -> History:
    """A one-thread queue history: an enqueue of each key in `enqueued`, then
    a dequeue returning each key in `dequeued`. Every op finishes before the
    next begins, so program order is the only linearization."""
    n, d = len(enqueued), len(dequeued)
    return History(
        kind=np.repeat(np.array((ENQ, DEQ)), (n, d)),
        invoke=np.arange(0, 2 * (n + d), 2), respond=np.arange(1, 2 * (n + d), 2),
        arg=np.concatenate((np.asarray(enqueued, dtype=np.int64), np.full(d, -1))),
        ret=np.concatenate((np.full(n, -1), np.asarray(dequeued, dtype=np.int64))))


# --- brute-force linearization enumeration (small histories) ---------------


def enumerate_linearizations(history: History, limit: int = 1_000_000
                             ) -> Iterator[list[int]]:
    """Yield every ordering that preserves the real-time order, as a list of
    the ops' positions in the history.

    An op may be scheduled next iff no unscheduled op responded before it
    was invoked. Intended for histories whose overlapping groups hold at
    most ~8 operations; raises if the enumeration would exceed `limit`
    orderings.
    """
    invoke, respond = history.invoke.tolist(), history.respond.tolist()
    produced = 0

    def extend(prefix: list[int], remaining: list[int]):
        nonlocal produced
        if not remaining:
            produced += 1
            if produced > limit:
                raise ValueError(f"more than {limit} linearizations")
            yield list(prefix)
            return
        for k, cand in enumerate(remaining):
            if all(respond[other] > invoke[cand] for i, other in enumerate(remaining) if i != k):
                prefix.append(cand)
                yield from extend(prefix, remaining[:k] + remaining[k + 1:])
                prefix.pop()

    yield from extend([], sorted(range(len(invoke)), key=invoke.__getitem__))


def possible_cost_multisets(history: History, bins: int,
                            limit: int = 1_000_000) -> set[tuple[float, ...]]:
    """Sorted cost tuples reachable over all admissible linearizations.

    Counter increments drop their recorded values before replay (a
    hypothetical order implies different intermediate cell values); queue
    orderings that would dequeue a key before its enqueue are semantically
    impossible and are skipped. Orderings are replayed from the history's
    columns reordered, one ordering per row; counter rows are priced at once.
    """
    n = len(history)
    counter = not n or history.kind[0] < ENQ
    orderings = list(enumerate_linearizations(history, limit=limit))
    order = np.array(orderings, dtype=np.int64).reshape(len(orderings), n)
    rows = {name: getattr(history, name)[order] for name in FIELDS}
    rows["ret"] = np.where(rows["kind"] == INC, -1, rows["ret"])
    out = set()
    # every ordering respects real time, so one counter replay checks them all
    for k in range(min(1, len(order)) if counter else len(order)):
        replay = History(**{name: c[k] for name, c in rows.items()})
        try:
            out.add(tuple(sorted(linearize_costs(replay, bins).tolist())))
        except KeyError:
            continue
    if counter:
        costs = _counter_costs(rows["kind"], rows["arg"], rows["ret"], bins)
        out.update(map(tuple, np.sort(costs, axis=1).tolist()))
    return out
