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

The canonical mapping linearizes operations in the order of their recorded
sequence numbers (the atomic write for counter updates, the internal pop
for queue dequeues). Costs measured this way are a valid witness of the
relaxation, not the minimum over all admissible reorderings; for small
histories the brute-force enumerator below explores every ordering that
respects the real-time order of non-overlapping operations.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .adversary import OpLog
from .csvfile import write_csv
from .multicounter import MultiCounter
from .multiqueue import RankOracle

COUNTER = "counter"
QUEUE = "queue"

INC, READ = "inc", "read"
ENQ, DEQ = "enq", "deq"

HISTORY_HEADER = "seq,thread,kind,invoke,respond,arg,ret"
TAIL_CSV_FIELDS = ("count", "mean", "p50", "p90", "p99", "max")

DEFAULT_R_VALUES = (4.0, 6.0, 8.0)


class MalformedHistoryError(ValueError):
    """The history violates well-formedness (e.g. response before invoke)."""


@dataclass(frozen=True)
class HistoryRecord:
    seq: int
    thread: int
    kind: str
    invoke: int
    respond: int
    arg: int
    ret: int


@dataclass
class History:
    """Completed operations ordered by linearization sequence number."""

    records: list[HistoryRecord]
    source: str = "simulator"

    def __len__(self) -> int:
        return len(self.records)

    def validate(self) -> None:
        """Raise MalformedHistoryError unless the history is well formed.

        Every response must come after its invocation, and the record order
        must respect the real-time order of non-overlapping operations: no
        record may appear after one whose invocation follows its response.
        """
        max_invoke = None
        for rec in self.records:
            if rec.respond <= rec.invoke:
                raise MalformedHistoryError(
                    f"op seq={rec.seq}: response {rec.respond} before invocation {rec.invoke}"
                )
            if max_invoke is not None and rec.respond < max_invoke:
                raise MalformedHistoryError(
                    f"op seq={rec.seq} finished before an earlier-ordered op began"
                )
            if max_invoke is None or rec.invoke > max_invoke:
                max_invoke = rec.invoke


@dataclass(frozen=True)
class CostSample:
    op: int
    kind: str
    cost: float


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
        write_csv(path, header_comments, header, [row + [self.exceedance[r] for r in rs]])


# ---------------------------------------------------------------------------
# cost computation
# ---------------------------------------------------------------------------


def linearize_costs(history: History, kind: str, bins: int) -> list[CostSample]:
    """Replay a history in sequence order and price every operation.

    The replay reconstructs the exact sequential state, so it is
    independent of any value the recording side may have computed; recorded
    return values are cross-checked against the replay where they are
    redundant (counter increments), and an inconsistency raises.
    """
    if kind not in (COUNTER, QUEUE):
        raise ValueError(f"kind must be '{COUNTER}' or '{QUEUE}'")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    history.validate()
    out: list[CostSample] = []
    if kind == COUNTER:
        x = [0] * bins
        k = 0
        for rec in history.records:
            if rec.kind == INC:
                cell = rec.arg
                if not 0 <= cell < bins:
                    raise ValueError(f"op seq={rec.seq}: cell {cell} out of range")
                x[cell] += 1
                k += 1
                scaled = bins * x[cell]
                if rec.ret >= 0 and rec.ret != scaled:
                    raise ValueError(
                        f"op seq={rec.seq}: recorded value {rec.ret} disagrees "
                        f"with replay {scaled}"
                    )
                cost = abs(scaled - k)
            elif rec.kind == READ:
                cost = abs(rec.ret - k)
            else:
                raise ValueError(f"unknown counter op kind: {rec.kind!r}")
            out.append(CostSample(op=rec.seq, kind=rec.kind, cost=float(cost)))
    else:
        capacity = max((r.arg for r in history.records if r.kind == ENQ), default=0) + 1
        live = RankOracle(capacity=capacity)
        for rec in history.records:
            if rec.kind == ENQ:
                live.add(rec.arg)
                cost = 0.0
            elif rec.kind == DEQ:
                key = rec.ret
                cost = float(live.rank_of(key))
                live.remove(key)
            else:
                raise ValueError(f"unknown queue op kind: {rec.kind!r}")
            out.append(CostSample(op=rec.seq, kind=rec.kind, cost=cost))
    return out


def _nearest_rank(sorted_costs: list[float], percentile: float) -> float:
    n = len(sorted_costs)
    idx = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_costs[idx - 1]


def tail_report(samples: list[CostSample], bins: int,
                r_values: Iterable[float] = DEFAULT_R_VALUES) -> TailReport:
    """Nearest-rank quantiles and exceedance of cost > R * m * ln m."""
    if not samples:
        raise ValueError("empty sample set")
    costs = sorted(s.cost for s in samples)
    n = len(costs)
    scale = bins * math.log(bins) if bins > 1 else 1.0
    exceedance = {
        float(r): sum(1 for c in costs if c > r * scale) / n for r in r_values
    }
    return TailReport(
        count=n,
        mean=math.fsum(costs) / n,
        p50=_nearest_rank(costs, 50),
        p90=_nearest_rank(costs, 90),
        p99=_nearest_rank(costs, 99),
        max=costs[-1],
        exceedance=exceedance,
    )


# ---------------------------------------------------------------------------
# history sources
# ---------------------------------------------------------------------------


def history_from_simulation(log: OpLog, bins: int) -> History:
    """Convert a simulator operation log into a counter history.

    Operations are already in completion (update-event) order, which is the
    canonical linearization of the replayed run.
    """
    post = np.asarray(log.post_value)
    whole = post.astype(np.int64)
    if not np.array_equal(post, whole):
        raise ValueError("counter histories require unit-weight simulations")
    cols = zip(log.thread.tolist(), log.start.tolist(), log.finish.tolist(),
               log.updated.tolist(), whole.tolist())
    records = [HistoryRecord(k, thread, INC, start, finish, cell, bins * value)
               for k, (thread, start, finish, cell, value) in enumerate(cols)]
    return History(records, source="simulator")


def write_history(history: History, path, header_comments: Iterable[str] = ()) -> None:
    write_csv(path, header_comments, HISTORY_HEADER,
              ((r.seq, r.thread, r.kind, r.invoke, r.respond, r.arg, r.ret)
               for r in history.records))


def read_history(path, source: str = "file") -> History:
    records = []
    with open(path, newline="") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or line == HISTORY_HEADER:
                continue
            seq, thread, kind, invoke, respond, arg, ret = line.split(",")
            records.append(HistoryRecord(
                seq=int(seq), thread=int(thread), kind=kind,
                invoke=int(invoke), respond=int(respond),
                arg=int(arg), ret=int(ret),
            ))
    return History(records, source=source)


class HistoryRecorder:
    """Capture live-thread counter histories with per-thread append logs.

    One list per thread takes appends without shared-state contention; a
    single locked counter hands out event indices for invocations and
    responses and linearization sequence numbers for the atomic writes
    (drawn inside the cell's critical section, so sequence order agrees
    with per-cell write order). merge() sorts by sequence number.
    """

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self._logs: list[list[HistoryRecord]] = [[] for _ in range(threads)]
        self._tick = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        with self._lock:
            t = self._tick
            self._tick = t + 1
        return t

    def record_increment(self, counter: MultiCounter, rng, thread: int) -> int:
        inv = self.tick()
        cell, seq, post = counter.increment_timestamped(rng, self.tick)
        resp = self.tick()
        self._logs[thread].append(HistoryRecord(
            seq=seq, thread=thread, kind=INC, invoke=inv, respond=resp,
            arg=cell, ret=counter.cells * post,
        ))
        return cell

    def record_read(self, counter: MultiCounter, rng, thread: int) -> int:
        # single-thread / quiescent use only: the read has no critical
        # section, so its sequence number is drawn right before the read
        inv = self.tick()
        seq = self.tick()
        value = counter.read(rng)
        resp = self.tick()
        self._logs[thread].append(HistoryRecord(
            seq=seq, thread=thread, kind=READ, invoke=inv, respond=resp,
            arg=-1, ret=value,
        ))
        return value

    def merge(self) -> History:
        records = sorted(
            (r for log in self._logs for r in log), key=lambda r: r.seq
        )
        return History(list(records), source="live-threads")


# ---------------------------------------------------------------------------
# brute-force linearization enumeration (small histories)
# ---------------------------------------------------------------------------


def enumerate_linearizations(history: History, limit: int = 1_000_000
                             ) -> Iterator[list[HistoryRecord]]:
    """Yield every ordering that preserves the real-time order.

    A record may be scheduled next iff no unscheduled record responded
    before it was invoked. Intended for histories whose overlapping groups
    hold at most ~8 operations; raises if the enumeration would exceed
    `limit` orderings.
    """
    records = sorted(history.records, key=lambda r: r.invoke)
    n = len(records)
    produced = 0

    def extend(prefix: list[HistoryRecord], remaining: list[HistoryRecord]):
        nonlocal produced
        if not remaining:
            produced += 1
            if produced > limit:
                raise ValueError(f"more than {limit} linearizations")
            yield list(prefix)
            return
        for k, cand in enumerate(remaining):
            if all(other.respond > cand.invoke for i, other in enumerate(remaining) if i != k):
                prefix.append(cand)
                yield from extend(prefix, remaining[:k] + remaining[k + 1:])
                prefix.pop()

    yield from extend([], records)


def possible_cost_multisets(history: History, kind: str, bins: int,
                            limit: int = 1_000_000) -> set[tuple[float, ...]]:
    """Sorted cost tuples reachable over all admissible linearizations.

    Counter increments drop their recorded values before replay (a
    hypothetical order implies different intermediate cell values); queue
    orderings that would dequeue a key before its enqueue are semantically
    impossible and are skipped.
    """
    out = set()
    for ordering in enumerate_linearizations(history, limit=limit):
        reseq = [
            HistoryRecord(
                seq=k, thread=r.thread, kind=r.kind, invoke=r.invoke,
                respond=r.respond, arg=r.arg,
                ret=-1 if (kind == COUNTER and r.kind == INC) else r.ret,
            )
            for k, r in enumerate(ordering)
        ]
        try:
            samples = linearize_costs(History(reseq, history.source), kind, bins)
        except KeyError:
            continue
        out.add(tuple(sorted(s.cost for s in samples)))
    return out
