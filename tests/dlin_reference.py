"""The relaxation-cost recorder as it was before histories became columns:
one frozen `HistoryRecord` per op, validated, priced, enumerated and
summarised one object at a time, with the live queue keys in a Fenwick
tree. Slow, but each rule is spelled out where it applies, so tests use it
as the oracle that `twochoice.dlin` must match op for op. A record names
its kind with a string; `history` and `records_of` convert between a list
of records and the columns of op codes that `twochoice.dlin` prices. A
history's order is its ops' linearization order, and errors name an op by
its position in the list; a record's `seq` is a label that `history`
drops and `records_of` sets to the op's position. The brute force over
every admissible ordering (`enumerate_linearizations`,
`possible_cost_multisets`) lives only here: the package prices the
canonical order alone.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from twochoice import dlin
from twochoice.dlin import DEFAULT_R_VALUES, History, MalformedHistoryError, TailReport

INC, READ, ENQ, DEQ = "inc", "read", "enq", "deq"
CODES = {INC: dlin.INC, READ: dlin.READ, ENQ: dlin.ENQ, DEQ: dlin.DEQ}
FIELDS = tuple(f.name for f in fields(History))   # the column names, in order


@dataclass(frozen=True)
class HistoryRecord:
    seq: int
    kind: str
    invoke: int
    respond: int
    arg: int
    ret: int


def history(records: list[HistoryRecord]) -> History:
    """The columns of a list of records, without `seq`: `kind` as int8 op
    codes, the others int64. A kind name outside CODES may be given as its
    code."""
    cols = zip(*(astuple(r)[1:] for r in records)) if records else [()] * len(FIELDS)
    return History(**{name: (np.array([CODES.get(k, k) for k in col], dtype=np.int8)
                             if name == "kind" else np.array(col, dtype=np.int64))
                      for name, col in zip(FIELDS, cols, strict=True)})


def records_of(history: History) -> list[HistoryRecord]:
    """One record per op of a history, holding Python ints and kind names,
    with the op's position as its `seq`."""
    names = {code: name for name, code in CODES.items()}
    cols = {name: getattr(history, name).tolist() for name in FIELDS}
    cols["kind"] = [names[code] for code in cols["kind"]]
    return list(map(HistoryRecord, range(len(history)), *cols.values()))


class RankOracle:
    """Order-statistics set of live queue keys, the queue replay's state.

    Keys are the unique integer stamps in [0, capacity); a Fenwick tree
    gives O(log n) insert, delete, and rank queries, where rank(key) counts
    live keys strictly smaller than key; one flag byte per key marks it live.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._cap = capacity
        self._tree = [0] * (capacity + 1)
        self._live = bytearray(capacity)

    def _bump(self, key: int, delta: int) -> None:
        i = key + 1
        tree = self._tree
        while i <= self._cap:
            tree[i] += delta
            i += i & (-i)

    def add(self, key: int) -> None:
        if not 0 <= key < self._cap:
            raise ValueError(f"key {key} outside [0, {self._cap})")
        if self._live[key]:
            raise ValueError(f"key {key} already live")
        self._live[key] = 1
        self._bump(key, 1)

    def remove(self, key: int) -> None:
        if not 0 <= key < self._cap or not self._live[key]:
            raise KeyError(key)
        self._live[key] = 0
        self._bump(key, -1)

    def rank_of(self, key: int) -> int:
        """Number of live keys strictly smaller than a live key."""
        if not 0 <= key < self._cap or not self._live[key]:
            raise KeyError(key)
        # Fenwick prefix sum: the live keys <= key, less the key itself
        i = key + 1
        total = -1
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def validate(records: list[HistoryRecord]) -> None:
    """Every response follows its invocation, and no record follows one
    whose invocation it precedes."""
    max_invoke = None
    for k, rec in enumerate(records):
        if rec.respond <= rec.invoke:
            raise MalformedHistoryError(
                f"op {k}: response {rec.respond} before invocation {rec.invoke}"
            )
        if max_invoke is not None and rec.respond < max_invoke:
            raise MalformedHistoryError(
                f"op {k} finished before an earlier-ordered op began"
            )
        if max_invoke is None or rec.invoke > max_invoke:
            max_invoke = rec.invoke


def linearize_costs(records: list[HistoryRecord], bins: int) -> list[float]:
    """Replay the records in order and price every op against the exact
    sequential state: counter cells and the true total, or the live keys.
    The first record's kind decides which; a record of any other kind
    raises before the replay starts."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    validate(records)
    counter = not records or records[0].kind in (INC, READ)
    for k, rec in enumerate(records):
        if rec.kind not in ((INC, READ) if counter else (ENQ, DEQ)):
            raise ValueError(f"op {k}: kind {rec.kind!r} in a "
                             f"{'counter' if counter else 'queue'} history")
    out: list[float] = []
    if counter:
        x = [0] * bins
        k = 0
        for pos, rec in enumerate(records):
            if rec.kind == INC:
                cell = rec.arg
                if not 0 <= cell < bins:
                    raise ValueError(f"op {pos}: cell {cell} out of range")
                x[cell] += 1
                k += 1
                scaled = bins * x[cell]
                if rec.ret >= 0 and rec.ret != scaled:
                    raise ValueError(
                        f"op {pos}: recorded value {rec.ret} disagrees "
                        f"with replay {scaled}"
                    )
                cost = abs(scaled - k)
            else:
                cost = abs(rec.ret - k)
            out.append(float(cost))
    else:
        capacity = max((r.arg for r in records if r.kind == ENQ), default=0) + 1
        live = RankOracle(capacity=capacity)
        for rec in records:
            if rec.kind == ENQ:
                live.add(rec.arg)
                cost = 0.0
            else:
                key = rec.ret
                cost = float(live.rank_of(key))
                live.remove(key)
            out.append(cost)
    return out


def _nearest_rank(sorted_costs: list[float], percentile: float) -> float:
    n = len(sorted_costs)
    idx = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_costs[idx - 1]


def tail_report(samples: list[float], bins: int,
                r_values=DEFAULT_R_VALUES) -> TailReport:
    """Nearest-rank quantiles and exceedance of cost > R * m * ln m."""
    if not samples:
        raise ValueError("empty sample set")
    costs = sorted(samples)
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


def enumerate_linearizations(records: list[HistoryRecord], limit: int = 1_000_000):
    """Yield every ordering of the records that preserves the real-time
    order: a record may be scheduled next iff no unscheduled record
    responded before it was invoked. Raises past `limit` orderings."""
    records = sorted(records, key=lambda r: r.invoke)
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


def possible_cost_multisets(records: list[HistoryRecord], bins: int,
                            limit: int = 1_000_000) -> set[tuple[float, ...]]:
    """Every admissible ordering, re-sequenced and replayed on its own;
    counter increments drop their recorded values, and queue orderings that
    dequeue a key before its enqueue are skipped."""
    out = set()
    for ordering in enumerate_linearizations(records, limit=limit):
        reseq = [replace(r, seq=k, ret=-1 if r.kind == INC else r.ret)
                 for k, r in enumerate(ordering)]
        try:
            costs = linearize_costs(reseq, bins)
        except KeyError:
            continue
        out.add(tuple(sorted(costs)))
    return out
