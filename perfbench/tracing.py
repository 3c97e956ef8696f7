"""In-memory span recorder for the benchmark's traced runs.

A span is (id, name, parent id, start ns, end ns). Each thread appends to
its own typed arrays; nothing is shared but the id counter, so recording
takes no lock. Parents come from a per-thread stack: a wrapped call's
parent is the innermost span open on its thread, and a worker thread can
adopt a span opened on the thread that started it.

The recorder knows nothing of the package: `layers.instrument` decides which
calls get a span, by swapping names for `Tracer.wrap` wrappers with
`patched` for the length of a `with` block.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from array import array
from time import perf_counter_ns

import numpy as np

#: tail percentiles tried from the top; the first with >= 10 samples beyond it is reported
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


class _Buffer:
    __slots__ = ("ids", "names", "parents", "starts", "ends", "stack")

    def __init__(self, parent: int):
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [parent]


class Tracer:
    """Collects spans from every thread plus counts noted at span boundaries."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._register = threading.Lock()
        self._ids = itertools.count(1)
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        #: (count name, id of the span open when it was noted, value)
        self.counts: list[tuple[str, int, float]] = []

    def _buffer(self, parent: int = 0) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(parent)
            self._local.buf = buf
            with self._register:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self) -> int:
        """Id of the innermost span open on this thread (0 at the root)."""
        return self._buffer().stack[-1]

    def adopt(self, parent: int) -> None:
        """Make `parent` the root of this thread's spans (call first in a worker)."""
        self._buffer(parent).stack[:] = [parent]

    def note(self, name: str, value: float) -> None:
        self.counts.append((name, self.current(), value))

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        buf = self._buffer()
        sid = next(self._ids)
        parent = buf.stack[-1]
        buf.stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = perf_counter_ns()
            buf.stack.pop()
            _append(buf, sid, nid, parent, t0, t1)

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with a span per call; `on_result(tracer, result)` may note counts."""
        nid = self.name_id(name)
        local = self._local
        ids = self._ids
        make = self._buffer

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or make()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                _append(buf, sid, nid, parent, t0, t1)
            if on_result is not None:
                stack.append(sid)
                try:
                    on_result(self, result)
                finally:
                    stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> "Spans":
        with self._register:
            bufs = list(self._buffers)
        cols = [np.concatenate([np.frombuffer(getattr(b, c), dtype=d) for b in bufs])
                if bufs else np.zeros(0, dtype=d)
                for c, d in (("ids", np.int64), ("names", np.int32), ("parents", np.int64),
                             ("starts", np.int64), ("ends", np.int64))]
        return Spans(list(self.names), *cols)


def _append(buf: _Buffer, sid: int, nid: int, parent: int, t0: int, t1: int) -> None:
    buf.ids.append(sid)
    buf.names.append(nid)
    buf.parents.append(parent)
    buf.starts.append(t0)
    buf.ends.append(t1)


class Spans:
    """Columnar view of recorded spans with the queries the metrics need."""

    def __init__(self, names, ids, name_ids, parents, starts, ends):
        self.names = names
        self.ids = ids
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends
        order = np.argsort(ids)
        self._sorted_ids = ids[order]
        self._order = order

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def name_of(self, ids: np.ndarray) -> np.ndarray:
        """Name id of each span id (-1 for the root id 0)."""
        pos = np.searchsorted(self._sorted_ids, ids)
        pos = np.clip(pos, 0, max(len(self._sorted_ids) - 1, 0))
        if len(self._sorted_ids) == 0:
            return np.full(len(ids), -1, dtype=np.int32)
        hit = self._sorted_ids[pos] == ids
        return np.where(hit, self.name_ids[self._order[pos]], -1)

    def select(self, name: str, under=None) -> np.ndarray:
        """Indices of spans called `name`; `under` is a tuple of names one of
        which the span's parent must have."""
        mask = self.name_ids == self._nid(name)
        if under is not None:
            mask &= np.isin(self.name_of(self.parents), [self._nid(u) for u in under])
        return np.flatnonzero(mask)

    def parent_name_ids(self, sids: np.ndarray) -> np.ndarray:
        """Name id of the parent of each span id."""
        pos = np.searchsorted(self._sorted_ids, sids)
        return self.name_of(self.parents[self._order[pos]])

    def durations_ns(self, idx: np.ndarray) -> np.ndarray:
        return self.ends[idx] - self.starts[idx]

    def total_s(self, idx: np.ndarray) -> float:
        return float(self.durations_ns(idx).sum()) / 1e9

    def self_ns(self, idx: np.ndarray) -> np.ndarray:
        """Duration minus the direct children's durations.

        Valid for spans whose children run one after another on the span's
        own thread, which holds for every span this is asked about."""
        dur = self.durations_ns(idx).astype(np.float64)
        sel = self.ids[idx]
        order = np.argsort(sel)
        kids = np.flatnonzero(np.isin(self.parents, sel))
        slot = order[np.searchsorted(sel[order], self.parents[kids])]
        covered = np.zeros(len(idx))
        np.add.at(covered, slot, (self.ends - self.starts)[kids])
        return np.maximum(dur - covered, 0.0)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), ids=self.ids, name_ids=self.name_ids,
                 parents=self.parents, starts=self.starts, ends=self.ends)


def per_call(durations_ns: np.ndarray) -> dict[str, float]:
    """p50, the highest ladder percentile with >= 10 samples beyond it, and n."""
    n = len(durations_ns)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    d = np.sort(durations_ns)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return {"p50": _nearest_rank(d, 50.0), "tail": _nearest_rank(d, pct),
            "tail_pct": pct, "n": n}


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    k = max(1, int(np.ceil(pct / 100.0 * len(sorted_values))))
    return float(sorted_values[k - 1])


class TimedGenerator:
    """A numpy Generator whose scalar `integers` calls are recorded as spans.

    Batched calls (with `size`) are the buffered streams' refills and go
    untimed. Children from `spawn` are timed the same way, so draws made on
    a spawned stream are recorded too.
    """

    __slots__ = ("_g", "_tracer", "_name", "_timed")

    def __init__(self, g, tracer: Tracer, name: str):
        self._g = g
        self._tracer = tracer
        self._name = name
        self._timed = tracer.wrap(name, g.integers)

    def integers(self, *args, **kwargs):
        if kwargs.get("size") is None:
            return self._timed(*args, **kwargs)
        return self._g.integers(*args, **kwargs)

    def spawn(self, n: int):
        return [TimedGenerator(g, self._tracer, self._name) for g in self._g.spawn(n)]

    def __getattr__(self, attr):
        return getattr(self._g, attr)


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
