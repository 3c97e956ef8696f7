from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlin_reference as reference
from dlin_reference import DEQ, ENQ, INC, READ, HistoryRecord, history
from twochoice.adversary import ADVERSARY_KINDS, SERIAL, STAMPEDE, SimConfig, simulate
from twochoice.dlin import (
    MalformedHistoryError,
    enumerate_linearizations,
    history_from_simulation,
    linearize_costs,
    possible_cost_multisets,
    tail_report,
)


def _rec(seq, kind, invoke, respond, arg=-1, ret=-1):
    return HistoryRecord(seq=seq, kind=kind, invoke=invoke, respond=respond, arg=arg, ret=ret)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_response_before_invocation_rejected():
    h = history([_rec(0, INC, invoke=5, respond=3, arg=0)])
    with pytest.raises(MalformedHistoryError, match="^op 0: response 3 before invocation 5"):
        linearize_costs(h, 1)


def test_real_time_order_violation_rejected():
    # op 1 finished (respond=2) before op 0 started (invoke=3), yet it is
    # ordered after op 0
    h = history([
        _rec(0, INC, invoke=3, respond=4, arg=0),
        _rec(1, INC, invoke=1, respond=2, arg=0),
    ])
    with pytest.raises(MalformedHistoryError, match="^op 1 finished"):
        h.validate()


def test_wellformed_overlapping_history_passes():
    h = history([
        _rec(0, INC, invoke=0, respond=5, arg=0),
        _rec(1, INC, invoke=2, respond=7, arg=0),
        _rec(2, INC, invoke=6, respond=9, arg=0),
    ])
    h.validate()


# ---------------------------------------------------------------------------
# counter costs
# ---------------------------------------------------------------------------

def test_serial_exact_counter_costs_zero():
    # m = 1: the counter is exact, every op costs 0
    records = [_rec(k, INC, invoke=2 * k, respond=2 * k + 1, arg=0) for k in range(50)]
    costs = linearize_costs(history(records), 1)
    assert not costs.any()


def test_counter_read_cost_is_distance_to_truth():
    records = [
        _rec(0, INC, invoke=0, respond=1, arg=0),
        _rec(1, INC, invoke=2, respond=3, arg=0),
        _rec(2, READ, invoke=4, respond=5, arg=-1, ret=4),  # true total is 2
    ]
    costs = linearize_costs(history(records), 2)
    assert costs[2] == 2.0


def test_counter_increment_cost_matches_definition():
    # m=2, both increments land in cell 0: after the second, the scaled
    # cell reads 4 while the truth is 2
    records = [
        _rec(0, INC, invoke=0, respond=1, arg=0),
        _rec(1, INC, invoke=2, respond=3, arg=0),
    ]
    costs = linearize_costs(history(records), 2)
    assert costs.tolist() == [1.0, 2.0]


def test_counter_replay_crosschecks_recorded_values():
    records = [_rec(0, INC, invoke=0, respond=1, arg=0, ret=999)]
    with pytest.raises(ValueError):
        linearize_costs(history(records), 2)


def test_cost_zero_iff_sequentially_exact():
    # the only zero-cost counter increments are those whose updated cell
    # lands exactly on the mean
    records = [
        _rec(0, INC, invoke=0, respond=1, arg=0),   # cell0=1, k=1, m*x=2 -> cost 1
        _rec(1, INC, invoke=2, respond=3, arg=1),   # cell1=1, k=2, m*x=2 -> cost 0
        _rec(2, INC, invoke=4, respond=5, arg=0),   # cell0=2, k=3, m*x=4 -> cost 1
    ]
    costs = linearize_costs(history(records), 2)
    assert costs.tolist() == [1.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# queue costs
# ---------------------------------------------------------------------------

def test_serial_exact_queue_ranks_zero():
    records = []
    t = 0
    for k in range(10):
        records.append(_rec(2 * k, ENQ, invoke=t, respond=t + 1, arg=k))
        t += 2
    for k in range(10):
        records.append(_rec(20 + k, DEQ, invoke=t, respond=t + 1, ret=k))
        t += 2
    costs = linearize_costs(history(records), 1)
    assert not costs.any()


def test_queue_rank_cost():
    records = [
        _rec(0, ENQ, invoke=0, respond=1, arg=5),
        _rec(1, ENQ, invoke=2, respond=3, arg=1),
        _rec(2, ENQ, invoke=4, respond=5, arg=9),
        _rec(3, DEQ, invoke=6, respond=7, ret=9),  # two live keys below
    ]
    costs = linearize_costs(history(records), 4)
    assert costs[3] == 2.0


def test_queue_unknown_key_rejected():
    records = [_rec(0, DEQ, invoke=0, respond=1, ret=3)]
    with pytest.raises(KeyError):
        linearize_costs(history(records), 2)


def _serial_queue(ops):
    """One record per (kind, key), each op finishing before the next begins."""
    return history([_rec(k, kind, invoke=2 * k, respond=2 * k + 1,
                         **({"arg": key} if kind == ENQ else {"ret": key}))
                    for k, (kind, key) in enumerate(ops)])


def test_queue_costs_depend_only_on_key_order():
    # stamps far beyond any dense table: priced as their ranks among the keys
    rng = np.random.default_rng(5)
    keys = np.sort(rng.choice(2**40, 300, replace=False))
    keys[-1] = 2**40
    ops = [(ENQ, k) for k in rng.permutation(300)]
    ops += [(DEQ, k) for k in rng.permutation(300)[:200]]
    ops += [(ENQ, k) for k in rng.permutation(300) if (DEQ, k) in ops[300:]]
    sparse = linearize_costs(_serial_queue([(kind, int(keys[k])) for kind, k in ops]), 8)
    dense = linearize_costs(_serial_queue(ops), 8)
    assert sparse.any()
    assert sparse.tolist() == dense.tolist()


@pytest.mark.parametrize("ops, error, pos", [
    ([(ENQ, 4), (ENQ, 2), (ENQ, 4)], ValueError, 2),             # enqueue of a live key
    ([(ENQ, 4), (DEQ, 4), (DEQ, 4)], KeyError, 2),               # dequeue of a popped key
    ([(ENQ, 4), (DEQ, 7), (ENQ, 7)], KeyError, 1),               # dequeue before its enqueue
    ([(ENQ, 4), (ENQ, -3)], ValueError, 1),                      # negative enqueue
    ([(ENQ, 4), (DEQ, -1)], KeyError, 1),                        # negative dequeue
    ([(ENQ, 4), (DEQ, 5), (ENQ, -3)], KeyError, 1),              # a later negative key
    ([(ENQ, -3), (DEQ, 5)], ValueError, 0),                      # an earlier negative key
    ([(ENQ, 4), (ENQ, 4), (DEQ, 9)], ValueError, 1),             # the first of two bad ops
    # keys a float cannot tell apart, beside a negative key
    ([(ENQ, 2**62), (ENQ, 2**62 + 1), (DEQ, 2**62), (ENQ, -1)], ValueError, 3),
])
def test_queue_replay_rejects_first_bad_op(ops, error, pos):
    with pytest.raises(error, match=f"op {pos}:"):
        linearize_costs(_serial_queue(ops), 2)


# ---------------------------------------------------------------------------
# op codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kinds, label", [
    ((INC, READ, ENQ, INC), 12),   # a queue op in a counter history
    ((ENQ, INC, DEQ), 11),         # a counter op in a queue history
    ((INC, 4), 11),                # codes past DEQ or below INC
    ((ENQ, -1), 11),
    ((4, INC), 10),
    ((-1, ENQ), 10),
])
def test_pricing_rejects_mixed_or_unknown_op_codes(kinds, label):
    # the first op's code decides the family; the first op outside it is
    # named by its position, not by the label (position + 10) of its record
    records = [_rec(10 + k, kind, invoke=2 * k, respond=2 * k + 1, arg=0, ret=0)
               for k, kind in enumerate(kinds)]
    with pytest.raises(ValueError, match=f"op {label - 10}:"):
        linearize_costs(history(records), 2)
    with pytest.raises(ValueError, match=f"op {label - 10}:"):
        reference.linearize_costs(records, 2)


def test_empty_history_costs_nothing():
    costs = linearize_costs(history([]), 4)
    assert type(costs) is np.ndarray and costs.dtype == np.float64 and len(costs) == 0


# ---------------------------------------------------------------------------
# tail report
# ---------------------------------------------------------------------------

def test_tail_report_all_zero():
    rep = tail_report(np.zeros(10), 8)
    assert rep.p50 == rep.p90 == rep.p99 == rep.max == 0.0
    assert all(v == 0.0 for v in rep.exceedance.values())


def test_tail_report_nearest_rank_rule():
    rep = tail_report(np.arange(100.0), 8)
    assert rep.p50 == 49.0  # nearest-rank: ceil(0.5 * 100) = 50th value
    assert rep.p90 == 89.0
    assert rep.p99 == 98.0
    assert rep.max == 99.0
    assert rep.count == 100


def test_tail_report_exceedance():
    # m=1: scale collapses to 1, so exceedance counts cost > R
    rep = tail_report(np.arange(10.0), 1)
    assert rep.exceedance[4.0] == 0.5


def test_tail_report_rejects_empty():
    with pytest.raises(ValueError):
        tail_report(np.zeros(0), 8)


def test_tail_report_csv(tmp_path):
    rep = tail_report(np.arange(5.0), 4)
    path = tmp_path / "tail.csv"
    rep.write_csv(path, header_comments=["bins = 4"])
    lines = path.read_text().splitlines()
    assert lines[1] == "count,mean,p50,p90,p99,max,exceed_r4,exceed_r6,exceed_r8"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# simulator histories
# ---------------------------------------------------------------------------

def test_simulator_history_replay_consistency():
    cfg = SimConfig(bins=16, threads=2, total_ops=2000, adversary=STAMPEDE, seed=4)
    res = simulate(cfg)
    hist = history_from_simulation(res.log, 16)
    hist.validate()
    costs = linearize_costs(hist, 16)
    assert len(costs) == 2000
    assert (costs >= 0).all()


def test_simulator_history_matches_per_element_conversion():
    cfg = SimConfig(bins=16, threads=4, total_ops=3000, adversary=STAMPEDE, seed=5)
    log = simulate(cfg).log
    want = [
        HistoryRecord(seq=k, kind=INC, invoke=int(log.start[k]),
                      respond=int(log.finish[k]), arg=int(log.updated[k]),
                      ret=16 * int(log.post_value[k]))
        for k in range(len(log))
    ]
    got = reference.records_of(history_from_simulation(log, 16))
    assert got == want
    assert all(type(v) is int for r in got[:5] for v in (r.invoke, r.arg, r.ret))


def test_simulator_counter_tail_small():
    cfg = SimConfig(bins=64, threads=1, total_ops=100_000, adversary=SERIAL, seed=1)
    res = simulate(cfg)
    costs = linearize_costs(history_from_simulation(res.log, 64), 64)
    rep = tail_report(costs, 64)
    import math
    assert rep.p99 <= 6 * 64 * math.log(64)
    assert rep.exceedance[8.0] <= 1e-3


# ---------------------------------------------------------------------------
# brute-force linearizations
# ---------------------------------------------------------------------------

def test_enumerate_linearizations_counts():
    # two overlapping ops: both orders; a third disjoint op stays last
    h = history([
        _rec(0, INC, invoke=0, respond=10, arg=0),
        _rec(1, INC, invoke=1, respond=11, arg=1),
        _rec(2, INC, invoke=20, respond=21, arg=0),
    ])
    orders = list(enumerate_linearizations(h))
    assert len(orders) == 2
    assert all(o[2] == 2 for o in orders)


def test_enumerate_respects_real_time():
    h = history([
        _rec(0, INC, invoke=0, respond=1, arg=0),
        _rec(1, INC, invoke=2, respond=3, arg=1),
    ])
    orders = list(enumerate_linearizations(h))
    assert orders == [[0, 1]]


def test_possible_costs_invariant_under_overlap_permutation():
    # 4 mutually overlapping increments on 2 cells: permuting them in the
    # input never changes the reachable cost multisets
    base = [
        _rec(0, INC, invoke=0, respond=20, arg=0),
        _rec(1, INC, invoke=1, respond=21, arg=0),
        _rec(2, INC, invoke=2, respond=22, arg=1),
        _rec(3, INC, invoke=3, respond=23, arg=1),
    ]
    reference = possible_cost_multisets(history(base), 2)
    import itertools
    for perm in itertools.permutations(base):
        reordered = [replace(r, seq=k, ret=-1) for k, r in enumerate(perm)]
        assert possible_cost_multisets(history(reordered), 2) == reference


def test_possible_costs_queue_skips_impossible_orders():
    h = history([
        _rec(0, ENQ, invoke=0, respond=10, arg=0),
        _rec(1, DEQ, invoke=1, respond=11, ret=0),
    ])
    sets = possible_cost_multisets(h, 2)
    assert sets == {(0.0, 0.0)}


def test_enumeration_limit_guard():
    records = [_rec(k, INC, invoke=0, respond=100, arg=0) for k in range(9)]
    with pytest.raises(ValueError):
        list(enumerate_linearizations(history(records), limit=10_000))


# ---------------------------------------------------------------------------
# columnar path against the object oracle (tests/dlin_reference.py)
# ---------------------------------------------------------------------------

DEFECTS = ("bad_cell", "wrong_value", "inverted", "late")


def _outcome(price, records_or_history, bins):
    """(costs in history order, tail report) of a history, or the exception class."""
    try:
        costs = price(records_or_history, bins)
    except (ValueError, KeyError) as exc:
        return type(exc)
    if isinstance(costs, list):
        return costs, (reference.tail_report(costs, bins) if costs else None)
    assert type(costs) is np.ndarray and costs.dtype == np.float64
    return costs.tolist(), (tail_report(costs, bins) if len(costs) else None)


def _assert_paths_agree(records, bins):
    columns = history(records)
    assert reference.records_of(columns) == records
    want = _outcome(reference.linearize_costs, records, bins)
    got = _outcome(linearize_costs, columns, bins)
    assert got == want


def _timing(rng, n):
    """Overlapping (invoke, respond) intervals in a valid real-time order:
    each op responds after every earlier-listed op was invoked."""
    start = np.cumsum(rng.integers(0, 3, n))
    invoke = start - rng.integers(0, 4, n)
    return invoke, np.maximum(start, invoke + 1) + rng.integers(0, 6, n)


def _break_timing(draw, records, defect):
    """Apply an inverted or late defect to one record past the first."""
    k = draw(st.integers(1, len(records) - 1))
    r = records[k]
    if defect == "inverted":
        records[k] = replace(r, respond=r.invoke - draw(st.integers(0, 2)))
    else:
        # finishes before an op listed earlier began
        end = max(q.invoke for q in records[:k]) - 1
        records[k] = replace(r, invoke=end - 1, respond=end)


@st.composite
def _counter_histories(draw):
    """A well-formed history of increments and reads, with overlapping
    ops, recorded increment values present, absent or mixed, and at most
    one defect that each path must reject."""
    bins = draw(st.sampled_from([1, 2, 3, 64]))
    n = draw(st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    is_read = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    cells = rng.integers(0, bins, n)
    invoke, respond = _timing(rng, n)
    ret_kept = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    counts = [0] * bins
    records = []
    for k in range(n):
        if is_read[k]:
            records.append(_rec(k, READ, int(invoke[k]), int(respond[k]),
                                ret=int(rng.integers(0, bins * (k + 1)))))
        else:
            cell = int(cells[k])
            counts[cell] += 1
            ret = bins * counts[cell] if ret_kept[k] else -1
            records.append(_rec(k, INC, int(invoke[k]), int(respond[k]), arg=cell, ret=ret))
    defect = draw(st.one_of(st.none(), st.sampled_from(DEFECTS))) if n > 1 else None
    incs = [k for k, r in enumerate(records) if r.kind == INC]
    if defect in ("bad_cell", "wrong_value") and incs:
        k = incs[draw(st.integers(0, len(incs) - 1))]
        records[k] = (replace(records[k], arg=draw(st.sampled_from([-1, bins])))
                      if defect == "bad_cell" else replace(records[k], ret=bins * (n + 1)))
    elif defect in ("inverted", "late"):
        _break_timing(draw, records, defect)
    return records, bins


@settings(max_examples=150, deadline=None)
@given(case=_counter_histories())
def test_columnar_pricing_matches_object_oracle(case):
    records, bins = case
    _assert_paths_agree(records, bins)


QUEUE_DEFECTS = ("double_enqueue", "bad_dequeue", "negative_key", "inverted", "late")


@st.composite
def _queue_histories(draw):
    """A queue history of enqueues and dequeues of sparse keys below 10**5,
    where a popped key may be enqueued again, with at most one defect: an
    enqueue of a live key, a dequeue of a key that is not live, a negative
    key, or a broken real-time order."""
    n = draw(st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_enq = draw(st.sampled_from([0.5, 0.6, 0.9, 1.0]))
    p_reuse = draw(st.sampled_from([0.0, 0.3, 0.9]))
    defect = draw(st.one_of(st.none(), st.sampled_from(QUEUE_DEFECTS))) if n > 1 else None
    defect_at = draw(st.integers(0, max(n - 1, 0)))
    invoke, respond = _timing(rng, n)
    live, popped, records = [], [], []
    for k in range(n):
        op = dict(seq=k, invoke=int(invoke[k]), respond=int(respond[k]))
        if k == defect_at and defect == "double_enqueue" and live:
            records.append(_rec(kind=ENQ, arg=live[int(rng.integers(len(live)))], **op))
        elif k == defect_at and defect == "bad_dequeue":
            gone = popped + [int(rng.integers(10**5, 2 * 10**5))]
            records.append(_rec(kind=DEQ, ret=gone[int(rng.integers(len(gone)))], **op))
        elif k == defect_at and defect == "negative_key":
            key = -int(rng.integers(1, 10))
            records.append(_rec(kind=ENQ, arg=key, **op) if rng.random() < 0.5 else
                           _rec(kind=DEQ, ret=key, **op))
        elif live and rng.random() >= p_enq:
            key = live.pop(int(rng.integers(len(live))))
            popped.append(key)
            records.append(_rec(kind=DEQ, ret=key, **op))
        else:
            reuse = [key for key in popped if key not in live] if rng.random() < p_reuse else []
            key = (reuse[int(rng.integers(len(reuse)))] if reuse else
                   next(key for key in map(int, rng.integers(0, 10**5, 64)) if key not in live))
            live.append(key)
            records.append(_rec(kind=ENQ, arg=key, **op))
    if defect in ("inverted", "late"):
        _break_timing(draw, records, defect)
    return records, draw(st.sampled_from([1, 2, 64]))


@settings(max_examples=150, deadline=None)
@given(case=_queue_histories())
def test_queue_pricing_matches_object_oracle(case):
    records, bins = case
    _assert_paths_agree(records, bins)


@pytest.mark.parametrize("adversary", ADVERSARY_KINDS)
def test_simulator_pricing_matches_object_oracle(adversary):
    cfg = SimConfig(bins=32, threads=8, total_ops=3000, adversary=adversary, seed=12)
    columns = history_from_simulation(simulate(cfg).log, 32)
    assert (_outcome(linearize_costs, columns, 32)
            == _outcome(reference.linearize_costs, reference.records_of(columns), 32))


@st.composite
def _small_histories(draw):
    """Up to 7 ops with overlapping intervals: counter increments and reads
    (a cell may be out of range), or queue enqueues of distinct keys and
    dequeues that may name a key never enqueued."""
    counter = draw(st.booleans())
    bins = draw(st.sampled_from([1, 2, 3, 64]))
    n = draw(st.integers(0, 7))
    records = []
    for k in range(n):
        invoke = draw(st.integers(0, 12))
        respond = invoke + draw(st.integers(-1, 12))   # -1, 0: a malformed op
        if counter and draw(st.booleans()):
            op = _rec(k, INC, invoke, respond, arg=draw(st.integers(0, bins)),
                      ret=draw(st.sampled_from([-1, bins])))
        elif counter:
            op = _rec(k, READ, invoke, respond, ret=draw(st.integers(0, 4 * bins)))
        elif draw(st.booleans()):
            op = _rec(k, ENQ, invoke, respond, arg=k)
        else:
            op = _rec(k, DEQ, invoke, respond, ret=draw(st.integers(0, n)))
        records.append(op)
    return records, bins


@settings(max_examples=200, deadline=None)
@given(case=_small_histories())
def test_possible_cost_multisets_match_object_oracle(case):
    records, bins = case

    def outcome(find):
        try:
            return find(records, bins)
        except ValueError as exc:
            return type(exc)

    assert (outcome(lambda r, b: possible_cost_multisets(history(r), b))
            == outcome(reference.possible_cost_multisets))


@settings(max_examples=200, deadline=None)
@given(case=_small_histories(), limit=st.integers(1, 5040))
def test_enumerate_linearizations_match_object_oracle(case, limit):
    records = case[0]

    def run(orderings):
        """The orderings yielded, and whether the enumeration then raised."""
        got = []
        try:
            got.extend(orderings)
        except ValueError:
            return got, True
        return got, False

    # a record's seq is its position, so the oracle's orderings read as positions
    indexed = [replace(r, seq=k) for k, r in enumerate(records)]
    want, want_raised = run(reference.enumerate_linearizations(indexed, limit=limit))
    assert (run(enumerate_linearizations(history(records), limit=limit))
            == ([[r.seq for r in o] for o in want], want_raised))
