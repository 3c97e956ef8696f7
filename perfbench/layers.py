"""Which package calls the traced run records, and the per-layer metrics.

Two trace levels exist because per-call spans cost about as much as the
calls they time:

  coarse  spans around the module-level functions `twochoice.cli` imports
          and the CSV writers it calls; a few dozen spans per round.
  fine    coarse plus one span per call of the hot structure methods, the
          transaction functions and the RNG draws.

Phase and span durations come from coarse rounds, per-call latencies from
fine rounds, and each level's cost is reported against untraced rounds.
"""

from __future__ import annotations

import statistics

import numpy as np

from twochoice import adversary, balance, cli, dlin, rng, stm
from twochoice.multicounter import MultiCounter
from twochoice.multiqueue import EMPTY, MultiQueue

import workloads
from tracing import Spans, TimedGenerator, Tracer, patched, per_call

COARSE, FINE = "coarse", "fine"

#: spans of the workload parts; the per-call filters below select on them
COUNTER_PARTS = ("quality.counter", "live.counter")
QUEUE_PARTS = ("quality.queue", "live.queue")
SIM_PARTS = {"stampede": "sim.stampede", "interleave": "sim.interleave"}
SEQ_PARTS = {"b1": "seq.b1", "b05": "seq.b05"}
STM_PARTS = {"exact": "stm.exact", "relaxed": "stm.relaxed"}

#: metrics read from Round.counts as they stand
BENCHMARK_COUNTS = (
    *(f"adversary.{c}.{k}" for k in SIM_PARTS for c in ("schedule_s", "events")),
    "cli.csv_rows", "cli.csv_bytes", "multicounter.final_gap",
    "multiqueue.drained", "multiqueue.mean_rank",
    *(f"stm.{c}.{k}" for k in STM_PARTS
      for c in ("attempts", "commits", "read_aborts", "commit_aborts")),
    "stm.relaxed_commit_share.first", "stm.relaxed_commit_share.last",
)


def instrument(tracer: Tracer, level: str):
    """Context manager that swaps the traced names in for one round."""
    w = tracer.wrap

    def note(name, value_of):
        return lambda t, result: t.note(name, value_of(result))

    swaps = [
        (cli, "run_sequential", w("balance.run_sequential", cli.run_sequential,
                                  note("balance.snapshot_rows", lambda res: len(res[0])))),
        (cli, "simulate", w("adversary.simulate", cli.simulate,
                            note("adversary.contention_sum",
                                 lambda res: int(np.sum(res.log.contention))))),
        (cli, "classify_operations", w("adversary.analysis", cli.classify_operations,
                                       note("adversary.good_share",
                                            lambda res: res[1].fraction_good))),
        (cli, "drift_report", w("adversary.analysis", cli.drift_report)),
        (cli, "history_from_simulation", w("dlin.history", cli.history_from_simulation,
                                           note("dlin.records", len))),
        (cli, "linearize_costs", w("dlin.linearize", cli.linearize_costs)),
        (cli, "tail_report", w("dlin.tail", cli.tail_report)),
        (cli, "_write_csv", w("cli.csv_write", cli._write_csv)),
        (balance.Trajectory, "write_csv", w("cli.csv_write", balance.Trajectory.write_csv)),
        (adversary.OpLog, "write_csv", w("cli.csv_write", adversary.OpLog.write_csv)),
        (dlin.TailReport, "write_csv", w("cli.csv_write", dlin.TailReport.write_csv)),
        (MultiQueue, "write_rank_csv", w("cli.csv_write", MultiQueue.write_rank_csv)),
    ]
    if level == FINE:
        make_rng, thread_rngs = rng.make_rng, workloads.thread_rngs

        def timed_rng(seed):
            return TimedGenerator(make_rng(seed), tracer, "rng.scalar_draw")

        swaps += [
            (cli, "make_rng", timed_rng),
            (balance, "make_rng", timed_rng),    # run_sequential's own generator
            (workloads, "thread_rngs",
             lambda seed, n: [TimedGenerator(g, tracer, "rng.scalar_draw")
                              for g in thread_rngs(seed, n)]),
            (rng.PairStream, "next_pair", w("rng.pair_draw", rng.PairStream.next_pair)),
            (MultiCounter, "increment", w("multicounter.increment", MultiCounter.increment)),
            (MultiCounter, "read", w("multicounter.read", MultiCounter.read)),
            (MultiQueue, "enqueue", w("multiqueue.enqueue", MultiQueue.enqueue)),
            (MultiQueue, "dequeue", w("multiqueue.dequeue", MultiQueue.dequeue,
                                      note("multiqueue.empty", lambda res: res is EMPTY))),
            (stm, "tx_begin", w("stm.begin", stm.tx_begin)),
            (stm, "tx_read", w("stm.read", stm.tx_read)),
            (stm, "tx_commit", w("stm.commit", stm.tx_commit)),
        ]
    return patched(swaps)


class TraceRounds:
    """Spans and benchmark-side counts of the traced rounds of one run."""

    def __init__(self):
        self.coarse: list[tuple[Tracer, object]] = []   # (tracer, Round)
        self.fine: list[tuple[Tracer, object]] = []
        self.overhead = {COARSE: [], FINE: []}          # traced / untraced - 1, per pair


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _count_total(spans: Spans, counts, name: str, under=None) -> float:
    """Sum of counts called `name`; `under` restricts to counts noted in a
    span whose parent is one of the named spans."""
    picked = [(sid, float(v)) for n, sid, v in counts if n == name]
    if not picked:
        return 0.0
    sids, values = (np.array(col) for col in zip(*picked))
    if under is None:
        return float(values.sum())
    wanted = [spans.names.index(u) for u in under if u in spans.names]
    return float(values[np.isin(spans.parent_name_ids(sids), wanted)].sum())


def layer_metrics(rounds: TraceRounds) -> dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reports zeros."""
    out: dict[str, float] = {}
    coarse = [(t.spans(), t.counts, r) for t, r in rounds.coarse]
    fine = [(t.spans(), t.counts, r) for t, r in rounds.fine]

    def per_round(rows, fn):
        return _median(fn(s, c, r) for s, c, r in rows)

    def calls(prefix: str, name: str, under=None):
        durations = [s.durations_ns(s.select(name, under=under))
                     for s, _, _ in fine]
        stats = per_call(np.concatenate(durations) if durations else np.zeros(0))
        for key, value in stats.items():
            out[f"{prefix}.{key}"] = float(value)

    def span_s(s, name, under):
        return s.total_s(s.select(name, under=under))

    # rng
    calls("rng.scalar_draw_ns", "rng.scalar_draw")
    calls("rng.pair_draw_ns", "rng.pair_draw")

    # balance: run_sequential's whole span per ball, from coarse rounds
    for key, part in SEQ_PARTS.items():
        out[f"balance.ns_per_ball.{key}"] = per_round(
            coarse, lambda s, c, r, part=part: _per_ball(s, part, r))
    out["balance.snapshot_rows"] = per_round(
        coarse, lambda s, c, r: _count_total(s, c, "balance.snapshot_rows"))

    # adversary, per simulated config
    for key, part in SIM_PARTS.items():
        under = (part,)
        out[f"adversary.simulate_s.{key}"] = per_round(
            coarse, lambda s, c, r, u=under: span_s(s, "adversary.simulate", u))
        out[f"adversary.contention_sum.{key}"] = per_round(
            coarse, lambda s, c, r, u=under: _count_total(s, c, "adversary.contention_sum", u))
        out[f"adversary.good_share.{key}"] = per_round(
            coarse, lambda s, c, r, u=under: _count_total(s, c, "adversary.good_share", u))
        out[f"adversary.analysis_s.{key}"] = per_round(
            coarse, lambda s, c, r, u=under: span_s(s, "adversary.analysis", u))

    # dlin, both simulated configs together
    for key, name in (("history_s", "dlin.history"), ("linearize_s", "dlin.linearize"),
                      ("tail_s", "dlin.tail")):
        out[f"dlin.{key}"] = per_round(coarse, lambda s, c, r, n=name: span_s(s, n, None))
    out["dlin.records"] = per_round(coarse, lambda s, c, r: _count_total(s, c, "dlin.records"))

    # cli
    out["cli.csv_write_s"] = per_round(coarse, lambda s, c, r: span_s(s, "cli.csv_write", None))
    out["cli.self_s"] = per_round(coarse, lambda s, c, r: _cli_self_s(s, r))

    # multicounter
    calls("multicounter.increment_ns", "multicounter.increment", under=COUNTER_PARTS)
    calls("multicounter.read_ns", "multicounter.read", under=COUNTER_PARTS)
    out["multicounter.increments"] = per_round(
        fine, lambda s, c, r: len(s.select("multicounter.increment", under=COUNTER_PARTS)))
    out["multicounter.reads"] = per_round(
        fine, lambda s, c, r: len(s.select("multicounter.read", under=COUNTER_PARTS)))

    # multiqueue
    calls("multiqueue.enqueue_ns", "multiqueue.enqueue", under=QUEUE_PARTS)
    calls("multiqueue.dequeue_ns", "multiqueue.dequeue", under=QUEUE_PARTS)
    out["multiqueue.empty_share"] = per_round(fine, _empty_share)

    # stm, per clock
    for key, part in STM_PARTS.items():
        for op in ("begin", "read", "commit"):
            calls(f"stm.{op}_ns.{key}", f"stm.{op}", under=(part,))

    # counts the benchmark takes itself, outside the spans
    for name in BENCHMARK_COUNTS:
        out[name] = per_round(coarse, lambda s, c, r, n=name: r.counts.get(n, 0.0))
    for key in SIM_PARTS:
        events = out[f"adversary.events.{key}"]
        out[f"adversary.ns_per_event.{key}"] = (
            out[f"adversary.simulate_s.{key}"] * 1e9 / events if events else 0.0)

    out["trace.coarse_overhead_share"] = _median(rounds.overhead[COARSE])
    out["trace.overhead_share"] = _median(rounds.overhead[FINE])
    return out


def _per_ball(s: Spans, part: str, r) -> float:
    idx = s.select("balance.run_sequential", under=(part,))
    balls = r.work.get(part, 0)
    return s.total_s(idx) * 1e9 / balls if balls and len(idx) else 0.0


def _cli_self_s(s: Spans, r) -> float:
    """CLI time outside every traced call it makes; only CLI rounds have files."""
    return sum(float(s.self_ns(s.select(part)).sum()) for part in r.files) / 1e9


def _empty_share(s: Spans, c, r) -> float:
    dequeues = len(s.select("multiqueue.dequeue", under=QUEUE_PARTS))
    if not dequeues:
        return 0.0
    return _count_total(s, c, "multiqueue.empty") / dequeues
