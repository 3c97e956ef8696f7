"""Experiment driver: every run is a subcommand that writes CSV artifacts.

Configuration comes from an optional plain-text key=value file plus
per-key flag overrides; every resolved value records where it came from
(default, file, or flag) and the full resolved config is embedded as
comment lines at the top of every CSV the run writes. Output goes to the
directory named by --out, the TWOCHOICE_OUT environment variable, or
./results, in that order of defaults.

Timed runs repeat: counter throughput and stm report mean and standard
deviation, queue stress one row per repeat; simulator and sequential runs
are deterministic per seed and write identical files on identical configs.
A failed consistency oracle makes the process exit nonzero after writing a
diagnostics dump.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adversary import (ADVERSARY_KINDS, STAMPEDE, SimConfig, classify_operations, drift_report,
                        simulate)
from .affinity import run_timed_workers, usable_cpus
from .balance import EXPONENTIAL, UNIT, default_params, run_sequential
from .csvfile import write_csv as _write_csv  # perfbench/layers.py swaps this name
from .dlin import (DEQ, history_from_serial_queue, history_from_simulation, linearize_costs,
                   tail_report)
from .multicounter import MultiCounter
from .multiqueue import EMPTY, MultiQueue
from .rng import PairStream, make_rng, thread_rngs
from .stm import STM_CSV_HEADER, run_stm_benchmark

ENV_OUTDIR = "TWOCHOICE_OUT"


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending key."""


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part.strip() != ""]


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "ints": _parse_ints,
}

# key -> (type tag, default, rule). The rule is a lower bound, which every
# value of a list key must meet; a tuple of allowed values; or None. run()
# checks it whatever the mode; rules across keys stay in the runners.
SCHEMAS: dict[str, dict[str, tuple[str, object, object]]] = {
    "seq": {
        "bins": ("int", 64, 1),
        "steps": ("int", 100_000, 1),
        "beta": ("float", 1.0, None),
        "weight": ("str", UNIT, (UNIT, EXPONENTIAL)),
        "seeds": ("ints", [1, 2, 3, 4, 5], 0),
        "snapshot_every": ("int", 1000, 1),
        "out": ("str", None, None),
    },
    "sim": {
        "bins": ("int", 256, 1),
        "threads": ("int", 4, 1),
        "ratio": ("int", 16, 1),
        "ops": ("int", 100_000, 1),
        "adversary": ("str", "stampede", ADVERSARY_KINDS),
        "block_size": ("int", 0, 0),  # stampede only; 0: use thread count
        "seeds": ("ints", [1, 2, 3], 0),
        "gamma_flag_multiple": ("float", 8.0, 0),
        "out": ("str", None, None),
    },
    "counter": {
        "mode": ("str", "throughput", ("throughput", "quality")),
        "threads_max": ("int", 0, 0),  # 0: one per usable CPU
        "cell_ratios": ("ints", [1, 2, 4], 1),
        "duration": ("float", 1.0, 0),
        "repeats": ("int", 10, 1),
        "cells": ("int", 64, 1),
        "increments": ("int", 1_000_000, 1),
        "cadence": ("int", 10_000, 1),
        "seed": ("int", 1, 0),
        "out": ("str", None, None),
    },
    "queue": {
        "mode": ("str", "quality", ("quality", "stress")),
        "queues": ("int", 64, 1),
        "prefill": ("int", 1_000_000, 0),
        "dequeues": ("int", 500_000, 1),
        "threads": ("int", 0, 0),  # 0: one per usable CPU
        "duration": ("float", 1.0, 0),
        "repeats": ("int", 10, 1),
        "seed": ("int", 1, 0),
        "out": ("str", None, None),
    },
    "stm": {
        "threads_max": ("int", 0, 0),  # 0: one per usable CPU
        "objects": ("ints", [10_000, 100_000, 1_000_000], 1),
        "duration": ("float", 1.0, 0),
        "repeats": ("int", 10, 1),
        "delta": ("int", 0, 0),  # 0: default margin for the clock size
        "clock_cells": ("int", 64, 1),
        "seed": ("int", 1, 0),
        "out": ("str", None, None),
    },
}


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def outdir(self) -> Path:
        out = self.params.get("out")
        if out is None:
            out = os.environ.get(ENV_OUTDIR, "results")
        return Path(out)

    def header_comments(self) -> list[str]:
        lines = [f"experiment = {self.experiment}"]
        for key in sorted(self.params):
            value = self.params[key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value} ({self.provenance[key]})")
        return lines


def read_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines; # starts a comment."""
    out: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_config(experiment: str, config_file=None, flag_values: dict | None = None
                 ) -> ExperimentConfig:
    """Resolve defaults, file values, then flag overrides, tracking provenance."""
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment: {experiment!r}")
    schema = SCHEMAS[experiment]
    params: dict = {}
    provenance: dict = {}
    for key, (_, default, _) in schema.items():
        params[key] = default
        provenance[key] = "default"

    def apply(source: str, items: dict) -> None:
        for key, raw in items.items():
            if raw is None:
                continue
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}")
            tag = schema[key][0]
            try:
                params[key] = _PARSERS[tag](raw)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"key {key!r}: cannot parse {raw!r} as {tag}"
                ) from None
            provenance[key] = source

    if config_file is not None:
        apply("file", read_kv_file(config_file))
    if flag_values:
        apply("flag", flag_values)
    return ExperimentConfig(experiment=experiment, params=params, provenance=provenance)


def _check_rules(cfg: ExperimentConfig) -> None:
    """Reject a value outside its key's rule; a bound also rejects NaN and
    an empty list. `duration` is also capped at threading.TIMEOUT_MAX, the
    longest wait the threading module supports, so a run that could never
    end (inf, 1e300) is a config error rather than a run stopped only by
    Ctrl-C."""
    for key, (_, _, rule) in SCHEMAS[cfg.experiment].items():
        value = cfg.params[key]
        if isinstance(rule, tuple):
            if value not in rule:
                raise ConfigError(f"key {key!r}: must be one of {', '.join(rule)}, got {value!r}")
        elif rule is not None and not min(value if isinstance(value, list) else [value],
                                          default=rule - 1) >= rule:
            raise ConfigError(f"key {key!r}: must be >= {rule}, "
                              f"got {value if value != [] else 'none'}")
    duration = cfg.params.get("duration", 0)
    if not duration <= threading.TIMEOUT_MAX:
        raise ConfigError(f"key 'duration': must be <= {threading.TIMEOUT_MAX}, "
                          f"got {duration}")


def _fail(outdir: Path, name: str, detail: str) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    dump = outdir / f"{name}_diagnostics.txt"
    dump.write_text(detail + "\n")
    print(f"ORACLE FAILURE [{name}]: {detail}", file=sys.stderr)
    print(f"diagnostics written to {dump}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_seq(cfg: ExperimentConfig) -> int:
    p = cfg.params
    if not 0.0 <= p["beta"] <= 1.0:
        raise ConfigError(f"key 'beta': must lie in [0, 1], got {p['beta']}")
    try:
        exponent = default_params(p["beta"], p["weight"])
    except ValueError:
        raise ConfigError(f"key 'beta': {p['beta']!r} is too small to set the "
                          "potential exponent") from None
    outdir = cfg.outdir
    for seed in p["seeds"]:
        traj, loads = run_sequential(
            p["bins"], p["steps"], p["beta"], weight=p["weight"], rng=seed,
            snapshot_every=p["snapshot_every"], exponent=exponent,
        )
        if p["weight"] == UNIT and sum(loads) != p["steps"]:
            return _fail(outdir, "seq",
                         f"seed {seed}: total {sum(loads)} != steps {p['steps']}")
        path = outdir / f"seq_b{p['beta']:g}_seed{seed}.csv"
        traj.write_csv(path, header_comments=cfg.header_comments() + [f"seed = {seed}"])
        print(f"seq seed={seed}: gap_max={traj.gap.max():.0f} -> {path}")
    return 0


def run_sim(cfg: ExperimentConfig) -> int:
    p = cfg.params
    if not p["block_size"] <= (p["threads"] if p["adversary"] == STAMPEDE else 0):
        raise ConfigError(f"key 'block_size': must lie in [0, threads] for {STAMPEDE} "
                          f"and be 0 otherwise, got {p['block_size']}")
    outdir = cfg.outdir
    for seed in p["seeds"]:
        sim_cfg = SimConfig(
            bins=p["bins"], threads=p["threads"], ratio=p["ratio"],
            total_ops=p["ops"], adversary=p["adversary"],
            block_size=p["block_size"] or None, seed=seed,
        )
        res = simulate(sim_cfg)
        if sum(res.loads) != p["ops"]:
            return _fail(outdir, "sim",
                         f"seed {seed}: total {sum(res.loads)} != ops {p['ops']}")
        comments = cfg.header_comments() + [f"seed = {seed}"]
        traj_path = outdir / f"sim_{p['adversary']}_seed{seed}_trajectory.csv"
        ops_path = outdir / f"sim_{p['adversary']}_seed{seed}_ops.csv"
        res.trajectory.write_csv(traj_path, header_comments=comments)
        res.log.write_csv(ops_path, header_comments=comments)
        _, summary = classify_operations(res.log, sim_cfg)
        windows = drift_report(res.trajectory, res.log, sim_cfg.contention_bound,
                               sim_cfg.bins, p["gamma_flag_multiple"])
        flagged = sum(w.flagged for w in windows)
        costs = linearize_costs(history_from_simulation(res.log, sim_cfg.bins), sim_cfg.bins)
        tail = tail_report(costs, sim_cfg.bins)
        tail.write_csv(outdir / f"sim_{p['adversary']}_seed{seed}_tail.csv",
                       header_comments=comments)
        print(f"sim seed={seed}: gap_max={res.trajectory.gap.max():.0f} "
              f"good={summary.fraction_good:.3f} flagged_windows={flagged} "
              f"p99_cost={tail.p99:.0f} -> {traj_path}")
    return 0


def _counter_throughput_once(threads: int, cells: int, duration: float,
                             seed: int) -> tuple[float, bool]:
    counter = MultiCounter(cells)
    rngs = [PairStream(g, cells) for g in thread_rngs(seed, threads)]
    counts = [0] * threads

    def worker(k: int, stop) -> None:
        rng = rngs[k]
        inc = counter.increment
        n = 0
        while not stop.is_set():
            inc(rng)
            n += 1
        counts[k] = n

    elapsed = run_timed_workers(threads, worker, duration)
    total = sum(counts)
    conserved = counter.exact_total() == total
    return total / elapsed, conserved


def run_counter(cfg: ExperimentConfig) -> int:
    p = cfg.params
    outdir = cfg.outdir
    if p["mode"] == "quality":
        counter = MultiCounter(p["cells"])
        rng = make_rng(p["seed"])
        read_rng = make_rng(p["seed"] + 1)
        rows = []
        done = 0
        # a row every `cadence` increments, and one at the last increment
        for k in [*range(p["cadence"], p["increments"], p["cadence"]), p["increments"]]:
            counter.increment_many(rng, k - done)
            done = k
            values = counter.snapshot()
            rows.append([k, counter.read(read_rng), max(values) - min(values)])
        if counter.exact_total() != p["increments"]:
            return _fail(outdir, "counter",
                         f"total {counter.exact_total()} != {p['increments']}")
        path = outdir / "counter_quality.csv"
        _write_csv(path, cfg.header_comments(), "increments,scaled_read,gap", list(zip(*rows)))
        print(f"counter quality: final_gap={rows[-1][2]} -> {path}")
        return 0
    threads_max = p["threads_max"] or len(usable_cpus())
    rows = []
    for threads in range(1, threads_max + 1):
        for ratio in p["cell_ratios"]:
            cells = ratio * threads
            rates = []
            for rep in range(p["repeats"]):
                rate, conserved = _counter_throughput_once(
                    threads, cells, p["duration"], p["seed"] + rep)
                if not conserved:
                    return _fail(outdir, "counter",
                                 f"threads={threads} cells={cells} rep={rep}: "
                                 "cell sum != completed increments")
                rates.append(rate)
            mean = statistics.fmean(rates)
            std = statistics.pstdev(rates)
            rows.append([threads, ratio, cells, mean, std, 1])
            print(f"counter threads={threads} ratio={ratio}: {mean:,.0f} ops/s")
    path = outdir / "counter_throughput.csv"
    _write_csv(path, cfg.header_comments(),
               "threads,ratio,cells,ops_per_sec_mean,ops_per_sec_std,conserved", list(zip(*rows)))
    return 0


def run_queue(cfg: ExperimentConfig) -> int:
    p = cfg.params
    outdir = cfg.outdir
    if p["mode"] == "quality":
        if p["dequeues"] > p["prefill"]:
            raise ConfigError(f"key 'dequeues': must be <= prefill ({p['prefill']}), "
                              f"got {p['dequeues']}")
        rng = make_rng(p["seed"])
        q = MultiQueue(p["queues"])
        # program order is the linearization of this one-thread run; the
        # element is its enqueue's index into `queues` and `stamps`
        queues, stamps = q.enqueue_many(range(p["prefill"]), rng)
        # EMPTY means both probed queues were empty; others may still hold
        # elements, so retry until `dequeues` pops. Once the whole queue is
        # empty every later dequeue is EMPTY too, so a batch ran out of
        # elements iff it ends in EMPTY with nothing left.
        popped = []
        retries = 0
        while len(popped) < p["dequeues"]:
            got = q.dequeue_many(rng, p["dequeues"] - len(popped))
            if got[-1] is EMPTY and q.live_count() == 0:
                return _fail(outdir, "queue", "ran out of elements during quality run")
            misses = got.count(EMPTY)
            if misses:
                retries += misses
                got = [x for x in got if x is not EMPTY]
            # the first batch's list becomes `popped`: a copy would raise the peak RSS
            popped = popped + got if popped else got
        # at the default size q still holds ~66 MB, in memory blocks that
        # the popped ints share; as an array they let the pricing reuse it
        popped = np.array(popped, dtype=np.int64)
        del q, got
        history = history_from_serial_queue(stamps, stamps[popped])
        ranks = linearize_costs(history, p["queues"])[history.kind == DEQ].astype(np.int64)
        path = outdir / "queue_ranks.csv"
        MultiQueue.write_rank_csv(path, cfg.header_comments(), np.arange(len(popped)),
                                  ranks, queues[popped], stamps[popped])
        print(f"queue quality: mean_rank={ranks.mean():.1f} max_rank={ranks.max()} "
              f"retries={retries} -> {path}")
        return 0
    threads = p["threads"] or len(usable_cpus())
    rows = []
    for rep in range(p["repeats"]):
        q = MultiQueue(p["queues"])
        rngs = [PairStream(g, p["queues"]) for g in thread_rngs(p["seed"] + rep, threads)]
        produced: list[list] = [[] for _ in range(threads)]
        consumed: list[list] = [[] for _ in range(threads)]

        def worker(k: int, stop) -> None:
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

        run_timed_workers(threads, worker, p["duration"])
        leftovers = q.drain()
        want = Counter(x for lane in produced for x in lane)
        got = Counter(x for lane in consumed for x in lane) + Counter(leftovers)
        if want != got:
            missing = want - got
            extra = got - want
            return _fail(outdir, "queue",
                         f"rep={rep}: lost={sum(missing.values())} "
                         f"duplicated_or_invented={sum(extra.values())}")
        total_in = sum(len(lane) for lane in produced)
        dequeued = sum(len(lane) for lane in consumed)
        rows.append([threads, p["queues"], p["duration"], total_in,
                     dequeued, len(leftovers), 1])
        print(f"queue stress rep={rep}: enq={total_in} deq={dequeued} "
              f"left={len(leftovers)}")
    path = outdir / "queue_stress.csv"
    _write_csv(path, cfg.header_comments(),
               "threads,queues,duration,enqueued,dequeued,drained,consistent", list(zip(*rows)))
    return 0


def run_stm(cfg: ExperimentConfig) -> int:
    p = cfg.params
    outdir = cfg.outdir
    threads_max = p["threads_max"] or len(usable_cpus())
    summary_rows = []
    for objects in p["objects"]:
        rows = []
        for threads in range(1, threads_max + 1):
            for kind in ("exact", "multicounter"):
                rates = []
                abort_rates = []
                for rep in range(p["repeats"]):
                    res = run_stm_benchmark(
                        threads, objects, p["duration"], clock_kind=kind,
                        delta=p["delta"] or None, seed=p["seed"] + rep,
                        clock_cells=p["clock_cells"],
                    )
                    if not res.consistent:
                        return _fail(
                            outdir, "stm",
                            f"objects={objects} threads={threads} clock={kind} "
                            f"rep={rep}: cell sum != 2 * commits "
                            f"(commits={res.commits})")
                    rows.append(res.csv_row())
                    rates.append(res.commits_per_sec)
                    abort_rates.append(res.aborts_per_commit)
                summary_rows.append([
                    threads, objects, kind, res.delta,
                    statistics.fmean(rates),
                    statistics.pstdev(rates),
                    statistics.fmean(abort_rates), 1,
                ])
                print(f"stm objects={objects} threads={threads} clock={kind}: "
                      f"{statistics.fmean(rates):,.0f} commits/s "
                      f"aborts/commit={statistics.fmean(abort_rates):.3f}")
        _write_csv(outdir / f"stm_objects{objects}.csv", cfg.header_comments(),
                   STM_CSV_HEADER, list(zip(*rows)))
    _write_csv(outdir / "stm_summary.csv", cfg.header_comments(),
               "threads,objects,clock,delta,commits_per_sec_mean,"
               "commits_per_sec_std,aborts_per_commit_mean,consistent",
               list(zip(*summary_rows)))
    return 0


RUNNERS = {
    "seq": run_seq,
    "sim": run_sim,
    "counter": run_counter,
    "queue": run_queue,
    "stm": run_stm,
}


def run(cfg: ExperimentConfig) -> int:
    """Check each key's rule, then dispatch to the experiment runner;
    returns the process exit code."""
    _check_rules(cfg)
    return RUNNERS[cfg.experiment](cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twochoice",
        description="Relaxed-structure experiments; results land as CSV files.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, schema in SCHEMAS.items():
        p = sub.add_parser(experiment)
        p.add_argument("--config", default=None, help="key = value file")
        for key in schema:
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"kv_{key}", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {
        key[len("kv_"):]: value
        for key, value in vars(args).items()
        if key.startswith("kv_")
    }
    try:
        return run(parse_config(args.experiment, config_file=args.config,
                                flag_values=flags))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
