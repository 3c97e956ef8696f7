"""The benchmark's five workloads, each two timed parts plus output checks.

Every workload is a fixed amount of work per round, fully determined by
the seed. `round()` runs both parts once and returns their wall times,
the work they did, and the outcome of every check that holds for any seed.
The deterministic workloads (sim, seq, quality) also return their output
files, so the caller can compare them with frozen values and across rounds.

Why these workloads, and which modules each one stresses or bypasses, is
written down in METRICS.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from twochoice import cli, stm
from twochoice.adversary import SimConfig, generate_schedule
from twochoice.multicounter import MultiCounter
from twochoice.multiqueue import EMPTY, MultiQueue
from twochoice.rng import thread_rngs

from calibrate import Bracket

#: live workers; capped by the CPUs this process may run on
LIVE_THREADS = 2

#: seeds whose deterministic outputs expected.json holds (freeze.py writes them)
FROZEN_SEEDS = range(0, 64)


def worker_threads() -> int:
    return max(1, min(LIVE_THREADS, len(os.sched_getaffinity(0))))


@dataclass
class Check:
    part: str
    ops: int
    ok: bool
    detail: str = ""


@dataclass
class Round:
    """One round: per part wall seconds and work; checks; files; layer counts."""

    seconds: dict = field(default_factory=dict)
    scale: dict = field(default_factory=dict)      # part -> calibrate.Bracket.scale
    work: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    files: dict = field(default_factory=dict)      # part -> [Path]
    counts: dict = field(default_factory=dict)     # benchmark-side layer counts

    @property
    def total_seconds(self) -> float:
        """Sum of the parts' times on the reference CPU (see calibrate.py)."""
        return sum(self.seconds[p] * self.scale[p] for p in self.seconds)

    def timed(self, part: str, bracket: Bracket) -> None:
        self.seconds[part] = bracket.seconds
        self.scale[part] = bracket.scale

    def fail(self, part: str, detail: str) -> None:
        ops = next(c.ops for c in self.checks if c.part == part)
        self.checks.append(Check(part, ops, False, detail))


# ---------------------------------------------------------------------------
# CLI workloads: each part is one in-process `twochoice` CLI run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliPart:
    name: str           # span and file-directory name, e.g. "sim.stampede"
    argv: tuple         # without --out
    work: int           # ops the run performs


class CliWorkload:
    name = ""
    deterministic = True    # outputs are a function of the seed

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.parts = self.make_parts(seed)

    def make_parts(self, seed: int) -> tuple:
        raise NotImplementedError

    def config(self) -> dict:
        """The inputs apart from the seed; frozen values are valid only for these."""
        return {p.name: list(p.argv) for p in self.make_parts("{seed}")}

    def fixtures(self):
        return None

    def round(self, fixtures, tracer=None) -> Round:
        r = Round()
        for part in self.parts:
            out = self.outdir / part.name
            shutil.rmtree(out, ignore_errors=True)
            argv = list(part.argv) + ["--out", str(out)]
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                span = tracer.span(part.name) if tracer else contextlib.nullcontext()
                with Bracket() as timing, span:
                    rc = cli.main(argv)
            r.timed(part.name, timing)
            r.work[part.name] = part.work
            r.checks.append(Check(part.name, part.work, rc == 0,
                                  "" if rc == 0 else f"exit code {rc}"))
            r.files[part.name] = sorted(out.glob("*.csv")) if out.is_dir() else []
        return r

    def values(self, tables: dict) -> dict:
        """Per part, the frozen quantities in that part's parsed CSVs."""
        raise NotImplementedError

    def outputs(self, r: Round) -> dict:
        """Per part, the frozen quantities and a numeric digest of every CSV."""
        tables = {part: {file_role(f, self.seed): read_table(f) for f in files}
                  for part, files in r.files.items()}
        values = self.values(tables)
        return {part: {"values": values[part],
                       "digests": {role: numeric_digest(rows)
                                   for role, (_, rows) in tables[part].items()}}
                for part in tables}

    def layer_counts(self, r: Round) -> None:
        """Add the counts a traced round reports about the CLI's output files."""
        rows = size = 0
        for files in r.files.values():
            for f in files:
                data = f.read_bytes()
                size += len(data)
                rows += sum(1 for ln in data.splitlines() if ln and not ln.startswith(b"#")) - 1
        r.counts.update({"cli.csv_rows": rows, "cli.csv_bytes": size})


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric data rows of a CLI CSV; comment lines are skipped."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], dtype=np.float64)
    return header, rows.reshape(len(lines) - 1, len(header))


def numeric_digest(rows: np.ndarray) -> str:
    """Digest of parsed values: formatting changes pass, any value change fails."""
    h = hashlib.blake2b(digest_size=12)
    h.update(np.asarray(rows.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
    return h.hexdigest()


def file_role(path: Path, seed: int) -> str:
    """File name with the seed taken out, so roles match across seeds."""
    return path.name.replace(f"seed{seed}", "seed")


def column(table, name: str) -> np.ndarray:
    header, rows = table
    return rows[:, header.index(name)]


class SimWorkload(CliWorkload):
    name = "sim"
    BINS, RATIO, OPS = 256, 16, 6_000
    CONFIGS = (("sim.stampede", "stampede", 64), ("sim.interleave", "random-interleave", 4))

    def make_parts(self, seed):
        return tuple(
            CliPart(name, ("sim", "--bins", str(self.BINS), "--threads", str(n),
                           "--ratio", str(self.RATIO), "--ops", str(self.OPS),
                           "--adversary", adversary, "--seeds", str(seed)), self.OPS)
            for name, adversary, n in self.CONFIGS)

    def values(self, tables):
        out = {}
        for name, _, n in self.CONFIGS:
            t = tables[name]
            traj = next(v for k, v in t.items() if k.endswith("_trajectory.csv"))
            ops = next(v for k, v in t.items() if k.endswith("_ops.csv"))
            tail = next(v for k, v in t.items() if k.endswith("_tail.csv"))
            out[name] = {
                "gap_max": float(column(traj, "gap").max()),
                "good_share": float(np.mean(column(ops, "contention") <= self.RATIO * n)),
                "p99_cost": float(column(tail, "p99")[0]),
            }
        return out

    def layer_counts(self, r):
        """Also drain each config's schedule on its own, outside any timed part."""
        super().layer_counts(r)
        for name, adversary, n in self.CONFIGS:
            cfg = SimConfig(bins=self.BINS, threads=n, ratio=self.RATIO, total_ops=self.OPS,
                            adversary=adversary, seed=self.seed)
            t0 = perf_counter()
            events = sum(1 for _ in generate_schedule(cfg).events())
            key = name.split(".")[1]
            r.counts[f"adversary.schedule_s.{key}"] = perf_counter() - t0
            r.counts[f"adversary.events.{key}"] = events


class SeqWorkload(CliWorkload):
    name = "seq"
    BINS = 64
    STEPS = (("seq.b1", "1", 100_000), ("seq.b05", "0.5", 30_000))

    def make_parts(self, seed):
        return tuple(
            CliPart(name, ("seq", "--bins", str(self.BINS), "--steps", str(steps),
                           "--beta", beta, "--seeds", str(seed)), steps)
            for name, beta, steps in self.STEPS)

    def values(self, tables):
        return {name: {"gap_max": float(column(next(iter(tables[name].values())), "gap").max())}
                for name, _, _ in self.STEPS}


class QualityWorkload(CliWorkload):
    name = "quality"
    CELLS, INCREMENTS = 64, 50_000
    QUEUES, PREFILL, DEQUEUES = 64, 16_000, 8_000

    def make_parts(self, seed):
        return (
            CliPart("quality.counter",
                    ("counter", "--mode", "quality", "--cells", str(self.CELLS),
                     "--increments", str(self.INCREMENTS), "--seed", str(seed)),
                    self.INCREMENTS),
            CliPart("quality.queue",
                    ("queue", "--mode", "quality", "--queues", str(self.QUEUES),
                     "--prefill", str(self.PREFILL), "--dequeues", str(self.DEQUEUES),
                     "--seed", str(seed)),
                    self.PREFILL + self.DEQUEUES),
        )

    def values(self, tables):
        counter = next(iter(tables["quality.counter"].values()))
        ranks = column(next(iter(tables["quality.queue"].values())), "rank")
        return {
            "quality.counter": {"final_gap": float(column(counter, "gap")[-1])},
            "quality.queue": {"mean_rank": float(ranks.mean()), "max_rank": float(ranks.max())},
        }

    def layer_counts(self, r):
        super().layer_counts(r)
        values = self.outputs(r)
        r.counts["multicounter.final_gap"] = values["quality.counter"]["values"]["final_gap"]
        r.counts["multiqueue.mean_rank"] = values["quality.queue"]["values"]["mean_rank"]


# ---------------------------------------------------------------------------
# threaded workloads: each part is one closed-loop phase on shared instances
# ---------------------------------------------------------------------------


def run_threads(threads: int, body, tracer=None, span: str = "") -> Bracket:
    """Start `threads` workers running body(k) and join them; returns the timing.

    Under tracing the phase is one span and every worker adopts it as parent.
    A worker's exception is raised again here, after every worker has ended.
    """
    errors = []
    ctx = tracer.span(span) if tracer else contextlib.nullcontext()
    with Bracket() as timing, ctx as sid:
        def target(k):
            if tracer:
                tracer.adopt(sid)
            try:
                body(k)
            except BaseException as exc:
                errors.append(exc)
                raise

        workers = [threading.Thread(target=target, args=(k,)) for k in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    if errors:
        raise errors[0]
    return timing


class ThreadedWorkload:
    """Live structures; their outputs depend on interleaving, so only the
    oracles that hold for any interleaving are checked."""

    name = ""
    deterministic = False

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.threads = worker_threads()

    def layer_counts(self, r: Round) -> None:
        """Counts are taken inside round(), nothing to add."""


class LiveWorkload(ThreadedWorkload):
    """MultiCounter and MultiQueue shared by two workers in a closed loop."""

    name = "live"
    CELLS, QUEUES = 64, 64
    COUNTER_OPS, QUEUE_OPS = 12_000, 12_000   # per thread

    def fixtures(self):
        return MultiCounter(self.CELLS), MultiQueue(self.QUEUES)

    def round(self, fixtures, tracer=None) -> Round:
        counter, queue = fixtures
        r = Round()
        n = self.threads

        rngs = thread_rngs(self.seed, n)
        incs = [0] * n

        def count_body(k):
            inc, read, rng = counter.increment, counter.read, rngs[k]
            done = 0
            for step in range(self.COUNTER_OPS):
                if step % 4 == 3:   # a read after every three increments
                    read(rng)
                else:
                    inc(rng)
                    done += 1
            incs[k] = done

        r.timed("live.counter", run_threads(n, count_body, tracer, "live.counter"))
        r.work["live.counter"] = n * self.COUNTER_OPS
        total = sum(incs)
        r.checks.append(Check("live.counter", n * self.COUNTER_OPS,
                              counter.exact_total() == total,
                              f"cell sum {counter.exact_total()} != increments {total}"))
        cells = counter.snapshot()
        r.counts.update({"multicounter.final_gap": max(cells) - min(cells)})

        rngs = thread_rngs(self.seed, n)
        produced = [[] for _ in range(n)]
        consumed = [[] for _ in range(n)]

        def queue_body(k):
            enq, deq, rng = queue.enqueue, queue.dequeue, rngs[k]
            mine, got = produced[k], consumed[k]
            for step in range(self.QUEUE_OPS):
                if step % 2 == 0:
                    item = (k, step)
                    enq(item, rng, thread=k)
                    mine.append(item)
                else:
                    x = deq(rng)
                    if x is not EMPTY:
                        got.append(x)

        r.timed("live.queue", run_threads(n, queue_body, tracer, "live.queue"))
        r.work["live.queue"] = n * self.QUEUE_OPS
        drained = queue.drain()
        want = Counter(x for lane in produced for x in lane)
        have = Counter(x for lane in consumed for x in lane) + Counter(drained)
        r.checks.append(Check("live.queue", n * self.QUEUE_OPS, want == have,
                              f"lost {sum((want - have).values())}, "
                              f"duplicated or invented {sum((have - want).values())}"))
        r.counts["multiqueue.drained"] = len(drained)
        return r


class StmWorkload(ThreadedWorkload):
    """Two-read, two-write transactions from two workers, once per clock.

    Each clock gets fresh cells and a fixed attempt budget per thread: in a
    fixed duration a faster transaction path would push the relaxed clock
    further into its decay and read as fewer commits per second.
    """

    name = "stm"
    OBJECTS, CLOCK_CELLS = 100_000, 64
    ATTEMPTS = 6_000   # per thread and clock

    def fixtures(self):
        return {"exact": (stm.make_cells(self.OBJECTS), stm.ExactClock()),
                "relaxed": (stm.make_cells(self.OBJECTS), stm.RelaxedClock(self.CLOCK_CELLS))}

    def round(self, fixtures, tracer=None) -> Round:
        r = Round()
        for kind in ("exact", "relaxed"):
            cells, clock = fixtures[kind]
            self._phase(r, kind, cells, clock, tracer)
        return r

    def _phase(self, r: Round, kind: str, cells, clock, tracer) -> None:
        n, budget, objects = self.threads, self.ATTEMPTS, self.OBJECTS
        tenth = budget // 10
        rngs = thread_rngs(self.seed, n)
        views = [clock if kind == "exact" else clock.view(g.spawn(1)[0]) for g in rngs]
        # per thread: commits, read aborts, commit aborts, commits in first / last tenth
        tallies = [[0, 0, 0, 0, 0] for _ in range(n)]
        begin, read, write, commit = stm.tx_begin, stm.tx_read, stm.tx_write, stm.tx_commit
        committed, aborted = stm.COMMITTED, stm.TxAborted

        def body(k):
            rng, view, tally = rngs[k], views[k], tallies[k]
            for a in range(budget):
                tx = begin(view)
                try:
                    i = int(rng.integers(0, objects))
                    j = i
                    while j == i:
                        j = int(rng.integers(0, objects))
                    write(tx, cells[i], read(tx, cells[i]) + 1)
                    write(tx, cells[j], read(tx, cells[j]) + 1)
                except aborted:
                    tally[1] += 1
                    continue
                if commit(tx, view) == committed:
                    tally[0] += 1
                    if a < tenth:
                        tally[3] += 1
                    elif a >= budget - tenth:
                        tally[4] += 1
                else:
                    tally[2] += 1

        part = f"stm.{kind}"
        r.timed(part, run_threads(n, body, tracer, part))
        commits, read_aborts, commit_aborts, first, last = (sum(c) for c in zip(*tallies))
        r.work[part] = commits
        cell_sum = sum(c.value for c in cells)
        r.checks.append(Check(part, n * budget, cell_sum == 2 * commits,
                              f"cell sum {cell_sum} != 2 * commits {commits}"))
        r.counts.update({
            f"stm.attempts.{kind}": n * budget,
            f"stm.commits.{kind}": commits,
            f"stm.read_aborts.{kind}": read_aborts,
            f"stm.commit_aborts.{kind}": commit_aborts,
        })
        if kind == "relaxed":
            r.counts["stm.relaxed_commit_share.first"] = first / (n * tenth)
            r.counts["stm.relaxed_commit_share.last"] = last / (n * tenth)


WORKLOADS = {w.name: w for w in (SimWorkload, SeqWorkload, QualityWorkload,
                                 LiveWorkload, StmWorkload)}
