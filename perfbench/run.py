"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 15 --trace 0

Run from the repository root. Each workload is two timed parts (see
METRICS.md). The run first runs one warm-up round whose outputs are
checked in full, then repeats rounds until `--seconds` of rounds have
passed, with `PROBES` fresh-interpreter set-ups timed at even intervals in
between. Every round is checked, and each part's metric is the median over
the timed rounds.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced, coarse-traced and fine-traced rounds and prints the
per-layer metrics instead, one round under tracemalloc among them; spans
land in .perfbench_out/<workload>/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the run record. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PROBES = 7
TRACE_CYCLES = 3     # (untraced, coarse, fine) triples at most, in a traced run

#: the two parts of each workload, as the metrics a_ops_per_s and b_ops_per_s,
#: and the name each part's throughput is printed under
PARTS = {
    "sim": (("sim.stampede", "sim_stampede_ops_per_s"),
            ("sim.interleave", "sim_interleave_ops_per_s")),
    "seq": (("seq.b1", "seq_b1_balls_per_s"), ("seq.b05", "seq_b05_balls_per_s")),
    "quality": (("quality.counter", "counter_quality_incs_per_s"),
                ("quality.queue", "queue_quality_ops_per_s")),
    "live": (("live.counter", "counter_ops_per_s"), ("live.queue", "queue_ops_per_s")),
    "stm": (("stm.exact", "stm_exact_commits_per_s"),
            ("stm.relaxed", "stm_relaxed_commits_per_s")),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PARTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def git_rev() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, np_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "loadavg_before": os.getloadavg(),
    }


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, scaled seconds) of importing the package and building one
    round's fixtures in a fresh interpreter (probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    seconds, scaled = done.stdout.split()
    return float(seconds), float(scaled)


def raw_digests(r) -> dict:
    return {part: [hashlib.blake2b(f.read_bytes(), digest_size=12).hexdigest() for f in files]
            for part, files in r.files.items()}


class Checker:
    """Applies every check to each round and keeps the op accounting."""

    def __init__(self, workload, expected_file: Path, frozen_seeds: range):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None      # raw CSV digests of the warm-up round
        self.expected = None
        self.frozen = workload.deterministic and workload.seed in frozen_seeds
        if self.frozen:
            frozen = json.loads(expected_file.read_text())
            self.config_matches = frozen["config"].get(workload.name) == workload.config()
            self.expected = frozen["seeds"].get(workload.name, {}).get(str(workload.seed))

    def first(self, r) -> dict:
        """Check the warm-up round in full; later rounds must repeat its files."""
        summary = {}
        if self.workload.deterministic:
            got = self.workload.outputs(r)
            summary = {part: o["values"] for part, o in got.items()}
            self.reference = raw_digests(r)
            if self.frozen:
                for part, o in got.items():
                    if self.expected is None:
                        r.fail(part, f"expected.json has no entry for seed {self.workload.seed}")
                    elif not self.config_matches:
                        r.fail(part, "expected.json was frozen for other inputs; run freeze.py")
                    elif o != self.expected.get(part):
                        r.fail(part, f"frozen values differ: got {o}, "
                                     f"want {self.expected.get(part)}")
        self.account(r)
        return summary

    def again(self, r) -> None:
        if self.reference is not None:
            for part, digests in raw_digests(r).items():
                if digests != self.reference[part]:
                    r.fail(part, "output files differ from the warm-up round")
        self.account(r)

    def account(self, r) -> None:
        """A part's ops count once per round, and as failed if any check of it failed."""
        ops = {c.part: c.ops for c in r.checks}
        failed = {c.part for c in r.checks if not c.ok}
        self.failures += [f"{c.part}: {c.detail}" for c in r.checks if not c.ok]
        self.attempted += sum(ops.values())
        self.failed += sum(ops[part] for part in failed)


def one_round(workload, tracer=None, level=None):
    gc.collect()
    fixtures = workload.fixtures()
    if tracer is None:
        return workload.round(fixtures)
    from layers import instrument
    with instrument(tracer, level):
        return workload.round(fixtures, tracer)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def heap_round(workload):
    """One round under tracemalloc, and the peak MB that its fixtures and
    both parts held at once, numpy arrays included. tracemalloc slows the
    round several times over, so only the traced run does this."""
    gc.collect()
    tracemalloc.start()
    try:
        r = one_round(workload)
        return r, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(workload, checker: Checker, seconds: float, seed: int):
    """Rounds until `seconds` of rounds have passed, and PROBES set-up probes
    spread evenly over that time, so that both see the same machine states.
    The probes' own time does not count towards `seconds`."""
    rounds, setup = [], []
    probing = 0.0
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0 - probing
        if len(setup) < PROBES and elapsed >= len(setup) * seconds / PROBES:
            p0 = perf_counter()
            setup.append(probe_setup(workload.name, seed))
            probing += perf_counter() - p0
        elif len(rounds) < 3 or elapsed < seconds:
            r = one_round(workload)
            checker.again(r)
            rounds.append(r)
        else:
            return rounds, setup


def measure_traced(workload, checker: Checker, seconds: float):
    from layers import COARSE, FINE, TraceRounds
    from tracing import Tracer
    traced = TraceRounds()
    t0 = perf_counter()
    while not traced.fine or (len(traced.fine) < TRACE_CYCLES and perf_counter() - t0 < seconds):
        base = one_round(workload)
        checker.again(base)
        for level, keep in ((COARSE, traced.coarse), (FINE, traced.fine)):
            tracer = Tracer()
            r = one_round(workload, tracer, level)
            checker.again(r)
            workload.layer_counts(r)
            keep.append((tracer, r))
            traced.overhead[level].append(r.total_seconds / base.total_seconds - 1.0)
    return traced


def part_rate(rounds, part: str, scaled: bool = True) -> float:
    """Median over rounds of work per second, on the reference CPU if scaled."""
    return statistics.median(
        r.work[part] / (r.seconds[part] * (r.scale[part] if scaled else 1.0)) for r in rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twochoice" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import twochoice
    if Path(twochoice.__file__).resolve().parent != (SRC / "twochoice").resolve():
        print(f"error: imported twochoice from {twochoice.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import FROZEN_SEEDS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    record = run_record(args, numpy.__version__)
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    workload = WORKLOADS[args.workload](args.seed, outdir)
    checker = Checker(workload, HERE / "expected.json", FROZEN_SEEDS)
    record["frozen_values_checked"] = checker.frozen
    record["peak_rss_mb_after_import"] = peak_rss_mb()
    record["outputs"] = checker.first(one_round(workload))
    record["peak_rss_mb_after_warm_up"] = peak_rss_mb()

    values: dict[str, float] = {}
    setup: list[tuple[float, float]] = []
    if args.trace:
        from layers import layer_metrics
        heap, heap_mb = heap_round(workload)
        checker.again(heap)
        traced = measure_traced(workload, checker, args.seconds)
        values = layer_metrics(traced)
        values["round.heap_peak_mb"] = heap_mb
        for level, rows in (("coarse", traced.coarse), ("fine", traced.fine)):
            for k, (tracer, _) in enumerate(rows):
                tracer.spans().save(outdir / f"spans_{level}_{k}.npz")
        record["rounds"] = len(traced.fine)
    else:
        rounds, setup = measure(workload, checker, args.seconds, args.seed)
        (a, a_name), (b, b_name) = PARTS[args.workload]
        values["a_ops_per_s"] = part_rate(rounds, a)
        values["b_ops_per_s"] = part_rate(rounds, b)
        values["setup_s"] = statistics.median(scaled for _, scaled in setup)
        values["peak_rss_mb"] = peak_rss_mb()
        values["ok_share"] = 1.0 - checker.failed / checker.attempted
        record["rounds"] = len(rounds)
        record["named"] = {a_name: values["a_ops_per_s"], b_name: values["b_ops_per_s"],
                           "failed_share": checker.failed / checker.attempted}
        record["unscaled"] = {"a_ops_per_s": part_rate(rounds, a, scaled=False),
                              "b_ops_per_s": part_rate(rounds, b, scaled=False),
                              "setup_s": statistics.median(s for s, _ in setup),
                              "cpu_scale_per_round": [r.scale for r in rounds]}

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing, extra = set(names) - set(values), set(values) - set(names)
        print(f"error: metrics disagree with BENCHMARK.json: missing {sorted(missing)}, "
              f"undeclared {sorted(extra)}", file=sys.stderr)
        return 2

    record.update(setup_s=setup, peak_rss_mb=peak_rss_mb(),
                  attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures, loadavg_after=os.getloadavg())
    (outdir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, value in record.get("named", {}).items():
        print(f"{name} = {value:.6g}")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
