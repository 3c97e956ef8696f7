import io
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twochoice.affinity import run_timed_workers, usable_cpus
from twochoice.cli import (
    ConfigError,
    ExperimentConfig,
    SCHEMAS,
    main,
    parse_config,
    read_kv_file,
    run,
)
from twochoice.multiqueue import EMPTY, MultiQueue
from twochoice.rng import PairStream, make_rng

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_file_gives_all_defaults(tmp_path):
    f = tmp_path / "empty.cfg"
    f.write_text("# nothing here\n\n")
    cfg = parse_config("seq", config_file=f)
    for key, (_, default, _) in SCHEMAS["seq"].items():
        assert cfg.params[key] == default
        assert cfg.provenance[key] == "default"


def test_file_values_applied_with_provenance(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("bins = 32\nbeta = 0.5\nseeds = 7,8\n")
    cfg = parse_config("seq", config_file=f)
    assert cfg.params["bins"] == 32
    assert cfg.params["beta"] == 0.5
    assert cfg.params["seeds"] == [7, 8]
    assert cfg.provenance["bins"] == "file"
    assert cfg.provenance["steps"] == "default"


def test_flag_overrides_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("bins = 32\n")
    cfg = parse_config("seq", config_file=f, flag_values={"bins": "128"})
    assert cfg.params["bins"] == 128
    assert cfg.provenance["bins"] == "flag"


def test_unknown_key_named_in_error(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("bin_count = 32\n")
    with pytest.raises(ConfigError, match="bin_count"):
        parse_config("seq", config_file=f)


def test_type_mismatch_named_in_error():
    with pytest.raises(ConfigError, match="'steps'"):
        parse_config("seq", flag_values={"steps": "a lot"})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config("teleport")


def test_malformed_line_reports_location(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("bins 32\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        read_kv_file(f)


def test_outdir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TWOCHOICE_OUT", str(tmp_path / "elsewhere"))
    cfg = parse_config("seq")
    assert str(cfg.outdir).endswith("elsewhere")
    cfg2 = parse_config("seq", flag_values={"out": str(tmp_path / "explicit")})
    assert str(cfg2.outdir).endswith("explicit")


def test_header_comments_embed_provenance():
    cfg = parse_config("seq", flag_values={"bins": "8"})
    lines = cfg.header_comments()
    assert "experiment = seq" in lines
    assert any(line == "bins = 8 (flag)" for line in lines)
    assert any(line.endswith("(default)") for line in lines)


# ---------------------------------------------------------------------------
# experiment smoke runs (tiny sizes)
# ---------------------------------------------------------------------------

def _cfg(experiment, **overrides):
    flags = {k: str(v) for k, v in overrides.items()}
    return parse_config(experiment, flag_values=flags)


def _assert_lf_only(outdir):
    """Every CSV of a run ends its lines with a bare newline."""
    paths = sorted(outdir.glob("*.csv"))
    assert paths
    for path in paths:
        assert b"\r" not in path.read_bytes(), path.name


def test_seq_run_writes_self_describing_csv(tmp_path):
    cfg = _cfg("seq", bins=8, steps=500, seeds="3", snapshot_every=100,
               out=tmp_path / "r")
    assert run(cfg) == 0
    path = tmp_path / "r" / "seq_b1_seed3.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "# experiment = seq"
    header_at = next(k for k, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "step,phi,psi,gamma,gap,max,min,mean"
    assert len(lines) > header_at + 1
    _assert_lf_only(tmp_path / "r")


def test_seq_run_reproducible_bytes(tmp_path):
    a = _cfg("seq", bins=8, steps=400, seeds="5", out=tmp_path / "a")
    b = _cfg("seq", bins=8, steps=400, seeds="5", out=tmp_path / "b")
    assert run(a) == 0 and run(b) == 0
    fa = (tmp_path / "a" / "seq_b1_seed5.csv").read_bytes()
    fb = (tmp_path / "b" / "seq_b1_seed5.csv").read_bytes()
    # the out= line differs; compare everything after the comment block
    strip = lambda blob: blob.split(b"step,", 1)[1]
    assert strip(fa) == strip(fb)


def test_sim_run_writes_all_artifacts(tmp_path):
    cfg = _cfg("sim", bins=32, threads=2, ratio=2, ops=400, seeds="1",
               adversary="stampede", out=tmp_path / "r")
    assert run(cfg) == 0
    base = tmp_path / "r"
    assert (base / "sim_stampede_seed1_trajectory.csv").exists()
    ops_lines = (base / "sim_stampede_seed1_ops.csv").read_text().splitlines()
    header = next(l for l in ops_lines if not l.startswith("#"))
    assert header == "op,thread,start,finish,contention,choice_i,choice_j,updated,correct"
    assert (base / "sim_stampede_seed1_tail.csv").exists()
    _assert_lf_only(base)


def test_counter_quality_run(tmp_path):
    cfg = _cfg("counter", mode="quality", cells=16, increments=2000,
               cadence=500, out=tmp_path / "r")
    assert run(cfg) == 0
    lines = (tmp_path / "r" / "counter_quality.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "increments,scaled_read,gap"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 4
    _assert_lf_only(tmp_path / "r")


def test_counter_quality_rows_reach_the_last_increment(tmp_path, capsys):
    cfg = _cfg("counter", mode="quality", cells=16, increments=1500,
               cadence=1000, out=tmp_path / "r")
    assert run(cfg) == 0
    lines = (tmp_path / "r" / "counter_quality.csv").read_text().splitlines()
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [row[0] for row in data] == ["1000", "1500"]
    assert f"final_gap={data[-1][2]} " in capsys.readouterr().out


def test_counter_quality_under_one_cadence_writes_one_row(tmp_path):
    # increments below the cadence: the only row is the last increment's
    assert main(["counter", "--mode", "quality", "--cells", "16", "--increments", "500",
                 "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r" / "counter_quality.csv").read_text().splitlines()
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [row[0] for row in data] == ["500"]


def test_threads_follow_the_affinity_mask(monkeypatch):
    # a process confined to CPUs {5, 7} of 64 sweeps 2 threads by default
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert len(usable_cpus()) == 2


def test_counter_throughput_run(tmp_path):
    cfg = _cfg("counter", mode="throughput", threads_max=2, cell_ratios="2",
               duration=0.05, repeats=2, out=tmp_path / "r")
    assert run(cfg) == 0
    lines = (tmp_path / "r" / "counter_throughput.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "threads,ratio,cells,ops_per_sec_mean,ops_per_sec_std,conserved"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 2
    _assert_lf_only(tmp_path / "r")


def test_queue_quality_run(tmp_path):
    cfg = _cfg("queue", mode="quality", queues=8, prefill=2000, dequeues=500,
               out=tmp_path / "r")
    assert run(cfg) == 0
    lines = (tmp_path / "r" / "queue_ranks.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "seq,rank,queue,stamp"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 500
    _assert_lf_only(tmp_path / "r")


def test_queue_quality_retries_empty_probes(tmp_path, capsys):
    # 10 elements over 64 queues: most probed pairs are both empty
    cfg = _cfg("queue", mode="quality", prefill=10, dequeues=10, out=tmp_path / "r")
    assert run(cfg) == 0
    lines = (tmp_path / "r" / "queue_ranks.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 10
    assert " retries=" in capsys.readouterr().out


@settings(max_examples=60, deadline=None)
@given(queues=st.integers(1, 64), prefill=st.integers(1, 60), dequeues=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
@example(queues=64, prefill=10, dequeues=10, seed=1)   # most probes find both queues empty
def test_queue_quality_ranks_match_bruteforce(queues, prefill, dequeues, seed):
    dequeues = min(dequeues, prefill)
    # replay the run's draws, ranking each pop against a shadow list of the
    # live stamps: the stamps below the popped one
    rng = PairStream(make_rng(seed), queues)
    q = MultiQueue(queues)
    placed = [q.enqueue(k, rng) for k in range(prefill)]
    live = [stamp for _, stamp in placed]
    want = []
    retries = 0
    while len(want) < dequeues:
        got = q.dequeue(rng)
        if got is EMPTY:
            retries += 1
            continue
        queue, stamp = placed[got]
        want.append(f"{len(want)},{sum(s < stamp for s in live)},{queue},{stamp}")
        live.remove(stamp)
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()) as log:
        cfg = _cfg("queue", mode="quality", queues=queues, prefill=prefill,
                   dequeues=dequeues, seed=seed, out=out)
        assert run(cfg) == 0
        lines = (Path(out) / "queue_ranks.csv").read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")][1:] == want
    assert f" retries={retries} " in log.getvalue()


def test_queue_stress_run(tmp_path):
    cfg = _cfg("queue", mode="stress", queues=8, threads=2, duration=0.1,
               repeats=1, out=tmp_path / "r")
    assert run(cfg) == 0
    lines = (tmp_path / "r" / "queue_stress.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "threads,queues,duration,enqueued,dequeued,drained,consistent"
    _assert_lf_only(tmp_path / "r")


def test_stm_run(tmp_path):
    cfg = _cfg("stm", threads_max=2, objects="256", duration=0.05, repeats=2,
               out=tmp_path / "r")
    assert run(cfg) == 0
    per_run = (tmp_path / "r" / "stm_objects256.csv").read_text().splitlines()
    header = next(l for l in per_run if not l.startswith("#"))
    assert header == "threads,objects,clock,delta,commits_per_sec,aborts_per_commit,consistent"
    data = [l for l in per_run if not l.startswith("#")][1:]
    assert len(data) == 2 * 2 * 2  # threads x clocks x repeats
    assert (tmp_path / "r" / "stm_summary.csv").exists()
    _assert_lf_only(tmp_path / "r")


def test_main_entrypoint_and_exit_codes(tmp_path):
    rc = main(["seq", "--bins", "8", "--steps", "200", "--seeds", "1",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    assert (tmp_path / "m" / "seq_b1_seed1.csv").exists()
    with pytest.raises(SystemExit):
        main(["seq", "--bogus-key", "1"])  # unknown flag: argparse exits


def test_main_config_error_exit_code():
    assert main(["seq", "--steps", "soon"]) == 2


@pytest.mark.parametrize("argv, key", [
    (["counter", "--mode", "quality", "--increments", "0"], "increments"),
    (["counter", "--mode", "quality", "--cadence", "0"], "cadence"),
    (["queue", "--mode", "quality", "--dequeues", "0"], "dequeues"),
    (["queue", "--mode", "quality", "--prefill", "10", "--dequeues", "20"], "dequeues"),
])
def test_quality_config_rejected_naming_key(tmp_path, capsys, argv, key):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv, key", [
    (["counter", "--mode", "throughput", "--threads-max", "1", "--repeats", "0"], "repeats"),
    (["stm", "--threads-max", "1", "--objects", "8", "--repeats", "0"], "repeats"),
    (["seq", "--snapshot-every", "0"], "snapshot_every"),
    (["seq", "--steps", "0"], "steps"),
    (["seq", "--beta", "1.5"], "beta"),
    (["sim", "--threads", "0"], "threads"),
    (["sim", "--ops", "0"], "ops"),
    (["sim", "--threads", "4", "--block-size", "5"], "block_size"),
    (["sim", "--adversary", "chaotic"], "adversary"),
    (["counter", "--mode", "quality", "--cells", "0"], "cells"),
    (["queue", "--queues", "0"], "queues"),
    (["stm", "--threads-max", "1", "--objects", "8,0"], "objects"),
    (["stm", "--threads-max", "1", "--objects", "8", "--clock-cells", "0"], "clock_cells"),
    (["stm", "--threads-max", "1", "--objects", "8", "--delta", "-1"], "delta"),
    (["seq", "--weight", "unti"], "weight"),
    (["seq", "--beta", "5e-324", "--steps", "100", "--seeds", "1"], "beta"),
    (["seq", "--steps", "100", "--seeds", "1,-2"], "seeds"),
    (["sim", "--ops", "100", "--seeds", "-1"], "seeds"),
    (["counter", "--mode", "quality", "--increments", "100", "--cadence", "10",
      "--seed", "-1"], "seed"),
    (["queue", "--mode", "quality", "--prefill", "10", "--dequeues", "5", "--seed", "-1"], "seed"),
    (["stm", "--threads-max", "1", "--objects", "8", "--duration", "0.01", "--repeats", "1",
      "--seed", "-1"], "seed"),
    (["queue", "--mode", "stress", "--threads", "-1", "--duration", "0.01", "--repeats", "1"],
     "threads"),
    (["counter", "--mode", "throughput", "--threads-max", "-1"], "threads_max"),
    (["stm", "--threads-max", "-1", "--objects", "8"], "threads_max"),
    (["seq", "--steps", "100", "--seeds", ","], "seeds"),
    (["sim", "--ops", "100", "--seeds", ","], "seeds"),
    (["stm", "--threads-max", "1", "--objects", ","], "objects"),
    (["counter", "--mode", "throughput", "--threads-max", "1", "--cell-ratios", ","],
     "cell_ratios"),
    (["counter", "--mode", "throughput", "--threads-max", "1", "--cell-ratios", "0"],
     "cell_ratios"),
    (["counter", "--mode", "throughput", "--threads-max", "1", "--cell-ratios", "2,-1"],
     "cell_ratios"),
    (["sim", "--adversary", "serial", "--block-size", "2"], "block_size"),
    (["queue", "--mode", "stress", "--threads", "1", "--repeats", "0"], "repeats"),
    (["sim", "--ops", "300", "--seeds", "1", "--gamma-flag-multiple", "nan"],
     "gamma_flag_multiple"),
    (["sim", "--ops", "300", "--seeds", "1", "--gamma-flag-multiple", "-1"],
     "gamma_flag_multiple"),
    (["counter", "--mode", "throughput", "--threads-max", "1", "--cells", "0"], "cells"),
    (["queue", "--mode", "quality", "--prefill", "-3", "--dequeues", "1"], "prefill"),
    (["queue", "--mode", "stress", "--prefill", "-3", "--threads", "1", "--duration", "0.01",
      "--repeats", "1"], "prefill"),
])
def test_out_of_range_config_rejected_naming_key(tmp_path, capsys, argv, key):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def _python(args, tmp_path):
    """Run Python on `args` with the package importable; a time limit keeps a
    hung run from hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)


TIMED_RUNS = [
    ["counter", "--mode", "throughput", "--threads-max", "1", "--repeats", "1"],
    ["queue", "--mode", "stress", "--threads", "1", "--repeats", "1"],
    ["stm", "--threads-max", "1", "--objects", "8", "--repeats", "1"],
]


# a negative duration is not a run, and none past threading.TIMEOUT_MAX
# (inf, 1e300) could ever end; none of these values reaches a worker
@pytest.mark.parametrize("argv, duration", [
    pytest.param(argv, duration, id=f"argv{k}" + ("" if duration == "-1" else f"-{duration}"))
    for duration in ("-1", "inf", "1e300") for k, argv in enumerate(TIMED_RUNS)
])
def test_negative_duration_rejected_naming_key(tmp_path, argv, duration):
    done = _python(["-m", "twochoice.cli", *argv, "--duration", duration, "--out", "r"], tmp_path)
    assert done.returncode == 2
    assert "key 'duration'" in done.stderr
    assert not (tmp_path / "r").exists()


def test_timed_workers_reject_a_negative_duration(tmp_path):
    # run_timed_workers checks its duration before any worker starts; a
    # worker left blocked in stop.wait() would time the child process out
    code = ("from twochoice.affinity import run_timed_workers\n"
            "try:\n"
            "    run_timed_workers(2, lambda k, stop: stop.wait(), -1.0)\n"
            "except ValueError:\n"
            "    print('raised')\n")
    assert _python(["-c", code], tmp_path).stdout == "raised\n"


def test_timed_workers_raise_a_worker_exception():
    # a crashed worker must surface as its exception, not as a short run that
    # the caller's oracle then fails; the other workers are stopped first
    stopped = []

    def work(k, stop):
        if k == 0:
            raise RuntimeError("worker 0 crashed")
        stopped.append(stop.wait(60))

    with pytest.raises(RuntimeError, match="worker 0 crashed"):
        run_timed_workers(2, work, 0.2)
    assert stopped == [True]


def test_timed_workers_stop_at_the_deadline():
    # nothing sets `stop`, so the worker must see it turn true by itself:
    # not at its first poll, and not before `duration` has passed; the
    # 10 s guard fails a deadline that never comes instead of hanging
    duration = 0.1
    seen = []

    def work(k, stop):
        seen.append(stop.is_set())
        while not stop.is_set() and time.perf_counter() < t0 + 10:
            pass
        seen.append(time.perf_counter())

    t0 = time.perf_counter()
    elapsed = run_timed_workers(1, work, duration)
    assert seen[0] is False
    assert duration <= seen[1] - t0 <= duration + 0.25
    assert elapsed <= duration + 0.25


def test_oracle_failure_exit_path(tmp_path, monkeypatch):
    # force the stm oracle to trip and check the nonzero exit + dump
    from twochoice import cli as climod
    from twochoice.stm import StmBenchResult

    def fake_bench(*args, **kwargs):
        return StmBenchResult(
            threads=1, objects=8, clock_kind="exact", delta=0, duration=0.1,
            commits=10, aborts=0, commits_per_sec=100.0, aborts_per_commit=0.0,
            consistent=False)

    monkeypatch.setattr(climod, "run_stm_benchmark", fake_bench)
    cfg = _cfg("stm", threads_max=1, objects="8", duration=0.01, repeats=1,
               out=tmp_path / "r")
    assert run(cfg) == 1
    assert (tmp_path / "r" / "stm_diagnostics.txt").exists()
