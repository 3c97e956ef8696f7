"""The traced benchmark swaps package names by attribute lookup on their
owners; renaming or deleting one breaks `perfbench/run.py --trace 1`, and a
caller that reaches a swapped name another way runs untraced."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_names_exist(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    from tracing import Tracer

    from twochoice import cli

    # capture the (owner, name, wrapper) list that instrument() hands to patched()
    swaps = []

    def spy(replacements):
        swaps.extend(replacements)
        return tracing.patched(replacements)

    monkeypatch.setattr(layers, "patched", spy)
    tracer = Tracer()
    patch = layers.instrument(tracer, layers.FINE)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in swaps]
    assert len(swaps) > 20
    with patch:
        for (owner, attr, value), (_, _, original) in zip(swaps, originals):
            assert owner.__dict__[attr] is value is not original, f"{owner.__name__}.{attr}"
        # one small sim runs every dlin wrapper, the len(history) note and the writers
        rc = cli.main(["sim", "--bins", "16", "--threads", "4", "--ops", "300",
                       "--seeds", "1", "--out", str(tmp_path)])
        assert rc == 0
    spans = tracer.spans()
    for name in ("dlin.history", "dlin.linearize", "dlin.tail", "adversary.simulate"):
        assert len(spans.select(name)) == 1, name
    assert len(spans.select("cli.csv_write")) == 3   # trajectory, op log, tail
    assert [v for name, _, v in tracer.counts if name == "dlin.records"] == [300]
    # one small queue quality run goes through the kept MultiQueue.write_rank_csv swap
    tracer = Tracer()
    with layers.instrument(tracer, layers.FINE):
        rc = cli.main(["queue", "--mode", "quality", "--queues", "4", "--prefill", "40",
                       "--dequeues", "20", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
    spans = tracer.spans()
    assert len(spans.select("cli.csv_write")) == 1   # the rank CSV
    # the quality run's ops go through the batch methods, which no swap
    # times; the single ops stay swapped for the live workload's workers
    assert len(spans.select("multiqueue.enqueue")) == 0
    assert len(spans.select("multiqueue.dequeue")) == 0
    assert len(spans.select("dlin.linearize")) == 1
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
