"""The traced benchmark swaps package names by attribute lookup on their
owners; renaming or deleting one breaks `perfbench/run.py --trace 1`."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    from twochoice import cli, rng

    originals = cli._write_csv, rng.PairStream.next_pair
    with layers.instrument(Tracer(), layers.FINE):
        assert cli._write_csv is not originals[0]
        assert rng.PairStream.next_pair is not originals[1]
    assert (cli._write_csv, rng.PairStream.next_pair) == originals
