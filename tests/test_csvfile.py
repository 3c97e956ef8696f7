"""The CSV writer's bytes.

`twochoice.csvfile.write_csv` formats each chunk of rows with one
printf-style `%`; `tests/csv_reference.py` keeps the writer it replaced,
str() of every cell. The fuzz tests write the same columns with both and
compare the files byte for byte: integer dtypes at their extremes, float
edge values (-0.0, NaN, inf, 1e16, subnormals), float columns that are
whole in one chunk and not in the next, and the Python sequences that CLI
runs pass.

`test_cli_csv_bytes_are_pinned` hashes every CSV that a set of CLI runs
writes, at the benchmark's shapes, whole: the comment block leaves out the
output directory, which differs per run. The digests were taken from the
`str()`-per-cell writer that `tests/csv_reference.py` keeps, so any
formatting change fails here even where the numeric digests in
`perfbench/expected.json` (which parse the values back) would pass, such
as `1.0` written as `1`. Four more quality runs, at shapes the benchmark
does not reach, and the quality runs' stdout were pinned from the
single-op code that the batched quality runs replaced.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_reference
from twochoice import cli
from twochoice.csvfile import write_csv

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float64, np.float32]
FLOAT_EDGES = [-0.0, float("nan"), float("inf"), float("-inf"), 1e16, -1e16,
               9999999999999998.0, -9999999999999998.0, 5e-324, 2.2250738585072014e-308 / 3,
               0.5, 1e-7]
# rows around the chunk boundaries (1 024 rows a chunk)
BOUNDARY_ROWS = [1023, 1024, 1025, 2049]

RUNS = {
    "sim.stampede": ["sim", "--bins", "256", "--threads", "64", "--ratio", "16",
                     "--ops", "6000", "--adversary", "stampede", "--seeds", "7"],
    "sim.interleave": ["sim", "--bins", "256", "--threads", "4", "--ratio", "16",
                       "--ops", "6000", "--adversary", "random-interleave", "--seeds", "7"],
    "seq.b1": ["seq", "--bins", "64", "--steps", "6000", "--beta", "1",
               "--snapshot-every", "1", "--seeds", "7"],
    "seq.b05": ["seq", "--bins", "64", "--steps", "6000", "--beta", "0.5",
                "--snapshot-every", "1", "--seeds", "7"],
    "seq.exponential": ["seq", "--bins", "64", "--steps", "6000", "--beta", "0.5",
                        "--weight", "exponential", "--snapshot-every", "1", "--seeds", "7"],
    "quality.counter": ["counter", "--mode", "quality", "--cells", "64",
                        "--increments", "50000", "--seed", "7"],
    "quality.queue": ["queue", "--mode", "quality", "--queues", "64", "--prefill", "16000",
                      "--dequeues", "8000", "--seed", "7"],
    # quality configs the benchmark's shapes do not reach: dequeues that find
    # both probes empty and a run that drains the queue; batches that cross
    # the 1 024-op batch size; one and three cells with a cadence that does
    # not divide the increments
    "quality.queue.drain": ["queue", "--mode", "quality", "--queues", "64", "--prefill", "40",
                            "--dequeues", "40", "--seed", "7"],
    "quality.queue.m3": ["queue", "--mode", "quality", "--queues", "3", "--prefill", "2500",
                         "--dequeues", "2500", "--seed", "7"],
    "quality.counter.m1": ["counter", "--mode", "quality", "--cells", "1",
                           "--increments", "5000", "--cadence", "777", "--seed", "7"],
    "quality.counter.m3": ["counter", "--mode", "quality", "--cells", "3",
                           "--increments", "7000", "--cadence", "2500", "--seed", "7"],
}

PINNED = {
    "sim.stampede": {
        "sim_stampede_seed7_ops.csv": "2ec9f58abdcd8aa4804dfa1cad254f78219f44a8a26e5b12aa6f00b0dd3da745",
        "sim_stampede_seed7_tail.csv": "6c9d03c869d24fdf0409d6e3f350b528daadf288bf2eb5be5c144f80db8328b3",
        "sim_stampede_seed7_trajectory.csv": "494aca1ceaf8dd7ac502f7e7dc6a5101927e59db5c5163bcea3fd67317160d4e",
    },
    "sim.interleave": {
        "sim_random-interleave_seed7_ops.csv": "d3692bfd552a3150f6314aa2fbc10be825275b4b8dae1b42166f7d2fce79b0d7",
        "sim_random-interleave_seed7_tail.csv": "8b0cee54086adc09ba99e65c797585f44b54ea5ddce9bacaa64265448fa0a99b",
        "sim_random-interleave_seed7_trajectory.csv": "353538e54fb8b037e1e3dd5de88d6614d35ed5d590255246685f54c20811ebe7",
    },
    "seq.b1": {
        "seq_b1_seed7.csv": "43dea06f9e54e5d0daaed3ec14f13e53683702829d976b038f3c00b53ea263df",
    },
    "seq.b05": {
        "seq_b0.5_seed7.csv": "081d0d0b64f36adee1edaf1c54257e51383b119ff1bef27d07e75ee71b1e8388",
    },
    "seq.exponential": {
        "seq_b0.5_seed7.csv": "d4915490c87ccb8f9721c1b05bed41ad3fc55a3ca151bdcf00c4616a7c538d80",
    },
    "quality.counter": {
        "counter_quality.csv": "69c5661a8f34065a6bb577c741254c63fc3e871bf152f872818a995f45642717",
    },
    "quality.queue": {
        "queue_ranks.csv": "52aa2b8ecaff580f98d14e7ebc487fb2382fe66e81773891a8ae7766d8e2a354",
    },
    "quality.queue.drain": {
        "queue_ranks.csv": "215194d6c6ddfe85f1efaa0ced5ab3b6e1657190279d7982959d31cf85ebe6bd",
    },
    "quality.queue.m3": {
        "queue_ranks.csv": "dbc6fb3a644392f879f302754e4037b2127d94933a48d203d22ceb2f9d3ecf82",
    },
    "quality.counter.m1": {
        "counter_quality.csv": "c540e3ee95db0162078ed03a1b47d209ad18b123ce28cc7bdc643f913f912bd6",
    },
    "quality.counter.m3": {
        "counter_quality.csv": "0be9701c4b32f88d8d9118f3633cd98b0edc83eb7f0ee597f4af9b732b07b36f",
    },
}

# the quality runs' stdout up to the output path: the retry counts too
PINNED_STDOUT = {
    "quality.counter": "counter quality: final_gap=6",
    "quality.queue": "queue quality: mean_rank=53.9 max_rank=414 retries=0",
    "quality.queue.drain": "queue quality: mean_rank=8.7 max_rank=36 retries=236",
    "quality.queue.m3": "queue quality: mean_rank=1.4 max_rank=23 retries=2",
    "quality.counter.m1": "counter quality: final_gap=0",
    "quality.counter.m3": "counter quality: final_gap=2",
}


def _digests(outdir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.glob("*.csv"))}


@pytest.mark.parametrize("name", RUNS)
def test_cli_csv_bytes_are_pinned(name, tmp_path, capsys):
    assert cli.main(RUNS[name] + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == PINNED[name]
    if name in PINNED_STDOUT:
        assert capsys.readouterr().out.split(" -> ")[0] == PINNED_STDOUT[name]


def _both(columns, header="h", comments=("a = 1",)):
    """The bytes the package writer and the reference write for `columns`."""
    with tempfile.TemporaryDirectory() as d:
        write_csv(Path(d) / "new.csv", comments, header, columns)
        csv_reference.write_csv(Path(d) / "old.csv", comments, header, columns)
        return (Path(d) / "new.csv").read_bytes(), (Path(d) / "old.csv").read_bytes()


@st.composite
def _column(draw, rows):
    """One column of `rows` values: a numpy array of any integer, float or
    bool dtype, or a Python list of str, floats or numpy scalars. Values
    come from a small drawn pool, spread over the rows by a drawn seed; a
    float column is whole except at a few drawn rows, often on a chunk
    boundary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["int", "float", "bool", "str", "pyfloat", "scalars"]))
    if kind == "int":
        dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
        info = np.iinfo(dtype)
        pool = draw(st.lists(st.one_of(st.sampled_from([info.min, info.max, 0, 1]),
                                       st.integers(int(info.min), int(info.max))),
                             min_size=1, max_size=6))
        return np.array(pool, dtype=dtype)[rng.integers(len(pool), size=rows)]
    if kind == "bool":
        return rng.integers(2, size=rows).astype(bool)
    if kind == "str":
        pool = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
                             min_size=1, max_size=4))
        return [pool[k] for k in rng.integers(len(pool), size=rows)]
    whole = draw(st.lists(st.one_of(st.integers(-10**16, 10**16).map(float),
                                    st.sampled_from([0.0, 9999999999999998.0, 2.0**53])),
                          min_size=1, max_size=6))
    column = np.array(whole)[rng.integers(len(whole), size=rows)]
    dirty = draw(st.lists(st.one_of(st.sampled_from([0, 1022, 1023, 1024, 1025, 2047, 2048]),
                                    st.integers(0, 2048)), max_size=3))
    for at in dirty:
        if at < rows:
            column[at] = draw(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()))
    if kind == "pyfloat":
        return column.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "scalars":
            return list(column.astype(draw(st.sampled_from(FLOAT_DTYPES + [np.int64]))))
        return column.astype(draw(st.sampled_from(FLOAT_DTYPES)))


@st.composite
def _columns(draw):
    rows = draw(st.one_of(st.integers(0, 40), st.sampled_from(BOUNDARY_ROWS)))
    return draw(st.lists(_column(rows), min_size=0, max_size=4))


@settings(max_examples=150, deadline=None)
@given(columns=_columns())
def test_write_csv_matches_reference(columns):
    new, old = _both(columns)
    assert new == old


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_integer_extremes_match_reference(dtype):
    info = np.iinfo(dtype)
    column = np.array([info.min, info.max, 0, 1, info.max - 1], dtype=dtype)
    new, old = _both([column, column[::-1].copy()])
    assert new == old
    assert f"{info.max}".encode() in new


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("edge", FLOAT_EDGES)
def test_one_float_edge_value_decides_its_chunk(edge, dtype):
    # a chunk of whole values with the edge value in it; then whole values only
    column = np.arange(1500, dtype=np.float64)
    column[700] = edge
    new, old = _both([column.astype(dtype)])
    assert new == old


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
@pytest.mark.parametrize("fraction_first", [True, False])
def test_float_column_whole_in_one_chunk_and_not_the_next(rows, fraction_first):
    column = np.arange(rows, dtype=np.float64) * 3.0
    if fraction_first:
        column[:1024] += 0.25
    else:
        column[1024:] += 0.25
    new, old = _both([np.arange(rows), column])
    assert new == old
    lines = new.decode().splitlines()[2:]
    assert len(lines) == rows
    assert lines[-1] == f"{rows - 1},{float(column[-1])!r}"


def test_zero_rows_and_zero_columns_write_the_header_only():
    for columns in ([], [np.zeros(0), []]):
        new, old = _both(columns, header="x,y")
        assert new == old == b"# a = 1\nx,y\n"


def test_unequal_column_lengths_raise_before_writing(tmp_path):
    path = tmp_path / "sub" / "out.csv"
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        write_csv(path, [], "a,b", [np.arange(3), [1, 2]])
    assert not path.parent.exists()
