"""Every frozen value stays bit-identical: one round of each deterministic
benchmark workload (sim, seq, quality) at a few seeds must reproduce what
`perfbench/expected.json` holds for it, config, values and CSV digests
alike. The workloads are imported from `perfbench/` as they are, so this is
the check `perfbench/run.py` makes on its warm-up round."""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [0, 17, 63])
@pytest.mark.parametrize("name", ["sim", "seq", "quality"])
def test_frozen_outputs(name, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    expected = json.loads((PERFBENCH / "expected.json").read_text())
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    assert workload.config() == expected["config"][name]
    r = workload.round(workload.fixtures())
    assert [f"{c.part}: {c.detail}" for c in r.checks if not c.ok] == []
    assert workload.outputs(r) == expected["seeds"][name][str(seed)]
