"""Regenerate expected.json: the frozen outputs of the deterministic workloads.

    python3 perfbench/freeze.py

Runs one round of sim, seq and quality per seed in FROZEN_SEEDS (see
workloads.py) and records each part's frozen quantities and CSV digests,
together with the inputs they are valid for. Run it only when a change to
the benchmark's inputs is intended; a change to the package must reproduce
the frozen values.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out" / "freeze"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import FROZEN_SEEDS, WORKLOADS  # noqa: E402


def main() -> int:
    deterministic = [w for w in WORKLOADS.values() if w.deterministic]
    frozen = {"config": {}, "seeds": {w.name: {} for w in deterministic}}
    for w in deterministic:
        frozen["config"][w.name] = w(0, OUT).config()
        for seed in FROZEN_SEEDS:
            workload = w(seed, OUT / w.name)
            r = workload.round(workload.fixtures())
            bad = [f"{c.part}: {c.detail}" for c in r.checks if not c.ok]
            if bad:
                print(f"{w.name} seed {seed}: " + "; ".join(bad), file=sys.stderr)
                return 1
            frozen["seeds"][w.name][str(seed)] = workload.outputs(r)
            print(f"{w.name} seed {seed} frozen", flush=True)
    shutil.rmtree(OUT, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
