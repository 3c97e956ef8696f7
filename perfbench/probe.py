"""Set-up probe: import the package in this fresh interpreter and build one
round's fixtures for a workload. Prints the seconds that took, then the
same scaled to the reference CPU (see calibrate.py), which is bracketed
here in the probe's own process by REF_PASSES passes on each side.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibrate import REF_SECONDS, reference_seconds  # noqa: E402

REF_PASSES = 3     # on each side; the loop is still warming up in a fresh interpreter

before = sum(reference_seconds() for _ in range(REF_PASSES))
t0 = perf_counter()
import workloads  # noqa: E402  (the import is what is being timed)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), HERE.parent / ".perfbench_out").fixtures()
seconds = perf_counter() - t0
ref = (before + sum(reference_seconds() for _ in range(REF_PASSES))) / (2 * REF_PASSES)
print(seconds, seconds * REF_SECONDS / ref)
