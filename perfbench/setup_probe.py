"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the CPU seconds taken to import slspectra (numpy included) and to build
the Potential and BoundaryParams inputs of the workload's first cycle.  The
inputs are drawn before the clock starts; only library work is timed.
"""

import sys
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only: nothing of the library loads here)

calls = workloads.cycle(sys.argv[1], int(sys.argv[2]), 0)
sys.path.insert(0, str(HERE.parent / "src"))
t0 = process_time()
import slspectra  # noqa: E402

for call in calls:
    workloads.build(slspectra, call)
print(process_time() - t0)
