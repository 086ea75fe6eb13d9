"""One set-up, in a fresh process: import the program, build a workload's
inputs and take one warm-up step.  run.py times several of these.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

import workloads

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.WORKLOADS[name]
workload.warm_up(workload.prepare(seed, workdir))
