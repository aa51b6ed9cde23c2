"""Set-up probe: a fresh interpreter imports ghzsense and finishes one warm-up operation.

Usage: python3 perfbench/probe.py <workload> <seed> <workdir>
The caller times the whole process; that wall time is one ``setup_s`` sample.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    WORKLOADS[name](int(seed), Path(workdir)).warm_up()
