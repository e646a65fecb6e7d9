"""One cold set-up of a workload, timed from outside by run.py.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports growreg from this checkout, then loads the workload's configs and
builds or generates its dataset, exactly as the measured process does.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir).setup()
