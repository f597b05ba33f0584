"""Set-up of one workload in a fresh interpreter, timed from outside by run.py.

Imports algmech from the checkout's ``src`` and builds the workload's
systems and inputs, exactly as a benchmark run does before it measures.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

workloads.make(sys.argv[1], int(sys.argv[2]), ROOT).close()
