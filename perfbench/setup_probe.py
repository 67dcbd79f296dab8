"""Cold set-up of one workload in a fresh interpreter, for run.py.

    python3 perfbench/setup_probe.py <workload>

Prints one JSON line: fill_s, lazy_s and kernels. A fresh process starts with
empty kernel caches; the import of phaseq happens before the clock starts.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    print(json.dumps(workloads.set_up(workloads.workload_ops(sys.argv[1], 0))))
