"""Set-up probe: a fresh interpreter sets up one workload, then says so.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints ``ready`` once the workload could issue its first request; the
benchmark times it from the outside (see ``Workload.time_setup``).
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    with tempfile.TemporaryDirectory(dir=ROOT) as work:
        WORKLOADS[name](seed, Path(work)).setup()
        print("ready", flush=True)
