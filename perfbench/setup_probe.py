"""Print the host seconds from `import coexsim` to a constructed Simulation.

Run in a fresh interpreter: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    import coexsim  # noqa: F401  (the import is part of what is timed)
    from perfbench.workloads import WORKLOADS

    WORKLOADS[name].first_simulation(seed)
    print(repr(time.perf_counter() - t0))
