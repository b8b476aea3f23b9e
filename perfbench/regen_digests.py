"""Regenerate the reference digests the benchmark compares every run against.

    python3 perfbench/regen_digests.py

Runs one untimed round of every workload for each seed 0 to 20 and rewrites
perfbench/digests.json. Regenerate only for a change that is meant to alter
simulated results, and say so in that change.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(21)

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, round_digests

    work_dir = ROOT / ".perfbench_out" / "regen"
    refs = {}
    for name, w in WORKLOADS.items():
        refs[name] = {}
        for seed in SEEDS:
            refs[name].update(round_digests(w, seed, work_dir))
            print(name, seed, flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    path = ROOT / "perfbench" / "digests.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
