"""Run coexsim's benchmark on one workload, or on all four.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the workload is timed in whole rounds, at least one and no
more than fit in S seconds, and reports the end-to-end metrics; with
--trace 1 it makes one untraced and one traced pass and reports the per-layer
metrics. Every run's outputs are checked. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
coexsim is imported from the `src` directory next to this one and nowhere
else.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("g5_only", "lte_only", "mixed_dense", "sweep")
SETUP_PROBES = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup_seconds(name: str, seed: int, probes: int) -> list[float]:
    """Set-up times of `probes` fresh interpreters."""
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times



def reference_digests(name: str) -> dict[str, str]:
    return json.loads((BENCH / "digests.json").read_text()).get(name, {})


def run_workload(args: argparse.Namespace) -> dict:
    from perfbench.workloads import WORKLOADS, time_workload, trace_workload

    work_dir = WORK_DIR / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        outcome = trace_workload(WORKLOADS[args.workload], args.seed, work_dir)
    else:
        # Half the set-up probes run before the timed section and half after
        # it, so that their median spans the host's slow and fast spells.
        setup = setup_seconds(args.workload, args.seed, SETUP_PROBES // 2)
        outcome = time_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                work_dir)
        setup += setup_seconds(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        outcome.metrics["setup_s"] = (statistics.median(setup), "s")

    refs = reference_digests(args.workload)
    for key, digest in outcome.digests.items():
        ref = refs.get(key)
        verdict = "no reference" if ref is None else ("match" if ref == digest else "MISMATCH")
        print(f"{args.workload} digest {key} {digest} {verdict}")
    for problem in outcome.problems:
        print(f"{args.workload} CHECK FAILED {problem}")
    print(f"{args.workload} attempted {outcome.attempted} failed {outcome.failed}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"{args.workload} {metric} {value:.6g} {unit}")
    return {"correct": not outcome.problems, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()}}


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coexsim" / "__init__.py").is_file():
        print(f"coexsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
