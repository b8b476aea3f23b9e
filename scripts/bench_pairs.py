"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py [--change REV] [--parent REV]
        [--pairs lte_only=10 g5_only=5 mixed_dense=5 sweep=5]
        [--seed 1] [--out BENCH_<n>.json] [--work-dir DIR]

Both revisions are exported with `git archive` into a temporary directory,
so neither the working tree nor the repository's worktree list is touched.
Each pair runs `python3 perfbench/run.py --workload W` once in each
checkout, at perfbench's own run length, parent first in even pairs and
change first in odd ones, so slow and fast spells of the host fall on both
sides. The record keeps every run's final JSON line and summarises every
end-to-end metric the benchmark judges (`tx_per_s`, `run_s`, `sweep_s`,
`setup_s` and `peak_rss_mb`) per workload: median, inclusive quartiles, the
pairs the change won and the per-pair change/parent ratios. Its `command`
names both revisions as commits, so it reruns the same comparison whatever
HEAD is by then. A run that fails stays in the record with its exit code and
the tail of its stderr, its pair drops out of the summaries, and the record
is still written; the script then exits 1, as it does when a run's digests
do not all match.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PAIRS = ("lte_only=10", "g5_only=5", "mixed_dense=5", "sweep=5")
# metric -> (higher is better, decimals kept in the summary)
SPREADS = {"tx_per_s": (True, 1), "run_s": (False, 4), "sweep_s": (False, 4),
           "setup_s": (False, 4), "peak_rss_mb": (False, 3)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> dict:
    """Extract the tree of `rev` into `dest`; return its commit and src tree."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **safe)
    return {"commit": git("rev-parse", f"{rev}^{{commit}}"),
            "src_tree": git("rev-parse", f"{rev}:src")}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The run's final JSON line plus digests_match: it printed at least one
    digest line, and every one says match. A run that fails or prints no
    JSON line is kept as its exit code and the tail of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if out.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"returncode": out.returncode, "stderr_tail": out.stderr.splitlines()[-20:],
                "correct": False, "digests_match": False}
    digests = [line for line in lines if f"{workload} digest " in line]
    result["digests_match"] = bool(digests) and all(line.endswith(" match") for line in digests)
    return result


def summary(values: list[float], digits: int) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, digits), "q1": round(q1, digits),
            "q3": round(q3, digits), "iqr": round(q3 - q1, digits),
            "min": round(min(values), digits), "max": round(max(values), digits)}


def spread(runs: dict, metric: str, higher_better: bool, digits: int) -> dict:
    """The metric over the pairs in which both runs finished."""
    both = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if "metrics" in p and "metrics" in c]
    if len(both) < 2:
        return {"pairs": len(both)}
    parent, change = (list(side) for side in zip(*both))
    wins = sum((c > p) if higher_better else (c < p) for p, c in both)
    return {
        "pairs": len(parent),
        "parent": summary(parent, digits),
        "change": summary(change, digits),
        "change_wins": wins,
        "median_ratio": round(statistics.median(change) / statistics.median(parent), 3),
        "pair_ratios": [round(c / p, 3) for p, c in zip(parent, change)],
    }


def host() -> dict:
    cpuinfo = Path("/proc/cpuinfo")  # Linux only
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip()
                  for line in lines if line.startswith("model name")), platform.processor())
    return {"cores": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "os": platform.system()}


def next_record() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--change", default="HEAD", help="revision under test (default HEAD)")
    p.add_argument("--parent", help="baseline revision (default: the change's first parent)")
    p.add_argument("--pairs", nargs="+", default=list(DEFAULT_PAIRS),
                   metavar="WORKLOAD=N", help="pairs per workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, help="record to write (default: next free BENCH_<n>.json)")
    p.add_argument("--work-dir", type=Path, help="where to export the two checkouts")
    args = p.parse_args(argv)
    try:
        args.pairs = {w: int(n) for w, n in (item.split("=") for item in args.pairs)}
    except ValueError:
        p.error("--pairs takes WORKLOAD=N items")
    if any(n < 2 for n in args.pairs.values()):
        p.error("--pairs needs at least two pairs per workload, for the quartiles")
    args.parent = args.parent or f"{args.change}^"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out or next_record()
    if args.work_dir:
        args.work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        revs = {side: export(rev, dirs[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        per_workload = {}
        for workload, pairs in args.pairs.items():
            runs = {"pairs": pairs, "orders": [], "parent": [], "change": []}
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs["orders"].append(f"{order[0]} first")
                for side in order:
                    result = run_once(dirs[side], workload, args.seed)
                    runs[side].append(result)
                    if "metrics" in result:
                        tx = result["metrics"]["tx_per_s"]["value"]
                        print(f"{workload} pair {i} {side} {tx:.1f} tx/s", flush=True)
                    else:
                        print(f"{workload} pair {i} {side} failed with exit code "
                              f"{result['returncode']}", flush=True)
            per_workload[workload] = runs

    every_run = [r for runs in per_workload.values() for side in ("parent", "change")
                 for r in runs[side]]
    # A failed run has correct false, so `and` never reaches its missing "failed".
    clean = all(r["correct"] and r["failed"] == 0 and r["digests_match"] for r in every_run)
    record = {
        "what": "perfbench end-to-end results for a change against its parent, measured "
                "in alternating pairs on one host. Each entry is the final JSON line of "
                f"`python3 perfbench/run.py --workload W --seed {args.seed}` at perfbench's own "
                "run length, "
                "plus digests_match: every digest line of the run printed match.",
        "command": "python3 scripts/bench_pairs.py " + " ".join(
            ["--change", revs["change"]["commit"], "--parent", revs["parent"]["commit"],
             "--pairs", *(f"{w}={n}" for w, n in args.pairs.items()),
             "--seed", str(args.seed)]),
        "parent": revs["parent"],
        "change": revs["change"],
        "host": host(),
        "notes": [
            "per_workload: alternating pairs of one workload each, run back to back; "
            "the *_spread entries summarise them (quartiles are inclusive, iqr = q3 - q1; "
            "change_wins counts the pairs where the change was better).",
            "Every run printed match for every digest, with correct true and 0 failed."
            if clean else "Some runs were not clean: see correct, failed and digests_match; "
            "a run that failed keeps its returncode and stderr_tail, and its pair is left "
            "out of the spreads.",
        ],
        "per_workload": per_workload,
    }
    for metric, (higher_better, digits) in SPREADS.items():
        record[f"{metric}_spread"] = {w: spread(runs, metric, higher_better, digits)
                                      for w, runs in per_workload.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
