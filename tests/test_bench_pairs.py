"""scripts/bench_pairs.py keeps a failed run in its record and trusts no
run that printed no digest line."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_checkout(path: Path, body: str) -> Path:
    """A checkout whose perfbench/run.py is the given script."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(body)
    return path


RESULT = {"correct": True, "failed": 0, "metrics": {"tx_per_s": {"value": 1.0}}}


def test_run_once_keeps_a_failed_run_and_requires_a_digest_line(tmp_path):
    bench_pairs = load_bench_pairs()
    failing = stub_checkout(tmp_path / "failing", (
        "import sys\n"
        "print('starting')\n"
        "print('boom: the benchmark broke', file=sys.stderr)\n"
        "sys.exit(1)\n"))
    run = bench_pairs.run_once(failing, "lte_only", 1)
    assert run["returncode"] == 1 and run["stderr_tail"] == ["boom: the benchmark broke"]
    assert not run["correct"] and not run["digests_match"]
    # A clean exit whose output holds no digest line cannot vouch for the digests.
    silent = stub_checkout(tmp_path / "silent", f"print({json.dumps(json.dumps(RESULT))})\n")
    run = bench_pairs.run_once(silent, "lte_only", 1)
    assert run["correct"] and run["metrics"] == RESULT["metrics"]
    assert run["digests_match"] is False
    # Pairs with a failed run drop out of the spreads.
    runs = {"parent": [RESULT, RESULT, RESULT], "change": [RESULT, RESULT, {"returncode": 1}]}
    assert bench_pairs.spread(runs, "tx_per_s", True, 1)["pairs"] == 2
