"""Smoke run of about a second on a shortened road; prints the PRR summary table."""

import sys
from pathlib import Path

from coexsim.harness import main

CONFIG = Path(__file__).with_name("quick_demo.cfg")

if __name__ == "__main__":
    sys.exit(main(["--config", str(CONFIG), "--out", "results/quick_demo",
                   "--verbose", *sys.argv[1:]]))
