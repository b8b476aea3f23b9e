"""Full default sweep: both CAM modes x five technology mixes, 20 runs each.

Writes one CSV per (mode, mix) point plus a matplotlib script into
results/full_sweep. The 200 runs take about 4 minutes on one core; pass
--jobs N to parallelize or --runs to trade precision for time. Any extra
arguments are forwarded to the coexsim CLI.
"""

import sys

from coexsim.harness import main

if __name__ == "__main__":
    sys.exit(main(["--out", "results/full_sweep", *sys.argv[1:]]))
