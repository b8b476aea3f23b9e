"""The program names that the benchmark under perfbench/ relies on.

perfbench wraps each traced TARGETS entry through `vars(owner)[attr]` and
reads a few attributes of a finished Simulation. A rename would otherwise
surface only in perfbench's own tests or at benchmark time.
"""

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from coexsim import harness  # noqa: E402
from coexsim.engine import Simulation  # noqa: E402
from coexsim.mac_itsg5 import CsmaMac  # noqa: E402
from coexsim.results import PrrHistogram  # noqa: E402
from perfbench import checks  # noqa: E402
from perfbench.tracing import TARGETS  # noqa: E402

from conftest import small_engine_config  # noqa: E402


def test_every_traced_name_is_defined_on_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in TARGETS if attr not in vars(owner)]
    assert missing == []


# The fixed positional shapes perfbench's wrappers call these with.
CALL_SHAPES = {
    "CsmaMac.on_busy": (CsmaMac.on_busy, ("mac", "now_us")),
    "CsmaMac.on_idle": (CsmaMac.on_idle, ("mac", "now_us")),
    "CsmaMac.on_timer": (CsmaMac.on_timer, ("mac", "now_us", "token")),
    "PrrHistogram.record_many": (PrrHistogram.record_many,
                                 ("hist", "tech_index", "distances_m", "successes")),
    "harness.run_simulation": (harness.run_simulation, ("config", "seed")),
}


@pytest.mark.parametrize("name", list(CALL_SHAPES))
def test_wrapped_functions_accept_the_benchmarks_call_shapes(name):
    fn, args = CALL_SHAPES[name]
    inspect.signature(fn).bind(*args)


def test_pending_at_end_closes_cam_conservation():
    sim = Simulation(small_engine_config(itsg5_fraction=0.5), seed=11)
    log = sim.run()
    c = log.counters
    assert c["tx_itsg5"] > 0 and c["tx_ltev2x"] > 0
    assert checks.pending_at_end(sim) == (c["cams_generated"] - c["tx_itsg5"]
                                          - c["tx_ltev2x"] - c["cams_dropped"])
    # The clock sampler and the run checks read these too.
    assert sim.now == sim.end_us
    assert log.n_vehicles == sim.n == 20
