"""Protocol invariants behind the paper's claims, checked on the code path
that runs.

The full AIFS idle window before every CSMA start, a saturating sidelink
neighbour that keeps CSMA off the air, SPS picks within the best fifth and
uniform tie-breaking, the keep-probability reselection interval, the
channel's golden values and byte-identical reruns. Each test runs in
seconds, on instrumented or scripted runs, and prints a single PASS/FAIL
line with the measured numbers.
"""

import io
from bisect import bisect_left

import numpy as np
import pytest
from scipy import stats

from coexsim.channel import ar1_shadowing_step, noise_floor_dbm, path_loss_db
from coexsim.engine import EngineConfig, Simulation
from coexsim.harness import ExperimentConfig, run_experiment, run_seed
from coexsim.mac_ltev2x import SensingHistory, SpsConfig, SpsScheduler
from coexsim.scenario import Fleet, RoadConfig

from oracles import ContinuousLte, SpsCounts, record_cca, record_selections

# The acceptance sweep's master seed; the idle-window run is its first 50/50 run.
MASTER_SEED = 1


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _idle_throughout(times, states, start, end):
    """True if the node's sensed channel is idle over [start, end)."""
    lo = bisect_left(times, start)
    hi = bisect_left(times, end)
    for j in range(lo, hi):
        if states[j]:
            return False
    if lo < hi and times[lo] == start:
        return True  # a transition exactly at start (to idle) defines the state
    return not (lo > 0 and states[lo - 1])


def test_no_transmission_without_full_idle_window():
    cfg = EngineConfig(itsg5_fraction=0.5)
    sim = Simulation(cfg, run_seed(MASTER_SEED, 0.5, 0, 0))
    edges, starts = record_cca(sim)
    sim.run()
    aifs = cfg.csma.aifs_us
    violations = 0
    per_node = {
        node: ([t for t, _ in trans], [b for _, b in trans])
        for node, trans in edges.items()
    }
    for t, node in starts:
        times, states = per_node[node]
        if not _idle_throughout(times, states, t - aifs, t):
            violations += 1
    ok = violations == 0
    assert report("csma idle-window safety", ok,
                  f"{violations} of {len(starts)} starts violated "
                  f"the {aifs} us window")


def test_saturating_lte_neighbor_blocks_csma():
    fleet = Fleet(pos_m=np.array([0.0, 10.0]), lane=np.array([0, 0]),
                  is_lte=np.array([False, True]))
    cfg = EngineConfig(warm_up_s=0.0, measure_s=10.0)
    log = ContinuousLte(cfg, seed=1, fleet=fleet).run()
    c = log.counters
    ok = c["tx_itsg5"] == 0 and c["cams_generated"] >= 90
    assert report("saturated-channel blocking", ok,
                  f"{c['tx_itsg5']} frames sent from "
                  f"{c['cams_generated']} generated in 10 s, need 0")


# At 40 veh/km most candidates sit at the noise floor, so a fault in ranking
# or exclusion rarely moves a pick out of the best fifth; at 120 veh/km (60
# sidelink vehicles on the 500 m road) the pool is crowded enough that it does.
@pytest.mark.parametrize("density", [40, 120])
def test_sps_selections_stay_in_best_fifth(density):
    cfg = EngineConfig(road=RoadConfig(length_m=500.0, density_veh_per_km=float(density)),
                       itsg5_fraction=0.0, warm_up_s=1.0, measure_s=3.0)
    sim = Simulation(cfg, seed=21)
    selections = record_selections(sim)
    sim.run()
    # Pool and threshold come from the reference restatement, not from the
    # scheduler's own ranking.
    checked = len(selections)
    misses = sum(1 for _, _, chosen, pool, threshold in selections
                 if chosen not in pool or pool[chosen] > threshold)
    ok = misses == 0 and checked >= 20
    assert report("sps best-20% membership", ok,
                  f"{checked} selections, {misses} outside the reference best set")


def test_sps_tie_breaking_is_uniform():
    cfg = SpsConfig()
    history = SensingHistory(1, 10 ** (-98.0 / 10.0), cfg.sensing_window_ttis)
    sched = SpsScheduler(1, 100, cfg, history, np.random.default_rng(2))
    counts = np.zeros(100, dtype=int)
    trials = 10_000
    for _ in range(trials):
        counts[sched.select_resource(0, 0) - 1] += 1
    chi2 = float(((counts - trials / 100) ** 2 / (trials / 100)).sum())
    bound = float(stats.chi2.ppf(0.99, 99))
    ok = chi2 < bound
    assert report("sps tie-break uniformity", ok,
                  f"chi2 {chi2:.1f} over 100 cells, bound {bound:.1f}")


def test_channel_golden_values(rng):
    from coexsim.channel import LinkBudgetConfig
    link = LinkBudgetConfig()
    pl10 = float(path_loss_db(10.0, link))
    pl100 = float(path_loss_db(100.0, link))
    noise = noise_floor_dbm(link)
    s0 = rng.normal(0.0, 3.0, 10_000)
    s1 = ar1_shadowing_step(s0, 25.0, 3.0, 25.0, rng.normal(0.0, 3.0, 10_000))
    autocorr = float(np.corrcoef(s0, s1)[0, 1])
    ok = (abs(pl10 - 65.14) <= 0.01 and abs(pl100 - 100.06) <= 0.01
          and noise == -98.0 and abs(autocorr - 0.368) <= 0.05)
    assert report("channel golden values", ok,
                  f"PL(10)={pl10:.4f}, PL(100)={pl100:.4f}, "
                  f"noise={noise:.1f} dBm, lag-25 autocorr={autocorr:.3f}")


def test_repeat_execution_byte_identical(tmp_path):
    # A serial sweep and one on a pool of up to two workers write the same bytes.
    outs = []
    for sub, jobs in (("a", 1), ("b", 2)):
        cfg = ExperimentConfig()
        cfg.engine.road = RoadConfig(length_m=300.0, density_veh_per_km=20.0)
        cfg.engine.warm_up_s = 0.2
        cfg.engine.measure_s = 0.5
        cfg.mix_fractions = [1.0, 0.5]
        cfg.runs = 2
        cfg.out_dir = tmp_path / sub
        cfg.jobs = jobs
        run_experiment(cfg, stdout=io.StringIO())
        outs.append(cfg.out_dir)
    names_a = sorted(p.name for p in outs[0].iterdir())
    names_b = sorted(p.name for p in outs[1].iterdir())
    same = names_a == names_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in names_a)
    assert report("byte-identical reruns", same,
                  f"{len(names_a)} files compared")


def test_reselection_interval_statistics():
    cfg = SpsConfig()
    history = SensingHistory(1, 10 ** (-98.0 / 10.0), cfg.sensing_window_ttis)
    sched = SpsScheduler(1, 100, cfg, history, np.random.default_rng(3))
    counts = SpsCounts(sched)
    now = 0
    sched.on_generation(0, now)
    gens = 0
    while counts.expiries < 10_000:
        now += 100
        sched.on_generation(0, now)
        gens += 1
    mean = gens / (counts.reselections - 1)
    ok = abs(mean - 20.0) <= 2.0
    assert report("keep-probability interval", ok,
                  f"mean {mean:.2f} beacon periods per reselection over "
                  f"{counts.expiries} expiries, need 20 +/- 10%")
