"""Acceptance suite: the full-size coexistence sweep.

The tests pool ten runs per (mode, mix) point of the default 2 km /
61.5 veh/km scenario, seeded exactly like the CLI harness, and check the
headline reception-range behaviour of both technologies. Each test prints a
single PASS/FAIL line with the measured numbers so a sweep log is
self-describing. The protocol-level checks are in test_protocol_invariants.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from coexsim import engine as eng
from coexsim.engine import EngineConfig
from coexsim.harness import run_seed
from coexsim.results import aggregate
from coexsim.traffic import TrafficMode

from test_protocol_invariants import MASTER_SEED, report

RUNS = 10
MIXES = (1.0, 0.75, 0.5, 0.25, 0.0)
G5, LTE = 0, 1
NEAR_BINS = slice(0, 30)  # bins up to 300 m


def pooled_point(mode: TrafficMode, mix: float):
    base = EngineConfig()
    cfg = replace(base, itsg5_fraction=mix,
                  traffic=replace(base.traffic, mode=mode))
    mode_index = list(TrafficMode).index(mode)
    hists = [eng.run(cfg, run_seed(MASTER_SEED, mix, mode_index, r)).histogram
             for r in range(RUNS)]
    return aggregate(hists)


@pytest.fixture(scope="module")
def sweep():
    points = {}
    for mix in MIXES:
        points[("standard", mix)] = pooled_point(TrafficMode.STANDARD, mix)
    points[("constrained", 0.5)] = pooled_point(TrafficMode.CONSTRAINED, 0.5)
    return points


def prr_row(sweep, mode: str, mix: float, tech: int) -> np.ndarray:
    return sweep[(mode, mix)].prr[tech]


def range_m(prr: np.ndarray, bin_width: float = 10.0) -> float:
    """Upper edge of the contiguous run of bins holding PRR >= 0.9."""
    edge = 0.0
    for b, v in enumerate(prr):
        if np.isnan(v):
            continue
        if v < 0.9:
            break
        edge = (b + 1) * bin_width
    return edge


def test_baseline_itsg5_only_range(sweep):
    r = range_m(prr_row(sweep, "standard", 1.0, G5))
    ok = r >= 200.0
    assert report("itsg5-only 0.9-range", ok, f"{r:.0f} m, need >= 200 m")


def test_mixed_itsg5_range_collapses(sweep):
    r = range_m(prr_row(sweep, "standard", 0.5, G5))
    ok = 60.0 <= r <= 160.0
    assert report("50/50 itsg5 0.9-range", ok, f"{r:.0f} m, need 60..160 m")


def test_ltev2x_prr_insensitive_to_mix(sweep):
    base = prr_row(sweep, "standard", 0.0, LTE)[NEAR_BINS]
    worst = 0.0
    details = []
    for mix in (0.75, 0.5, 0.25):
        row = prr_row(sweep, "standard", mix, LTE)[NEAR_BINS]
        both = ~np.isnan(base) & ~np.isnan(row)
        delta = float(np.max(np.abs(row[both] - base[both])))
        details.append(f"mix {mix}: {delta:.3f}")
        worst = max(worst, delta)
    ok = worst <= 0.10
    assert report("lte PRR insensitivity", ok,
                  "; ".join(details) + ", need <= 0.10 up to 300 m")


def test_itsg5_degradation_monotone_in_lte_share(sweep):
    rows = [prr_row(sweep, "standard", mix, G5)[NEAR_BINS]
            for mix in (1.0, 0.75, 0.5, 0.25)]
    worst = 0.0
    for hi, lo in zip(rows, rows[1:]):
        both = ~np.isnan(hi) & ~np.isnan(lo)
        worst = max(worst, float(np.max(lo[both] - hi[both])))
    ok = worst <= 0.02
    assert report("itsg5 monotone degradation", ok,
                  f"max increase {worst:.3f}, slack 0.02 up to 300 m")


def test_constrained_mode_improves_both(sweep):
    msgs, ok = [], True
    for tech, name in ((G5, "itsg5"), (LTE, "lte")):
        std = prr_row(sweep, "standard", 0.5, tech)
        con = prr_row(sweep, "constrained", 0.5, tech)
        both = ~np.isnan(std) & ~np.isnan(con)
        diff = np.where(both, con - std, np.nan)
        worst = float(np.nanmin(diff))
        mid = diff[10:30]
        best_mid = float(np.nanmax(mid)) if np.any(~np.isnan(mid)) else -np.inf
        tech_ok = worst >= -0.02 and best_mid >= 0.05
        ok = ok and tech_ok
        msgs.append(f"{name}: min {worst:+.3f} (>= -0.02), "
                    f"best gain 100..300 m {best_mid:+.3f} (>= +0.05)")
    assert report("constrained-mode mitigation", ok, "; ".join(msgs))
