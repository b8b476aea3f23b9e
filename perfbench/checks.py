"""Output checks on each benchmark run.

Every check is a property the method must have, or a count the benchmark
computes from the configuration without asking the program. Each returns a
problem description, or None when the output passes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Histogram rows, as documented in the repository README.
TECHS = ("ItsG5", "LteV2x")
CSV_HEADER = ["tech", "bin_lo_m", "bin_hi_m", "prr", "prr_std", "opportunities", "runs"]

NEAR_M = (0.0, 50.0)
FAR_M = (250.0, 300.0)
MIN_NEAR_PRR = 0.9


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5))


def station_counts(engine_cfg) -> tuple[int, int]:
    """(ITS-G5 stations, LTE-V2X stations) for a configuration."""
    road = engine_cfg.road
    n = _round_half_away(road.density_veh_per_km * road.length_m / 1000.0)
    n_g5 = _round_half_away(engine_cfg.itsg5_fraction * n)
    return n_g5, n - n_g5


def _generations(end_us: int, first_max_us: int, period_lo_us: int,
                 period_hi_us: int) -> tuple[int, int]:
    """Bounds on the CAMs one station generates in [0, end_us).

    The first CAM falls in [0, first_max_us) and the gaps lie in
    [period_lo_us, period_hi_us].
    """
    lo = (end_us - first_max_us) // period_hi_us + 1
    hi = -(-end_us // period_lo_us)
    return lo, hi


def expected_cams(engine_cfg) -> tuple[int, int]:
    """Bounds on cams_generated; equal when every station beacons at 100 ms."""
    traffic = engine_cfg.traffic
    end_us = round((engine_cfg.warm_up_s + engine_cfg.measure_s) * 1e6)
    base_us = round(traffic.base_period_ms * 1000.0)
    half_us = round(traffic.itsg5_jitter_ms * 1000.0)
    n_g5, n_lte = station_counts(engine_cfg)
    fixed = _generations(end_us, base_us, base_us, base_us)
    if traffic.mode.value == "constrained":
        jittered = fixed
    else:
        jittered = _generations(end_us, base_us, base_us - half_us, base_us + half_us)
    return (n_g5 * jittered[0] + n_lte * fixed[0],
            n_g5 * jittered[1] + n_lte * fixed[1])


def check_conservation(log, engine_cfg, pending: int) -> str | None:
    c = log.counters
    out = c["tx_itsg5"] + c["tx_ltev2x"] + c["cams_dropped"] + pending
    if c["cams_generated"] != out:
        return (f"conservation: cams_generated {c['cams_generated']} != tx + dropped "
                f"+ pending = {out}")
    return None


def check_histogram_totals(log, engine_cfg, pending: int) -> str | None:
    c = log.counters
    opp = int(log.histogram.opportunities.sum())
    succ = int(log.histogram.successes.sum())
    if opp != c["rx_opportunities"] or succ != c["rx_success"]:
        return (f"histogram totals: {opp}/{succ} opportunities/successes in bins, "
                f"{c['rx_opportunities']}/{c['rx_success']} in counters")
    return None


def check_bin_bounds(log, engine_cfg, pending: int) -> str | None:
    h = log.histogram
    c = log.counters
    bad = np.argwhere((h.successes > h.opportunities) | (h.successes < 0))
    if bad.size:
        t, b = bad[0]
        return (f"bin bounds: {TECHS[t]} bin {b} has {h.successes[t, b]} successes "
                f"of {h.opportunities[t, b]} opportunities")
    if c["rx_success"] + c["rx_halfduplex"] > c["rx_opportunities"]:
        return (f"bin bounds: rx_success + rx_halfduplex = "
                f"{c['rx_success'] + c['rx_halfduplex']} > rx_opportunities "
                f"{c['rx_opportunities']}")
    return None


def check_cam_count(log, engine_cfg, pending: int) -> str | None:
    n_g5, n_lte = station_counts(engine_cfg)
    if log.n_vehicles != n_g5 + n_lte:
        return f"cam count: {log.n_vehicles} vehicles, expected {n_g5 + n_lte}"
    lo, hi = expected_cams(engine_cfg)
    got = log.counters["cams_generated"]
    if not lo <= got <= hi:
        return f"cam count: cams_generated {got} outside [{lo}, {hi}]"
    return None


def check_absent_tech(log, engine_cfg, pending: int) -> str | None:
    n_g5, n_lte = station_counts(engine_cfg)
    for t, present in enumerate((n_g5 > 0, n_lte > 0)):
        opp = int(log.histogram.opportunities[t].sum())
        if not present and opp:
            return f"absent tech: {opp} {TECHS[t]} opportunities with no {TECHS[t]} station"
    return None


def _band(hist, t: int, band_m: tuple[float, float]) -> tuple[int, int]:
    lo, hi = (int(round(x / hist.bin_width_m)) for x in band_m)
    return int(hist.successes[t, lo:hi].sum()), int(hist.opportunities[t, lo:hi].sum())


def band_prr(hist, t: int, band_m: tuple[float, float]) -> float:
    succ, opp = _band(hist, t, band_m)
    return succ / opp if opp else math.nan


def check_prr_shape(log, engine_cfg, pending: int) -> str | None:
    for t, n in enumerate(station_counts(engine_cfg)):
        if n == 0:
            continue
        near = band_prr(log.histogram, t, NEAR_M)
        far = band_prr(log.histogram, t, FAR_M)
        if not near >= MIN_NEAR_PRR:
            return f"prr shape: {TECHS[t]} PRR over 0-50 m is {near:.3f} < {MIN_NEAR_PRR}"
        if not near > far:
            return (f"prr shape: {TECHS[t]} PRR over 0-50 m ({near:.3f}) not above "
                    f"PRR over 250-300 m ({far:.3f})")
    return None


RUN_CHECKS = (check_conservation, check_histogram_totals, check_bin_bounds,
              check_cam_count, check_absent_tech, check_prr_shape)


def pending_at_end(sim) -> int:
    """CAMs still queued when the run stopped: LTE buffers and CSMA queues."""
    return len(sim.lte_pending) + sum(
        1 for mac in sim.macs if mac is not None and mac.pending is not None)


def check_run(log, engine_cfg, pending: int) -> list[str]:
    return [p for check in RUN_CHECKS if (p := check(log, engine_cfg, pending))]


def check_sweep_point(path: Path, agg, runs: int, present: tuple[bool, bool]) -> list[str]:
    """One (mode, mix) CSV against the Aggregate run_experiment returned for it."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        return [f"{path.name}: header {rows[0] if rows else None} != {CSV_HEADER}"]
    pooled = agg.pooled
    expected = [(TECHS[t], b) for t in range(len(TECHS)) if present[t]
                for b in range(pooled.n_bins)]
    got = [(r[0], round(float(r[1]) / pooled.bin_width_m)) for r in rows[1:]]
    if got != expected:
        return [f"{path.name}: rows cover {sorted(set(t for t, _ in got))}, "
                f"expected one per bin for {[TECHS[t] for t in range(2) if present[t]]}"]
    problems = []
    for row in rows[1:]:
        t = TECHS.index(row[0])
        b = round(float(row[1]) / pooled.bin_width_m)
        opp = int(pooled.opportunities[t, b])
        succ = int(pooled.successes[t, b])
        prr = succ / opp if opp else None
        if int(row[5]) != opp:
            problems.append(f"{path.name}: {row[0]} bin {b} opportunities {row[5]} != {opp}")
        if (float(row[3]) if row[3] else None) != prr:
            problems.append(f"{path.name}: {row[0]} bin {b} prr {row[3]!r} != {prr!r}")
        if int(row[6]) != runs:
            problems.append(f"{path.name}: {row[0]} bin {b} runs {row[6]} != {runs}")
    return problems[:5]
