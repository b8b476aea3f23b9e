"""Test-only references and instruments for package code.

The scalar references restate a rule the simulator applies in vectorized
form, written the obvious way, so tests can assert that the two agree.

The instruments observe a Simulation from outside: each wraps methods of one
instance and records what passes through before the run starts, so the
package carries no recording flags of its own. AllCcaEdges (the reference
CCA dispatch) and ContinuousLte (a saturation driver) are Simulation
subclasses.
"""

import csv
import math

import numpy as np

from coexsim.engine import EV_SLOT, Simulation
from coexsim.mac_itsg5 import cca_busy
from coexsim.mac_ltev2x import TTI_US
from coexsim.results import CSV_HEADER
from coexsim.scenario import RoadConfig


def advance(pos_m: float, sign: int, cfg: RoadConfig, dt_s: float) -> float:
    """One vehicle's position after dt_s seconds in direction sign (+1 or -1),
    wrapping around the ring."""
    if dt_s < 0:
        raise ValueError("dt_s must be >= 0")
    wrapped = (pos_m + sign * cfg.speed_mps * dt_s) % cfg.length_m
    return wrapped if wrapped < cfg.length_m else 0.0


def distance_m(pos_a: float, lane_a: int, pos_b: float, lane_b: int,
               lane_width_m: float = 4.0) -> float:
    """Euclidean distance on the unwrapped line (mobility wraps, geometry does not)."""
    return math.hypot(pos_a - pos_b, (lane_a - lane_b) * lane_width_m)


def read_csv(path) -> list[dict]:
    """Parse one emitted PRR table into typed rows; a wrong header is an error."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ValueError(f"{path}: expected header '{CSV_HEADER}'")
        rows = []
        for row in reader:
            rows.append({
                "tech": row[0],
                "bin_lo_m": float(row[1]),
                "bin_hi_m": float(row[2]),
                "prr": float(row[3]) if row[3] else None,
                "prr_std": float(row[4]) if row[4] else None,
                "opportunities": int(row[5]),
                "runs": int(row[6]),
            })
    return rows


def record_cca(sim: Simulation) -> tuple[dict[int, list[tuple[int, bool]]],
                                         list[tuple[int, int]]]:
    """Record every CCA edge of each ITS-G5 node and every CSMA transmission.

    Returns (edges, starts): edges[node] lists (t_us, busy) for each change of
    the node's sensed channel state, read from the engine's CCA vector whether
    or not the node's MAC is told, and starts lists (t_us, node) for each
    frame a CSMA MAC puts on air. Both fill in as the run proceeds.
    """
    edges = {int(i): [] for i in sim.g5_ids}
    update_busy = sim._update_busy

    def cca_spy(t_us):
        before = sim.busy.copy()
        update_busy(t_us)
        for i in np.flatnonzero(sim.busy != before).tolist():
            if i in edges:
                edges[i].append((t_us, bool(sim.busy[i])))

    sim._update_busy = cca_spy
    starts = []
    start_tx = sim.start_tx

    def spy(node, cam, now_us):
        start_tx(node, cam, now_us)
        starts.append((now_us, node))

    sim.start_tx = spy
    return edges, starts


def reference_selection(history, sched, node: int,
                        now_tti: int) -> tuple[dict[int, float], float]:
    """The SPS candidate pool of node at now_tti and its best-n threshold.

    Restates the sensing-based selection (3GPP TS 36.213 14.1.1.6) from the
    history rows and the decoded-reservation table, one candidate at a time.
    Each candidate TTI of the next period is scored by the mean RSSI of its
    period-spaced lags that the node heard; a lag before TTI 0 or not yet
    finalized reads as the noise floor and heard. The pool excludes
    candidates with any blind lag or a live reserved offset; if that empties
    it, the pool is every candidate not blind on all lags, and failing that
    every candidate. Returns ({tti: score} over the pool, the best_n-th
    smallest pool score): a pick from the best n has a score at or below it.
    """
    cfg, period = sched.cfg, sched.period
    n_lags = cfg.sensing_window_ttis // period
    reserved = set()
    for tx in range(sched.resv_offset.shape[1]):
        offset = int(sched.resv_offset[node, tx])
        if offset >= 0 and now_tti - int(sched.resv_seen[node, tx]) <= cfg.reservation_expiry_ttis:
            reserved.add(offset)

    scores, any_blind, all_blind = {}, set(), set()
    for tti in range(now_tti + 1, now_tti + 1 + period):
        heard, blind_lags = [], 0
        for k in range(1, n_lags + 1):
            lag = tti - k * period
            if 0 <= lag <= history.last_finalized_tti:
                row = lag % history.window
                if history.blind[row, node]:
                    blind_lags += 1
                    continue
                heard.append(float(history.rssi_mw[row, node]))
            else:
                heard.append(history.noise_mw)
        scores[tti] = sum(heard) / max(len(heard), 1)
        if blind_lags:
            any_blind.add(tti)
        if blind_lags == n_lags:
            all_blind.add(tti)

    pool = [t for t in scores if t not in any_blind and t % period not in reserved]
    if not pool:
        pool = [t for t in scores if t not in all_blind]
    if not pool:
        pool = list(scores)
    best_n = min(max(1, round(cfg.best_fraction * period)), len(pool))
    threshold = sorted(scores[t] for t in pool)[best_n - 1]
    return {t: scores[t] for t in pool}, threshold


def record_selections(sim: Simulation) -> list[tuple]:
    """Record (node, now_tti, chosen, pool, threshold) for every SPS
    selection, with pool and threshold from reference_selection, taken just
    before the scheduler picks."""
    selections = []
    sched = sim.sps
    select = sched.select_resource

    def spy(node, now_tti):
        pool, threshold = reference_selection(sched.history, sched, node, now_tti)
        chosen = select(node, now_tti)
        selections.append((node, now_tti, chosen, pool, threshold))
        return chosen

    sched.select_resource = spy
    return selections


class SpsCounts:
    """Reselections and counter expiries of an SPS scheduler that serves one
    node, from now on.

    Every reselection is a select_resource call, and every counter draw
    after the first follows an expiry.
    """

    def __init__(self, sched):
        self.reselections = 0
        self.draws = 0
        select, draw = sched.select_resource, sched._draw_counter

        def select_spy(node, now_tti):
            self.reselections += 1
            return select(node, now_tti)

        def draw_spy():
            self.draws += 1
            return draw()

        sched.select_resource = select_spy
        sched._draw_counter = draw_spy

    @property
    def expiries(self) -> int:
        return self.draws - 1


class AllCcaEdges(Simulation):
    """Reference dispatch: every CCA edge goes to every ITS-G5 MAC, in
    ascending node order, and each MAC decides for itself whether it acts."""

    def _update_busy(self, t_us: int) -> None:
        busy_new = cca_busy(self.power_mw, self.noise_mw, self.cca_mw,
                            self._preamble_count)
        changed = np.nonzero(busy_new != self.busy)[0]
        self.busy = busy_new
        for i in changed:
            mac = self.macs[i]
            if mac is None:
                continue
            if busy_new[i]:
                mac.on_busy(t_us)
            else:
                mac.on_idle(t_us)


class ContinuousLte(Simulation):
    """Saturation driver: every LTE node transmits in every TTI, bypassing SPS.

    LTE nodes generate no CAMs. Each LTE node gets a sidelink slot in every
    TTI, from 0 us on and in ascending id order at each instant; the slot
    brings a fresh CAM, which the engine's own slot handling puts on air, and
    schedules the node's next slot. ITS-G5 nodes run as usual.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for i in self.lte_ids.tolist():
            self._push(0, EV_SLOT, i)

    def _on_cam(self, node: int, t_us: int) -> None:
        if not self.is_lte[node]:
            super()._on_cam(node, t_us)

    def _on_slot(self, node: int, t_us: int) -> None:
        self.lte_pending[node] = t_us
        super()._on_slot(node, t_us)
        self._push(t_us + TTI_US, EV_SLOT, node)
