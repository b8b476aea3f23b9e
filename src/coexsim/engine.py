"""Deterministic discrete-event core coupling traffic, MACs, channel and metrics.

Time is integer microseconds and every action is an event on one heap,
ordered by (time, kind, sequence); there is no 1 ms clock. The kind codes
double as same-instant priorities: geometry updates first, then transmission
ends (half-open busy intervals: at its end instant a signal is already gone),
sidelink slots, CAM generations, MAC timers, and run end. Stale MAC timers
are dropped when they fire. A CAM is its generation time in us.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .channel import (
    LinkBudgetConfig,
    PerCurve,
    ShadowingConfig,
    ShadowingField,
    default_itsg5_curve,
    default_ltev2x_curve,
    noise_floor_dbm,
    path_loss_db,
    reception_success,
    rx_power_mw,
    sinr_db,
)
from .mac_itsg5 import CsmaConfig, CsmaMac, airtime_us, cca_busy
from .mac_ltev2x import OCCUPIED_US, TTI_US, SensingHistory, SpsConfig, SpsScheduler
from .results import PrrHistogram
from .scenario import Fleet, RoadConfig, advance_positions, distance_matrix, fleet_errors, spawn
from .traffic import CamSource, TrafficConfig

EV_MOBILITY = 0
EV_TXEND = 1
EV_SLOT = 2
EV_CAM = 3
EV_MACTIMER = 4
EV_RUNEND = 5

SUBSTREAMS = ("placement", "traffic", "backoff", "sps", "reception", "shadowing")

# The counters RunLog.digest() hashes, in sorted order: a new counter leaves
# pinned digests alone. lte_silent_periods is retired and hashed as 0.
DIGEST_COUNTERS = ("cams_dropped", "cams_generated", "counted_tx", "lte_silent_periods",
                   "rx_halfduplex", "rx_opportunities", "rx_success", "tx_itsg5",
                   "tx_ltev2x")

# Delivered frames are scored in batches of at most this many; the cap bounds
# the batch's per-pair temporaries.
SCORE_BATCH = 64


@dataclass
class EngineConfig:
    road: RoadConfig = field(default_factory=RoadConfig)
    link: LinkBudgetConfig = field(default_factory=LinkBudgetConfig)
    shadowing: ShadowingConfig = field(default_factory=ShadowingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    csma: CsmaConfig = field(default_factory=CsmaConfig)
    sps: SpsConfig = field(default_factory=SpsConfig)
    itsg5_fraction: float = 1.0
    warm_up_s: float = 1.0
    measure_s: float = 10.0
    mobility_update_ms: int = 100
    relevance_margin_db: float = 10.0
    max_distance_m: float = 500.0
    bin_width_m: float = 10.0
    itsg5_per_curve: PerCurve | None = None
    ltev2x_per_curve: PerCurve | None = None
    # Sensitivity switch for the sidelink decoder abstraction: when False,
    # 802.11p bursts do not degrade sidelink packet decoding (the subframe PER
    # curve is treated as characterized against in-system interference only),
    # reproducing simulators whose cellular reception chain ignores foreign
    # waveforms. Sidelink-on-sidelink interference, all interference at 802.11p
    # receptions, and 802.11p energy in the SPS sensing averages are always
    # counted regardless.
    lte_rx_counts_itsg5_interference: bool = True

    def validate(self) -> list[str]:
        errors = []
        errors += self.road.validate()
        errors += self.link.validate()
        errors += self.shadowing.validate()
        traffic_errors = self.traffic.validate()
        timing_errors = traffic_errors + self.csma.validate()
        errors += timing_errors
        errors += self.sps.validate()
        if not 0.0 <= self.itsg5_fraction <= 1.0:
            errors.append("itsg5_fraction must be in [0,1]")
        if self.warm_up_s < 0:
            errors.append("warm_up_s must be >= 0")
        if self.measure_s <= 0:
            errors.append("measure_s must be > 0")
        if self.mobility_update_ms <= 0:
            errors.append("mobility_update_ms must be > 0")
        if self.max_distance_m <= 0:
            errors.append("max_distance_m must be > 0")
        if self.bin_width_m <= 0:
            errors.append("bin_width_m must be > 0")
        # The SPS selection window is one beacon period of whole TTIs, and
        # the sensing history holds whole periods of lags.
        if not traffic_errors:
            period_ttis, rest_us = divmod(round(self.traffic.base_period_ms * 1000), TTI_US)
            if rest_us or period_ttis < 1:
                errors.append("base_period_ms must be a whole number of 1 ms TTIs")
            elif self.sps.sensing_window_ttis % period_ttis:
                errors.append("base_period_ms must divide sensing_window_ttis")
        # An ITS-G5 frame must end before the station's next CAM; the shortest
        # period a station can draw is base_period_ms - itsg5_jitter_ms.
        shortest_us = (self.traffic.base_period_ms - self.traffic.itsg5_jitter_ms) * 1000
        if (not timing_errors
                and airtime_us(self.traffic.payload_bytes, self.csma) >= shortest_us):
            errors.append("ITS-G5 airtime must be shorter than "
                          "base_period_ms - itsg5_jitter_ms")
        return errors


@dataclass
class RunLog:
    histogram: PrrHistogram
    counters: dict[str, int]
    n_vehicles: int

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.histogram.opportunities.tobytes())
        h.update(self.histogram.successes.tobytes())
        counters = {**self.counters, "lte_silent_periods": 0}
        h.update(repr([(k, counters[k]) for k in DIGEST_COUNTERS]).encode())
        return h.hexdigest()


class TxRec:
    """One on-air transmission with its receive-side snapshots.

    rx power and distance rows are frozen at transmission start; interference
    is accumulated per receiver in mW*us as overlapping transmissions end.
    """

    __slots__ = ("tx", "lte", "t_gen_us", "start_us", "end_us", "rx_mw", "dist_m",
                 "interf_mw_us")

    def __init__(self, tx: int, lte: bool, t_gen_us: int, start_us: int, end_us: int,
                 rx_mw: np.ndarray, dist_m: np.ndarray, n: int):
        self.tx = tx
        self.lte = lte
        self.t_gen_us = t_gen_us
        self.start_us = start_us
        self.end_us = end_us
        self.rx_mw = rx_mw
        self.dist_m = dist_m
        self.interf_mw_us = np.zeros(n)


class Simulation:
    def __init__(self, config: EngineConfig, seed, fleet: Fleet | None = None):
        errors = config.validate()
        if fleet is not None:
            errors += fleet_errors(fleet, config.road)
        if errors:
            raise ValueError("invalid configuration: " + "; ".join(errors))
        self.cfg = config
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        streams = ss.spawn(len(SUBSTREAMS))
        self.rng = {name: np.random.default_rng(s) for name, s in zip(SUBSTREAMS, streams)}

        if fleet is None:
            fleet = spawn(config.road, config.itsg5_fraction, self.rng["placement"])
        self.pos = np.asarray(fleet.pos_m, dtype=float)
        self.lane = np.asarray(fleet.lane, dtype=int)
        self.dirsign = np.where(self.lane < config.road.lanes_per_direction, 1, -1)
        self.is_lte = np.asarray(fleet.is_lte, dtype=bool)
        self.n = n = self.pos.size
        self.lte_ids = np.nonzero(self.is_lte)[0]
        self.g5_ids = np.nonzero(~self.is_lte)[0]

        self.noise_dbm = noise_floor_dbm(config.link)
        self.noise_mw = 10.0 ** (self.noise_dbm / 10.0)
        self.relevance_mw = 10.0 ** ((self.noise_dbm - config.relevance_margin_db) / 10.0)
        self.cca_mw = 10.0 ** (config.csma.cca_threshold_dbm / 10.0)
        self.g5_airtime_us = airtime_us(config.traffic.payload_bytes, config.csma)
        pre = config.csma.preamble_threshold_dbm
        self.preamble_mw = None if pre is None else 10.0 ** (pre / 10.0)
        self.decode_mw = 10.0 ** (config.sps.decode_threshold_dbm / 10.0)
        self.curve = {
            False: config.itsg5_per_curve or default_itsg5_curve(),
            True: config.ltev2x_per_curve or default_ltev2x_curve(),
        }

        self.shadow = ShadowingField(n, config.shadowing.sigma_db,
                                     config.shadowing.decorr_m, self.rng["shadowing"])
        self._rebuild_geometry()

        self.power_mw = np.zeros(n)
        self.busy = np.zeros(n, dtype=bool)
        # per node: how many on-air same-technology frames are preamble-detectable
        self._preamble_count = np.zeros(n, dtype=int)
        self.active: dict[int, TxRec] = {}
        self.tx_end_us = np.zeros(n, dtype=np.int64)  # end of each node's latest frame
        # Written by each CsmaMac as its phase changes; LTE entries stay False.
        self.want_busy = np.zeros(n, dtype=bool)
        self.want_idle = np.zeros(n, dtype=bool)

        self.macs: list[CsmaMac | None] = [
            None if lte else CsmaMac(i, config.csma, self.rng["backoff"], self)
            for i, lte in enumerate(self.is_lte.tolist())
        ]
        self.history: SensingHistory | None = None
        self.sps: SpsScheduler | None = None
        if self.lte_ids.size:
            self.history = SensingHistory(n, self.noise_mw, config.sps.sensing_window_ttis)
            period_ttis = round(config.traffic.base_period_ms * 1000) // TTI_US
            self.sps = SpsScheduler(n, period_ttis, config.sps, self.history, self.rng["sps"])
        self.sources = CamSource(self.is_lte, config.traffic, self.rng["traffic"])

        # node -> generation time of its CAM awaiting its sidelink slot
        self.lte_pending: dict[int, int] = {}
        # delivered frames awaiting _score(), each with its half-duplex flags
        self._unscored: list[tuple[TxRec, np.ndarray]] = []

        self.hist = PrrHistogram(config.bin_width_m, config.max_distance_m)
        self.counters = {
            "cams_generated": 0, "cams_dropped": 0, "tx_itsg5": 0, "tx_ltev2x": 0,
            "counted_tx": 0, "rx_opportunities": 0, "rx_success": 0, "rx_halfduplex": 0,
        }

        self.now = 0
        self.end_us = round((config.warm_up_s + config.measure_s) * 1e6)
        self.warmup_us = round(config.warm_up_s * 1e6)
        self._seq = count()
        self.heap: list = []

        self._push(config.mobility_update_ms * 1000, EV_MOBILITY, None)
        for i, t_us in enumerate(self.sources.next_time_us):
            self._push(t_us, EV_CAM, i)
        self._push(self.end_us, EV_RUNEND, None)

    # -- airlink interface used by the CSMA MACs -----------------------------

    def is_busy(self, node: int) -> bool:
        return bool(self.busy[node])

    def arm_timer(self, node: int, due_us: int, token: int) -> None:
        self._push(due_us, EV_MACTIMER, (node, token))

    def start_tx(self, node: int, cam: int, now_us: int) -> None:
        self._begin_tx(node, cam, now_us)

    # -- internals -----------------------------------------------------------

    def _push(self, t_us: int, kind: int, payload) -> None:
        heapq.heappush(self.heap, (t_us, kind, next(self._seq), payload))

    def _rebuild_geometry(self) -> None:
        cfg = self.cfg
        self.dist = distance_matrix(self.pos, self.lane, cfg.road.lane_width_m)
        pl = path_loss_db(self.dist, cfg.link)
        rx_mw = rx_power_mw(pl, self.shadow.values_db, cfg.link)
        np.fill_diagonal(rx_mw, 0.0)
        self.rx_mw = rx_mw

    def _update_busy(self, t_us: int) -> None:
        if self.g5_ids.size == 0:
            return  # only CSMA MACs read the CCA state
        busy_new = cca_busy(self.power_mw, self.noise_mw, self.cca_mw,
                            self._preamble_count)
        changed = busy_new != self.busy
        self.busy = busy_new
        # An edge reaches only the MACs whose phase acts on it, in ascending
        # node order, so the backoff draws come in the same order as if every
        # MAC heard every edge.
        acting = changed & np.where(busy_new, self.want_busy, self.want_idle)
        for i in np.nonzero(acting)[0].tolist():
            if busy_new[i]:
                self.macs[i].on_busy(t_us)
            else:
                self.macs[i].on_idle(t_us)

    def _begin_tx(self, node: int, cam: int, t_us: int) -> None:
        if node in self.active:
            raise RuntimeError(f"node {node} is already transmitting")
        if self.history is not None:
            self.history.advance(t_us, self.power_mw)
        lte = bool(self.is_lte[node])
        dur = OCCUPIED_US if lte else self.g5_airtime_us
        rec = TxRec(node, lte, cam, t_us, t_us + dur,
                    self.rx_mw[node], self.dist[node], self.n)
        self.active[node] = rec
        self.tx_end_us[node] = rec.end_us
        self.power_mw = self.power_mw + rec.rx_mw
        if not lte and self.preamble_mw is not None:
            self._preamble_count += rec.rx_mw >= self.preamble_mw
        self._update_busy(t_us)
        self._push(rec.end_us, EV_TXEND, rec)
        if lte:
            self.history.blind_now[node] = True
            self.counters["tx_ltev2x"] += 1
        else:
            self.counters["tx_itsg5"] += 1

    def _end_tx(self, rec: TxRec, t_us: int) -> None:
        if self.history is not None:
            self.history.advance(t_us, self.power_mw)
        del self.active[rec.tx]
        count_at_lte = self.cfg.lte_rx_counts_itsg5_interference
        power = np.zeros(self.n)
        for other in self.active.values():
            w = t_us - max(rec.start_us, other.start_us)
            if w > 0:
                if rec.lte or not other.lte or count_at_lte:
                    other.interf_mw_us += rec.rx_mw * w
                if other.lte or not rec.lte or count_at_lte:
                    rec.interf_mw_us += other.rx_mw * w
            power += other.rx_mw
        self.power_mw = power
        if not rec.lte and self.preamble_mw is not None:
            self._preamble_count -= rec.rx_mw >= self.preamble_mw
        self._update_busy(t_us)
        self._deliver(rec, t_us)
        mac = self.macs[rec.tx]
        if mac is not None:
            mac.on_tx_complete(t_us)

    def _deliver(self, rec: TxRec, t_us: int) -> None:
        # Half-duplex: a node is deaf if its latest frame ends after this one
        # starts; its frames never overlap and ends sort before starts.
        halfdup = self.tx_end_us > rec.start_us
        if rec.lte:
            offset = (rec.start_us // TTI_US) % self.sps.period
            cand = self.lte_ids[(rec.rx_mw[self.lte_ids] >= self.decode_mw)
                                & ~halfdup[self.lte_ids]]
            self.sps.note_decode(rec.tx, cand, offset, t_us // TTI_US)

        if rec.t_gen_us < self.warmup_us:
            return
        self.counters["counted_tx"] += 1
        self._unscored.append((rec, halfdup))
        if len(self._unscored) >= SCORE_BATCH:
            self._score()

    def _score(self) -> None:
        """Score the buffered frames at every relevant receiver in range.

        Pairs are taken in delivery order, so the one draw equals the draws
        frame by frame.
        """
        if not self._unscored:
            return
        recs, halfdup = zip(*self._unscored)
        self._unscored = []
        rx_mw = np.stack([r.rx_mw for r in recs])
        dist = np.stack([r.dist_m for r in recs])
        mask = (rx_mw >= self.relevance_mw) & (dist < self.cfg.max_distance_m)
        # An infinite relevance margin admits the sender's own 0 mW entry.
        mask[np.arange(len(recs)), [r.tx for r in recs]] = False
        row, col = np.nonzero(mask)
        lte = np.array([r.lte for r in recs])[row]
        dur_us = np.array([r.end_us - r.start_us for r in recs])[row]
        interf = np.stack([r.interf_mw_us for r in recs])[row, col]
        sinr = sinr_db(rx_mw[row, col], interf, dur_us, self.noise_mw)
        draws = self.rng["reception"].random(row.size)
        halfdup = np.stack(halfdup)[row, col]
        dist = dist[row, col]
        for tech in (False, True):
            if (sel := lte == tech).any():
                per = self.curve[tech].lookup(sinr[sel])
                success = reception_success(per, draws[sel]) & ~halfdup[sel]
                self.hist.record_many(int(tech), dist[sel], success)
                self.counters["rx_success"] += int(success.sum())
        self.counters["rx_opportunities"] += int(row.size)
        self.counters["rx_halfduplex"] += int(halfdup.sum())

    def _on_slot(self, node: int, t_us: int) -> None:
        self._begin_tx(node, self.lte_pending.pop(node), t_us)

    def _on_cam(self, node: int, t_us: int) -> None:
        next_us = self.sources.generate(node, t_us)
        self.counters["cams_generated"] += 1
        if next_us < self.end_us:
            self._push(next_us, EV_CAM, node)
        mac = self.macs[node]
        if mac is not None:
            mac.on_packet_ready(t_us, t_us)
            return
        # Selection reads only the TTIs that have ended; integrating into the
        # open TTI here would split its segments and change their float sum.
        self.history.advance(t_us - t_us % TTI_US, self.power_mw)
        # The slot lies within one period, at or before the node's next CAM
        # (EV_SLOT sorts first), so a node holds at most one pending CAM.
        tx_tti = self.sps.on_generation(node, t_us // TTI_US)
        self.lte_pending[node] = t_us
        self._push(tx_tti * TTI_US, EV_SLOT, node)

    def _on_mobility(self, t_us: int) -> None:
        cfg = self.cfg
        # Buffered frames hold rows of this epoch's matrices; scoring them now
        # frees those matrices before the rebuild allocates the next ones.
        self._score()
        dt_s = cfg.mobility_update_ms / 1000.0
        self.pos = advance_positions(self.pos, self.dirsign, cfg.road.speed_mps,
                                     dt_s, cfg.road.length_m)
        moved = 2.0 * cfg.road.speed_mps * dt_s
        self.shadow.step(moved, self.rng["shadowing"])
        self._rebuild_geometry()
        nxt = t_us + cfg.mobility_update_ms * 1000
        if nxt <= self.end_us:
            self._push(nxt, EV_MOBILITY, None)

    def run(self) -> RunLog:
        heap = self.heap
        while heap:
            t, kind, _, payload = heapq.heappop(heap)
            if t < self.now:
                raise RuntimeError(f"event at {t} us processed after {self.now} us")
            self.now = t
            if kind == EV_RUNEND:
                break
            if kind == EV_TXEND:
                self._end_tx(payload, t)
            elif kind == EV_MACTIMER:
                node, token = payload
                self.macs[node].on_timer(t, token)
            elif kind == EV_CAM:
                self._on_cam(payload, t)
            elif kind == EV_SLOT:
                self._on_slot(payload, t)
            elif kind == EV_MOBILITY:
                self._on_mobility(t)
        self._score()
        for mac in self.macs:
            if mac is not None:
                self.counters["cams_dropped"] += mac.drops
                # Break the MAC <-> Simulation cycle: a pool worker then frees
                # each finished run at once, not at the next cyclic collection.
                mac.airlink = None
        return RunLog(histogram=self.hist, counters=dict(self.counters), n_vehicles=self.n)


def run(config: EngineConfig, seed) -> RunLog:
    """Simulate warm-up plus measurement time; same (config, seed) gives an
    identical RunLog."""
    return Simulation(config, seed).run()
