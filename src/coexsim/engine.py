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
from .validation import nonfinite_errors

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

# The most distance bins a histogram may have: max_distance_m / bin_width_m.
MAX_BINS = 100_000


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
    itsg5_per_curve: PerCurve = field(default_factory=default_itsg5_curve)
    ltev2x_per_curve: PerCurve = field(default_factory=default_ltev2x_curve)
    # Sensitivity switch for the sidelink decoder abstraction: when False,
    # 802.11p bursts do not degrade sidelink packet decoding (the subframe PER
    # curve is treated as characterized against in-system interference only),
    # reproducing simulators whose cellular reception chain ignores foreign
    # waveforms. Sidelink-on-sidelink interference, all interference at 802.11p
    # receptions, and 802.11p energy in the SPS sensing averages are always
    # counted regardless.
    lte_rx_counts_itsg5_interference: bool = True

    def validate(self) -> list[str]:
        # relevance_margin_db may be +inf (every receiver is relevant), and an
        # infinite max_distance_m fails the whole-bins check below.
        errors = nonfinite_errors(self, "relevance_margin_db", "max_distance_m")
        errors += self.road.validate()
        errors += self.link.validate()
        errors += self.shadowing.validate()
        traffic_errors = self.traffic.validate()
        timing_errors = traffic_errors + self.csma.validate()
        errors += timing_errors
        errors += self.sps.validate()
        if not 0.0 <= self.itsg5_fraction <= 1.0:
            errors.append("itsg5_fraction must be in [0,1]")
        if not self.warm_up_s >= 0:
            errors.append("warm_up_s must be >= 0")
        if not self.measure_s > 0:
            errors.append("measure_s must be > 0")
        if not self.mobility_update_ms > 0:
            errors.append("mobility_update_ms must be > 0")
        if not self.relevance_margin_db > -np.inf:
            errors.append("relevance_margin_db must be a number or +inf")
        if not self.max_distance_m > 0:
            errors.append("max_distance_m must be > 0")
        if not self.bin_width_m > 0:
            errors.append("bin_width_m must be > 0")
        # Receptions nearer than max_distance_m are scored into round(max /
        # width) bins, so a part-covered last bin would drop or mislabel some.
        elif self.max_distance_m > 0 and not (
                (bins := self.max_distance_m / self.bin_width_m) < np.inf
                and abs(bins - round(bins)) <= 1e-12 * bins):
            errors.append("max_distance_m must be a whole number of bin_width_m")
        elif self.max_distance_m > 0 and bins > MAX_BINS:
            errors.append(f"max_distance_m / bin_width_m must be at most {MAX_BINS} bins")
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


@dataclass(slots=True)
class TxRec:
    """One on-air transmission with its receive-side snapshots.

    rx power and distance rows are copied at transmission start, rx power
    also at the LTE stations alone (rx_lte_mw, in LTE column order);
    interference is accumulated per receiver in mW*us as overlapping
    transmissions end. lte_col is the sender's LTE column, -1 for ITS-G5.
    """

    tx: int
    lte: bool
    lte_col: int
    t_gen_us: int
    start_us: int
    end_us: int
    rx_mw: np.ndarray
    rx_lte_mw: np.ndarray
    dist_m: np.ndarray
    interf_mw_us: np.ndarray


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
        # The SPS state has one column per LTE station, in node order;
        # lte_col maps a node to its column (-1 for ITS-G5).
        self.lte_ids = np.nonzero(self.is_lte)[0]
        m = self.lte_ids.size
        self.lte_col = np.full(n, -1)
        self.lte_col[self.lte_ids] = np.arange(m)

        self.noise_dbm = noise_floor_dbm(config.link)
        self.noise_mw = 10.0 ** (self.noise_dbm / 10.0)
        self.relevance_mw = 10.0 ** ((self.noise_dbm - config.relevance_margin_db) / 10.0)
        self.cca_mw = 10.0 ** (config.csma.cca_threshold_dbm / 10.0)
        self.g5_airtime_us = airtime_us(config.traffic.payload_bytes, config.csma)
        pre = config.csma.preamble_threshold_dbm
        # With preamble detection off no frame reaches this level.
        self.preamble_mw = np.inf if pre is None else 10.0 ** (pre / 10.0)
        self.decode_mw = 10.0 ** (config.sps.decode_threshold_dbm / 10.0)
        self.curve = {False: config.itsg5_per_curve, True: config.ltev2x_per_curve}

        self.shadow = ShadowingField(n, config.shadowing.sigma_db,
                                     config.shadowing.decorr_m, self.rng["shadowing"])
        self._rebuild_geometry()

        self.active: dict[int, TxRec] = {}  # in start order
        self.tx_end_us = np.zeros(n, dtype=np.int64)  # end of each node's latest frame
        # The nodes whose CsmaMac is in AIFS, COUNT or DEFER, kept by the MACs.
        self.listening: set[int] = set()
        self.sensed_busy = [False] * n  # each node's last CCA read, kept by is_busy

        self.macs: list[CsmaMac | None] = [
            None if lte else CsmaMac(i, config.csma, self.rng["backoff"], self)
            for i, lte in enumerate(self.is_lte.tolist())
        ]
        self.history: SensingHistory | None = None
        self.sps: SpsScheduler | None = None
        if m:
            self.history = SensingHistory(m, self.noise_mw, config.sps.sensing_window_ttis)
            period_ttis = round(config.traffic.base_period_ms * 1000) // TTI_US
            self.sps = SpsScheduler(m, period_ttis, config.sps, self.history, self.rng["sps"])
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
        self.ran = False
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
        """The node's CCA state from the frames on air in start order, kept in sensed_busy."""
        power, preambles = 0.0, 0
        for rec in self.active.values():
            mw = rec.rx_mw.item(node)  # a float adds as a float64 does, only faster
            power += mw
            preambles += not rec.lte and mw >= self.preamble_mw
        self.sensed_busy[node] = busy = cca_busy(power, self.noise_mw, self.cca_mw, preambles)
        return busy

    def arm_timer(self, node: int, due_us: int, token: int) -> None:
        self._push(due_us, EV_MACTIMER, (node, token))

    def start_tx(self, node: int, cam: int, now_us: int) -> None:
        """Put the node's frame on air: CSMA MACs and sidelink slots both start here."""
        if node in self.active:
            raise RuntimeError(f"node {node} is already transmitting")
        lte = bool(self.is_lte[node])
        dur = OCCUPIED_US if lte else self.g5_airtime_us
        rx = self.rx_mw[node].copy()
        rec = TxRec(node, lte, self.lte_col.item(node), cam, now_us, now_us + dur,
                    rx, rx[self.lte_ids], self.dist[node].copy(), np.zeros(self.n))
        if self.history is not None:
            self.history.advance(now_us, self.active.values())
        self.active[node] = rec
        self.tx_end_us[node] = rec.end_us
        self._dispatch_cca(now_us)
        self._push(rec.end_us, EV_TXEND, rec)
        self.counters["tx_ltev2x" if lte else "tx_itsg5"] += 1

    # -- internals -----------------------------------------------------------

    def _push(self, t_us: int, kind: int, payload) -> None:
        heapq.heappush(self.heap, (t_us, kind, next(self._seq), payload))

    def _rebuild_geometry(self) -> None:
        cfg = self.cfg
        # The last epoch goes before the next is built; frames own their rows.
        self.dist = self.rx_mw = None
        dist = distance_matrix(self.pos, self.lane, cfg.road.lane_width_m)
        rx_mw = rx_power_mw(path_loss_db(dist, cfg.link), self.shadow.values_db, cfg.link)
        # A node is never its own receiver.
        np.fill_diagonal(rx_mw, 0.0)
        np.fill_diagonal(dist, np.inf)
        self.dist, self.rx_mw = dist, rx_mw

    def _dispatch_cca(self, t_us: int) -> None:
        """Send each listening node's CCA edge, a fresh read that differs from
        its last, to its MAC, which decides whether to act: on_idle on a turn
        to idle, on_busy on a turn to busy. A node is read as it starts to
        listen and at every frame start and end, and frames own their rows, so
        its last read is its state before this change. Ascending node order
        draws the backoffs as if every MAC heard every edge."""
        for i in sorted(self.listening):
            was_busy = self.sensed_busy[i]
            if self.is_busy(i) != was_busy:
                if was_busy:
                    self.macs[i].on_idle(t_us)
                else:
                    self.macs[i].on_busy(t_us)

    def _end_tx(self, rec: TxRec, t_us: int) -> None:
        if self.history is not None:
            self.history.advance(t_us, self.active.values())
        del self.active[rec.tx]
        count_at_lte = self.cfg.lte_rx_counts_itsg5_interference
        for other in self.active.values():
            w = t_us - max(rec.start_us, other.start_us)
            if w > 0:
                if rec.lte or not other.lte or count_at_lte:
                    other.interf_mw_us += rec.rx_mw * w
                if other.lte or not rec.lte or count_at_lte:
                    rec.interf_mw_us += other.rx_mw * w
        self._dispatch_cca(t_us)
        self._deliver(rec, t_us)
        mac = self.macs[rec.tx]
        if mac is not None:
            mac.on_tx_complete(t_us)

    def _deliver(self, rec: TxRec, t_us: int) -> None:
        # Half-duplex: a node is deaf if its latest frame ends after this one
        # starts; its frames never overlap and ends sort before starts.
        halfdup = self.tx_end_us > rec.start_us
        if rec.lte:
            decoders = ((rec.rx_lte_mw >= self.decode_mw)
                        & ~halfdup[self.lte_ids]).nonzero()[0]
            self.sps.note_decode(rec.lte_col, decoders, t_us // TTI_US)

        if rec.t_gen_us < self.warmup_us:
            return
        self.counters["counted_tx"] += 1
        self._unscored.append((rec, halfdup))
        if len(self._unscored) >= SCORE_BATCH:
            self._score()

    def _score(self) -> None:
        """Score the buffered frames at every relevant receiver in range.

        Pairs are taken in delivery order, so the one draw equals the draws
        frame by frame. A pair is its flat index frame * n + receiver.
        """
        if not self._unscored:
            return
        recs, halfdup = zip(*self._unscored)
        self._unscored = []
        rx_mw = np.array([r.rx_mw for r in recs])
        dist = np.array([r.dist_m for r in recs])
        mask = (rx_mw >= self.relevance_mw) & (dist < self.cfg.max_distance_m)
        flat = np.flatnonzero(mask)
        frame = flat // self.n
        lte = np.array([r.lte for r in recs])[frame]
        dur_us = np.array([r.end_us - r.start_us for r in recs])[frame]
        interf = np.array([r.interf_mw_us for r in recs]).take(flat)
        sinr = sinr_db(rx_mw.take(flat), interf, dur_us, self.noise_mw)
        draws = self.rng["reception"].random(flat.size)
        halfdup = np.array(halfdup).take(flat)
        dist = dist.take(flat)
        for tech in (False, True):
            if (sel := lte == tech).any():
                per = self.curve[tech].lookup(sinr[sel])
                success = reception_success(per, draws[sel]) & ~halfdup[sel]
                self.hist.record_many(int(tech), dist[sel], success)
                self.counters["rx_success"] += int(success.sum())
        self.counters["rx_opportunities"] += int(flat.size)
        self.counters["rx_halfduplex"] += int(halfdup.sum())

    def _on_slot(self, node: int, t_us: int) -> None:
        self.start_tx(node, self.lte_pending.pop(node), t_us)

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
        self.history.advance(t_us - t_us % TTI_US, self.active.values())
        # The slot lies within one period, at or before the node's next CAM
        # (EV_SLOT sorts first), so a node holds at most one pending CAM.
        tx_tti = self.sps.on_generation(self.lte_col.item(node), t_us // TTI_US)
        self.lte_pending[node] = t_us
        self._push(tx_tti * TTI_US, EV_SLOT, node)

    def _on_mobility(self, t_us: int) -> None:
        cfg = self.cfg
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
        if self.ran:
            raise RuntimeError("a Simulation runs once")
        self.ran = True
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
