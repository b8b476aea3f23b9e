"""Test-only references and instruments for package code.

The scalar references restate a rule the simulator applies in vectorized
form, written the obvious way, so tests can assert that the two agree. The
reference_* link-budget functions keep the plain array expressions that the
package now evaluates in place, so tests can assert equal bits.
TxLog replays every scored reception of a run from its own log of frames.

The instruments observe a Simulation from outside: each wraps methods of one
instance and records what passes through before the run starts, so the
package carries no recording flags of its own. AllCcaEdges (the reference
CCA dispatch) and ContinuousLte (a saturation driver) are Simulation
subclasses. Both CCA references read the channel through cca_vector, which
sums the frames on air itself and never asks the engine for a node's state.
"""

import bisect
import csv
import math

import numpy as np

from coexsim.channel import (
    EFFECTIVE_ANTENNA_HEIGHT_M,
    MIN_PATHLOSS_DISTANCE_M,
    breakpoint_distance_m,
)
from coexsim.engine import EV_SLOT, Simulation
from coexsim.mac_itsg5 import airtime_us, cca_busy
from coexsim.mac_ltev2x import OCCUPIED_US, TTI_US
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


def reference_distance_matrix(pos_m, lane_index, lane_width_m: float) -> np.ndarray:
    """distance_matrix as plain expressions, each step a fresh array."""
    dx = pos_m[:, None] - pos_m[None, :]
    dy = (lane_index[:, None] - lane_index[None, :]) * lane_width_m
    return np.hypot(dx, dy)


def reference_path_loss_db(d_m, cfg) -> np.ndarray:
    """path_loss_db as plain expressions: both branches everywhere, then a
    choice by the breakpoint distance."""
    d = np.maximum(np.asarray(d_m, dtype=float), MIN_PATHLOSS_DISTANCE_M)
    f = cfg.carrier_ghz
    h = EFFECTIVE_ANTENNA_HEIGHT_M
    log_d = np.log10(d)
    log_f5 = np.log10(f / 5.0)
    near = 22.7 * log_d + 41.0 + 20.0 * log_f5
    far = 40.0 * log_d + 9.45 - 17.3 * np.log10(h) - 17.3 * np.log10(h) + 2.7 * log_f5
    return np.where(d <= breakpoint_distance_m(f), near, far)


def reference_rx_power_mw(pl_db, shadow_db, cfg):
    """rx_power_mw as one expression, leaving its inputs alone."""
    rx_dbm = cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db - pl_db - shadow_db
    return 10.0 ** (rx_dbm / 10.0)


def reference_ar1_step(s_db, moved_m, decorr_m: float, noise):
    """ar1_shadowing_step as one expression, leaving its inputs alone."""
    rho = np.exp(-np.asarray(moved_m, dtype=float) / decorr_m)
    return rho * s_db + np.sqrt(1.0 - rho * rho) * noise


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


def check_accounting(sim: Simulation, log) -> None:
    """Assert a finished run's accounting identities: every CAM is sent,
    dropped or still pending; successes and deaf receptions together never
    outnumber the opportunities; and no bin has more successes than
    opportunities."""
    c = log.counters
    pending = sum(m.pending is not None for m in sim.macs if m is not None)
    pending += len(sim.lte_pending)
    assert c["cams_generated"] == c["tx_itsg5"] + c["tx_ltev2x"] + c["cams_dropped"] + pending
    assert c["rx_success"] + c["rx_halfduplex"] <= c["rx_opportunities"]
    h = log.histogram
    assert (h.successes <= h.opportunities).all()


def air_power(sim: Simulation) -> tuple[np.ndarray, np.ndarray]:
    """(power_mw, preambles) at every node from the frames on air: the total
    received power, summed in start order from zero, and how many ITS-G5
    frames arrive at or above the preamble detection threshold."""
    power = np.zeros(sim.n)
    preambles = np.zeros(sim.n, dtype=int)
    pre_dbm = sim.cfg.csma.preamble_threshold_dbm
    for rec in sim.active.values():
        power += rec.rx_mw
        if not rec.lte and pre_dbm is not None:
            preambles += rec.rx_mw >= 10.0 ** (pre_dbm / 10.0)
    return power, preambles


def cca_vector(sim: Simulation) -> np.ndarray:
    """The two-tier CCA state of every node, from air_power."""
    power, preambles = air_power(sim)
    return cca_busy(power, sim.noise_mw, sim.cca_mw, preambles)


def record_cca(sim: Simulation) -> tuple[dict[int, list[tuple[int, bool]]],
                                         list[tuple[int, int]]]:
    """Record every CCA edge of each ITS-G5 node and every CSMA transmission.

    Returns (edges, starts): edges[node] lists (t_us, busy) for each change of
    the node's sensed channel state, from the full cca_vector after every
    frame start and end whether or not the node's MAC listens, and starts
    lists (t_us, node) for each frame a CSMA MAC puts on air. Both fill in as
    the run proceeds.
    """
    edges = {i: [] for i in np.flatnonzero(~sim.is_lte).tolist()}
    busy = cca_vector(sim)

    def note_edges(t_us):
        nonlocal busy
        before, busy = busy, cca_vector(sim)
        for i in np.flatnonzero(busy != before).tolist():
            if i in edges:
                edges[i].append((t_us, bool(busy[i])))

    start_tx, end_tx = sim.start_tx, sim._end_tx
    starts = []

    def start_spy(node, cam, t_us):
        start_tx(node, cam, t_us)
        note_edges(t_us)
        if not sim.is_lte[node]:
            starts.append((t_us, node))

    def end_spy(rec, t_us):
        end_tx(rec, t_us)
        note_edges(t_us)

    sim.start_tx, sim._end_tx = start_spy, end_spy
    return edges, starts


def reference_selection(history, sched, station: int,
                        now_tti: int) -> tuple[dict[int, float], float]:
    """The SPS candidate pool of a station (an LTE column) at now_tti and its
    best-n threshold.

    Restates the sensing-based selection (3GPP TS 36.213 14.1.1.6) from the
    history rows and the decoded-reservation table, one candidate at a time.
    A row's RSSI is its energy over the occupied symbols plus the noise
    floor. Each candidate TTI of the next period is scored by the mean RSSI
    of its period-spaced lags that the station heard; a lag before TTI 0 or
    not yet finalized reads as the noise floor and heard. The pool excludes
    candidates with any blind lag or a live reserved offset; if that empties
    it, the pool is every candidate not blind on all lags, and failing that
    every candidate. Returns ({tti: score} over the pool, the best_n-th
    smallest pool score): a pick from the best n has a score at or below it.
    """
    cfg, period = sched.cfg, sched.period
    n_lags = cfg.sensing_window_ttis // period
    reserved = set()  # a reservation decoded in TTI t announced offset t % period
    for seen in sched.resv_tti[station].tolist():
        if seen >= 0 and now_tti - seen <= cfg.reservation_expiry_ttis:
            reserved.add(seen % period)

    scores, any_blind, all_blind = {}, set(), set()
    for tti in range(now_tti + 1, now_tti + 1 + period):
        heard, blind_lags = [], 0
        for k in range(1, n_lags + 1):
            lag = tti - k * period
            if 0 <= lag <= history.last_finalized_tti:
                row = lag % history.window
                if history.blind[row, station]:
                    blind_lags += 1
                    continue
                energy = float(history.energy_mw_us[row, station])
                heard.append(energy / OCCUPIED_US + history.noise_mw)
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
    """Record (station, now_tti, chosen, pool, threshold) for every SPS
    selection, with pool and threshold from reference_selection, taken just
    before the scheduler picks."""
    selections = []
    sched = sim.sps
    select = sched.select_resource

    def spy(station, now_tti):
        pool, threshold = reference_selection(sched.history, sched, station, now_tti)
        chosen = select(station, now_tti)
        selections.append((station, now_tti, chosen, pool, threshold))
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
    """Reference dispatch: at each frame start and end (the engine's
    _dispatch_cca hook), the full cca_vector is taken and every CCA edge goes
    to every ITS-G5 MAC, in ascending node order; each MAC decides for itself
    whether it acts. The MACs also read their CCA state from that vector, not
    from the engine's is_busy."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.busy = cca_vector(self)

    def is_busy(self, node: int) -> bool:
        return bool(self.busy[node])

    def _dispatch_cca(self, t_us: int) -> None:
        busy_new = cca_vector(self)
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


class TxLog:
    """Replay of every reception a Simulation scores, from an independent log.

    Each frame start is logged with its sender, technology, generation time,
    end (from the airtime rules) and the sender's rx power and distance rows
    at that instant, as plain floats. After the run, mismatches() restates in
    plain Python, for every scored frame, which nodes are its receivers (not
    the sender, rx power at or above the relevance floor, nearer than
    max_distance_m), whether each was deaf (it sent a frame overlapping this
    one, half-open), the distance bin and the interference energy at each:
    the rx power of every other overlapping frame times the half-open
    overlap, leaving out ITS-G5 frames at an LTE reception when
    lte_rx_counts_itsg5_interference is off. These are compared with what
    the engine scored, batch by batch: the frames each _score call takes and
    their half-duplex flags and interference, and the distances it records.

    The log of frames and of CAM generations also checks the MAC rules on
    its own: no node's frames overlap (half-open); each LTE frame starts on a
    TTI boundary, in the TTI of its node's SPS offset at that instant, one to
    one period of TTIs after its CAM's TTI; every decoded reservation
    (note_decode) names an LTE frame of its station that started in the TTI
    it records, so that TTI modulo the period is the frame's offset; and
    every generated CAM is sent once, dropped or still pending, as the
    counters say.

    At every SPS selection it also restates the window the scheduler reads
    (read_window) from the logged frames: TTI t of a station senses
    sum(rx * |frame & [t * 1000, t * 1000 + 929)|) / 929 plus the noise
    floor, is blind where the station sent a frame in it, and reads as the
    noise floor and heard before TTI 0 or from the selection's own TTI on.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.frames = {}  # (tx, start_us) -> logged frame
        self.cams = []  # (node, generation time) of every CAM
        self.decodes = []  # (node, now_tti) of every note_decode call
        self.batches = []  # per _score call: [(engine TxRec, halfdup), ...]
        self.recorded = []  # per record_many call: (batch index, lte, distances, successes)
        self.reads = []  # per SPS selection: [station, now_tti, its read_window() or None]
        self._starts = []  # near_in_time's index, rebuilt when frames are added
        g5_us = airtime_us(sim.cfg.traffic.payload_bytes, sim.cfg.csma)
        start_tx, score, record_many = sim.start_tx, sim._score, sim.hist.record_many
        on_cam = sim._on_cam

        def start_spy(node, cam, t_us):
            lte = bool(sim.is_lte[node])
            self.frames[(node, t_us)] = dict(
                tx=node, lte=lte, t_gen_us=cam, start_us=t_us,
                end_us=t_us + (OCCUPIED_US if lte else g5_us),
                offset=int(sim.sps.offset[sim.lte_col[node]]) if lte else None,
                rx_mw=sim.rx_mw[node].tolist(), dist_m=sim.dist[node].tolist())
            start_tx(node, cam, t_us)

        def cam_spy(node, t_us):
            self.cams.append((node, t_us))
            on_cam(node, t_us)

        def score_spy():
            self.batches.append(list(sim._unscored))
            score()

        def record_spy(tech_index, distances_m, successes):
            self.recorded.append((len(self.batches) - 1, bool(tech_index),
                                  distances_m.tolist(), successes.tolist()))
            record_many(tech_index, distances_m, successes)

        sim.start_tx, sim._score, sim.hist.record_many = start_spy, score_spy, record_spy
        sim._on_cam = cam_spy
        if sim.sps is not None:
            note_decode = sim.sps.note_decode

            def decode_spy(tx, receivers, now_tti):
                self.decodes.append((int(sim.lte_ids[tx]), now_tti))
                note_decode(tx, receivers, now_tti)

            sim.sps.note_decode = decode_spy
            select, read_window = sim.sps.select_resource, sim.history.read_window

            def select_spy(station, now_tti):
                self.reads.append([station, now_tti, None])
                return select(station, now_tti)

            def read_spy(station, now_tti):
                rssi, blind = read_window(station, now_tti)
                self.reads[-1][2] = (station, now_tti, rssi.tolist(), blind.tolist())
                return rssi, blind

            sim.sps.select_resource, sim.history.read_window = select_spy, read_spy

    def near_in_time(self, f: dict) -> list[dict]:
        """The logged frames that start less than the longest airtime before f
        and before f ends: a superset of those overlapping f."""
        if len(self._starts) != len(self.frames):
            self._by_start = list(self.frames.values())  # logged in start order
            self._starts = [g["start_us"] for g in self._by_start]
            self._longest_us = max(g["end_us"] - g["start_us"] for g in self._by_start)
        lo = bisect.bisect_right(self._starts, f["start_us"] - self._longest_us)
        return self._by_start[lo:bisect.bisect_left(self._starts, f["end_us"])]

    def receptions(self, f: dict) -> list[dict]:
        """The replayed receptions of frame f, in ascending receiver order."""
        sim, cfg = self.sim, self.sim.cfg
        relevance_mw = 10.0 ** ((sim.noise_dbm - cfg.relevance_margin_db) / 10.0)
        overlapping = [(g, min(f["end_us"], g["end_us"]) - max(f["start_us"], g["start_us"]))
                       for g in self.near_in_time(f) if g is not f]
        overlapping = [(g, w) for g, w in overlapping if w > 0]
        out = []
        for j in range(sim.n):
            if (j == f["tx"] or f["rx_mw"][j] < relevance_mw
                    or not f["dist_m"][j] < cfg.max_distance_m):
                continue
            energy = sum(g["rx_mw"][j] * w for g, w in overlapping
                         if not (f["lte"] and not g["lte"]
                                 and not cfg.lte_rx_counts_itsg5_interference))
            out.append(dict(rx=j, halfdup=any(g["tx"] == j for g, _ in overlapping),
                            bin=math.floor(f["dist_m"][j] / cfg.bin_width_m),
                            energy_mw_us=energy))
        return out

    def sensed_window(self, station: int, now_tti: int) -> tuple[list[float], list[bool]]:
        """The replayed (rssi_mw, blind) of an LTE station over the sensing
        window of a selection at now_tti, oldest TTI first."""
        sim = self.sim
        node = sim.lte_ids.tolist()[station]
        energy, sent = {}, set()  # TTI -> mW*us at node; TTIs node sent in
        for f in self.frames.values():
            first_tti = f["start_us"] // TTI_US
            if f["tx"] == node and f["lte"]:
                sent.add(first_tti)
            for tti in range(first_tti, (f["end_us"] - 1) // TTI_US + 1):
                w = (min(f["end_us"], tti * TTI_US + OCCUPIED_US)
                     - max(f["start_us"], tti * TTI_US))
                if w > 0:
                    energy[tti] = energy.get(tti, 0.0) + f["rx_mw"][node] * w
        rssi, blind = [], []
        for tti in range(now_tti + 1 - sim.history.window, now_tti + 1):
            ended = 0 <= tti < now_tti
            rssi.append(energy.get(tti, 0.0) / OCCUPIED_US + sim.noise_mw if ended
                        else sim.noise_mw)
            blind.append(ended and tti in sent)
        return rssi, blind

    def window_problems(self) -> list[str]:
        """Every SPS selection whose sensing window differs from the replay's."""
        problems = []
        for station, now_tti, read in self.reads:
            if read is None or read[:2] != (station, now_tti):
                problems.append(f"station {station}'s selection at TTI {now_tti} did not "
                                f"read its own window")
                continue
            rssi, blind = self.sensed_window(station, now_tti)
            if read[3] != blind or not all(math.isclose(got, want, rel_tol=1e-12)
                                           for got, want in zip(read[2], rssi)):
                problems.append(f"station {station}'s window at TTI {now_tti} differs "
                                f"from the replay")
        return problems

    def frame_problems(self) -> list[str]:
        """Every break of the MAC rules in the logged frames and CAMs; [] when none."""
        sim, problems = self.sim, []
        latest = {}  # node -> its frame with the latest start so far
        for f in sorted(self.frames.values(), key=lambda f: f["start_us"]):
            prev = latest.get(f["tx"])
            if prev is not None and f["start_us"] < prev["end_us"]:
                problems.append(f"node {f['tx']}: frame at {f['start_us']} us starts before "
                                f"its frame at {prev['start_us']} us ends")
            latest[f["tx"]] = f
        period = round(sim.cfg.traffic.base_period_ms * 1000) // TTI_US
        for f in self.frames.values():
            tti, rest_us = divmod(f["start_us"], TTI_US)
            if f["lte"] and (rest_us or tti % period != f["offset"]
                             or not 1 <= tti - f["t_gen_us"] // TTI_US <= period):
                problems.append(f"LTE frame {f['tx']}@{f['start_us']} us is not on offset "
                                f"{f['offset']} within one period after its CAM")
        for node, tti in self.decodes:
            f = self.frames.get((node, tti * TTI_US))
            if f is None or not f["lte"] or tti % period != f["offset"]:
                problems.append(f"node {node}'s reservation decoded in TTI {tti} names no "
                                f"LTE frame of it on that offset")
        cams = set(self.cams)
        sent = [(f["tx"], f["t_gen_us"]) for f in self.frames.values()]
        unsent = cams - set(sent)
        pending = {(i, mac.pending) for i, mac in enumerate(sim.macs)
                   if mac is not None and mac.pending is not None}
        pending |= set(sim.lte_pending.items())
        if len(set(sent)) != len(sent) or not set(sent) <= cams:
            problems.append("a frame carries a CAM that was never generated or was already sent")
        if not pending <= unsent:
            problems.append("a pending CAM was never generated or was already sent")
        c = sim.counters
        counted = (c["cams_generated"], c["tx_itsg5"] + c["tx_ltev2x"], c["cams_dropped"])
        logged = (len(cams), len(sent), len(unsent - pending))
        if counted != logged:
            problems.append(f"CAMs (generated, sent, dropped): counters {counted}, log {logged}")
        return problems

    def mismatches(self) -> list[str]:
        """Every disagreement between the replay and the engine, and every
        frame_problems() and window_problems() entry; [] when none."""
        sim, problems = self.sim, self.frame_problems() + self.window_problems()
        scored = [rec for batch in self.batches for rec, _ in batch]
        expected = sorted((f["tx"], f["start_us"]) for f in self.frames.values()
                          if f["t_gen_us"] >= sim.warmup_us and f["end_us"] <= sim.end_us)
        if sorted((r.tx, r.start_us) for r in scored) != expected:
            problems.append("the scored frames are not the counted frames that ended")
        expected_rows = {}  # (batch, lte) -> the replay's (bin, deaf) rows, in record order
        pairs = halfdup_pairs = 0
        for b, batch in enumerate(self.batches):
            for rec, halfdup in batch:
                f = self.frames[(rec.tx, rec.start_us)]
                for r in self.receptions(f):
                    j = r["rx"]
                    expected_rows.setdefault((b, f["lte"]), []).append((r["bin"], r["halfdup"]))
                    pairs += 1
                    halfdup_pairs += r["halfdup"]
                    if bool(halfdup[j]) != r["halfdup"]:
                        problems.append(f"frame {rec.tx}@{rec.start_us} us at {j}: half-duplex "
                                        f"{bool(halfdup[j])}, replay {r['halfdup']}")
                    got = float(rec.interf_mw_us[j])
                    if not math.isclose(got, r["energy_mw_us"], rel_tol=1e-12):
                        problems.append(f"frame {rec.tx}@{rec.start_us} us at {j}: interference "
                                        f"{got!r} mW*us, replay {r['energy_mw_us']!r}")
        width = sim.cfg.bin_width_m
        recorded = {}
        for b, lte, dists, successes in self.recorded:
            recorded.setdefault((b, lte), []).extend(zip(dists, successes))
        for key in sorted(set(expected_rows) | set(recorded)):
            want = expected_rows.get(key, [])
            got = recorded.get(key, [])
            tech = "LTE" if key[1] else "ITS-G5"
            if [math.floor(d / width) for d, _ in got] != [bin_ for bin_, _ in want]:
                problems.append(f"batch {key[0]}, {tech}: the recorded bins differ from the replay's")
            elif any(ok and deaf for (_, ok), (_, deaf) in zip(got, want)):
                problems.append(f"batch {key[0]}, {tech}: a deaf receiver decoded a frame")
        if sim.counters["rx_opportunities"] != pairs:
            problems.append(f"{sim.counters['rx_opportunities']} opportunities, replay {pairs}")
        if sim.counters["rx_halfduplex"] != halfdup_pairs:
            problems.append(f"{sim.counters['rx_halfduplex']} half-duplex, replay {halfdup_pairs}")
        return problems
