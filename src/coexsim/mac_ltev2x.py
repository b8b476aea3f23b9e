"""Sidelink Mode 4 scheduler: TTI timing, RSSI sensing history, SPS resource selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Globally synchronized 1 ms scheduling grid; the last OFDM symbol of every
# TTI (71 us) is an unused guard.
TTI_US = 1000
OCCUPIED_US = 929


@dataclass
class SpsConfig:
    keep_probability: float = 0.5
    counter_min: int = 5
    counter_max: int = 15
    sensing_window_ttis: int = 1000
    best_fraction: float = 0.2
    decode_threshold_dbm: float = -110.0
    reservation_expiry_ttis: int = 1000

    def validate(self) -> list[str]:
        errors = []
        if not 0.0 <= self.keep_probability <= 1.0:
            errors.append("keep_probability must be in [0,1]")
        if not 1 <= self.counter_min <= self.counter_max:
            errors.append("reselection counter range must satisfy 1 <= min <= max")
        if self.sensing_window_ttis < 1:
            errors.append("sensing_window_ttis must be >= 1")
        if not 0.0 < self.best_fraction <= 1.0:
            errors.append("best_fraction must be in (0,1]")
        if self.reservation_expiry_ttis < 1:
            errors.append("reservation_expiry_ttis must be >= 1")
        return errors


class SensingHistory:
    """Per-node average RSSI (mW) per TTI over the trailing sensing window.

    Rows are a ring buffer keyed by tti % window. Unwritten or not yet
    finalized TTIs read back as the noise floor and non-blind, which doubles
    as the cold-start prior. Blind rows mark TTIs the node spent transmitting.
    The open TTI fills in as time advances: its power is integrated over the
    occupied symbols, and a node that starts transmitting sets blind_now.
    """

    def __init__(self, n_nodes: int, noise_mw: float, window_ttis: int):
        self.window = window_ttis
        self.noise_mw = noise_mw
        self.rssi_mw = np.full((window_ttis, n_nodes), noise_mw)
        self.blind = np.zeros((window_ttis, n_nodes), dtype=bool)
        self.last_finalized_tti = -1
        self.blind_now = np.zeros(n_nodes, dtype=bool)
        self._acc_mw_us = np.zeros(n_nodes)
        self._t_us = 0

    def advance(self, t_us: int, power_mw: np.ndarray) -> None:
        """Integrate power_mw, constant since the last call, up to t_us and
        finalize every TTI that has ended by then."""
        if t_us <= self._t_us:
            return
        while True:
            tti = self.last_finalized_tti + 1
            start = tti * TTI_US
            hi = min(t_us, start + OCCUPIED_US)
            if hi > self._t_us:
                self._acc_mw_us += power_mw * (hi - self._t_us)
            if t_us < start + TTI_US:
                break
            self.finalize(tti, self._acc_mw_us / OCCUPIED_US + self.noise_mw, self.blind_now)
            self._acc_mw_us.fill(0.0)
            self.blind_now.fill(False)
            self._t_us = start + TTI_US
        self._t_us = t_us

    def finalize(self, tti: int, avg_mw: np.ndarray, blind: np.ndarray) -> None:
        row = tti % self.window
        self.rssi_mw[row] = avg_mw
        self.blind[row] = blind
        self.last_finalized_tti = tti

    def lag_views(self, candidates: np.ndarray, node: int,
                  n_lags: int, lag_step: int) -> tuple[np.ndarray, np.ndarray]:
        """RSSI values and blind flags at candidate - k*lag_step for k=1..n_lags."""
        lags = lag_step * np.arange(1, n_lags + 1)
        ttis = candidates[:, None] - lags[None, :]
        valid = (ttis >= 0) & (ttis <= self.last_finalized_tti)
        rows = ttis % self.window
        vals = np.where(valid, self.rssi_mw[rows, node], self.noise_mw)
        blind = np.where(valid, self.blind[rows, node], False)
        return vals, blind


class SpsScheduler:
    """Semi-persistent scheduling state of every LTE node in a run.

    A resource is one whole TTI; a node's selected offset repeats every
    period, one beacon period of TTIs. Its reselection counter decrements at
    each CAM generation; on expiry the offset is kept with the keep
    probability, otherwise reselected from the sensed best candidates.

    Per node: the offset (-1 before the first selection) and the counter.
    Decoded reservations share one table indexed [receiver, transmitter]: the
    announced offset (-1 for none) and the TTI it was last decoded.
    """

    def __init__(self, n_nodes: int, period_ttis: int, cfg: SpsConfig,
                 history: SensingHistory, rng: np.random.Generator):
        self.period = period_ttis
        self.cfg = cfg
        self.history = history
        self.rng = rng
        self.offset = np.full(n_nodes, -1)
        self.counter = np.zeros(n_nodes, dtype=int)
        self.resv_offset = np.full((n_nodes, n_nodes), -1)
        self.resv_seen = np.zeros((n_nodes, n_nodes), dtype=int)

    def _draw_counter(self) -> int:
        return int(self.rng.integers(self.cfg.counter_min, self.cfg.counter_max + 1))

    def _next_occurrence(self, node: int, now_tti: int) -> int:
        """Smallest TTI strictly after now matching the node's offset."""
        return now_tti + 1 + (int(self.offset[node]) - now_tti - 1) % self.period

    def reserved_offset_mask(self, node: int, now_tti: int) -> np.ndarray:
        """Offsets announced by the reservations this node decoded that are
        still live at now_tti."""
        offsets = self.resv_offset[node]
        age = now_tti - self.resv_seen[node]
        mask = np.zeros(self.period, dtype=bool)
        mask[offsets[(offsets >= 0) & (age <= self.cfg.reservation_expiry_ttis)]] = True
        return mask

    def select_resource(self, node: int, now_tti: int) -> int:
        """Pick a TTI among the least-utilized fifth of the next period.

        Candidates with any blind lag or a live decoded reservation are
        excluded first; survivors are ranked by linear-mean RSSI across the
        period-spaced lags (blind entries skipped), ties broken by a uniform
        shuffle before a stable sort. If exclusion removes everything, ranking
        falls back to all candidates that are not fully blind.
        """
        cfg = self.cfg
        period = self.period
        candidates = np.arange(now_tti + 1, now_tti + 1 + period)
        vals, blind = self.history.lag_views(
            candidates, node, cfg.sensing_window_ttis // period, period)
        any_blind = blind.any(axis=1)
        fully_blind = blind.all(axis=1)
        n_heard = np.maximum((~blind).sum(axis=1), 1)
        scores = np.where(blind, 0.0, vals).sum(axis=1) / n_heard

        reserved = self.reserved_offset_mask(node, now_tti)[candidates % period]
        keep = ~any_blind & ~reserved
        if not keep.any():
            keep = ~fully_blind
        if not keep.any():
            keep = np.ones_like(fully_blind)

        pool = candidates[keep]
        pool_scores = scores[keep]
        perm = self.rng.permutation(pool.size)
        order = np.argsort(pool_scores[perm], kind="stable")
        best_n = min(max(1, round(cfg.best_fraction * period)), pool.size)
        chosen = int(pool[perm[order[self.rng.integers(best_n)]]])
        self.offset[node] = chosen % period
        return chosen

    def on_generation(self, node: int, now_tti: int) -> int:
        """Advance the node's SPS counter at a CAM generation; returns the
        TTI that will carry this packet."""
        if self.offset[node] < 0:
            tx_tti = self.select_resource(node, now_tti)
        else:
            self.counter[node] -= 1
            if self.counter[node] > 0:
                return self._next_occurrence(node, now_tti)
            if self.rng.random() < self.cfg.keep_probability:
                tx_tti = self._next_occurrence(node, now_tti)
            else:
                tx_tti = self.select_resource(node, now_tti)
        self.counter[node] = self._draw_counter()
        return tx_tti

    def note_decode(self, tx: int, receivers: np.ndarray, offset: int, now_tti: int) -> None:
        """Record node tx's reservation at every receiver that decoded its
        control message."""
        self.resv_offset[receivers, tx] = offset
        self.resv_seen[receivers, tx] = now_tti
