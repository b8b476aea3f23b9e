"""Sidelink Mode 4 scheduler: TTI timing, RSSI sensing history, SPS resource selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import nonfinite_errors

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
        errors = nonfinite_errors(self)
        if not 0.0 <= self.keep_probability <= 1.0:
            errors.append("keep_probability must be in [0,1]")
        if not 1 <= self.counter_min <= self.counter_max:
            errors.append("reselection counter range must satisfy 1 <= min <= max")
        if not self.sensing_window_ttis >= 1:
            errors.append("sensing_window_ttis must be >= 1")
        if not 0.0 < self.best_fraction <= 1.0:
            errors.append("best_fraction must be in (0,1]")
        if not self.reservation_expiry_ttis >= 1:
            errors.append("reservation_expiry_ttis must be >= 1")
        return errors


class SensingHistory:
    """Average RSSI (mW) per TTI over the trailing sensing window, one column
    per LTE station (only they sense).

    Rows are a ring buffer keyed by tti % window. Unwritten or not yet
    finalized TTIs read back as the noise floor and non-blind, which doubles
    as the cold-start prior. Blind rows mark TTIs the station spent
    transmitting. The open TTI fills in from the frames on air as time
    advances: their power at the stations (rx_lte_mw) is integrated over the
    occupied symbols, and LTE senders set blind_now at their lte_col.
    """

    def __init__(self, n_stations: int, noise_mw: float, window_ttis: int):
        self.window = window_ttis
        self.noise_mw = noise_mw
        self.rssi_mw = np.full((window_ttis, n_stations), noise_mw)
        self.blind = np.zeros((window_ttis, n_stations), dtype=bool)
        self.last_finalized_tti = -1
        self.blind_now = np.zeros(n_stations, dtype=bool)
        self._acc_mw_us = np.zeros(n_stations)
        self._t_us = 0

    def advance(self, t_us: int, frames) -> None:
        """Integrate the frames on air since the last call up to t_us, their
        power summed in start order from zero as CCA sums it, mark their LTE
        senders blind, and finalize every TTI that has ended by then."""
        if t_us <= self._t_us:
            return
        power_mw = 0.0  # a float while nothing is on air
        for rec in frames:
            power_mw = power_mw + rec.rx_lte_mw
            if rec.lte:
                self.blind_now[rec.lte_col] = True
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

    def lag_views(self, candidates: np.ndarray, station: int,
                  n_lags: int, lag_step: int) -> tuple[np.ndarray, np.ndarray]:
        """RSSI values and blind flags at candidate - k*lag_step for k=1..n_lags."""
        lags = lag_step * np.arange(1, n_lags + 1)
        ttis = candidates[:, None] - lags[None, :]
        valid = (ttis >= 0) & (ttis <= self.last_finalized_tti)
        rows = ttis % self.window
        vals = np.where(valid, self.rssi_mw[rows, station], self.noise_mw)
        blind = np.where(valid, self.blind[rows, station], False)
        return vals, blind


class SpsScheduler:
    """Semi-persistent scheduling state of every LTE station in a run.

    Stations are numbered 0..m-1, the columns of the sensing history; the
    engine maps its node ids to them. A resource is one whole TTI; a
    station's selected offset repeats every period, one beacon period of
    TTIs. Its reselection counter decrements at each CAM generation; on
    expiry the offset is kept with the keep probability, otherwise
    reselected from the sensed best candidates.

    Per station: the offset (-1 before the first selection) and the counter.
    Decoded reservations share one table indexed [receiver, transmitter]:
    the TTI of the last decode (-1 for never). A sidelink frame lies within
    one TTI, so that TTI modulo the period is the offset it announced.
    """

    def __init__(self, n_stations: int, period_ttis: int, cfg: SpsConfig,
                 history: SensingHistory, rng: np.random.Generator):
        self.period = period_ttis
        self.cfg = cfg
        self.history = history
        self.rng = rng
        self.offset = np.full(n_stations, -1)
        self.counter = np.zeros(n_stations, dtype=int)
        self.resv_tti = np.full((n_stations, n_stations), -1)

    def _draw_counter(self) -> int:
        return int(self.rng.integers(self.cfg.counter_min, self.cfg.counter_max + 1))

    def _next_occurrence(self, station: int, now_tti: int) -> int:
        """Smallest TTI strictly after now matching the station's offset."""
        return now_tti + 1 + (int(self.offset[station]) - now_tti - 1) % self.period

    def reserved_offset_mask(self, station: int, now_tti: int) -> np.ndarray:
        """Offsets announced by the reservations this station decoded that are
        still live at now_tti."""
        seen = self.resv_tti[station]
        live = (seen >= 0) & (now_tti - seen <= self.cfg.reservation_expiry_ttis)
        mask = np.zeros(self.period, dtype=bool)
        mask[seen[live] % self.period] = True
        return mask

    def select_resource(self, station: int, now_tti: int) -> int:
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
            candidates, station, cfg.sensing_window_ttis // period, period)
        any_blind = blind.any(axis=1)
        fully_blind = blind.all(axis=1)
        n_heard = np.maximum((~blind).sum(axis=1), 1)
        scores = np.where(blind, 0.0, vals).sum(axis=1) / n_heard

        reserved = self.reserved_offset_mask(station, now_tti)[candidates % period]
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
        self.offset[station] = chosen % period
        return chosen

    def on_generation(self, station: int, now_tti: int) -> int:
        """Advance the station's SPS counter at a CAM generation; returns the
        TTI that will carry this packet."""
        if self.offset[station] < 0:
            tx_tti = self.select_resource(station, now_tti)
        else:
            self.counter[station] -= 1
            if self.counter[station] > 0:
                return self._next_occurrence(station, now_tti)
            if self.rng.random() < self.cfg.keep_probability:
                tx_tti = self._next_occurrence(station, now_tti)
            else:
                tx_tti = self.select_resource(station, now_tti)
        self.counter[station] = self._draw_counter()
        return tx_tti

    def note_decode(self, tx: int, receivers: np.ndarray, now_tti: int) -> None:
        """Record station tx's reservation at every receiver that decoded its
        control message, sent in TTI now_tti."""
        self.resv_tti[receivers, tx] = now_tti
