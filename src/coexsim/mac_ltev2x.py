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
    """Received energy (mW*us) per TTI over the trailing sensing window, one
    column per LTE station (only they sense).

    Rows are a ring buffer keyed by tti % window. The open TTI, the one after
    the last finalized, fills its own row from the frames on air as time
    advances: their power at the stations (rx_lte_mw) is integrated over the
    occupied symbols, and LTE senders set their lte_col blind. Finalizing a
    TTI clears the next row for the TTI that opens. read_window() turns a
    station's energies into average RSSI for selection.
    """

    def __init__(self, n_stations: int, noise_mw: float, window_ttis: int):
        self.window = window_ttis
        self.noise_mw = noise_mw
        self.energy_mw_us = np.zeros((window_ttis, n_stations))
        self.blind = np.zeros((window_ttis, n_stations), dtype=bool)
        self.last_finalized_tti = -1
        self._t_us = 0
        # Copying a zero row clears one faster than filling it from a scalar.
        self._zero_energy = np.zeros(n_stations)
        self._zero_blind = np.zeros(n_stations, dtype=bool)

    def advance(self, t_us: int, frames) -> None:
        """Integrate the frames on air since the last call up to t_us, their
        power summed in start order as CCA sums it, mark their LTE senders
        blind, and finalize every TTI that has ended by then."""
        if t_us <= self._t_us:
            return
        power_mw = None  # nothing on air
        row = (self.last_finalized_tti + 1) % self.window
        for rec in frames:
            power_mw = rec.rx_lte_mw if power_mw is None else power_mw + rec.rx_lte_mw
            if rec.lte:
                self.blind[row, rec.lte_col] = True
        while True:
            tti = self.last_finalized_tti + 1
            start = tti * TTI_US
            hi = min(t_us, start + OCCUPIED_US)
            if power_mw is not None and hi > self._t_us:
                self.energy_mw_us[tti % self.window] += power_mw * (hi - self._t_us)
            if t_us < start + TTI_US:
                break
            self.finalize(tti)
            self._t_us = start + TTI_US
        self._t_us = t_us

    def finalize(self, tti: int) -> None:
        """Close TTI tti and clear the row of the TTI that opens."""
        row = (tti + 1) % self.window
        self.energy_mw_us[row] = self._zero_energy
        self.blind[row] = self._zero_blind
        self.last_finalized_tti = tti

    def read_window(self, station: int, now_tti: int) -> tuple[np.ndarray, np.ndarray]:
        """Average RSSI (mW) and blind flags of one station over the window
        of TTIs ending at now_tti, oldest first: index i holds TTI
        now_tti + 1 - window + i. A TTI before 0 or not yet finalized reads as
        the noise floor and heard, which doubles as the cold-start prior.
        """
        split = (now_tti + 1) % self.window
        energy, blind = self.energy_mw_us[:, station], self.blind[:, station]
        rssi = np.concatenate((energy[split:], energy[:split]))
        blind = np.concatenate((blind[split:], blind[:split]))
        rssi /= OCCUPIED_US
        rssi += self.noise_mw
        first = now_tti + 1 - self.window
        # [:before] are the TTIs before 0 and [after:] the unfinalized ones.
        before = max(-first, 0)
        after = max(self.last_finalized_tti + 1 - first, before)
        rssi[:before] = self.noise_mw
        rssi[after:] = self.noise_mw
        blind[:before] = False
        blind[after:] = False
        return rssi, blind


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
        n_lags = cfg.sensing_window_ttis // period
        # Candidate j is TTI now_tti + 1 + j. The window is whole periods, so
        # its lag k is window index (n_lags - k) * period + j, in row
        # n_lags - k of the window as an [n_lags, period] array.
        rssi, blind = self.history.read_window(station, now_tti)
        # [candidate, lag] and C-contiguous: each row sums its lags k = 1, 2, ...
        heard = np.where(blind, 0.0, rssi).reshape(n_lags, period)[::-1].T.copy()
        n_blind = blind.reshape(n_lags, period).sum(axis=0)
        scores = heard.sum(axis=1) / np.maximum(n_lags - n_blind, 1)

        # The offsets of the candidates are the period's, rolled to start at
        # that of candidate 0.
        split = (now_tti + 1) % period
        mask = self.reserved_offset_mask(station, now_tti)
        keep = (n_blind == 0) & ~np.concatenate((mask[split:], mask[:split]))
        if not keep.any():
            keep = n_blind < n_lags
        if not keep.any():
            keep = np.ones(period, dtype=bool)

        pool = np.flatnonzero(keep)
        perm = self.rng.permutation(pool.size)
        order = np.argsort(scores[pool][perm], kind="stable")
        best_n = min(max(1, round(cfg.best_fraction * period)), pool.size)
        chosen = now_tti + 1 + int(pool[perm[order[self.rng.integers(best_n)]]])
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
