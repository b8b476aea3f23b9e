"""CSMA/CA broadcast MAC: energy-based CCA, AIFS sensing, bounded backoff, no ACKs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

PREAMBLE_SIG_US = 40
SYMBOL_US = 8
SERVICE_TAIL_BITS = 22


@dataclass
class CsmaConfig:
    """802.11p contention parameters.

    Carrier sensing is two-tier, as in the standard: energy detection compares
    the total in-band power (any technology) against cca_threshold_dbm, while
    preamble detection marks the medium busy whenever a single decodable OFDM
    frame arrives above preamble_threshold_dbm. Only same-technology frames
    carry a decodable preamble, so foreign signals are sensed purely by energy.
    Set preamble_threshold_dbm to None for energy-only sensing.
    """

    aifs_us: int = 110
    slot_us: int = 13
    cw_max_slots: int = 15
    cca_threshold_dbm: float = -65.0
    preamble_threshold_dbm: float | None = -95.0
    mcs_data_rate_bps: float = 6.0e6

    def validate(self) -> list[str]:
        errors = []
        if self.aifs_us <= 0:
            errors.append("aifs_us must be > 0")
        if self.slot_us <= 0:
            errors.append("slot_us must be > 0")
        if self.cw_max_slots < 0:
            errors.append("cw_max_slots must be >= 0")
        if (self.preamble_threshold_dbm is not None
                and self.preamble_threshold_dbm >= self.cca_threshold_dbm):
            errors.append("preamble_threshold_dbm must be below cca_threshold_dbm")
        if round(self.mcs_data_rate_bps * SYMBOL_US * 1e-6) < 1:
            errors.append("mcs_data_rate_bps must carry at least one bit per symbol")
        return errors


def airtime_us(payload_bytes: int, cfg: CsmaConfig) -> int:
    """OFDM frame duration: 40 us preamble+SIG, then 8 us symbols at the MCS bit load.

    Each symbol carries data_rate * 8 us bits (48 at 6 Mb/s); the payload is
    preceded by 16 service bits and followed by 6 tail bits.
    """
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be > 0")
    bits_per_symbol = round(cfg.mcs_data_rate_bps * SYMBOL_US * 1e-6)
    n_symbols = math.ceil((SERVICE_TAIL_BITS + 8 * payload_bytes) / bits_per_symbol)
    return PREAMBLE_SIG_US + SYMBOL_US * n_symbols


def cca_busy(power_mw, noise_mw, cca_mw, preamble_count):
    """Two-tier CCA per node (elementwise over arrays).

    Busy when the total in-band power of both technologies plus noise reaches
    the energy threshold, or when at least one decodable ITS-G5 preamble is
    on air. With preamble detection off the counts stay zero.
    """
    return ((power_mw + noise_mw) >= cca_mw) | (preamble_count > 0)


class Phase(Enum):
    IDLE = "idle"
    DEFER = "defer"
    AIFS = "aifs"
    COUNT = "count"
    TX = "tx"


class CsmaMac:
    """Per-vehicle CSMA/CA state machine, advanced by CCA transitions and timers.

    The airlink object supplies `is_busy(node)`, `arm_timer(node, due_us, token)`
    and `start_tx(node, cam, now_us)`, plus two bool arrays indexed by node
    that the MAC keeps equal to its phase: `want_busy` (AIFS or COUNT, the
    phases a busy edge acts on) and `want_idle` (DEFER, the one phase an idle
    edge acts on). Timers are cancelled lazily: each arm gets a fresh token and
    stale fires are ignored.

    Access procedure: a fresh packet on an idle channel transmits after a full
    AIFS of continuous idle sensing, with no backoff. If the channel is or
    becomes busy before that completes, the backoff counter is drawn once at
    the next busy-to-idle transition and then consumed in whole idle slots
    after each subsequent AIFS, freezing while busy. Busy intervals are
    half-open: a transmission starting exactly when a timer expires does not
    invalidate the idle window behind it.
    """

    def __init__(self, node_id: int, cfg: CsmaConfig, rng: np.random.Generator, airlink):
        self.node = node_id
        self.cfg = cfg
        self.rng = rng
        self.airlink = airlink
        self.phase = Phase.IDLE
        self.pending: int | None = None  # the CAM's generation time; 0 is a CAM
        self.backoff_slots: int | None = None
        self.drops = 0
        self._count_start_us = 0
        self._timer_due_us: int | None = None
        self._token = 0

    @property
    def phase(self) -> Phase:
        return self._phase

    @phase.setter
    def phase(self, phase: Phase) -> None:
        self._phase = phase
        self.airlink.want_busy[self.node] = phase is Phase.AIFS or phase is Phase.COUNT
        self.airlink.want_idle[self.node] = phase is Phase.DEFER

    def _arm(self, due_us: int) -> None:
        self._token += 1
        self._timer_due_us = due_us
        self.airlink.arm_timer(self.node, due_us, self._token)

    def _disarm(self) -> None:
        self._token += 1
        self._timer_due_us = None

    def on_packet_ready(self, cam: int, now_us: int) -> None:
        if self.pending is not None:
            self.drops += 1
        self.pending = cam
        if self.phase is Phase.IDLE:
            self._start_access(now_us)

    def _start_access(self, now_us: int) -> None:
        self.backoff_slots = None
        if self.airlink.is_busy(self.node):
            self.phase = Phase.DEFER
        else:
            self.phase = Phase.AIFS
            self._arm(now_us + self.cfg.aifs_us)

    def on_busy(self, now_us: int) -> None:
        if self.phase not in (Phase.AIFS, Phase.COUNT):
            return
        if self._timer_due_us == now_us:
            # Window completed exactly at busy onset; let the timer fire.
            return
        if self.phase is Phase.COUNT:
            completed = (now_us - self._count_start_us) // self.cfg.slot_us
            self.backoff_slots -= int(completed)
        self._disarm()
        self.phase = Phase.DEFER

    def on_idle(self, now_us: int) -> None:
        if self.phase is not Phase.DEFER or self.pending is None:
            return
        if self.backoff_slots is None:
            self.backoff_slots = int(self.rng.integers(0, self.cfg.cw_max_slots + 1))
        self.phase = Phase.AIFS
        self._arm(now_us + self.cfg.aifs_us)

    def on_timer(self, now_us: int, token: int) -> None:
        if token != self._token:
            return
        self._timer_due_us = None
        if self.phase is Phase.AIFS:
            if not self.backoff_slots:
                self._transmit(now_us)
            elif self.airlink.is_busy(self.node):
                # Busy started exactly at AIFS completion; no slot can elapse.
                self.phase = Phase.DEFER
            else:
                self.phase = Phase.COUNT
                self._count_start_us = now_us
                self._arm(now_us + self.backoff_slots * self.cfg.slot_us)
        elif self.phase is Phase.COUNT:
            self._transmit(now_us)

    def _transmit(self, now_us: int) -> None:
        cam = self.pending
        self.pending = None
        self.backoff_slots = None
        self.phase = Phase.TX
        self.airlink.start_tx(self.node, cam, now_us)

    def on_tx_complete(self, now_us: int) -> None:
        self.phase = Phase.IDLE
        if self.pending is not None:
            self._start_access(now_us)
