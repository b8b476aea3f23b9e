"""CAM generation: per-station beacon periods, jittered or locked to a fixed cadence."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .validation import nonfinite_errors


class TrafficMode(str, Enum):
    STANDARD = "standard"
    CONSTRAINED = "constrained"


@dataclass
class TrafficConfig:
    mode: TrafficMode = TrafficMode.STANDARD
    payload_bytes: int = 350
    base_period_ms: float = 100.0
    itsg5_jitter_ms: float = 5.0
    # Redraw the jittered period for every packet instead of once per station.
    per_packet_jitter: bool = False

    def validate(self) -> list[str]:
        errors = nonfinite_errors(self)
        if not self.payload_bytes > 0:
            errors.append("payload_bytes must be > 0")
        if not self.base_period_ms > 0:
            errors.append("base_period_ms must be > 0")
        if not 0.0 <= self.itsg5_jitter_ms < self.base_period_ms:
            errors.append("itsg5_jitter_ms must be in [0, base_period_ms)")
        return errors


def first_generation_us(cfg: TrafficConfig, rng: np.random.Generator) -> int:
    """Initial beacon phase, uniform over one base period."""
    return int(rng.uniform(0.0, cfg.base_period_ms * 1000.0))


def station_period_us(lte: bool, cfg: TrafficConfig, rng: np.random.Generator) -> int:
    """Beacon period for one station.

    Constrained mode locks every station to the base period. In standard mode
    LTE stations keep the base period while ITS-G5 stations draw a period
    uniformly from base +/- jitter, modeling per-vehicle CAM-rate differences.
    """
    base_us = round(cfg.base_period_ms * 1000.0)
    if cfg.mode is TrafficMode.CONSTRAINED or lte:
        return base_us
    half_us = cfg.itsg5_jitter_ms * 1000.0
    return int(rng.uniform(base_us - half_us, base_us + half_us))


class CamSource:
    """Beacon generators of every node in a run.

    A CAM is its generation time in us. Per node, `next_time_us` is the
    absolute instant of the next generation; the engine fires it and calls
    `generate`, which re-arms the node's timer and returns its new time. All
    times are Python ints, so they can enter heap keys.
    """

    def __init__(self, is_lte, cfg: TrafficConfig, rng: np.random.Generator):
        self.cfg = cfg
        self._rng = rng
        self.period_us: list[int] = []
        self.next_time_us: list[int] = []
        for lte in is_lte:
            self.period_us.append(station_period_us(bool(lte), cfg, rng))
            self.next_time_us.append(first_generation_us(cfg, rng))
        jittered = cfg.per_packet_jitter and cfg.mode is TrafficMode.STANDARD
        self._redraw = [jittered and not lte for lte in is_lte]

    def generate(self, node: int, now_us: int) -> int:
        if self._redraw[node]:
            self.period_us[node] = station_period_us(False, self.cfg, self._rng)
        self.next_time_us[node] = now_us + self.period_us[node]
        return self.next_time_us[node]
