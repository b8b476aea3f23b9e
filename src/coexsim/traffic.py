"""CAM generation: per-station beacon periods, jittered or locked to a fixed cadence."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import Tech


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
        errors = []
        if self.payload_bytes <= 0:
            errors.append("payload_bytes must be > 0")
        if self.base_period_ms <= 0:
            errors.append("base_period_ms must be > 0")
        if not 0.0 <= self.itsg5_jitter_ms < self.base_period_ms:
            errors.append("itsg5_jitter_ms must be in [0, base_period_ms)")
        return errors


@dataclass(frozen=True)
class Cam:
    seq: int
    t_gen_us: int


def first_generation_us(cfg: TrafficConfig, rng: np.random.Generator) -> int:
    """Initial beacon phase, uniform over one base period."""
    return int(rng.uniform(0.0, cfg.base_period_ms * 1000.0))


def station_period_us(tech: Tech, cfg: TrafficConfig, rng: np.random.Generator) -> int:
    """Beacon period for one station.

    Constrained mode locks every station to the base period. In standard mode
    LTE stations keep the base period while ITS-G5 stations draw a period
    uniformly from base +/- jitter, modeling per-vehicle CAM-rate differences.
    """
    base_us = round(cfg.base_period_ms * 1000.0)
    if cfg.mode is TrafficMode.CONSTRAINED or tech is Tech.LTEV2X:
        return base_us
    half_us = cfg.itsg5_jitter_ms * 1000.0
    return int(rng.uniform(base_us - half_us, base_us + half_us))


class CamSource:
    """Beacon generator for one vehicle.

    `next_time_us` is the absolute instant of the next generation; the engine
    fires it and calls `generate`, which returns the CAM and re-arms the timer.
    """

    def __init__(self, tech: Tech, cfg: TrafficConfig, rng: np.random.Generator):
        self.tech = tech
        self.cfg = cfg
        self._rng = rng
        self._redraw = (cfg.per_packet_jitter
                        and cfg.mode is TrafficMode.STANDARD
                        and tech is Tech.ITSG5)
        self.period_us = station_period_us(tech, cfg, rng)
        self.next_time_us = first_generation_us(cfg, rng)
        self.seq = 0

    def generate(self, now_us: int) -> Cam:
        cam = Cam(self.seq, now_us)
        self.seq += 1
        if self._redraw:
            self.period_us = station_period_us(self.tech, self.cfg, self._rng)
        self.next_time_us = now_us + self.period_us
        return cam
