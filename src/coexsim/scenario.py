"""Highway topology: vehicle placement, technology assignment, mobility."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .validation import nonfinite_errors

# Every run holds several n x n float64 matrices (about 32 MB each at this
# bound), so larger fleets are rejected rather than left to exhaust memory.
MAX_VEHICLES = 2000


@dataclass
class RoadConfig:
    """Straight highway segment with lanes_per_direction lanes each way."""

    length_m: float = 2000.0
    lanes_per_direction: int = 3
    lane_width_m: float = 4.0
    density_veh_per_km: float = 61.5
    speed_mps: float = 38.889  # 140 km/h

    def validate(self) -> list[str]:
        errors = nonfinite_errors(self)
        if not self.length_m > 0:
            errors.append("length_m must be > 0")
        if not self.lanes_per_direction >= 1:
            errors.append("lanes_per_direction must be >= 1")
        if not self.lane_width_m > 0:
            errors.append("lane_width_m must be > 0")
        if not self.density_veh_per_km > 0:
            errors.append("density_veh_per_km must be > 0")
        if not self.speed_mps >= 0:
            errors.append("speed_mps must be >= 0")
        if not errors and vehicle_count(self) > MAX_VEHICLES:
            errors.append(f"density_veh_per_km * length_m / 1000 must be at most "
                          f"{MAX_VEHICLES} vehicles")
        return errors


class Fleet(NamedTuple):
    """Per-node arrays of a run's vehicles: position, lane index and radio
    (True for LTE-V2X)."""

    pos_m: np.ndarray
    lane: np.ndarray
    is_lte: np.ndarray


def fleet_errors(fleet: Fleet, road: RoadConfig) -> list[str]:
    """What keeps a caller's fleet off the road; empty when it fits."""
    pos, lane, is_lte = (np.asarray(a) for a in fleet)
    errors = []
    if not (pos.ndim == 1 and pos.shape == lane.shape == is_lte.shape):
        errors.append("fleet arrays must be 1-D and of equal length")
    if pos.size > MAX_VEHICLES:
        errors.append(f"fleet must have at most {MAX_VEHICLES} vehicles")
    if not ((pos >= 0.0) & (pos < road.length_m)).all():
        errors.append("fleet pos_m must be in [0, length_m)")
    n_lanes = 2 * road.lanes_per_direction
    if not (np.issubdtype(lane.dtype, np.integer) and ((lane >= 0) & (lane < n_lanes)).all()):
        errors.append(f"fleet lane must hold integers in [0, {n_lanes})")
    if is_lte.dtype != bool:
        errors.append("fleet is_lte must be bool")
    return errors


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (not banker's)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def vehicle_count(cfg: RoadConfig) -> int:
    return round_half_away(cfg.density_veh_per_km * cfg.length_m / 1000.0)


def itsg5_count(n_vehicles: int, itsg5_fraction: float) -> int:
    return round_half_away(itsg5_fraction * n_vehicles)


def spawn(cfg: RoadConfig, itsg5_fraction: float, rng: np.random.Generator) -> Fleet:
    """Place vehicles uniformly on the road and assign technologies.

    Vehicle count is density * length rounded half away from zero; exactly
    itsg5_count(N, fraction) of them get ITS-G5 radios, chosen uniformly at
    random. Lanes are i.i.d. uniform over both directions; the first half of
    the lane indices drives forward, the second half backward.
    """
    n = vehicle_count(cfg)
    n_lanes = 2 * cfg.lanes_per_direction
    positions = rng.uniform(0.0, cfg.length_m, size=n)
    lanes = rng.integers(0, n_lanes, size=n)
    is_lte = np.ones(n, dtype=bool)
    is_lte[rng.permutation(n)[:itsg5_count(n, itsg5_fraction)]] = False
    return Fleet(positions, lanes, is_lte)


def advance_positions(
    pos_m: np.ndarray, dir_sign: np.ndarray, speed_mps: float, dt_s: float, length_m: float
) -> np.ndarray:
    """Move positions along the road with wrap-around (vectorized)."""
    out = np.mod(pos_m + dir_sign * speed_mps * dt_s, length_m)
    # np.mod of a tiny negative offset can round up to exactly length_m.
    return np.where(out >= length_m, 0.0, out)


def distance_matrix(pos_m: np.ndarray, lane_index: np.ndarray, lane_width_m: float) -> np.ndarray:
    """Pairwise Euclidean distances on the unwrapped line (mobility wraps,
    geometry does not); lanes are lane_width_m apart."""
    pos = np.asarray(pos_m, dtype=float)
    dx = pos[:, None] - pos[None, :]
    # Lane indices are small integers, so their float differences are exact.
    lane = np.asarray(lane_index, dtype=float)
    dy = lane[:, None] - lane[None, :]
    dy *= lane_width_m
    return np.hypot(dx, dy, out=dx)
