"""Plain scalar reference versions of package code, for tests only.

Each one restates a rule the simulator applies in vectorized form, written
the obvious way, so tests can assert that the two agree.
"""

import csv
import math

import numpy as np

from coexsim.results import CSV_HEADER
from coexsim.scenario import RoadConfig, Vehicle


def advance(vehicles: list[Vehicle], cfg: RoadConfig, dt_s: float) -> None:
    """Move each vehicle in place by dt_s seconds, wrapping around the ring."""
    if dt_s < 0:
        raise ValueError("dt_s must be >= 0")
    for v in vehicles:
        wrapped = np.mod(v.pos_m + v.direction.value * cfg.speed_mps * dt_s, cfg.length_m)
        v.pos_m = float(wrapped) if wrapped < cfg.length_m else 0.0


def distance_m(a: Vehicle, b: Vehicle, lane_width_m: float = 4.0) -> float:
    """Euclidean distance on the unwrapped line (mobility wraps, geometry does not)."""
    dx = a.pos_m - b.pos_m
    dy = (a.lane_index - b.lane_index) * lane_width_m
    return math.hypot(dx, dy)


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
