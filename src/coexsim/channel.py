"""Link budget: WINNER+ B1 LOS path loss, correlated shadowing, SINR, PER curves."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .validation import nonfinite_errors

SPEED_OF_LIGHT_MPS = 3.0e8
# Antennas at 1.5 m over a 1.0 m effective environment height.
EFFECTIVE_ANTENNA_HEIGHT_M = 0.5
MIN_PATHLOSS_DISTANCE_M = 3.0
THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass
class LinkBudgetConfig:
    tx_power_dbm: float = 23.0
    tx_gain_db: float = 3.0
    rx_gain_db: float = 3.0
    noise_figure_db: float = 6.0
    bandwidth_hz: float = 1.0e7
    carrier_ghz: float = 5.9

    def validate(self) -> list[str]:
        errors = nonfinite_errors(self)
        if not self.bandwidth_hz > 0:
            errors.append("bandwidth_hz must be > 0")
        if not self.carrier_ghz > 0:
            errors.append("carrier_ghz must be > 0")
        return errors


def breakpoint_distance_m(carrier_ghz: float) -> float:
    return 4.0 * EFFECTIVE_ANTENNA_HEIGHT_M ** 2 * carrier_ghz * 1e9 / SPEED_OF_LIGHT_MPS


def path_loss_db(d_m, cfg: LinkBudgetConfig) -> np.ndarray:
    """Two-slope urban-street LOS path loss at street level, elementwise.

    Below the breakpoint: 22.7 log10(d) + 41.0 + 20 log10(f/5).
    Above: 40 log10(d) + 9.45 - 2 * 17.3 log10(h') + 2.7 log10(f/5).
    Distances are clamped to 3 m to avoid the near-field singularity.
    The result is built in place on one fresh copy of d_m.
    """
    f = cfg.carrier_ghz
    h = EFFECTIVE_ANTENNA_HEIGHT_M
    log_f5 = np.log10(f / 5.0)
    pl = np.array(d_m, dtype=float)
    np.maximum(pl, MIN_PATHLOSS_DISTANCE_M, out=pl)
    near = pl <= breakpoint_distance_m(f)
    np.log10(pl, out=pl)
    log_d_near = pl[near]
    # Term by term in the formula's order, so each element rounds as the
    # plain expression would.
    pl *= 40.0
    pl += 9.45
    pl -= 17.3 * np.log10(h)
    pl -= 17.3 * np.log10(h)
    pl += 2.7 * log_f5
    pl[near] = 22.7 * log_d_near + 41.0 + 20.0 * log_f5
    return pl


def noise_floor_dbm(cfg: LinkBudgetConfig) -> float:
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(cfg.bandwidth_hz) + cfg.noise_figure_db


def ar1_shadowing_step(s_db, moved_m, sigma_db: float, decorr_m: float, noise):
    """One correlated-shadowing update: s' = rho*s + sqrt(1-rho^2)*n.

    rho = exp(-moved_m / decorr_m); noise must be drawn from Normal(0, sigma_db^2).
    Works elementwise on arrays; an array noise is overwritten with the result.
    """
    rho = np.exp(-np.asarray(moved_m, dtype=float) / decorr_m)
    noise *= np.sqrt(1.0 - rho * rho)
    noise += rho * s_db
    return noise


class ShadowingField:
    """Per-pair correlated log-normal shadowing for n nodes (dB domain).

    Values are kept in a symmetric n x n matrix; both orientations of a pair
    always share one value. The displacement metric for an update is the sum
    of both endpoints' absolute movements since the last step, so either
    endpoint moving decorrelates the link.
    """

    def __init__(self, n_nodes: int, sigma_db: float, decorr_m: float,
                 rng: np.random.Generator):
        self.n = n_nodes
        self.sigma_db = sigma_db
        self.decorr_m = decorr_m
        self.values_db = self._symmetric_normal(rng)

    def _symmetric_normal(self, rng: np.random.Generator) -> np.ndarray:
        upper = np.triu(rng.normal(0.0, self.sigma_db, size=(self.n, self.n)), 1)
        upper += upper.T
        return upper

    def step(self, moved_m, rng: np.random.Generator) -> None:
        """Advance all pairs by a displacement (scalar or per-pair matrix)."""
        self.values_db = ar1_shadowing_step(self.values_db, moved_m, self.sigma_db,
                                            self.decorr_m, self._symmetric_normal(rng))


def rx_power_mw(pl_db, shadow_db, cfg: LinkBudgetConfig):
    """Received power in mW: EIRP plus receive gain, minus path loss and
    shadowing (all in dB; scalar or array). An array pl_db is overwritten
    with the result, so pass a fresh one, as path_loss_db returns."""
    rx = np.asarray(pl_db, dtype=float)
    np.subtract(cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db, rx, out=rx)
    rx -= shadow_db
    rx /= 10.0
    np.power(10.0, rx, out=rx)
    return rx if rx.ndim else rx[()]  # a scalar for scalar input


def sinr_db(rx_mw, interf_mw_us, dur_us, noise_mw):
    """Time-averaged SINR over a frame's airtime, in dB.

    Interference arrives as energy (mW*us) accumulated over the overlaps with
    the frame; spread over the frame duration it is the mean interference
    power, added to the noise floor in the linear domain.
    """
    return 10.0 * np.log10(rx_mw / (noise_mw + interf_mw_us / dur_us))


@dataclass
class PerCurve:
    """Monotone packet-error-rate lookup over SINR (dB).

    Below the first point the PER clamps to 1, above the last point to 0;
    between points it is linearly interpolated in the (dB, PER) plane.
    """

    sinr_db: np.ndarray
    per: np.ndarray

    def __post_init__(self):
        self.sinr_db = np.asarray(self.sinr_db, dtype=float)
        self.per = np.asarray(self.per, dtype=float)
        if self.sinr_db.size == 0:
            raise ValueError("PER curve must contain at least one point")
        if self.sinr_db.size != self.per.size:
            raise ValueError("PER curve sinr_db and per lengths differ")
        # NaN fails no comparison below, and an infinite point flattens the lookup.
        if not (np.isfinite(self.sinr_db).all() and np.isfinite(self.per).all()):
            raise ValueError("PER curve sinr_db and per values must be finite")
        if np.any(np.diff(self.sinr_db) <= 0):
            raise ValueError("PER curve sinr_db values must be strictly increasing")
        if np.any(np.diff(self.per) > 0):
            raise ValueError("PER curve per values must be non-increasing")
        if np.any((self.per < 0) | (self.per > 1)):
            raise ValueError("PER curve per values must lie in [0,1]")

    def __eq__(self, other):
        # By value, so configs holding curves compare; arrays have no plain ==.
        return (isinstance(other, PerCurve) and np.array_equal(self.sinr_db, other.sinr_db)
                and np.array_equal(self.per, other.per))

    def lookup(self, sinr_db) -> np.ndarray:
        return np.interp(sinr_db, self.sinr_db, self.per, left=1.0, right=0.0)

    @classmethod
    def three_point(cls, anchor_db: float) -> "PerCurve":
        """Default curve through the published PER=0.1 anchor for a technology."""
        return cls(np.array([anchor_db - 2.0, anchor_db, anchor_db + 1.0]),
                   np.array([0.9, 0.1, 0.01]))

    @classmethod
    def from_csv(cls, path) -> "PerCurve":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["sinr_db", "per"]:
                raise ValueError(f"{path}: expected header 'sinr_db,per'")
            sinrs, pers = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 columns")
                try:
                    sinrs.append(float(row[0]))
                    pers.append(float(row[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        try:
            return cls(np.array(sinrs), np.array(pers))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# Published operating anchors (PER = 0.1) for the two radios at 350-byte payloads.
ITSG5_PER_ANCHOR_DB = 3.1
LTEV2X_PER_ANCHOR_DB = 0.1


def default_itsg5_curve() -> PerCurve:
    return PerCurve.three_point(ITSG5_PER_ANCHOR_DB)


def default_ltev2x_curve() -> PerCurve:
    return PerCurve.three_point(LTEV2X_PER_ANCHOR_DB)


def reception_success(per, draws):
    """Bernoulli(1 - per) outcomes from uniform draws in [0, 1), elementwise."""
    return draws < 1.0 - per


@dataclass
class ShadowingConfig:
    sigma_db: float = 3.0
    decorr_m: float = 25.0

    def validate(self) -> list[str]:
        errors = nonfinite_errors(self)
        if not self.sigma_db >= 0:
            errors.append("shadowing_sigma_db must be >= 0")
        if not self.decorr_m > 0:
            errors.append("shadowing_decorr_m must be > 0")
        return errors
