"""Experiment sweeps: config file and CLI, seed management, dispatch, outputs."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import PerCurve
from .engine import EngineConfig
from .engine import run as run_simulation
from .results import aggregate, csv_filename, summary_table, write_csv, write_plot_script
from .traffic import TrafficMode
from .validation import nonfinite_errors


class ConfigError(Exception):
    """Carries every collected configuration problem at once."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ExperimentConfig:
    engine: EngineConfig = field(default_factory=EngineConfig)
    mix_fractions: list[float] = field(
        default_factory=lambda: [1.0, 0.75, 0.5, 0.25, 0.0])
    modes: list[TrafficMode] = field(
        default_factory=lambda: [TrafficMode.STANDARD, TrafficMode.CONSTRAINED])
    runs: int = 20
    master_seed: int = 1
    out_dir: Path = Path("results")
    jobs: int = 1
    verbose: bool = False

    def validate(self) -> list[str]:
        errors = self.engine.validate() + nonfinite_errors(self)
        if not self.mix_fractions:
            errors.append("mix_fractions must be non-empty")
        errors += [f"mix_fractions entry {x} out of [0,1]"
                   for x in self.mix_fractions if not 0.0 <= x <= 1.0]
        mixes = [x for x in self.mix_fractions if 0.0 <= x <= 1.0]
        # Each mix needs its own output files and its own seed streams.
        for i, a in enumerate(mixes):
            for b in mixes[i + 1:]:
                shared = [csv_filename(m.value, a) for m in self.modes
                          if csv_filename(m.value, a) == csv_filename(m.value, b)]
                if shared:
                    errors.append(f"mix_fractions entries {a} and {b} both write "
                                  + ", ".join(shared))
                if _mix_key(a) == _mix_key(b):
                    errors.append(f"mix_fractions entries {a} and {b} share "
                                  f"seed key {_mix_key(a)}")
        if not self.modes:
            errors.append("modes must be non-empty")
        # A repeated mode would run its points twice and write their files twice.
        errors += [f"modes entry {m.value} is repeated"
                   for m in dict.fromkeys(self.modes) if self.modes.count(m) > 1]
        if not self.runs >= 1:
            errors.append("runs must be >= 1")
        if not self.master_seed >= 0:
            errors.append("master_seed must be >= 0")
        if not self.jobs >= 1:
            errors.append("jobs must be >= 1")
        return errors


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _list_tokens(s: str) -> list[str]:
    """Items of a comma-separated list, optionally wrapped in brackets."""
    body = s.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    tokens = [t.strip() for t in body.split(",") if t.strip()]
    if not tokens:
        raise ValueError("expected a non-empty list")
    return tokens


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _parse_float_list(s: str) -> list[float]:
    return [_parse_float(t) for t in _list_tokens(s)]


def _parse_modes(s: str) -> list[TrafficMode]:
    valid = ", ".join(m.value for m in TrafficMode)
    modes = []
    for t in _list_tokens(s.lower()):
        try:
            modes.append(TrafficMode(t))
        except ValueError:
            raise ValueError(f"unknown mode {t!r} (valid: {valid})") from None
    return modes


def _parse_optional_float(s: str) -> float | None:
    if s.strip().lower() in ("none", "off"):
        return None
    return _parse_float(s)


def _parse_dir(s: str) -> Path:
    # Path("") is the working directory, which no one means by an empty value.
    if not s:
        raise ValueError("expected a directory, got ''")
    return Path(s)


# key -> (target section, field name, parser); flat key = value file format.
_KEYS = {
    "road_length_m": ("road", "length_m", _parse_float),
    "lanes_per_direction": ("road", "lanes_per_direction", int),
    "lane_width_m": ("road", "lane_width_m", _parse_float),
    "density_veh_per_km": ("road", "density_veh_per_km", _parse_float),
    "speed_mps": ("road", "speed_mps", _parse_float),
    "tx_power_dbm": ("link", "tx_power_dbm", _parse_float),
    "tx_gain_db": ("link", "tx_gain_db", _parse_float),
    "rx_gain_db": ("link", "rx_gain_db", _parse_float),
    "noise_figure_db": ("link", "noise_figure_db", _parse_float),
    "bandwidth_hz": ("link", "bandwidth_hz", _parse_float),
    "carrier_ghz": ("link", "carrier_ghz", _parse_float),
    "shadowing_sigma_db": ("shadowing", "sigma_db", _parse_float),
    "shadowing_decorr_m": ("shadowing", "decorr_m", _parse_float),
    "payload_bytes": ("traffic", "payload_bytes", int),
    "base_period_ms": ("traffic", "base_period_ms", _parse_float),
    "itsg5_jitter_ms": ("traffic", "itsg5_jitter_ms", _parse_float),
    "per_packet_jitter": ("traffic", "per_packet_jitter", _parse_bool),
    "aifs_us": ("csma", "aifs_us", int),
    "slot_us": ("csma", "slot_us", int),
    "cw_max_slots": ("csma", "cw_max_slots", int),
    "cca_threshold_dbm": ("csma", "cca_threshold_dbm", _parse_float),
    "preamble_threshold_dbm": ("csma", "preamble_threshold_dbm", _parse_optional_float),
    "mcs_data_rate_bps": ("csma", "mcs_data_rate_bps", _parse_float),
    "keep_probability": ("sps", "keep_probability", _parse_float),
    "reselection_counter_min": ("sps", "counter_min", int),
    "reselection_counter_max": ("sps", "counter_max", int),
    "sensing_window_ttis": ("sps", "sensing_window_ttis", int),
    "best_fraction": ("sps", "best_fraction", _parse_float),
    "decode_threshold_dbm": ("sps", "decode_threshold_dbm", _parse_float),
    "reservation_expiry_ttis": ("sps", "reservation_expiry_ttis", int),
    "warm_up_s": ("engine", "warm_up_s", _parse_float),
    "measure_s": ("engine", "measure_s", _parse_float),
    "mobility_update_ms": ("engine", "mobility_update_ms", int),
    # May be +inf (every receiver is relevant); validate() rejects NaN and -inf.
    "relevance_margin_db": ("engine", "relevance_margin_db", float),
    "lte_rx_counts_itsg5_interference": ("engine", "lte_rx_counts_itsg5_interference", _parse_bool),
    "max_distance_m": ("engine", "max_distance_m", _parse_float),
    "bin_width_m": ("engine", "bin_width_m", _parse_float),
    "itsg5_per_curve_csv": ("engine", "itsg5_per_curve", PerCurve.from_csv),
    "ltev2x_per_curve_csv": ("engine", "ltev2x_per_curve", PerCurve.from_csv),
    "mix_fractions": ("experiment", "mix_fractions", _parse_float_list),
    "modes": ("experiment", "modes", _parse_modes),
    "runs": ("experiment", "runs", int),
    "master_seed": ("experiment", "master_seed", int),
    "out_dir": ("experiment", "out_dir", _parse_dir),
    "jobs": ("experiment", "jobs", int),
}


def _apply(cfg: ExperimentConfig, key: str, text: str) -> None:
    """Parse text with the key's parser and store the value in cfg."""
    target, fieldname, parser = _KEYS[key]
    value = parser(text.strip())
    if target == "experiment":
        setattr(cfg, fieldname, value)
    elif target == "engine":
        setattr(cfg.engine, fieldname, value)
    else:
        setattr(getattr(cfg.engine, target), fieldname, value)


def load_config(path) -> ExperimentConfig:
    """Parse a flat key = value file; unknown keys and bad values are hard
    errors, all reported together with their line numbers."""
    cfg = ExperimentConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"]) from exc
    errors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            errors.append(f"{path}:{lineno}: unknown key '{key}'")
            continue
        try:
            _apply(cfg, key, value)
        except (OSError, ValueError) as exc:
            errors.append(f"{path}:{lineno}: bad value for {key}: {exc}")
    if errors:
        raise ConfigError(errors)
    return cfg


# CLI flag -> the config key whose parser reads its value.
_FLAG_KEYS = {"mix": "mix_fractions", "mode": "modes", "runs": "runs",
              "seed": "master_seed", "out": "out_dir", "jobs": "jobs"}


def apply_cli(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Command-line flags override file values; bad values are hard errors,
    all reported together with their flag names."""
    errors = []
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        try:
            _apply(cfg, key, value)
        except ValueError as exc:
            errors.append(f"--{flag}: {exc}")
    if args.verbose:
        cfg.verbose = True
    if errors:
        raise ConfigError(errors)
    return cfg


_MODE_ORDER = list(TrafficMode)


def _mix_key(mix: float) -> int:
    return int(round(mix * 10_000))


def run_seed(master_seed: int, mix: float, mode_index: int,
             run_index: int) -> np.random.SeedSequence:
    """Deterministic, pairwise-distinct stream per (mix, mode, run)."""
    return np.random.SeedSequence(
        entropy=master_seed, spawn_key=(_mix_key(mix), mode_index, run_index))


def _execute_run(task):
    engine_cfg, master_seed, mix, mode_index, run_index = task
    return run_simulation(engine_cfg, run_seed(master_seed, mix, mode_index, run_index))


def run_experiment(cfg: ExperimentConfig, stdout=None) -> dict:
    """Execute the (mix x mode x runs) grid, emit one CSV per point plus a
    plot script, print a PRR summary; returns {(mode, mix): Aggregate}."""
    stdout = stdout or sys.stdout
    errors = cfg.validate()
    if errors:
        raise ConfigError(errors)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    combos = [(mode, mix) for mode in cfg.modes for mix in cfg.mix_fractions]
    tasks = []
    for mode, mix in combos:
        engine_cfg = replace(
            cfg.engine,
            itsg5_fraction=mix,
            traffic=replace(cfg.engine.traffic, mode=mode),
        )
        for r in range(cfg.runs):
            tasks.append((engine_cfg, cfg.master_seed, mix,
                          _MODE_ORDER.index(mode), r))

    # No more workers than runs or usable cores; forking starts them all at once.
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)  # macOS and Windows have no affinity call
    workers = min(cfg.jobs, len(tasks), cores)
    if workers > 1:
        # Imported here, so that a single run loads no multiprocessing machinery.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_execute_run, tasks))
    else:
        logs = [_execute_run(t) for t in tasks]

    created: list[Path] = []
    results = {}
    try:
        for i, (mode, mix) in enumerate(combos):
            combo_logs = logs[i * cfg.runs:(i + 1) * cfg.runs]
            agg = aggregate([log.histogram for log in combo_logs])
            results[(mode.value, mix)] = agg
            path = out_dir / csv_filename(mode.value, mix)
            write_csv(agg, path)
            created.append(path)
        created.append(write_plot_script(
            out_dir, [csv_filename(m.value, x) for m, x in combos]))
    except BaseException:
        for p in created:
            try:
                p.unlink()
            except OSError:
                pass
        raise

    if cfg.verbose:
        for task, log in zip(tasks, logs):
            _, _, mix, mode_index, run_index = task
            c = log.counters
            print(f"run mode={_MODE_ORDER[mode_index].value} mix={mix} "
                  f"idx={run_index}: tx_itsg5={c['tx_itsg5']} "
                  f"tx_ltev2x={c['tx_ltev2x']} counted={c['counted_tx']} "
                  f"dropped={c['cams_dropped']}", file=stdout)
    print(f"{len(tasks)} runs ({cfg.runs} per point) -> {out_dir}", file=stdout)
    print(summary_table(results), file=stdout)
    return results


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coexsim",
        description="Highway coexistence simulator for ITS-G5 and LTE-V2X "
                    "sharing one channel; reports packet reception ratio "
                    "vs distance.")
    p.add_argument("--config", type=Path, help="key = value configuration file")
    p.add_argument("--mix", help="comma-separated ITS-G5 fractions, e.g. 1.0,0.5")
    p.add_argument("--mode", help="comma-separated traffic modes: standard,constrained")
    p.add_argument("--runs", help="runs per (mix, mode) point")
    p.add_argument("--seed", help="master seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--jobs", help="parallel worker processes")
    p.add_argument("--verbose", action="store_true", help="per-run counters")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        run_experiment(apply_cli(cfg, args))
    except ConfigError as exc:
        for e in exc.errors:
            print(e, file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
