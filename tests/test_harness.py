"""Experiment harness: config file parsing, CLI overrides, seeding, CSV runs."""

import concurrent.futures
import io
import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coexsim import harness
from coexsim.channel import PerCurve, default_itsg5_curve, default_ltev2x_curve
from coexsim.engine import MAX_BINS, EngineConfig, Simulation
from coexsim.harness import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    apply_cli,
    build_parser,
    load_config,
    main,
    run_experiment,
    run_seed,
)
from coexsim.results import csv_filename
from coexsim.scenario import MAX_VEHICLES, vehicle_count
from coexsim.traffic import TrafficMode

from oracles import check_accounting, read_csv

FAST_CONFIG = """
# scaled-down scenario for quick end-to-end checks
road_length_m = 300
density_veh_per_km = 20
warm_up_s = 0.2
measure_s = 0.5
"""


def write_config(tmp_path, text=FAST_CONFIG) -> Path:
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def fast_experiment(tmp_path, **overrides) -> ExperimentConfig:
    cfg = load_config(write_config(tmp_path))
    cfg.mix_fractions = [0.5]
    cfg.modes = [TrafficMode.STANDARD]
    cfg.runs = 2
    cfg.out_dir = tmp_path / "results"
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_empty_config_file_gives_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "\n# only a comment\n"))
    assert cfg == ExperimentConfig()
    assert cfg.runs == 20
    assert cfg.mix_fractions == [1.0, 0.75, 0.5, 0.25, 0.0]
    assert cfg.modes == [TrafficMode.STANDARD, TrafficMode.CONSTRAINED]


def test_config_overrides_apply(tmp_path):
    text = """
density_veh_per_km = 62.5
runs = 3
master_seed = 99
mix_fractions = [1.0, 0.5]
modes = constrained
preamble_threshold_dbm = none
out_dir = /tmp/somewhere
"""
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.engine.road.density_veh_per_km == 62.5
    assert cfg.runs == 3
    assert cfg.master_seed == 99
    assert cfg.mix_fractions == [1.0, 0.5]
    assert cfg.modes == [TrafficMode.CONSTRAINED]
    assert cfg.engine.csma.preamble_threshold_dbm is None
    assert cfg.out_dir == Path("/tmp/somewhere")


def test_config_errors_are_collected_with_line_numbers(tmp_path):
    text = """density_veh_per_km = sixty
no_such_key = 1
just a line
"""
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, text))
    errors = exc.value.errors
    assert len(errors) == 3
    assert any(":1:" in e and "density_veh_per_km" in e for e in errors)
    assert any(":2:" in e and "no_such_key" in e for e in errors)
    assert any(":3:" in e and "key = value" in e for e in errors)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_config_keys_reach_every_engine_field():
    # A field no config key sets is a knob only tests can turn. The harness
    # sets the two exempt fields itself, from `modes` and `mix_fractions`.
    # A PER curve is one value, set whole from its file's key.
    exempt = {"traffic.mode", "itsg5_fraction"}
    cfg = EngineConfig()
    leaves = set()
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value) and not isinstance(value, PerCurve):
            leaves |= {f"{f.name}.{sub.name}" for sub in fields(value)}
        else:
            leaves.add(f.name)
    reached = {name if target == "engine" else f"{target}.{name}"
               for target, name, _ in _KEYS.values() if target != "experiment"}
    assert leaves - exempt - reached == set()
    assert reached <= leaves


def test_validation_rejects_out_of_range_values():
    cfg = ExperimentConfig()
    cfg.mix_fractions = [2.0]
    cfg.runs = 0
    errors = cfg.validate()
    assert any("2.0" in e for e in errors)
    assert any("runs" in e for e in errors)


def test_validation_reports_non_finite_experiment_values():
    # A NaN mix is reported, not rounded into a file name or seed key.
    errors = ExperimentConfig(mix_fractions=[math.nan, 0.5], runs=math.nan,
                              jobs=math.inf).validate()
    assert "mix_fractions entry nan out of [0,1]" in errors
    assert {"runs must be finite", "jobs must be finite"} <= set(errors)


def test_validation_rejects_colliding_mixes():
    # 0.499 and 0.501 both round to prr_<mode>_50.csv; 0.50001 and 0.50004
    # also share the seed key 5000; 0.00499 and 0.00501 share only the key.
    for mixes, clashes in (([0.499, 0.501], 1), ([0.5, 0.5], 2),
                           ([0.50001, 0.50004], 2), ([0.00499, 0.00501], 1)):
        errors = ExperimentConfig(mix_fractions=mixes).validate()
        assert len(errors) == clashes
        assert all(f"{mixes[0]} and {mixes[1]}" in e for e in errors)
    errors = ExperimentConfig(mix_fractions=[0.499, 1.0, 0.501, 0.5]).validate()
    assert any("0.499 and 0.501 both write prr_standard_50.csv" in e for e in errors)
    assert any("0.499 and 0.5 both write" in e for e in errors)
    assert any("0.501 and 0.5 both write" in e for e in errors)
    assert len(errors) == 3
    assert ExperimentConfig(mix_fractions=[1.0, 0.75, 0.5, 0.25, 0.0]).validate() == []


def test_main_rejects_inconsistent_configs(tmp_path, capsys):
    assert main(["--mix", "0.499,0.501", "--out", str(tmp_path / "out")]) == 1
    assert "both write prr_standard_50.csv, prr_constrained_50.csv" in capsys.readouterr().err
    for period_ms, message in (
            (100.5, "base_period_ms must be a whole number of 1 ms TTIs"),
            (300, "base_period_ms must divide sensing_window_ttis")):
        cfg_path = write_config(tmp_path, FAST_CONFIG + f"base_period_ms = {period_ms}\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, message", [
    ("reservation_expiry_ttis = 0", "reservation_expiry_ttis must be >= 1"),
    ("reservation_expiry_ttis = -5", "reservation_expiry_ttis must be >= 1"),
    ("lane_width_m = 0", "lane_width_m must be > 0"),
    ("lane_width_m = -4", "lane_width_m must be > 0"),
    ("payload_bytes = 4000\nmcs_data_rate_bps = 300000",
     "ITS-G5 airtime must be shorter than base_period_ms - itsg5_jitter_ms"),
    # A NaN passes every range check; an infinite extent cannot size the histogram.
    ("speed_mps = nan", "{path}:7: bad value for speed_mps: expected a finite number, got 'nan'"),
    ("tx_power_dbm = nan",
     "{path}:7: bad value for tx_power_dbm: expected a finite number, got 'nan'"),
    ("max_distance_m = inf",
     "{path}:7: bad value for max_distance_m: expected a finite number, got 'inf'"),
    ("master_seed = -1", "master_seed must be >= 0"),
    ("modes = standard, standard", "modes entry standard is repeated"),
    # Only +inf is a margin without a relevance floor.
    ("relevance_margin_db = nan", "relevance_margin_db must be a number or +inf"),
    ("relevance_margin_db = -inf", "relevance_margin_db must be a number or +inf"),
    # A part-covered last bin would disagree with the scored receptions.
    ("max_distance_m = 505", "max_distance_m must be a whole number of bin_width_m"),
    ("max_distance_m = 500\nbin_width_m = 30",
     "max_distance_m must be a whole number of bin_width_m"),
])
def test_main_rejects_configs_without_meaningful_results(tmp_path, capsys, lines, message):
    cfg_path = write_config(tmp_path, FAST_CONFIG + lines + "\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message.format(path=cfg_path)]
    assert not (tmp_path / "out").exists()


def test_main_reports_curve_file_errors_with_other_parse_errors(tmp_path, capsys):
    # A PER curve is read when its key is parsed: a missing or malformed file
    # is a bad value on its line, reported with the file's other parse errors.
    missing = tmp_path / "no_such_curve.csv"
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("sinr_db,per\n0.0,0.5\nnope,0.1\n")
    cfg_path = write_config(tmp_path, FAST_CONFIG + f"itsg5_per_curve_csv = {missing}\n"
                            f"ltev2x_per_curve_csv = {malformed}\nruns = x\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{cfg_path}:7: bad value for itsg5_per_curve_csv: "
        f"[Errno 2] No such file or directory: '{missing}'",
        f"{cfg_path}:8: bad value for ltev2x_per_curve_csv: "
        f"{malformed}:3: could not convert string to float: 'nope'",
        f"{cfg_path}:9: bad value for runs: invalid literal for int() with base 10: 'x'"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", ["nan,0.5", "inf,0.5", "0.0,nan"])
def test_main_rejects_a_curve_file_with_a_non_finite_point(tmp_path, capsys, row):
    curve = tmp_path / "curve.csv"
    curve.write_text(f"sinr_db,per\n{row}\n3.0,0.1\n")
    cfg_path = write_config(tmp_path, FAST_CONFIG + f"itsg5_per_curve_csv = {curve}\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{cfg_path}:7: bad value for itsg5_per_curve_csv: "
        f"{curve}: PER curve sinr_db and per values must be finite"]
    assert not (tmp_path / "out").exists()


def write_curve(path: Path, curve: PerCurve) -> Path:
    rows = zip(curve.sinr_db.tolist(), curve.per.tolist())
    path.write_text("sinr_db,per\n" + "".join(f"{s!r},{p!r}\n" for s, p in rows))
    return path


def test_curve_given_by_key_reaches_every_run(tmp_path):
    # The default curves written out give the outputs of a config without
    # curve keys, byte for byte; a harder ITS-G5 curve changes them.
    g5 = write_curve(tmp_path / "g5.csv", default_itsg5_curve())
    lte = write_curve(tmp_path / "lte.csv", default_ltev2x_curve())
    hard = write_curve(tmp_path / "hard.csv", PerCurve.three_point(9.0))
    defaults = f"itsg5_per_curve_csv = {g5}\nltev2x_per_curve_csv = {lte}\n"
    harder = f"itsg5_per_curve_csv = {hard}\n"
    outputs = {}
    for name, extra in (("none", ""), ("defaults", defaults), ("harder", harder)):
        cfg = load_config(write_config(tmp_path, FAST_CONFIG + extra))
        cfg.mix_fractions, cfg.modes, cfg.runs = [0.5], [TrafficMode.STANDARD], 1
        cfg.out_dir = tmp_path / name
        run_experiment(cfg, stdout=io.StringIO())
        outputs[name] = (cfg.out_dir / "prr_standard_50.csv").read_bytes()
    assert outputs["defaults"] == outputs["none"]
    assert outputs["harder"] != outputs["none"]


def test_main_runs_with_an_infinite_relevance_margin(tmp_path):
    cfg_path = write_config(tmp_path, FAST_CONFIG + "relevance_margin_db = inf\n")
    assert load_config(cfg_path).engine.relevance_margin_db == math.inf
    assert main(["--config", str(cfg_path), "--mix", "0.5", "--mode", "standard",
                 "--runs", "1", "--out", str(tmp_path / "out")]) == 0
    assert read_csv(tmp_path / "out" / "prr_standard_50.csv")


@pytest.mark.parametrize("jobs, runs, cores, workers", [
    (4, 1, 8, None),  # one run: no pool at all
    (4, 2, 8, 2),
    (2, 5, 8, 2),
    (10**6, 5, 3, 3),
    (4, 5, 1, None),  # one usable core
])
def test_pool_is_no_larger_than_the_runs_or_the_cores(tmp_path, monkeypatch,
                                                      jobs, runs, cores, workers):
    # A stand-in executor records its size and maps in this process, so the
    # test starts no process whatever jobs asks for.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_experiment imports the executor from here when it forks a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cores)))
    results = run_experiment(fast_experiment(tmp_path, jobs=jobs, runs=runs),
                             stdout=io.StringIO())
    assert sizes == ([] if workers is None else [workers])
    assert results[("standard", 0.5)].n_runs == runs
    # Without an affinity call (macOS, Windows) the CPU count stands in; an
    # unknown count (None) counts as one core.
    sizes.clear()
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores if cores > 1 else None)
    results = run_experiment(fast_experiment(tmp_path, jobs=jobs, runs=runs),
                             stdout=io.StringIO())
    assert sizes == ([] if workers is None else [workers])
    assert results[("standard", 0.5)].n_runs == runs


# Run in a fresh interpreter: the test process has imported pytest, which
# loads the pool machinery itself.
SINGLE_RUN_SCRIPT = """
import sys
import coexsim
from coexsim.scenario import RoadConfig
cfg = coexsim.EngineConfig(road=RoadConfig(length_m=300.0, density_veh_per_km=20.0),
                           itsg5_fraction=0.5, warm_up_s=0.2, measure_s=0.5)
coexsim.Simulation(cfg, seed=1).run()
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""


def test_a_single_run_imports_no_process_pool():
    # Only run_experiment's pooled branch needs concurrent.futures and the
    # multiprocessing it pulls in; the two-worker sweep in
    # test_protocol_invariants.py checks that branch still forks.
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", SINGLE_RUN_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_overrides():
    args = build_parser().parse_args(
        ["--mix", "0.5,0.25", "--mode", "constrained", "--runs", "1",
         "--seed", "7", "--out", "somewhere", "--jobs", "2", "--verbose"])
    cfg = apply_cli(ExperimentConfig(), args)
    assert cfg.mix_fractions == [0.5, 0.25]
    assert cfg.modes == [TrafficMode.CONSTRAINED]
    assert cfg.runs == 1
    assert cfg.master_seed == 7
    assert cfg.out_dir == Path("somewhere")
    assert cfg.jobs == 2
    assert cfg.verbose
    # Each flag's value goes through its config key's parser, and every bad
    # one is reported, by flag name.
    args = build_parser().parse_args(
        ["--mode", "turbo", "--runs", "1.5", "--seed", "x", "--jobs", "two", "--mix", "inf"])
    with pytest.raises(ConfigError) as exc:
        apply_cli(ExperimentConfig(), args)
    assert [e.split(":")[0] for e in exc.value.errors] == [
        "--mix", "--mode", "--runs", "--seed", "--jobs"]


def test_cli_rejects_bad_mix(tmp_path, capsys):
    args = build_parser().parse_args(["--mix", "abc"])
    with pytest.raises(ConfigError):
        apply_cli(ExperimentConfig(), args)
    # A bad --runs is reported with the bad --mix, not by argparse alone.
    assert main(["--runs", "abc", "--mix", "x", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "--mix: could not convert string to float: 'x'",
        "--runs: invalid literal for int() with base 10: 'abc'"]
    assert not (tmp_path / "out").exists()


def test_run_seed_is_deterministic_and_distinct():
    a = run_seed(1, 0.5, 0, 3)
    b = run_seed(1, 0.5, 0, 3)
    assert np.array_equal(a.generate_state(4), b.generate_state(4))

    keys = set()
    for mix in (1.0, 0.75, 0.5, 0.25, 0.0):
        for mode_index in (0, 1):
            for r in range(20):
                keys.add(run_seed(1, mix, mode_index, r).spawn_key)
    assert len(keys) == 200


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = fast_experiment(tmp_path)
    buf = io.StringIO()
    results = run_experiment(cfg, stdout=buf)
    assert set(results) == {("standard", 0.5)}
    agg = results[("standard", 0.5)]
    assert agg.n_runs == 2
    assert agg.pooled.opportunities.sum() > 0

    out = cfg.out_dir
    csv_path = out / "prr_standard_50.csv"
    assert csv_path.exists()
    assert read_csv(csv_path)
    assert (out / "plot_prr.py").exists()
    text = buf.getvalue()
    assert "2 runs (2 per point)" in text
    assert "PRR@100m" in text


def test_run_experiment_verbose_lists_runs(tmp_path):
    cfg = fast_experiment(tmp_path, verbose=True, runs=1)
    buf = io.StringIO()
    run_experiment(cfg, stdout=buf)
    assert "run mode=standard mix=0.5 idx=0" in buf.getvalue()


def test_run_experiment_reruns_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = fast_experiment(tmp_path, out_dir=out)
        run_experiment(cfg, stdout=io.StringIO())
    for name in ("prr_standard_50.csv", "plot_prr.py"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_experiment_rejects_invalid_config(tmp_path):
    cfg = fast_experiment(tmp_path)
    cfg.mix_fractions = [1.5]
    with pytest.raises(ConfigError):
        run_experiment(cfg, stdout=io.StringIO())
    assert not (cfg.out_dir / "plot_prr.py").exists()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    # The mix comes from mix_fractions (or --mix) alone.
    cfg_path = write_config(tmp_path, FAST_CONFIG + "itsg5_fraction = 0.1\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "unknown key 'itsg5_fraction'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    cfg_path = write_config(tmp_path)
    ok_args = ["--config", str(cfg_path), "--mix", "1.0", "--mode", "standard",
               "--runs", "1", "--seed", "9", "--out", str(tmp_path / "out")]
    assert main(ok_args) == 0
    assert (tmp_path / "out" / "prr_standard_100.csv").exists()

    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    bad_out = ["--config", str(cfg_path), "--mix", "1.0", "--mode", "standard",
               "--runs", "1", "--out", str(blocker / "sub")]
    assert main(bad_out) == 2
    assert "run failed" in capsys.readouterr().err


def test_main_rejects_bad_cli_values(tmp_path, capsys):
    assert main(["--mode", "turbo", "--out", str(tmp_path)]) == 1
    assert "unknown mode" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["master_seed must be >= 0"]
    assert main(["--mix", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "--mix: expected a finite number, got 'nan'"]
    assert not out.exists()


def test_main_rejects_an_empty_output_directory(tmp_path, monkeypatch, capsys):
    # An empty out_dir would otherwise write the results into the working directory.
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, FAST_CONFIG + "out_dir =\n")
    assert main(["--config", str(cfg_path), "--mix", "1.0", "--mode", "standard"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{cfg_path}:7: bad value for out_dir: expected a directory, got ''"]
    assert main(["--config", str(write_config(tmp_path, FAST_CONFIG)), "--out", ""]) == 1
    assert capsys.readouterr().err.splitlines() == ["--out: expected a directory, got ''"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg_path.name]


def _value(*choices) -> st.SearchStrategy[str]:
    """A key's value text, drawn from strategies and from listed values."""
    return st.one_of(*(c if isinstance(c, st.SearchStrategy) else st.just(c)
                       for c in choices)).map(str)


def _floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False)


# Values for every flat-file key, in and out of range, bounded so that an
# accepted config runs in well under a second: at most 40 vehicles and 0.8 s
# of simulated time. The sizes near scenario.MAX_VEHICLES and engine.MAX_BINS
# are only validated. out_dir is not drawn: each example writes to its own
# directory. Curve values name a file in the test's curve directory.
KEY_VALUES = {
    "road_length_m": _value(_floats(-50, 500), 0, "nan", 30_000, 40_000),
    "lanes_per_direction": _value(st.integers(-1, 4), "1.5"),
    "lane_width_m": _value(_floats(-1, 6)),
    "density_veh_per_km": _value(_floats(-5, 80), 0, "inf", 1e5),
    "speed_mps": _value(_floats(-1, 60)),
    "tx_power_dbm": _value(_floats(-10, 30)),
    "tx_gain_db": _value(_floats(-3, 6)),
    "rx_gain_db": _value(_floats(-3, 6)),
    "noise_figure_db": _value(_floats(0, 12), "nan"),
    "bandwidth_hz": _value(_floats(1e6, 2e7), 0, -1),
    "carrier_ghz": _value(_floats(1, 6), 0),
    "shadowing_sigma_db": _value(_floats(-1, 8)),
    "shadowing_decorr_m": _value(_floats(1, 50), 0),
    "payload_bytes": _value(st.integers(-10, 1000), "abc"),
    "base_period_ms": _value(20, 50, 100, 100.5, 300, 0, -10),
    "itsg5_jitter_ms": _value(_floats(-1, 10), 200),
    "per_packet_jitter": _value("true", "false", "maybe"),
    "aifs_us": _value(st.integers(-1, 200)),
    "slot_us": _value(st.integers(0, 20)),
    "cw_max_slots": _value(st.integers(-1, 63)),
    "cca_threshold_dbm": _value(_floats(-100, -50)),
    "preamble_threshold_dbm": _value(_floats(-110, -60), "none"),
    "mcs_data_rate_bps": _value(_floats(1e4, 3e7)),
    "keep_probability": _value(_floats(-0.1, 1.1)),
    "reselection_counter_min": _value(st.integers(0, 20)),
    "reselection_counter_max": _value(st.integers(0, 20)),
    "sensing_window_ttis": _value(st.integers(0, 2000), 100, 1000),
    "best_fraction": _value(_floats(-0.1, 1.1)),
    "decode_threshold_dbm": _value(_floats(-130, -80)),
    "reservation_expiry_ttis": _value(st.integers(-1, 2000)),
    "warm_up_s": _value(_floats(-0.1, 0.3)),
    "measure_s": _value(_floats(-0.1, 0.5), 0),
    "mobility_update_ms": _value(st.integers(-1, 200)),
    "relevance_margin_db": _value(_floats(-10, 30), "inf", "-inf", "nan"),
    "lte_rx_counts_itsg5_interference": _value("true", "false"),
    "max_distance_m": _value(250, 300, 500, 505, 0, -1, "nan"),
    "bin_width_m": _value(5, 10, 25, 30, 0.005, 0.004, 1e-300, 0),
    "itsg5_per_curve_csv": _value("valid.csv", "missing.csv", "malformed.csv"),
    "ltev2x_per_curve_csv": _value("valid.csv", "missing.csv", "malformed.csv"),
    "mix_fractions": st.lists(_floats(-0.5, 1.5), min_size=1, max_size=3).map(
        lambda xs: "[" + ", ".join(map(str, xs)) + "]"),
    "modes": _value("standard", "constrained", "standard, constrained", "turbo"),
    "runs": _value(1, 0, -1, "x"),
    "master_seed": _value(st.integers(-2, 2**40)),
    "jobs": _value(1, 0, "1.5"),
}


@pytest.fixture(scope="module")
def curve_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves")
    write_curve(path / "valid.csv", PerCurve.three_point(2.0))
    (path / "malformed.csv").write_text("sinr_db,per\n0.0,0.5\nnope,0.1\n")
    return path


def test_key_values_cover_every_key():
    assert set(KEY_VALUES) == set(_KEYS) - {"out_dir"}


@settings(max_examples=200)
@given(drawn=st.sets(st.sampled_from(sorted(KEY_VALUES)), max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({k: KEY_VALUES[k] for k in keys})))
def test_any_config_file_is_rejected_or_runs_with_its_identities(
        tmp_path_factory, curve_dir, drawn):
    work = tmp_path_factory.mktemp("drawn")
    lines = [FAST_CONFIG, "runs = 1", "mix_fractions = 0.5", "modes = standard",
             f"out_dir = {work / 'out'}"]
    for key, value in drawn.items():
        lines.append(f"{key} = {curve_dir / value if key.endswith('_csv') else value}")
    try:
        cfg = load_config(write_config(work, "\n".join(lines) + "\n"))
    except ConfigError:
        event("parse error")
        return
    if cfg.validate():
        event("rejected by validate()")
        with pytest.raises(ConfigError):
            run_experiment(cfg, stdout=io.StringIO())
        assert not (work / "out").exists()
        return
    road, engine = cfg.engine.road, cfg.engine
    assert vehicle_count(road) <= MAX_VEHICLES
    assert engine.max_distance_m / engine.bin_width_m <= MAX_BINS * (1 + 1e-12)
    if vehicle_count(road) > 40 or engine.max_distance_m / engine.bin_width_m > 1000:
        event("validated only")
        return  # a size near the limits: validated, not run
    event("ran")

    def checked_run(engine_cfg, seed):
        sim = Simulation(engine_cfg, seed)
        log = sim.run()
        check_accounting(sim, log)
        runs.append(log)
        return log

    runs = []
    with mock.patch.object(harness, "run_simulation", checked_run):
        results = run_experiment(cfg, stdout=io.StringIO())
    assert len(runs) == len(results) == len(cfg.mix_fractions) * len(cfg.modes)
    for (mode, mix), log in zip(results, runs):
        rows = read_csv(work / "out" / csv_filename(mode, mix))
        assert sum(r["opportunities"] for r in rows) == log.counters["rx_opportunities"]
