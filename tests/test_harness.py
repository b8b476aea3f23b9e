"""Experiment harness: config file parsing, CLI overrides, seeding, CSV runs."""

import io
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from coexsim.engine import EngineConfig
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
from coexsim.traffic import TrafficMode

from oracles import read_csv

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
    # sets the four exempt fields itself, from `modes`, `mix_fractions` and
    # the PER-curve paths.
    exempt = {"traffic.mode", "itsg5_fraction", "itsg5_per_curve", "ltev2x_per_curve"}
    cfg = EngineConfig()
    leaves = set()
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
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
])
def test_main_rejects_configs_without_meaningful_results(tmp_path, capsys, lines, message):
    cfg_path = write_config(tmp_path, FAST_CONFIG + lines + "\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message.format(path=cfg_path)]
    assert not (tmp_path / "out").exists()


def test_main_reports_curve_and_validation_errors_together(tmp_path, capsys):
    missing = tmp_path / "no_such_curve.csv"
    cfg_path = write_config(tmp_path, FAST_CONFIG + f"itsg5_per_curve_csv = {missing}\n")
    assert main(["--config", str(cfg_path), "--runs", "0",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert "no_such_curve.csv" in err[0]
    assert err[1] == "runs must be >= 1"
    assert not (tmp_path / "out").exists()


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
