"""Self-tests of the benchmark's own code, on shrunk versions of its workloads.

    python3 -m pytest -q perfbench/tests
"""

import copy
import heapq
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import coexsim  # noqa: E402
from coexsim import channel, engine  # noqa: E402
from perfbench import checks  # noqa: E402
from perfbench.tracing import TARGETS, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    STRETCHES, WORKLOADS, Outcome, SingleWorkload, checked_sweep_pass, single_pass,
    sweep_pass, time_workload, trace_workload,
)


def shrink(w):
    """The workload on a 1 km road at two thirds of its density, 1.2 s long."""
    def small(eng):
        road = replace(eng.road, length_m=1000.0,
                       density_veh_per_km=eng.road.density_veh_per_km * 2 / 3)
        return replace(eng, road=road, warm_up_s=0.2, measure_s=1.0)
    if isinstance(w, SingleWorkload):
        return replace(w, engine=small(w.engine), runs_per_round=1)
    return replace(w, experiment=replace(w.experiment, engine=small(w.experiment.engine),
                                         runs=1))


SMALL = {name: shrink(w) for name, w in WORKLOADS.items()}


def finished_run(name, seed=3):
    w = SMALL[name]
    sim = w.first_simulation(seed)
    log = sim.run()
    return log, w.engine, checks.pending_at_end(sim)


@pytest.fixture(scope="module")
def mixed_run():
    return finished_run("mixed_dense")


def test_shrunk_single_workloads_pass_every_check():
    for name in ("g5_only", "lte_only", "mixed_dense"):
        outcome = Outcome()
        single_pass(SMALL[name], 5, outcome)
        assert outcome.attempted == 1 and outcome.failed == 0
        assert outcome.problems == [], name


def test_clock_sampler_splits_a_run_without_changing_it(tmp_path):
    w = SMALL["g5_only"]
    sampled = Outcome()
    (run,) = single_pass(w, 5, sampled)
    (entropy,) = w.seeds(5)
    plain = w.simulation(entropy).run()
    assert sampled.digests == {run["key"]: plain.digest()} and sampled.problems == []
    assert len(run["stretch_s"]) == STRETCHES and (run["stretch_s"] >= 0).all()
    assert run["stretch_s"].sum() == pytest.approx(run["run_s"], rel=0.01)

    timed = time_workload(SMALL["g5_only"], 5, 0.0, tmp_path)
    assert (timed.attempted, timed.failed) == (1, 0)
    assert all(v > 0 for v, unit in timed.metrics.values())


def test_sweep_outputs_checked_and_identical_across_jobs(tmp_path, monkeypatch):
    checked = []
    check_run = checks.check_run
    monkeypatch.setattr(checks, "check_run", lambda log, cfg, pending: (
        checked.append(cfg.traffic.mode), check_run(log, cfg, pending))[1])
    run = vars(engine.Simulation)["run"]
    outcome = Outcome()
    sweep_pass(SMALL["sweep"], 4, tmp_path / "pool", 2, outcome)
    checked_sweep_pass(SMALL["sweep"], 4, tmp_path, 1, outcome)
    assert outcome.failed == 0 and outcome.problems == []
    assert coexsim.harness.run_simulation is coexsim.engine.run
    assert vars(engine.Simulation)["run"] is run
    assert len(checked) == len(SMALL["sweep"].grid()) and len(set(checked)) == 2
    assert outcome.attempted == 2 * len(SMALL["sweep"].grid())

    # Outputs that differ from an earlier sweep of the same seed are reported.
    other = Outcome(digests={"4": "0" * 64})
    sweep_pass(SMALL["sweep"], 4, tmp_path / "pool", 2, other)
    assert len(other.problems) == 1 and "differ" in other.problems[0]
    assert other.failed == 1


def test_a_run_that_fails_a_check_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "RUN_CHECKS", checks.RUN_CHECKS + (
        lambda log, cfg, pending: "always",))
    outcome = Outcome()
    single_pass(SMALL["g5_only"], 5, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)

    outcome = Outcome()
    checked_sweep_pass(SMALL["sweep"], 4, tmp_path, 1, outcome)
    n_runs = len(SMALL["sweep"].grid())
    assert (outcome.attempted, outcome.failed) == (n_runs, n_runs)
    assert len(outcome.problems) == n_runs

    monkeypatch.setattr(checks, "check_sweep_point", lambda *args: ["bad csv"])
    outcome = Outcome()
    sweep_pass(SMALL["sweep"], 4, tmp_path / "pool", 2, outcome)
    assert (outcome.attempted, outcome.failed) == (n_runs, n_runs)


def test_sweep_point_check_rejects_corrupt_csv(tmp_path):
    w = SMALL["sweep"]
    cfg = w.config(2, tmp_path, 1)
    results = coexsim.run_experiment(cfg, stdout=io.StringIO())
    mode, mix = w.grid()[2]
    path = tmp_path / coexsim.results.csv_filename(mode.value, mix)
    agg = results[(mode.value, mix)]
    both = (True, True)
    assert checks.check_sweep_point(path, agg, cfg.runs, both) == []

    rows = path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[5] = str(int(fields[5]) + 1)
    path.write_text("\n".join([rows[0], ",".join(fields)] + rows[2:]) + "\n")
    assert any("opportunities" in p for p in checks.check_sweep_point(path, agg, cfg.runs, both))

    path.write_text("\n".join(rows[:1] + [r for r in rows[1:] if r.startswith("ItsG5")]) + "\n")
    assert checks.check_sweep_point(path, agg, cfg.runs, both)

    path.unlink()
    assert checks.check_sweep_point(path, agg, cfg.runs, both) == [f"{path.name}: missing"]


def corrupted(log, edit):
    bad = copy.deepcopy(log)
    edit(bad)
    return bad


def test_each_run_check_rejects_a_corrupted_runlog(mixed_run):
    log, cfg, pending = mixed_run
    assert checks.check_run(log, cfg, pending) == []
    lo, hi = checks.expected_cams(cfg)

    def bump(key, by=1):
        return lambda b: b.counters.__setitem__(key, b.counters[key] + by)

    def set_bin(field, t, b, value):
        return lambda bad: getattr(bad.histogram, field).__setitem__((t, b), value)

    opp = log.histogram.opportunities
    cases = [
        (checks.check_conservation, bump("tx_itsg5")),
        (checks.check_histogram_totals, set_bin("opportunities", 0, 7, opp[0, 7] + 1)),
        (checks.check_bin_bounds, set_bin("successes", 1, 7, opp[1, 7] + 1)),
        (checks.check_bin_bounds, bump("rx_halfduplex", log.counters["rx_opportunities"])),
        (checks.check_cam_count, bump("cams_generated", hi - log.counters["cams_generated"] + 1)),
        (checks.check_prr_shape, set_bin("successes", 0, 0, 0)),
    ]
    for check, edit in cases:
        assert check(log, cfg, pending) is None
        assert check(corrupted(log, edit), cfg, pending) is not None, check.__name__


def test_absent_tech_and_prr_far_checks():
    log, cfg, pending = finished_run("g5_only")
    assert checks.check_absent_tech(log, cfg, pending) is None
    bad = corrupted(log, lambda b: b.histogram.opportunities.__setitem__((1, 3), 1))
    assert checks.check_absent_tech(bad, cfg, pending) is not None

    def far_perfect(b):
        h = b.histogram
        h.successes[0, 25:30] = h.opportunities[0, 25:30]
        h.successes[0, 0:5] = h.opportunities[0, 0:5] - 1
    assert checks.check_prr_shape(corrupted(log, far_perfect), cfg, pending) is not None


def test_cam_count_bounds_are_exact_without_jitter():
    lte = SMALL["lte_only"].engine
    lo, hi = checks.expected_cams(lte)
    assert lo == hi == sum(checks.station_counts(lte)) * 12
    g5_lo, g5_hi = checks.expected_cams(SMALL["g5_only"].engine)
    assert g5_lo < g5_hi


def test_tracer_restores_every_wrapped_name():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.path_loss_db is not channel.path_loss_db
        single_pass(SMALL["mixed_dense"], 1, Outcome())
    finally:
        tracer.remove()
    assert engine.path_loss_db is channel.path_loss_db
    assert engine.heapq is heapq
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert tracer.fold()["mac_itsg5.cca_callbacks"] > 0


def counts(outcome):
    return {k: v for k, (v, unit) in outcome.metrics.items() if unit == "count"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_and_digests_match(name, tmp_path):
    first = trace_workload(SMALL[name], 6, tmp_path / "a")
    second = trace_workload(SMALL[name], 6, tmp_path / "b")
    assert first.failed == 0 and first.problems == []
    assert counts(first) == counts(second)
    assert first.digests == second.digests
    assert engine.path_loss_db is channel.path_loss_db
    c = counts(first)
    if name == "g5_only":
        assert c["mac_ltev2x.note_decode_calls"] == 0 and c["mac_itsg5.cca_callbacks"] > 0
    if name == "lte_only":
        assert c["mac_itsg5.cca_callbacks"] == 0 and c["mac_ltev2x.note_decode_calls"] > 0
    if name == "sweep":
        assert c["harness.runs"] == len(SMALL[name].grid())
        assert 0 < first.metrics["harness.pool_util"][0] <= 1.0
