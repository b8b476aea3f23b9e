"""The benchmark's four workloads and one timed or traced pass over each.

Single-process workloads run whole rounds of `runs_per_round` simulations
back to back; run j of `--seed s` uses `np.random.SeedSequence([s, j])`. The
sweep workload is one `run_experiment` call over the paper's full grid with
`--seed` as master seed.
"""

from __future__ import annotations

import hashlib
import io
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from coexsim import EngineConfig, ExperimentConfig, Simulation, harness
from coexsim.harness import run_seed
from coexsim.results import csv_filename

from perfbench import checks
from perfbench.tracing import RunRecorder, Tracer, merge


@dataclass(frozen=True)
class SingleWorkload:
    name: str
    engine: EngineConfig
    runs_per_round: int

    def seeds(self, seed: int) -> list[list[int]]:
        return [[seed, j] for j in range(self.runs_per_round)]

    def simulation(self, seed_entropy: list[int]) -> Simulation:
        return Simulation(self.engine, np.random.SeedSequence(seed_entropy))

    def first_simulation(self, seed: int) -> Simulation:
        return self.simulation(self.seeds(seed)[0])


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    experiment: ExperimentConfig

    def config(self, seed: int, out_dir: Path, jobs: int) -> ExperimentConfig:
        return replace(self.experiment, master_seed=seed, out_dir=out_dir, jobs=jobs)

    def grid(self) -> list[tuple]:
        """(mode, mix) points in run_experiment's order."""
        return [(mode, mix) for mode in self.experiment.modes
                for mix in self.experiment.mix_fractions]

    def point_engine(self, mode, mix) -> EngineConfig:
        """The engine configuration run_experiment builds for one point."""
        eng = self.experiment.engine
        return replace(eng, itsg5_fraction=mix, traffic=replace(eng.traffic, mode=mode))

    def first_simulation(self, seed: int) -> Simulation:
        mode, mix = self.grid()[0]
        mode_index = list(type(mode)).index(mode)
        return Simulation(self.point_engine(mode, mix), run_seed(seed, mix, mode_index, 0))


DEFAULT = EngineConfig()

WORKLOADS = {
    w.name: w for w in (
        SingleWorkload("g5_only", replace(DEFAULT, itsg5_fraction=1.0), 3),
        SingleWorkload("lte_only", replace(DEFAULT, itsg5_fraction=0.0), 2),
        SingleWorkload("mixed_dense", replace(
            DEFAULT, itsg5_fraction=0.5,
            road=replace(DEFAULT.road, density_veh_per_km=2 * DEFAULT.road.density_veh_per_km)), 1),
        SweepWorkload("sweep", ExperimentConfig(
            engine=replace(DEFAULT, measure_s=1.0), runs=2)),
    )
}


def sweep_jobs() -> int:
    """Pool size: the cores this process may use."""
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest finished child.

    Taken after the first timed round, so that it covers the same work however
    many rounds fit in the run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Outcome:
    """What one invocation measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


def _fail(outcome: Outcome, what: str) -> None:
    outcome.failed += 1
    print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)


def _check_failed(outcome: Outcome, what: str, problems: list[str]) -> None:
    """An operation whose outputs fail a check counts as failed."""
    if problems:
        outcome.failed += 1
        outcome.problems += [f"{what}: {p}" for p in problems]


# -- single-process workloads -------------------------------------------------

STRETCHES = 50


class ClockSampler:
    """Splits the host time of one `Simulation.run` by stretch of simulated time.

    A second thread reads the simulation's clock every `period` host seconds.
    The read waits until the simulating thread gives up the GIL at its next
    switch, so each (host time, simulated µs) pair is consistent and costs a
    few microseconds. The simulation is only read, never changed.
    """

    def __init__(self, sim: Simulation, period: float = 0.01):
        self.sim, self.period = sim, period
        self.points: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            self.points.append((time.perf_counter(), self.sim.now))

    def __enter__(self) -> ClockSampler:
        self.points.append((time.perf_counter(), 0))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self._stop.set()
        self._thread.join()
        self.points = [p for p in self.points if p[0] <= end] + [(end, self.sim.end_us)]

    def stretch_seconds(self) -> np.ndarray:
        """Host seconds spent in each of STRETCHES equal stretches of the run's
        simulated span; they sum to the run's host time."""
        host, sim_us = np.array(self.points, dtype=float).T
        marks = np.linspace(0.0, self.sim.end_us, STRETCHES + 1)[1:-1]
        return np.diff(np.concatenate(([host[0]], np.interp(marks, sim_us, host), [host[-1]])))


def single_pass(w: SingleWorkload, seed: int, outcome: Outcome) -> list[dict]:
    """One round: every seed once, checked. Returns per-run timings, with each
    run's host seconds per stretch of simulated time."""
    runs = []
    for entropy in w.seeds(seed):
        key = "/".join(map(str, entropy))
        outcome.attempted += 1
        try:
            t0 = time.perf_counter()
            sim = w.simulation(entropy)
            t1 = time.perf_counter()
            with ClockSampler(sim) as clock:
                log = sim.run()
            t2 = time.perf_counter()
        except Exception:
            _fail(outcome, f"{w.name} run {key}")
            continue
        digest = log.digest()
        problems = checks.check_run(log, w.engine, checks.pending_at_end(sim))
        if outcome.digests.setdefault(key, digest) != digest:
            problems.append(f"digest {digest} differs from an earlier run of the same "
                            f"seed ({outcome.digests[key]})")
        _check_failed(outcome, key, problems)
        c = log.counters
        runs.append({"key": key, "setup_s": t1 - t0, "run_s": t2 - t1,
                     "tx": c["tx_itsg5"] + c["tx_ltev2x"],
                     "stretch_s": clock.stretch_seconds()})
    return runs


def repeat_rounds(one_round, seconds: float) -> None:
    """Call `one_round()` at least once, and again while another round of the
    last one's length still ends within `seconds`; stop when it returns False."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not one_round():
            return
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def time_single(w: SingleWorkload, seed: int, seconds: float, outcome: Outcome) -> None:
    runs = []

    def one_round() -> bool:
        round_runs = single_pass(w, seed, outcome)
        for r in round_runs:
            print(f"{w.name} run {r['key']} setup_s {r['setup_s']:.4f} run_s {r['run_s']:.4f} "
                  f"tx {r['tx']}")
        runs.extend(round_runs)
        outcome.metrics.setdefault("peak_rss_mb", (peak_rss_mb(), "MB"))
        return bool(round_runs)

    repeat_rounds(one_round, seconds)
    m = outcome.metrics
    if not runs:
        m.update(tx_per_s=(0.0, "tx/s"), run_s=(0.0, "s"), sweep_s=(0.0, "s"))
        return
    # A typical run: the median over runs of each stretch's host time, summed.
    # A spell of host speed that covers a stretch in fewer than half of the
    # runs does not move it, while a change to any part of the run does.
    run_s = float(np.median([r["stretch_s"] for r in runs], axis=0).sum())
    host = statistics.median(r["setup_s"] for r in runs) + run_s
    m["tx_per_s"] = (statistics.fmean(r["tx"] for r in runs) / host, "tx/s")
    m["run_s"] = (run_s, "s")
    m["sweep_s"] = (w.runs_per_round * host, "s")


# -- sweep --------------------------------------------------------------------

def _output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sweep_pass(w: SweepWorkload, seed: int, out_dir: Path, jobs: int,
               outcome: Outcome) -> float | None:
    """One run_experiment call, its outputs checked. Returns its wall time."""
    cfg = w.config(seed, out_dir, jobs)
    n_runs = len(w.grid()) * cfg.runs
    outcome.attempted += n_runs
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        results = harness.run_experiment(cfg, stdout=io.StringIO())
        wall = time.perf_counter() - t0
    except Exception:
        _fail(outcome, f"sweep jobs={jobs}")
        outcome.failed += n_runs - 1
        return None
    for mode, mix in w.grid():
        present = tuple(n > 0 for n in checks.station_counts(w.point_engine(mode, mix)))
        _check_failed(outcome, f"{mode.value}/{mix}", checks.check_sweep_point(
            out_dir / csv_filename(mode.value, mix), results[(mode.value, mix)],
            cfg.runs, present))
    digest = _output_digest(out_dir)
    if outcome.digests.setdefault(str(seed), digest) != digest:
        _check_failed(outcome, str(seed), [f"outputs of jobs={jobs} differ from an "
                                           f"earlier sweep of the same seed"])
    return wall


def checked_sweep_pass(w: SweepWorkload, seed: int, work_dir: Path, jobs: int,
                       outcome: Outcome) -> None:
    """An untimed sweep_pass in which every run also goes through the
    single-run checks."""
    recorder = RunRecorder(work_dir / "records", check=True)
    recorder.install()
    try:
        sweep_pass(w, seed, work_dir / "checked", jobs, outcome)
        runs = recorder.collect()
    finally:
        recorder.remove()
    for r in runs:
        _check_failed(outcome, r["key"], r["problems"])


def time_sweep(w: SweepWorkload, seed: int, seconds: float, work_dir: Path,
               outcome: Outcome) -> None:
    recorder = RunRecorder(work_dir / "records")
    walls = []
    jobs = sweep_jobs()

    def one_round() -> bool:
        wall = sweep_pass(w, seed, work_dir / "timed", jobs, outcome)
        outcome.metrics.setdefault("peak_rss_mb", (peak_rss_mb(), "MB"))
        if wall is None:
            return False
        print(f"sweep call jobs {jobs} wall_s {wall:.4f}")
        walls.append(wall)
        return True

    recorder.install()
    try:
        repeat_rounds(one_round, seconds)
        runs = recorder.collect()
    finally:
        recorder.remove()
    if len(runs) != len(walls) * len(w.grid()) * w.experiment.runs:
        outcome.problems.append(f"{len(runs)} runs recorded for {len(walls)} sweeps: pool "
                                f"workers must be forked to inherit the recorder")
    # Untimed serial rerun: every run is checked, and the outputs must be
    # byte-identical to the pool's.
    checked_sweep_pass(w, seed, work_dir, 1, outcome)
    m = outcome.metrics
    tx_per_sweep = sum(r["tx"] for r in runs) / len(walls) if walls else 0.0
    m["tx_per_s"] = (tx_per_sweep / statistics.median(walls) if walls else 0.0, "tx/s")
    m["run_s"] = (statistics.median(r["host_s"] for r in runs) if runs else 0.0, "s")
    m["sweep_s"] = (statistics.median(walls) if walls else 0.0, "s")


def round_digests(w, seed: int, work_dir: Path) -> dict[str, str]:
    """Digests of one untimed round; the sweep runs serially."""
    outcome = Outcome()
    if isinstance(w, SweepWorkload):
        sweep_pass(w, seed, work_dir / "serial", 1, outcome)
    else:
        single_pass(w, seed, outcome)
    if outcome.failed or outcome.problems:
        raise RuntimeError(f"{w.name} seed {seed}: {outcome.failed} failed, {outcome.problems}")
    return outcome.digests


def time_workload(w, seed: int, seconds: float, work_dir: Path) -> Outcome:
    outcome = Outcome()
    if isinstance(w, SweepWorkload):
        time_sweep(w, seed, seconds, work_dir, outcome)
    else:
        time_single(w, seed, seconds, outcome)
    return outcome


# -- traced run ---------------------------------------------------------------

def trace_workload(w, seed: int, work_dir: Path) -> Outcome:
    """One untraced and one traced pass of the same inputs.

    Single-process workloads trace their first seed; the sweep traces one
    run_experiment call. The traced pass must reproduce the untraced digests.
    """
    plain, traced = Outcome(), Outcome()
    tracer = Tracer()
    if isinstance(w, SweepWorkload):
        jobs = sweep_jobs()
        recorder = RunRecorder(work_dir / "records")
        recorder.install()
        try:
            plain_s = sweep_pass(w, seed, work_dir / "plain", jobs, plain)
            plain_runs = recorder.collect()
        finally:
            recorder.remove()
        tracer.install()
        recorder = RunRecorder(work_dir / "records", tracer)
        recorder.install()
        try:
            traced_s = sweep_pass(w, seed, work_dir / "traced", jobs, traced)
            traced_runs = recorder.collect()
        finally:
            recorder.remove()
            tracer.remove()
        layers = merge([tracer.fold()] + [r["layers"] for r in traced_runs if "layers" in r])
        layers["harness.runs"] = len(traced_runs)
        busy = sum(r["host_s"] for r in plain_runs)
        layers["harness.pool_util"] = busy / (jobs * plain_s) if plain_s else 0.0
    else:
        one = replace(w, runs_per_round=1)
        t0 = time.perf_counter()
        single_pass(one, seed, plain)
        plain_s = time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            single_pass(one, seed, traced)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.remove()
        layers = tracer.fold()
        layers["harness.runs"] = 0
        layers["harness.pool_util"] = 0.0
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(work_dir / f"spans-{w.name}-{seed}.npz")

    outcome = Outcome(attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed,
                      problems=plain.problems + traced.problems, digests=plain.digests)
    if plain.digests != traced.digests:
        _check_failed(outcome, "trace", [f"traced digests {traced.digests} differ from "
                                         f"untraced {plain.digests}"])
    cca, fires = layers["mac_itsg5.cca_callbacks"], layers["mac_itsg5.timer_fires"]
    layers["mac_itsg5.cca_useful_ratio"] = (
        layers["mac_itsg5.cca_callbacks_acted"] / cca if cca else 0.0)
    layers["mac_itsg5.timer_useful_ratio"] = (
        1.0 - layers["mac_itsg5.timer_fires_stale"] / fires if fires else 0.0)
    layers["trace.untraced_s"] = plain_s or 0.0
    layers["trace.traced_s"] = traced_s or 0.0
    layers["trace.overhead"] = traced_s / plain_s if plain_s and traced_s else 0.0
    outcome.metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    return outcome


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio") or metric in ("harness.pool_util", "trace.overhead"):
        return "ratio"
    return "count"
