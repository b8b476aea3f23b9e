"""Per-layer tracing of coexsim from outside the package.

A Tracer replaces public functions and methods of coexsim with wrappers that
record one span (name, start, end, parent) per call, plus counts, in memory.
Functions the engine or harness imported by name are replaced in the
importing module, since that is where the name is looked up at call time.
`remove()` puts every original back.

Sweep runs execute in forked pool workers, which inherit the installed
wrappers. RunRecorder wraps `coexsim.harness.run_simulation` so that each run
appends its host time, transmission count and, when asked, its folded
per-layer totals and the problems the single-run checks find, to a file that
the parent reads after the sweep.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from coexsim import channel, engine, harness, mac_itsg5, mac_ltev2x, results, traffic

from perfbench import checks

LAYERS = ("engine", "mac_itsg5", "mac_ltev2x", "channel", "scenario", "traffic",
          "results", "harness")

# (owner, attribute, span name); the layer is the span name's first part.
TARGETS = (
    (engine.Simulation, "__init__", "engine.init"),
    (engine.Simulation, "run", "engine.run"),
    (engine.Simulation, "start_tx", "engine.start_tx"),
    (mac_itsg5.CsmaMac, "on_busy", "mac_itsg5.on_busy"),
    (mac_itsg5.CsmaMac, "on_idle", "mac_itsg5.on_idle"),
    (mac_itsg5.CsmaMac, "on_timer", "mac_itsg5.on_timer"),
    (mac_itsg5.CsmaMac, "on_packet_ready", "mac_itsg5.on_packet_ready"),
    (mac_itsg5.CsmaMac, "on_tx_complete", "mac_itsg5.on_tx_complete"),
    (mac_ltev2x.SpsScheduler, "note_decode", "mac_ltev2x.note_decode"),
    (mac_ltev2x.SpsScheduler, "select_resource", "mac_ltev2x.select_resource"),
    (mac_ltev2x.SpsScheduler, "on_generation", "mac_ltev2x.on_generation"),
    (mac_ltev2x.SensingHistory, "finalize", "mac_ltev2x.finalize"),
    (engine, "path_loss_db", "channel.path_loss_db"),
    (channel.ShadowingField, "step", "channel.shadow_step"),
    (channel.PerCurve, "lookup", "channel.per_lookup"),
    (engine, "distance_matrix", "scenario.distance_matrix"),
    (engine, "advance_positions", "scenario.advance_positions"),
    (engine, "spawn", "scenario.spawn"),
    (traffic.CamSource, "generate", "traffic.generate"),
    (results.PrrHistogram, "record_many", "results.record_many"),
    (harness, "aggregate", "results.aggregate"),
    (harness, "write_csv", "results.write_csv"),
    (harness, "write_plot_script", "results.write_plot_script"),
    (harness, "summary_table", "results.summary_table"),
    (harness, "run_experiment", "harness.run_experiment"),
)

# Per-layer metric -> the span names whose inclusive time it sums.
SPAN_TIMES = {
    "mac_ltev2x.select_s": ("mac_ltev2x.select_resource",),
    "mac_ltev2x.finalize_s": ("mac_ltev2x.finalize",),
    "channel.path_loss_s": ("channel.path_loss_db",),
    "channel.shadow_step_s": ("channel.shadow_step",),
    "channel.per_lookup_s": ("channel.per_lookup",),
    "results.record_s": ("results.record_many",),
    "results.output_s": ("results.aggregate", "results.write_csv",
                         "results.write_plot_script", "results.summary_table"),
}
# Per-layer metric -> the span names whose calls it counts.
SPAN_CALLS = {
    "mac_itsg5.cca_callbacks": ("mac_itsg5.on_busy", "mac_itsg5.on_idle"),
    "mac_itsg5.timer_fires": ("mac_itsg5.on_timer",),
    "mac_ltev2x.note_decode_calls": ("mac_ltev2x.note_decode",),
    "mac_ltev2x.selections": ("mac_ltev2x.select_resource",),
    "channel.per_lookup_calls": ("channel.per_lookup",),
    "results.record_calls": ("results.record_many",),
}
# Counts the wrappers add themselves.
WRAPPER_COUNTS = ("engine.events", "mac_itsg5.cca_callbacks_acted",
                  "mac_itsg5.timer_fires_stale", "results.rows")


class Tracer:
    """Spans and counts of one process, kept in flat arrays until folded."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self._layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("q")
        self.outer = array("b")  # 1 when no enclosing span has the same layer
        self.counts = Counter()
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self.names.index(name)
        lid = int(self._layer_of[nid])
        start, end, names, parent, outer = (self.start, self.end, self.name,
                                            self.parent, self.outer)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[lid] == 0)
            end.append(0.0)
            depth[lid] += 1
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[lid] -= 1

        return wrapper

    def _wrapper(self, name: str, fn):
        inner = self._span(name, fn)
        counts = self.counts
        if name in ("mac_itsg5.on_busy", "mac_itsg5.on_idle"):
            def cca(mac, now_us):
                before = (mac.phase, mac._token)
                inner(mac, now_us)
                if (mac.phase, mac._token) != before:
                    counts["mac_itsg5.cca_callbacks_acted"] += 1
            return cca
        if name == "mac_itsg5.on_timer":
            def on_timer(mac, now_us, token):
                if token != mac._token:
                    counts["mac_itsg5.timer_fires_stale"] += 1
                inner(mac, now_us, token)
            return on_timer
        if name == "results.record_many":
            def record_many(hist, tech_index, distances_m, successes):
                counts["results.rows"] += len(distances_m)
                inner(hist, tech_index, distances_m, successes)
            return record_many
        return inner

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        counts = self.counts

        def heappop(heap):
            counts["engine.events"] += 1
            return heapq.heappop(heap)

        self._saved.append((engine, "heapq", engine.heapq))
        engine.heapq = SimpleNamespace(heappush=heapq.heappush, heappop=heappop)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        for buf in (self.start, self.end, self.name, self.parent, self.outer):
            del buf[:]
        self.counts.clear()
        self._stack.clear()
        self._depth[:] = [0] * len(LAYERS)

    # -- reduction ------------------------------------------------------------

    def fold(self) -> dict[str, float]:
        """Per-layer totals of the spans and counts recorded so far.

        A span's self time is its duration minus its children's durations; a
        layer's inclusive time `<layer>.s` sums its outermost spans only, so
        re-entry through another layer is not counted twice.
        """
        n_names = len(self.names)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        outer = np.array(self.outer, dtype=bool)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        layer = self._layer_of[name]
        out: dict[str, float] = {}
        layer_self = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        layer_incl = np.bincount(layer[outer], weights=dur[outer], minlength=len(LAYERS))
        for lid, lname in enumerate(LAYERS):
            out[f"{lname}.s"] = float(layer_incl[lid])
            out[f"{lname}.self_s"] = float(layer_self[lid])
        name_time = np.bincount(name, weights=dur, minlength=n_names)
        name_calls = np.bincount(name, minlength=n_names)
        for metric, spans in SPAN_TIMES.items():
            out[metric] = float(sum(name_time[self.names.index(s)] for s in spans))
        for metric, spans in SPAN_CALLS.items():
            out[metric] = int(sum(name_calls[self.names.index(s)] for s in spans))
        for metric in WRAPPER_COUNTS:
            out[metric] = int(self.counts[metric])
        return out

    def write(self, path: Path) -> None:
        """Write the raw spans of this process, one array per field."""
        np.savez(path, names=np.array(self.names),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 name=np.array(self.name, dtype=np.uint16),
                 parent=np.array(self.parent, dtype=np.int64))


def merge(totals: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for t in totals:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return out


class RunRecorder:
    """Records every run the harness dispatches, in whichever process runs it.

    Each run appends one JSON line to `<record_dir>/runs-<pid>.jsonl`. With a
    tracer, a run in a pool worker starts from an empty trace and records its
    folded per-layer totals; runs in the parent stay in the parent's trace.
    With `check`, each run also records what the single-run checks find; the
    pending-CAM count they need is read from the finished `Simulation` by
    wrapping `Simulation.run`.
    """

    def __init__(self, record_dir: Path, tracer: Tracer | None = None, check: bool = False):
        self.record_dir = Path(record_dir)
        self.tracer = tracer
        self.check = check
        self._parent_pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.record_dir.mkdir(parents=True, exist_ok=True)
        original = harness.run_simulation
        tracer, parent_pid, record_dir = self.tracer, self._parent_pid, self.record_dir
        check, pending = self.check, []

        def run_simulation(config, seed):
            in_worker = tracer is not None and os.getpid() != parent_pid
            if in_worker:
                tracer.reset()
            t0 = time.perf_counter()
            log = original(config, seed)
            rec = {"host_s": time.perf_counter() - t0,
                   "tx": log.counters["tx_itsg5"] + log.counters["tx_ltev2x"]}
            if in_worker:
                rec["layers"] = tracer.fold()
                tracer.reset()
            if check:
                rec["key"] = (f"{config.traffic.mode.value}/{config.itsg5_fraction}/"
                              f"{seed.spawn_key[-1]}")
                rec["problems"] = checks.check_run(log, config, pending.pop())
            with open(record_dir / f"runs-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            return log

        if check:
            run = vars(engine.Simulation)["run"]

            def run_and_count_pending(sim):
                log = run(sim)
                pending.append(checks.pending_at_end(sim))
                return log

            self._saved.append((engine.Simulation, "run", run))
            engine.Simulation.run = run_and_count_pending
        self._saved.append((harness, "run_simulation", original))
        harness.run_simulation = run_simulation

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def collect(self) -> list[dict]:
        """Read and delete the records written since the last collect."""
        recs = []
        for path in sorted(self.record_dir.glob("runs-*.jsonl")):
            recs += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return recs
